"""Constructive solvers for quadratic games.

Linear solves with explicit solution sets, convex quadratic
minimization, quadratic saddle points, parametric Lagrangian duality,
the sphere trust-region problem via one eigendecomposition and a secular
root, and sphere-constrained minmax/maxmin as trust regions on a Schur
complement, each paired with brute-force oracles.

The oracle names (``OracleConfig``, ``fd_gradient``, ``grid_minmax``,
``sphere_max``, ``verify_saddle``) load ``quadgames.oracle`` on first
use, so an import of the package, and a cold ``solve`` or ``curve``,
loads no oracle code.
"""

from .game import (
    DualityReport,
    LambdaSolve,
    PartitionedQuadratic,
    SaddleSolution,
    duality_report,
    lambda_curve,
    maxmin_threshold,
    minmax_threshold,
    solve_saddle,
)
from .linalg import (
    AffineSolutionSet,
    LinearSolve,
    schur_complements,
    solve_linear,
)
from .minmax import (
    ConstrainedGameSolution,
    Direction,
    solve_homogeneous,
    solve_linear_term,
)
from .quadratic import QuadOptimum, QuadraticForm, minimize
from .sphere import (
    SphereSolutionSet,
    TrustRegionSolution,
    dual_curve,
    lambda_p,
    solve_trust_region,
)

__all__ = [
    "AffineSolutionSet",
    "ConstrainedGameSolution",
    "Direction",
    "DualityReport",
    "LambdaSolve",
    "LinearSolve",
    "OracleConfig",
    "PartitionedQuadratic",
    "QuadOptimum",
    "QuadraticForm",
    "SaddleSolution",
    "SphereSolutionSet",
    "TrustRegionSolution",
    "duality_report",
    "dual_curve",
    "fd_gradient",
    "grid_minmax",
    "lambda_curve",
    "lambda_p",
    "maxmin_threshold",
    "minimize",
    "minmax_threshold",
    "schur_complements",
    "solve_homogeneous",
    "solve_linear",
    "solve_linear_term",
    "solve_saddle",
    "solve_trust_region",
    "sphere_max",
    "verify_saddle",
]

_ORACLE_NAMES = ("OracleConfig", "fd_gradient", "grid_minmax", "sphere_max", "verify_saddle")


def __getattr__(name):
    # PEP 562: called only for a name not yet in the module dict.
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))
