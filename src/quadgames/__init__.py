"""Constructive solvers for quadratic games.

Linear solves with explicit solution sets, convex quadratic
minimization, quadratic saddle points, parametric Lagrangian duality,
the sphere trust-region problem via one eigendecomposition and a secular
root, and sphere-constrained minmax/maxmin as trust regions on a Schur
complement, each paired with brute-force oracles.
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
from .oracle import OracleConfig, fd_gradient, grid_minmax, sphere_max, verify_saddle
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
