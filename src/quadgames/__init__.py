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
    is_psd_partitioned,
    lambda_curve,
    maxmin_at_lambda,
    maxmin_threshold,
    minmax_at_lambda,
    minmax_threshold,
    solve_saddle,
    verify_saddle,
)
from .linalg import (
    AffineSolutionSet,
    LinearSolve,
    SchurPair,
    SvdFactors,
    is_psd,
    pinv,
    schur_complements,
    solve_linear,
    spectral_norm,
    svd,
)
from .minmax import (
    ConstrainedGameSolution,
    Direction,
    solve_homogeneous,
    solve_linear_term,
)
from .oracle import OracleConfig, fd_gradient, grid_minmax, sphere_max
from .quadratic import QuadOptimum, QuadraticForm, maximize, minimize
from .sphere import (
    SphereSolutionSet,
    TrustRegionSolution,
    companion_matrix,
    dual_curve,
    lambda_p,
    solve_trust_region,
    sphere_intersect,
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
    "SchurPair",
    "SphereSolutionSet",
    "SvdFactors",
    "TrustRegionSolution",
    "companion_matrix",
    "duality_report",
    "dual_curve",
    "fd_gradient",
    "grid_minmax",
    "is_psd",
    "is_psd_partitioned",
    "lambda_curve",
    "lambda_p",
    "maximize",
    "maxmin_at_lambda",
    "maxmin_threshold",
    "minimize",
    "minmax_at_lambda",
    "minmax_threshold",
    "pinv",
    "schur_complements",
    "solve_homogeneous",
    "solve_linear",
    "solve_linear_term",
    "solve_saddle",
    "solve_trust_region",
    "spectral_norm",
    "sphere_intersect",
    "sphere_max",
    "svd",
    "verify_saddle",
]
