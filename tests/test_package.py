import quadgames


def test_public_names():
    # The package exports the solvers, their result types and the
    # oracles; linear-algebra helpers stay in ``quadgames.linalg``.
    assert sorted(quadgames.__all__) == [
        "AffineSolutionSet", "ConstrainedGameSolution", "Direction",
        "DualityReport", "LambdaSolve", "LinearSolve", "OracleConfig",
        "PartitionedQuadratic", "QuadOptimum", "QuadraticForm",
        "SaddleSolution", "SphereSolutionSet", "TrustRegionSolution",
        "dual_curve", "duality_report", "fd_gradient", "grid_minmax",
        "is_psd", "lambda_curve", "lambda_p", "maximize",
        "maxmin_at_lambda", "maxmin_threshold", "minimize",
        "minmax_at_lambda", "minmax_threshold", "schur_complements",
        "solve_homogeneous", "solve_linear", "solve_linear_term",
        "solve_saddle", "solve_trust_region", "sphere_intersect",
        "sphere_max", "verify_saddle",
    ]
    assert all(hasattr(quadgames, name) for name in quadgames.__all__)
