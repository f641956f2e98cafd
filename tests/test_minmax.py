import numpy as np
import pytest

from quadgames import (
    Direction,
    OracleConfig,
    PartitionedQuadratic,
    dual_curve,
    duality_report,
    grid_minmax,
    lambda_curve,
    lambda_p,
    maxmin_threshold,
    minmax_threshold,
    solve_homogeneous,
    solve_linear_term,
    solve_trust_region,
)

from quadgames.sphere import Secular

from util import hard_case_instance, pinv, random_partitioned, random_psd


def gap_instance(d1=0.0, d2=0.0):
    one = np.array([[1.0]])
    return PartitionedQuadratic(one, one, one, np.array([d1]), np.array([d2]))


def separable_instance():
    return PartitionedQuadratic(
        np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
        np.array([1.0]), np.array([2.0]),
    )


def embed_trust_region(d_mat, d_vec) -> PartitionedQuadratic:
    n = d_mat.shape[0]
    return PartitionedQuadratic(
        np.zeros((0, 0)), np.zeros((0, n)), d_mat, np.zeros(0), d_vec
    )


def test_homogeneous_gap_instance():
    pq = gap_instance()
    mm = solve_homogeneous(pq, Direction.MINMAX)
    assert mm.value == pytest.approx(0.5, abs=1e-12)
    assert mm.lambda0 == pytest.approx(1.0, abs=1e-12)
    xm = solve_homogeneous(pq, Direction.MAXMIN)
    assert xm.value == pytest.approx(0.0, abs=1e-12)
    assert xm.lambda0 == pytest.approx(0.0, abs=1e-12)
    assert xm.value <= mm.value


def test_homogeneous_equal_thresholds_instance():
    # decoupled blocks make both thresholds coincide at ||M22||
    pq = PartitionedQuadratic(
        np.eye(2), np.zeros((2, 2)), np.diag([2.0, 1.0]),
        np.zeros(2), np.zeros(2),
    )
    mm = solve_homogeneous(pq, Direction.MINMAX)
    xm = solve_homogeneous(pq, Direction.MAXMIN)
    assert mm.value == pytest.approx(1.0, abs=1e-12)
    assert xm.value == pytest.approx(1.0, abs=1e-12)
    assert mm.lambda0 == pytest.approx(2.0, abs=1e-12)
    assert xm.lambda0 == pytest.approx(2.0, abs=1e-12)


def test_homogeneous_decoupled():
    pq = PartitionedQuadratic(
        np.eye(1), np.zeros((1, 2)), np.diag([2.0, 1.0]),
        np.zeros(1), np.zeros(2),
    )
    mm = solve_homogeneous(pq, Direction.MINMAX)
    assert mm.value == pytest.approx(1.0, abs=1e-12)
    assert mm.lambda0 == pytest.approx(2.0, abs=1e-12)


def test_homogeneous_rejects_linear_terms():
    with pytest.raises(ValueError):
        solve_homogeneous(gap_instance(d1=1.0), Direction.MINMAX)


def test_linear_term_separable():
    pq = separable_instance()
    for direction in Direction:
        sol = solve_linear_term(pq, direction)
        assert sol.value == pytest.approx(1.5, abs=1e-8)
        assert sol.lambda0 == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(sol.u_set.particular, [-1.0], atol=1e-8)
        rep = sol.w_set.representative()
        np.testing.assert_allclose(rep, [1.0], atol=1e-8)


def test_linear_term_delegates_when_homogeneous():
    pq = gap_instance()
    for direction in Direction:
        a = solve_linear_term(pq, direction)
        b = solve_homogeneous(pq, direction)
        assert abs(a.value - b.value) <= 1e-9
        assert abs(a.lambda0 - b.lambda0) <= 1e-8


def test_lambda_search_small_linear_term_root():
    pq = PartitionedQuadratic(
        np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
        np.zeros(1), np.array([0.1]),
    )
    lam0 = solve_linear_term(pq, Direction.MINMAX).lambda0
    # response norm 0.1/lam = 1 at lam = 0.1 > threshold 0
    assert lam0 == pytest.approx(0.1, abs=1e-8)


def test_lambda_search_root_separable():
    pq = separable_instance()
    assert solve_linear_term(pq, Direction.MINMAX).lambda0 == pytest.approx(
        2.0, abs=1e-8
    )


def test_derivative_identity_along_dual_curve():
    rng = np.random.default_rng(89)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pq = random_partitioned(rng, m, n, linear_scale=0.5)
        lam = minmax_threshold(pq) + float(rng.uniform(0.2, 2.0))
        d = pq.d

        def dual(x):
            return float(0.5 * x - 0.5 * d @ pinv(pq.assembled(x)) @ d)

        h = 1e-6
        fd = (dual(lam + h) - dual(lam - h)) / (2.0 * h)
        w_norm = np.linalg.norm((pinv(pq.assembled(lam)) @ d)[m:])
        analytic = 0.5 * (1.0 - w_norm**2)
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-7)


def test_unit_norm_representatives():
    rng = np.random.default_rng(97)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        pq = random_partitioned(rng, m, n, linear_scale=0.5)
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            rep = sol.w_set.representative()
            assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-9)


def test_grid_oracle_agreement_1d():
    rng = np.random.default_rng(101)
    cfg = OracleConfig(seed=7, samples=2000, grid_points=2000)
    for _ in range(50):
        pq = random_partitioned(rng, 1, 1, linear_scale=0.5)
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            oracle = grid_minmax(pq, cfg, direction)
            assert sol.value == pytest.approx(oracle, abs=1e-3)


def test_grid_oracle_agreement_2d():
    rng = np.random.default_rng(103)
    cfg = OracleConfig(seed=7, samples=2000, grid_points=400)
    for _ in range(10):
        pq = random_partitioned(rng, 2, 2, linear_scale=0.3)
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            oracle = grid_minmax(pq, cfg, direction)
            assert sol.value == pytest.approx(oracle, abs=5e-3)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_grid_oracle_agreement_wide_u(m, n):
    # Only w is sampled: MINMAX cuts over a u of up to 4 dimensions, and
    # MAXMIN solves the inner minimum over u exactly.
    rng = np.random.default_rng(109 + 10 * m + n)
    cfg = OracleConfig(seed=7, samples=2000)
    for _ in range(5):
        pq = random_partitioned(rng, m, n, linear_scale=0.5)
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            oracle = grid_minmax(pq, cfg, direction)
            assert sol.value == pytest.approx(oracle, abs=5e-3)


def test_empty_w_block_is_an_input_error():
    # The unit sphere in R^0 is empty; the lambda family has no sphere
    # constraint and keeps accepting an empty w block.
    pq = PartitionedQuadratic(
        np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)), np.array([1.0, 0.0]), np.zeros(0)
    )
    for direction in Direction:
        with pytest.raises(ValueError, match="w block is empty"):
            solve_linear_term(pq, direction)
    zero = PartitionedQuadratic(
        np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)), np.zeros(2), np.zeros(0)
    )
    for direction in Direction:
        with pytest.raises(ValueError, match="w block is empty"):
            solve_homogeneous(zero, direction)
    report = duality_report(pq, 1.0)
    assert report.minmax.value == pytest.approx(0.0)
    assert report.maxmin.value == pytest.approx(0.0)


def test_trust_region_embedding_matches_direct_solver():
    # A trust region is the sphere game with no u-player: both
    # directions and the maxmin curve give the direct solver's answers
    # exactly, hard case and lambda within tol of ||D|| included.
    rng = np.random.default_rng(107)
    for i in range(60):
        n = int(rng.integers(1, 5))
        if i % 3 == 0:
            d_mat, d_vec = hard_case_instance(rng, n, (0.5, 1.0, 2.0)[i % 9 // 3])
        else:
            d_mat = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            d_vec = rng.standard_normal(n)
        pq = embed_trust_region(d_mat, d_vec)
        direct = solve_trust_region(d_mat, d_vec)
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            assert sol.lambda0 == direct.lambda_p
            assert sol.value == direct.value
            w_set, w_star = sol.w_set, direct.w_star
            np.testing.assert_array_equal(w_set.particular, w_star.particular)
            np.testing.assert_array_equal(w_set.basis, w_star.basis)
        if i % 3:
            # the companion eigenvalue is defective in the hard case
            lam_ref = lambda_p(d_mat, d_vec)
            assert direct.lambda_p == pytest.approx(lam_ref, rel=1e-8, abs=1e-10)
        sec = Secular.of(d_mat, d_vec)
        top, half = sec.smax, 0.5 * sec.tol
        grids = ((top, top + 1.0), (top - half, top + 1.0), (top - 1.0, top + half))
        for lo, hi in grids:
            maxmin = [row[2] for row in lambda_curve(pq, lo, hi, 5)]
            dual = [row[1] for row in dual_curve(d_mat, d_vec, lo, hi, 5)]
            assert maxmin == dual


@pytest.mark.xfail(
    reason="Secular.range_tol reads r against ||d2|| + ||M12' pinv(M11) d1|| "
    "= 2e13, so it counts r = 1 as zero on S's top eigenspace",
    strict=True,
)
def test_maxmin_keeps_an_exact_vector_term_beside_large_data():
    # S = 1 and r = d2 - d1 = 1, both exact, so the trust region on
    # (S, r) has its root at lambda = 2 with the one maximizer w = +1.
    one = np.ones((1, 1))
    pq = PartitionedQuadratic(one, one, 2 * one, np.array([1e13]), np.array([1e13 + 1]))
    sol = solve_linear_term(pq, Direction.MAXMIN)
    assert sol.lambda0 == pytest.approx(2.0, rel=1e-12)
    assert sol.diagnostics["mode"] == "interior"
    assert sol.w_set.basis.shape[1] == 0
    np.testing.assert_allclose(sol.w_set.particular, [1.0], rtol=1e-12)


def test_rejects_indefinite_assembled_matrix():
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, 3.0 * one, one, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        solve_linear_term(pq, Direction.MINMAX)


def unbounded_instance():
    # d1 has a component along null(M11) = span(e2): u = -t e2 sends V
    # to -inf whatever w does
    return PartitionedQuadratic(
        np.diag([1.0, 0.0]), np.array([[0.5], [0.0]]), np.array([[1.0]]),
        np.array([0.0, 1.0]), np.array([0.3]),
    )


def test_linear_term_unbounded_returns_none():
    pq = unbounded_instance()
    for direction in Direction:
        assert solve_linear_term(pq, direction) is None
    # V really has no lower bound along the escape direction
    for t in (1e2, 1e4, 1e6):
        assert pq.evaluate(np.array([0.0, -t]), np.array([1.0])) < -0.5 * t


def test_linear_term_bounded_at_every_scale():
    # d in the range of M, scaled by 10^k: never reported unbounded
    rng = np.random.default_rng(113)
    for k in range(-8, 9):
        big = random_psd(rng, 4, rank=2)
        d = big @ rng.standard_normal(4)
        c = 10.0 ** k
        pq = PartitionedQuadratic(
            c * big[:2, :2], c * big[:2, 2:], c * big[2:, 2:], c * d[:2], c * d[2:]
        )
        for direction in Direction:
            assert solve_linear_term(pq, direction) is not None


def test_minmax_u_star_minimizes_on_gap_game():
    # ||M22|| = 1 exceeds the Schur-complement root lambda_TR(0, -0.1) =
    # 0.1, so the multiplier sticks at 1 and u* comes from the joint
    # stationary point there: u* = -0.2, value 0.46
    pq = gap_instance(d1=0.3, d2=0.2)
    sol = solve_linear_term(pq, Direction.MINMAX)
    assert sol.lambda0 == pytest.approx(1.0, abs=1e-12)
    assert sol.value == pytest.approx(0.46, abs=1e-12)
    np.testing.assert_allclose(sol.u_set.particular, [-0.2], atol=1e-12)
    u = sol.u_set.particular
    inner = max(pq.evaluate(u, np.array([w])) for w in (-1.0, 1.0))
    assert inner == pytest.approx(sol.value, abs=1e-12)
    assert sol.diagnostics["mode"] == "boundary"


def test_homogeneous_rank_deficient_games():
    rng = np.random.default_rng(127)
    for m in (1, 2):
        for n in (1, 2):
            for _ in range(40):
                big = random_psd(rng, m + n, rank=int(rng.integers(0, m + n)))
                pq = PartitionedQuadratic(
                    big[:m, :m], big[:m, m:], big[m:, m:], np.zeros(m), np.zeros(n)
                )
                thresholds = {
                    Direction.MINMAX: minmax_threshold(pq),
                    Direction.MAXMIN: maxmin_threshold(pq),
                }
                for direction, thr in thresholds.items():
                    sol = solve_homogeneous(pq, direction)
                    rep = sol.w_set.representative()
                    assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-12)
                    assert sol.lambda0 == pytest.approx(thr, abs=1e-9 * (1.0 + thr))
                    assert sol.value == pytest.approx(0.5 * sol.lambda0, abs=1e-12)


def test_residual_certificates_n100():
    # Beyond the oracles' dimension limit the answer is checked by its
    # certificate: unit w, lambda at or above the direction threshold,
    # the joint stationarity of M(lambda) z + d, and the value equal to
    # the objective at the returned point.
    rng = np.random.default_rng(131)
    m = n = 100
    pq = random_partitioned(rng, m, n, linear_scale=100.0)
    norm22 = float(np.linalg.eigvalsh(pq.m22)[-1])
    schur = pq.m22 - pq.m12.T @ np.linalg.solve(pq.m11, pq.m12)
    norm_s = float(np.linalg.eigvalsh(0.5 * (schur + schur.T))[-1])
    scale = np.linalg.norm(pq.assembled()) + np.linalg.norm(pq.d)
    for direction, thr in ((Direction.MINMAX, norm22), (Direction.MAXMIN, norm_s)):
        sol = solve_linear_term(pq, direction)
        assert sol.diagnostics["mode"] == "interior"
        u, w = sol.u_set.particular, sol.w_set.representative()
        z = np.concatenate([u, w])
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert sol.lambda0 >= thr
        residual = pq.assembled(sol.lambda0) @ z + pq.d
        assert np.linalg.norm(residual) <= 1e-10 * (scale + sol.lambda0) * (
            1.0 + np.linalg.norm(z)
        )
        assert sol.value == pytest.approx(pq.evaluate(u, w), rel=1e-10)
