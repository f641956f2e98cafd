import gc
import math
import sys
from collections import Counter

import numpy as np
import pytest

from quadgames import (
    Direction,
    PartitionedQuadratic,
    QuadraticForm,
    dual_curve,
    duality_report,
    lambda_curve,
    maxmin_threshold,
    minimize,
    minmax_threshold,
    solve_linear,
    solve_linear_term,
    solve_saddle,
    solve_trust_region,
    verify_saddle,
)
from quadgames.game import PSD_MESSAGE, schur_reduction
from quadgames.linalg import ROUNDING, TOL, norm, schur_complements
from quadgames.oracle import OracleConfig, _gaussian_rows, minmax_bracket, off_range
from quadgames.sphere import Secular

from util import (
    count_factorizations,
    random_partitioned,
    random_psd,
    random_saddle_instance,
    range_edge_game,
    rotation,
)


def bilinear(d1: float, d2: float) -> PartitionedQuadratic:
    z = np.zeros((1, 1))
    return PartitionedQuadratic(
        z, np.array([[1.0]]), z, np.array([d1]), np.array([d2])
    )


def gap_instance(c: float = 1.0) -> PartitionedQuadratic:
    one = np.array([[c]])
    return PartitionedQuadratic(one, one, one, np.zeros(1), np.zeros(1))


def unbounded_instance() -> PartitionedQuadratic:
    """d1 has a component outside R(M11): min over u of V is -inf."""
    return PartitionedQuadratic(
        np.diag([1.0, 0.0]), np.array([[0.5], [0.0]]), np.array([[1.0]]),
        np.array([0.0, 1.0]), np.array([0.3]),
    )


def threshold_game(c: float, r_vanishes_on_top: bool) -> PartitionedQuadratic:
    """S = c R'diag(2, 1)R and M22 = c R'diag(3, 1)R, so ||S|| = 2c <
    ||M22|| = 3c; r = c R'(0, 1) vanishes on S's top eigenspace, or
    r = c R'(1, 1) does not."""
    rot = rotation(0.7)
    d2 = c * np.array([0.5 if r_vanishes_on_top else 1.5, 1.0])
    return PartitionedQuadratic(
        np.array([[c]]), c * np.array([[1.0, 0.0]]) @ rot,
        rot.T @ (c * np.diag([3.0, 1.0])) @ rot, np.array([0.5 * c]), rot.T @ d2,
    )


def grid_saddle_values(pq, points):
    """Nested grid estimates of (minmax, maxmin) over a box.

    Independent of the closed-form path: both values are read straight
    off the tabulated payoffs.
    """
    m, n = pq.u_dim, pq.w_dim
    big = pq.assembled()
    box = 2.0 * (1.0 + np.linalg.norm(np.linalg.pinv(big) @ pq.d))
    axis = np.linspace(-box, box, points)
    u_grid = np.stack(
        np.meshgrid(*([axis] * m), indexing="ij"), axis=-1
    ).reshape(-1, m)
    w_grid = np.stack(
        np.meshgrid(*([axis] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    quad_u = 0.5 * np.einsum("ij,ij->i", u_grid @ pq.m11, u_grid) + u_grid @ pq.d1
    quad_w = 0.5 * np.einsum("ij,ij->i", w_grid @ pq.m22, w_grid) + w_grid @ pq.d2
    # Row u, column w of the payoff table is [u'M12, 1] . [w; quad_w]
    # + quad_u: one matmul per chunk into a reused buffer.
    left = np.column_stack([u_grid @ pq.m12, np.ones(len(u_grid))])
    right = np.vstack([w_grid.T, quad_w])
    chunk = 256
    buffer = np.empty((chunk, len(w_grid)))
    minmax = math.inf
    inner_min = np.full(len(w_grid), math.inf)
    for lo in range(0, len(u_grid), chunk):
        hi = min(lo + chunk, len(u_grid))
        table = buffer[: hi - lo]
        np.matmul(left[lo:hi], right, out=table)
        table += quad_u[lo:hi, None]
        minmax = min(minmax, float(table.max(axis=1).min()))
        np.minimum(inner_min, table.min(axis=0), out=inner_min)
    return minmax, float(inner_min.max())


def test_saddle_bilinear():
    sol = solve_saddle(bilinear(3.0, 5.0))
    assert sol is not None
    assert sol.value == pytest.approx(-15.0, abs=1e-12)
    np.testing.assert_allclose(sol.u_star, [-5.0], atol=1e-12)
    np.testing.assert_allclose(sol.w_star, [-3.0], atol=1e-12)
    assert sol.solutions.dim == 0


def test_saddle_decoupled():
    pq = PartitionedQuadratic(
        np.eye(2), np.zeros((2, 2)), -np.eye(2),
        np.array([1.0, 2.0]), np.array([3.0, 4.0]),
    )
    sol = solve_saddle(pq)
    assert sol is not None
    np.testing.assert_allclose(sol.u_star, [-1.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(sol.w_star, [3.0, 4.0], atol=1e-12)
    assert sol.value == pytest.approx(-0.5 * 5.0 + 0.5 * 25.0, abs=1e-12)


def test_saddle_zero_game():
    z = np.zeros((1, 1))
    pq = PartitionedQuadratic(z, z, z, np.zeros(1), np.zeros(1))
    sol = solve_saddle(pq)
    assert sol is not None
    assert sol.value == 0.0
    assert sol.solutions.dim == 2


def test_saddle_no_solution_off_range():
    z = np.zeros((1, 1))
    pq = PartitionedQuadratic(z, z, z, np.array([1.0]), np.zeros(1))
    assert solve_saddle(pq) is None


def test_saddle_sign_conditions_enforced():
    one = np.array([[1.0]])
    with pytest.raises(ValueError):
        solve_saddle(PartitionedQuadratic(-one, one, -one, np.zeros(1), np.zeros(1)))
    with pytest.raises(ValueError):
        solve_saddle(PartitionedQuadratic(one, one, one, np.zeros(1), np.zeros(1)))


def test_verify_saddle_accepts_and_refutes():
    pq = bilinear(3.0, 5.0)
    assert verify_saddle(pq, np.array([-5.0]), np.array([-3.0]))
    assert not verify_saddle(pq, np.array([0.0]), np.array([0.0]))
    z = np.zeros((1, 1))
    zero = PartitionedQuadratic(z, z, z, np.zeros(1), np.zeros(1))
    assert verify_saddle(zero, np.zeros(1), np.zeros(1))


def test_verify_saddle_refuses_no_samples_and_bad_seeds():
    # (5, 5) is no saddle point of u^2/2 - w^2/2; with no draws there was
    # nothing to refute it, so the check passed.
    pq = PartitionedQuadratic(
        np.eye(1), np.zeros((1, 1)), -np.eye(1), np.zeros(1), np.zeros(1)
    )
    five = np.array([5.0])
    assert not verify_saddle(pq, five, five, samples=200)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_saddle(pq, five, five, samples=samples)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        verify_saddle(pq, five, five, seed=-1)
    for bad in ({"samples": 2.0}, {"samples": True}, {"seed": 1.5},
                {"seed": False}, {"seed": "1"}):
        with pytest.raises(TypeError, match="must be an integer"):
            verify_saddle(pq, five, five, **bad)
    # Integer types numpy hands out, and seeds of 2**64 and above, work.
    for seed in (np.int64(3), np.uint64(2**64 - 1), 2**64, 2**70):
        assert not verify_saddle(pq, five, five, samples=np.int32(50), seed=seed)
    assert verify_saddle(pq, np.zeros(1), np.zeros(1), seed=2**70)


def _verify_saddle_loop(pq, u_star, w_star, samples, seed):
    """Per-sample reference for the array pass of ``verify_saddle``:
    sample i moves u* by the first u_dim entries of draw row i and w* by
    the rest, and breaks an inequality by more than ROUNDING (||M||_F
    r^2 + ||d|| r), r = 1 + ||u*|| + ||w*|| the draws' spread."""
    center = pq.evaluate(u_star, w_star)
    scale = 1.0 + float(np.linalg.norm(u_star) + np.linalg.norm(w_star))
    size = np.linalg.norm(pq.assembled()) * scale**2 + np.linalg.norm(pq.d) * scale
    tol = ROUNDING * size
    for i in range(samples):
        g = scale * _gaussian_rows(seed, pq.u_dim + pq.w_dim, i, i + 1)[0]
        u = u_star + g[: pq.u_dim]
        w = w_star + g[pq.u_dim :]
        if pq.evaluate(u_star, w) > center + tol:
            return False
        if pq.evaluate(u, w_star) < center - tol:
            return False
    return True


def test_verify_saddle_matches_the_per_sample_loop():
    rng = np.random.default_rng(8)
    verdicts = set()
    for trial in range(60):
        p, n = (int(k) for k in rng.integers(0, 4, size=2))
        c = 10.0 ** rng.choice([-6, 0, 6])
        a, b = rng.standard_normal((p, p)), rng.standard_normal((n, n))
        pq = PartitionedQuadratic(
            c * a @ a.T, c * rng.standard_normal((p, n)), -c * b @ b.T,
            c * rng.standard_normal(p), c * rng.standard_normal(n),
        )
        sol = solve_saddle(pq)
        u, w = (sol.u_star, sol.w_star) if sol else (np.zeros(p), np.zeros(n))
        if trial % 2:
            u, w = u + 1e-3 * rng.standard_normal(p), w + 1e-3 * rng.standard_normal(n)
        expected = _verify_saddle_loop(pq, u, w, 200, trial)
        assert verify_saddle(pq, u, w, samples=200, seed=trial) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_saddle_stationarity_and_verifier_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pq = random_saddle_instance(rng, m, n)
        sol = solve_saddle(pq)
        assert sol is not None
        grad = pq.assembled() @ sol.solutions.particular + pq.d
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(pq.d))
        assert verify_saddle(pq, sol.u_star, sol.w_star)


def test_grid_oracle_matches_saddle_value_1d():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pq = random_saddle_instance(rng, 1, 1, definite=True)
        sol = solve_saddle(pq)
        assert sol is not None
        minmax, maxmin = grid_saddle_values(pq, points=400)
        assert minmax == pytest.approx(sol.value, abs=2e-2)
        assert maxmin == pytest.approx(sol.value, abs=2e-2)


def test_grid_oracle_matches_saddle_value_2d():
    rng = np.random.default_rng(47)
    for _ in range(8):
        pq = random_saddle_instance(rng, 2, 2, definite=True)
        sol = solve_saddle(pq)
        assert sol is not None
        minmax, maxmin = grid_saddle_values(pq, points=120)
        assert minmax == pytest.approx(sol.value, abs=2e-2)
        assert maxmin == pytest.approx(sol.value, abs=2e-2)


def test_thresholds_gap_instance():
    pq = gap_instance()
    assert minmax_threshold(pq) == pytest.approx(1.0, abs=1e-12)
    assert maxmin_threshold(pq) == pytest.approx(0.0, abs=1e-12)


def test_threshold_ordering_random():
    rng = np.random.default_rng(53)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pq = random_partitioned(rng, m, n)
        assert maxmin_threshold(pq) <= minmax_threshold(pq) + 1e-9


def test_minmax_at_lambda_separable():
    pq = PartitionedQuadratic(
        np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
        np.array([1.0]), np.array([2.0]),
    )
    ls = duality_report(pq, 2.0).minmax
    assert ls.finite
    assert ls.value == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(ls.u_set.particular, [-1.0], atol=1e-12)
    np.testing.assert_allclose(ls.w_set.particular, [1.0], atol=1e-12)


def test_lambda_solves_on_gap_instance():
    pq = gap_instance()
    rep = duality_report(pq, 0.5)
    assert not rep.minmax.finite
    xm = rep.maxmin
    assert xm.finite and xm.value == pytest.approx(0.25, abs=1e-12)
    mm = duality_report(pq, 1.5).minmax
    assert mm.finite and mm.value == pytest.approx(0.75, abs=1e-12)
    assert not duality_report(pq, -0.5).maxmin.finite


def test_duality_report_statuses():
    pq = gap_instance()
    assert duality_report(pq, -0.5).status == "both_infinite"
    assert duality_report(pq, 0.5).status == "infinite_gap"
    rep = duality_report(pq, 1.5)
    assert rep.status == "strong_duality"
    assert rep.value == pytest.approx(0.75, abs=1e-12)


def test_duality_report_evaluates_the_family_once(monkeypatch):
    # One response at lam serves both orders, and they share its u set.
    calls = []
    response = Secular.response

    def counted(self, lam):
        calls.append(lam)
        return response(self, lam)

    monkeypatch.setattr(Secular, "response", counted)
    pq = random_partitioned(np.random.default_rng(5), 3, 2)
    rep = duality_report(pq, minmax_threshold(pq) + 1.0)
    assert rep.status == "strong_duality" and len(calls) == 1
    assert rep.minmax.u_set is rep.maxmin.u_set


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scalars_are_input_errors(bad):
    # As non-finite array entries are: bad input is never an answer.
    one, pq = np.array([[1.0]]), gap_instance()
    for call in (
        lambda: duality_report(pq, bad),
        lambda: duality_report(unbounded_instance(), bad),
        lambda: lambda_curve(pq, bad, 2.0, 5),
        lambda: lambda_curve(pq, 0.0, bad, 5),
        lambda: dual_curve(one, np.ones(1), bad, 2.0, 5),
        lambda: dual_curve(one, np.ones(1), 0.0, bad, 5),
        lambda: QuadraticForm(one, np.ones(1), bad),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            call()


def test_lambda_curve_gap_instance():
    rows = lambda_curve(gap_instance(), 0.0, 2.0, 5)
    lams = [r[0] for r in rows]
    np.testing.assert_allclose(lams, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert rows[0][1] == math.inf and rows[1][1] == math.inf
    for lam, mm, xm in rows[2:]:
        assert mm == pytest.approx(lam / 2.0, abs=1e-12)
        assert xm == pytest.approx(lam / 2.0, abs=1e-12)
    for lam, _, xm in rows[:2]:
        assert xm == pytest.approx(lam / 2.0, abs=1e-12)


def test_norms_equal_thresholds_coincide():
    # the thresholds agree even though the assembled matrix is not PSD,
    # so only the threshold formulas apply to this instance
    pq = PartitionedQuadratic(
        np.diag([1.0, 0.0]), np.eye(2), np.eye(2), np.zeros(2), np.zeros(2)
    )
    assert minmax_threshold(pq) == pytest.approx(1.0, abs=1e-12)
    assert maxmin_threshold(pq) == pytest.approx(1.0, abs=1e-12)


def test_lambda_curve_coupled_psd_instance():
    pq = PartitionedQuadratic(
        np.eye(2), np.zeros((2, 2)), np.diag([2.0, 1.0]),
        np.zeros(2), np.zeros(2),
    )
    rows = lambda_curve(pq, 1.5, 2.5, 3)
    assert rows[0][1] == math.inf and math.isfinite(rows[0][2]) is False
    assert math.isfinite(rows[1][1]) and math.isfinite(rows[1][2])
    assert rows[1][1] == pytest.approx(1.0, abs=1e-12)


def test_weak_and_strong_duality_random():
    rng = np.random.default_rng(59)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pq = random_partitioned(rng, m, n, linear_scale=0.5)
        thr_max = maxmin_threshold(pq)
        thr_min = minmax_threshold(pq)
        for lam in np.linspace(thr_max, thr_min + 2.0, 7):
            rep = duality_report(pq, float(lam))
            mm, xm = rep.minmax, rep.maxmin
            lo = xm.value if xm.finite else -math.inf
            hi = mm.value if mm.finite else math.inf
            assert lo <= hi + 1e-9
            if mm.finite and xm.finite:
                scale = 1.0 + abs(mm.value)
                assert abs(mm.value - xm.value) <= 1e-8 * scale


def test_inner_response_containment():
    rng = np.random.default_rng(61)
    for _ in range(30):
        pq = random_partitioned(rng, 2, 2, linear_scale=0.3)
        lam = minmax_threshold(pq) + float(rng.uniform(0.1, 2.0))
        mm = duality_report(pq, lam).minmax
        assert mm.finite
        u0, w0 = mm.u_set.particular, mm.w_set.particular
        m22l = pq.m22 - lam * np.eye(pq.w_dim)
        # inner stationarity: w0 is a best response to u0
        resid = m22l @ w0 + pq.m12.T @ u0 + pq.d2
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(pq.d))
        # outer stationarity for u0 on the Schur system
        resid_u = pq.m11 @ u0 + pq.m12 @ w0 + pq.d1
        assert np.linalg.norm(resid_u) <= 1e-8 * (1.0 + np.linalg.norm(pq.d))


def test_threshold_edge_agrees_with_dual_curve():
    # S = M22 = 1 and r = d2 = 1: at lambda = ||S|| = 1, r does not
    # vanish on S's top eigenspace, so max over w is unbounded there,
    # as on the trust region (S, r) itself.
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, np.zeros((1, 1)), one, np.zeros(1), one[0])
    rep = duality_report(pq, 1.0)
    assert not rep.maxmin.finite
    assert not rep.minmax.finite
    assert rep.status == "both_infinite" and rep.value is None
    rows = lambda_curve(pq, 0.0, 2.0, 3)
    dual = dual_curve(one, one[0], 0.0, 2.0, 3)
    assert rows[1] == (1.0, math.inf, math.inf)
    for (lam, mm, xm), (_, value, _) in zip(rows, dual):
        assert xm == mm == pytest.approx(value, abs=1e-12)


def test_unbounded_game_lambda_family():
    pq = unbounded_instance()
    rep = duality_report(pq, 2.0)
    assert rep.minmax is None
    assert rep.maxmin is None
    assert rep.status == "unbounded_below" and rep.value is None
    assert lambda_curve(pq, 0.0, 2.0, 3) == [
        (0.0, math.inf, -math.inf),
        (1.0, -math.inf, -math.inf),
        (2.0, -math.inf, -math.inf),
    ]


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("share", [0.5, 2.0])
@pytest.mark.parametrize("part", ["m12", "d1"])
def test_reduction_range_verdicts_at_their_bound(part, share, c):
    # The part of M12 off R(M11) is read against TOL ||M12||, that of d1
    # against TOL ||d||: at half its bound the game has an answer, at twice
    # it the reduction refuses M (M12) or calls the game unbounded below
    # (d1).  With ||d2|| = 1e6 ||d1||, d1's part at half its bound is 5e5
    # TOL ||d1||, so a test sized by ||d1|| would fail every d1 row.  The
    # MINMAX oracle and off_range read the same verdicts.
    pq = range_edge_game(c, **{part: share * TOL})
    if part == "m12" and share > 1.0:
        with pytest.raises(ValueError, match=PSD_MESSAGE):
            duality_report(pq, 3.0 * c)
        with pytest.raises(ValueError, match=r"R\(M12\) in R\(M11\)"):
            minmax_bracket(pq, OracleConfig())
        return
    unbounded = part == "d1" and share > 1.0
    status = duality_report(pq, 3.0 * c).status
    assert status == ("unbounded_below" if unbounded else "strong_duality")
    assert (minmax_bracket(pq, OracleConfig())[1] == -math.inf) == unbounded
    assert off_range(pq.m11, pq.d1, norm(pq.d))[2] == unbounded


@pytest.mark.parametrize("c", [1e-10, 1e-8, 1.0, 1e8])
def test_duality_statuses_scale_with_the_data(c):
    pq = gap_instance(c)
    expected = ["both_infinite", "infinite_gap", "strong_duality"]
    assert [duality_report(pq, c * t).status for t in (-0.5, 0.5, 1.5)] == expected
    assert duality_report(pq, 1.5 * c).value == pytest.approx(0.75 * c, rel=1e-12)
    rows = lambda_curve(pq, -0.5 * c, 1.5 * c, 3)
    assert [(math.isinf(mm), math.isinf(xm)) for _, mm, xm in rows] == [
        (True, True), (True, False), (False, False),
    ]
    assert rows[2][1] == pytest.approx(0.75 * c, rel=1e-12)


def test_lambda_family_factorization_count(monkeypatch):
    pq = random_partitioned(np.random.default_rng(67), 5, 5)
    lam = minmax_threshold(pq) + 1.0
    counts = count_factorizations(monkeypatch)
    duality_report(pq, lam)
    assert counts["svd"] == 0 and sum(counts.values()) <= 3
    counts.clear()
    lambda_curve(pq, 0.0, lam, 50)
    assert counts["svd"] == 0 and sum(counts.values()) <= 3


def test_threshold_factorization_count(monkeypatch):
    # ||M22|| is read by one eigvalsh; ||S|| by one eigh of M11, whose
    # split forms S, and one eigvalsh of S.
    pq = random_partitioned(np.random.default_rng(71), 4, 3)
    counts = count_factorizations(monkeypatch)
    minmax_threshold(pq)
    assert counts == {"eigvalsh": 1}
    counts.clear()
    maxmin_threshold(pq)
    assert counts == {"eigh": 1, "eigvalsh": 1}


@pytest.mark.parametrize(
    "grid",
    [(1.0, 1.0, 5), (2.0, 1.0, 5), (0.0, 1.0, 1), (0.0, 1.0, 3.0), (0.0, 1.0, True)],
)
def test_curves_reject_an_invalid_grid(grid):
    # Both curves validate their grid with one rule; a ``steps`` that is
    # no integer is a TypeError, as for ``verify_saddle``, not numpy's
    # error for a float or a bool read as 1.
    error = TypeError if isinstance(grid[2], (bool, float)) else ValueError
    one = np.array([[1.0]])
    with pytest.raises(error, match="lambda_min|steps"):
        lambda_curve(gap_instance(), *grid)
    with pytest.raises(error, match="lambda_min|steps"):
        dual_curve(one, np.ones(1), *grid)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("vanishes", [True, False])
def test_lambda_curve_rows_match_pointwise_evaluations(c, vanishes):
    # The array pass over the grid against the scalar evaluations, on
    # grids with points exactly on ||S|| and ||M22||.
    pq = threshold_game(c, vanishes)
    norm_s, norm22 = maxmin_threshold(pq), minmax_threshold(pq)
    edges = lambda_curve(pq, norm_s, norm22, 5)
    rows = edges + lambda_curve(pq, -c, 4.0 * c, 21)
    assert edges[0][1] == math.inf and math.isfinite(edges[0][2]) == vanishes
    assert math.isfinite(edges[-1][1]) and math.isfinite(edges[-1][2])
    for lam, mm, xm in rows:
        rep = duality_report(pq, lam)
        for got, at in ((mm, rep.minmax), (xm, rep.maxmin)):
            assert got == (pytest.approx(at.value, rel=1e-12) if at.finite else math.inf)


@pytest.mark.parametrize("steps", [2, 2000])
def test_curve_factorization_count_does_not_grow_with_steps(monkeypatch, steps):
    pq = random_partitioned(np.random.default_rng(71), 5, 5)
    counts = count_factorizations(monkeypatch)
    assert len(lambda_curve(pq, 0.0, 5.0, steps)) == steps
    assert counts == Counter(eigh=2, eigvalsh=1)
    counts.clear()
    assert len(dual_curve(pq.m22, pq.d2, 0.0, 5.0, steps)) == steps
    assert counts == Counter(eigh=1)


def _python_calls(fn) -> int:
    """The Python and C function calls fn() makes, counted by
    ``sys.setprofile`` (its "call" and "c_call" events), with the cyclic
    garbage collector off: a collection would count the finalizers of
    whatever earlier tests left behind."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


# One lambda_curve plus one dual_curve on the p = n = 20 game below make
# 251 calls with numpy 2.4.  The bound leaves room for numpy's own
# wrappers to change, and stays below the 369 calls the same curves make
# through np.linalg.norm, np.all and a sorted split of the spectrum.
CURVE_CALLS = 310


@pytest.mark.parametrize("steps", [2, 2000])
def test_curve_python_calls_are_bounded_and_do_not_grow_with_steps(steps):
    # A machine-independent cost count: the Python work of a curve is a
    # fixed number of calls around its factorizations, whatever its grid.
    pq = random_partitioned(np.random.default_rng(79), 20, 20)

    def curves(k):
        return lambda: (
            lambda_curve(pq, 0.0, 150.0, k), dual_curve(pq.m22, pq.d2, 0.0, 150.0, k)
        )

    calls = _python_calls(curves(steps))
    assert calls <= CURVE_CALLS
    assert calls == _python_calls(curves(100))


# The calls of one solve of each kind at n = 2 (numpy 2.4), on the
# instances below: at that size a solve is mostly Python, so these
# counts gate its cost where its wall time cannot.  The secular Newton
# steps, and with them the last three counts, vary a little by instance.
SOLVER_CALLS = {
    "solve_linear": 80, "minimize": 67, "solve_saddle": 133,
    "duality_report": 202, "solve_trust_region": 125, "minmax": 223, "maxmin": 180,
}


def _solvers_at_2() -> dict:
    """One call of each solver kind of ``SOLVER_CALLS`` at n = 2."""
    rng = np.random.default_rng(79)
    a, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
    form = QuadraticForm(random_psd(rng, 2), rng.standard_normal(2))
    saddle = random_saddle_instance(rng, 2, 2)
    pq = random_partitioned(rng, 2, 2)
    lam = minmax_threshold(pq) + 1.0
    d_mat, d_vec = random_psd(rng, 2), rng.standard_normal(2)
    return {
        "solve_linear": lambda: solve_linear(a, b),
        "minimize": lambda: minimize(form),
        "solve_saddle": lambda: solve_saddle(saddle),
        "duality_report": lambda: duality_report(pq, lam),
        "solve_trust_region": lambda: solve_trust_region(d_mat, d_vec),
        "minmax": lambda: solve_linear_term(pq, Direction.MINMAX),
        "maxmin": lambda: solve_linear_term(pq, Direction.MAXMIN),
    }


@pytest.mark.parametrize("kind", SOLVER_CALLS)
def test_solver_python_calls_are_bounded(kind):
    solve = _solvers_at_2()[kind]
    assert solve() is not None
    assert _python_calls(solve) <= SOLVER_CALLS[kind]


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_schur_complement_formed_by_cancellation(c):
    # S = M22 - M12' pinv(M11) M12 = 0 exactly, but its computed
    # eigenvalues are rounding of order eps c: the threshold and range
    # tests must read the size of the terms S is computed from.
    q = rotation(0.7)
    pq = PartitionedQuadratic(
        c * np.diag([2.0, 3.0]), c * np.diag(np.sqrt([2.0, 3.0])) @ q,
        c * q.T @ q, np.zeros(2), np.zeros(2),
    )
    xm = duality_report(pq, 0.0).maxmin
    assert xm.finite and xm.value == pytest.approx(0.0, abs=1e-12 * c)
    assert xm.w_set.dim == 2
    sol = solve_linear_term(pq, Direction.MAXMIN)
    assert sol.value == pytest.approx(0.0, abs=1e-12 * c)
    assert sol.w_set.basis.shape[1] == 2  # every unit w is a maximizer
    rows = lambda_curve(pq, 0.0, 2.0 * c, 3)
    assert rows[0][:2] == (0.0, math.inf)
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12 * c)
    assert rows[1][1:] == pytest.approx((0.5 * c, 0.5 * c), rel=1e-12)


def test_maxmin_threshold_splits_m11_as_the_reduction_does():
    # M11 = diag(1, -1e-11) passes the PSD test, whose tolerated -1e-11 is
    # rounding: the reduction splits it as a zero, so S = 10001 - 100^2 = 1.
    # Inverted instead, it adds (9e-8)^2 / 1e-11 = 8.1e-4 to S, and the
    # threshold 1.00081 sat above a lambda at which the maxmin is finite.
    pq = PartitionedQuadratic(
        np.diag([1.0, -1e-11]), np.array([[100.0], [9e-8]]), np.array([[10001.0]]),
        np.zeros(2), np.zeros(1),
    )
    assert schur_reduction(pq).secular.smax == pytest.approx(1.0, rel=1e-12)
    assert maxmin_threshold(pq) == pytest.approx(1.0, rel=1e-12)
    schur11 = schur_complements(pq.m11, pq.m12, pq.m22).schur11
    np.testing.assert_allclose(schur11, [[1.0]], rtol=1e-12)
    assert duality_report(pq, 1.0004).maxmin.finite


def test_schur_vector_formed_by_cancellation():
    # d2 = M12' M11^{-1} d1, so r = d2 - M12' M11^{-1} d1 = 0 and the
    # maxmin value is finite at ||S||; the rounding in the computed r
    # follows the size of d2, which grows with 10^k.
    q = rotation(0.7)
    m11, m12 = np.diag([2.0, 3.0]), np.diag(np.sqrt([2.0, 3.0])) @ q
    m22 = q.T @ np.diag([2.0, 1.0]) @ q + q.T @ q
    for k in range(14):
        d1 = 10.0**k * np.array([1.0, -2.0])
        pq = PartitionedQuadratic(m11, m12, m22, d1, m12.T @ np.linalg.solve(m11, d1))
        norm_s = maxmin_threshold(pq)
        xm = duality_report(pq, norm_s).maxmin
        assert xm.finite, k
        c0 = 0.5 * d1 @ np.linalg.solve(m11, d1)
        assert xm.value == pytest.approx(0.5 * norm_s - c0, rel=1e-9)


def test_large_vector_data_leaves_the_thresholds_on_the_matrix_scale():
    # S = 1 and r = d2 - d1 = 1, computed exactly, but d is of size 1e13:
    # the test that r vanishes reads that size, the thresholds ||S|| = 1
    # and ||M22|| = 2 must not.
    one = np.ones((1, 1))
    pq = PartitionedQuadratic(one, one, 2 * one, np.array([1e13]), np.array([1e13 + 1]))
    assert not duality_report(pq, 0.5).maxmin.finite
    assert not duality_report(pq, 1.5).minmax.finite
    assert duality_report(pq, 2.5).minmax.finite
    rows = lambda_curve(pq, 0.0, 4.0, 9)
    assert [row[2] == math.inf for row in rows[:2]] == [True, True]
    assert [row[1] == math.inf for row in rows[:4]] == [True] * 4
    assert all(math.isfinite(v) for row in rows[5:] for v in row[1:])


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_saddle_keeps_small_curvature_of_the_other_player(c):
    # M = c diag(1, -1e-10) is indefinite by design; its eigenvalue
    # -1e-10 c is curvature, not rounding, and the saddle is u = 0,
    # w = 1 with value 1/2 d' pinv(M) d negated = 0.5e-10 c.
    pq = PartitionedQuadratic(
        c * np.eye(1), np.zeros((1, 1)), -1e-10 * c * np.eye(1),
        np.zeros(1), np.array([1e-10 * c]),
    )
    sol = solve_saddle(pq)
    assert sol is not None
    assert sol.solutions.dim == 0
    np.testing.assert_allclose(sol.solutions.particular, [0.0, 1.0], atol=1e-12)
    assert sol.value == pytest.approx(0.5e-10 * c, rel=1e-12)


def test_saddle_requires_m22_negative_semidefinite():
    # M22 <= 0 is tested as -M22 >= 0, with the same tolerance as M11.
    eye = np.eye(2)
    pq = PartitionedQuadratic(eye, np.zeros((2, 2)), -eye, np.zeros(2), np.zeros(2))
    assert solve_saddle(pq) is not None
    with pytest.raises(ValueError, match="M22 negative semidefinite"):
        solve_saddle(pq._replace(m22=np.diag([1.0, -1.0])))


def test_saddle_factorization_count(monkeypatch):
    pq = random_saddle_instance(np.random.default_rng(73), 4, 3)
    counts = count_factorizations(monkeypatch)
    assert solve_saddle(pq) is not None
    assert counts == Counter(eigh=1, eigvalsh=2)


def empty_w(m11: float, d1: float) -> PartitionedQuadratic:
    return PartitionedQuadratic(
        np.array([[m11]]), np.zeros((1, 0)), np.zeros((0, 0)),
        np.array([d1]), np.zeros(0),
    )


def test_empty_w_block_sets_no_threshold():
    # With no w, max over w of min over u of L is min over u of V plus
    # lam/2 at every lambda: -0.125 + lam/2 for V(u) = u^2/2 + u/2.
    pq = empty_w(1.0, 0.5)
    lams = [-1.0, 0.0, 1.0]
    expected = [-0.625, -0.125, 0.375]
    for lam, value in zip(lams, expected):
        report = duality_report(pq, lam)
        assert report.status == "strong_duality"
        assert report.value == pytest.approx(value, abs=1e-12)
        for solve in (report.minmax, report.maxmin):
            assert solve.finite and solve.value == pytest.approx(value, abs=1e-12)
            assert solve.u_set.particular == pytest.approx([-0.5])
    assert lambda_curve(pq, -1.0, 1.0, 3) == [
        (lam, value, value) for lam, value in zip(lams, expected)
    ]
    # The thresholds read the norm of the empty matrix.
    assert minmax_threshold(pq) == maxmin_threshold(pq) == 0.0


def test_empty_w_block_unbounded_below_at_every_lambda():
    # d1 off R(M11) = {0}: with no w to raise it, minmax is -inf too.
    assert lambda_curve(empty_w(0.0, 1.0), -1.0, 1.0, 3) == [
        (lam, -math.inf, -math.inf) for lam in (-1.0, 0.0, 1.0)
    ]
