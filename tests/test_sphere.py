import math

import numpy as np
import pytest

from quadgames import (
    AffineSolutionSet,
    OracleConfig,
    QuadraticForm,
    dual_curve,
    lambda_p,
    solve_trust_region,
    sphere,
    sphere_max,
)

from quadgames.sphere import Secular, sphere_intersect

from util import hard_case_instance, random_psd, rotation


def test_lambda_p_examples():
    # zero curvature: the multiplier is ||d||
    assert lambda_p(np.zeros((2, 2)), np.array([3.0, 4.0])) == pytest.approx(
        5.0, abs=1e-9
    )
    # zero linear term: the multiplier is ||D||
    assert lambda_p(np.diag([2.0, 1.0]), np.zeros(2)) == pytest.approx(
        2.0, abs=1e-9
    )
    # scalar: lambda solves (lambda - D)^2 = d^2 from above
    assert lambda_p(np.array([[1.0]]), np.array([3.0])) == pytest.approx(
        4.0, abs=1e-9
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("c", [2.0**-1000, 1e-300, 1e-170, 1e155, 1e300])
def test_lambda_p_scales_to_the_ends_of_the_float_range(c):
    # The companion matrix is taken with blocks of the data's size: dd'
    # itself overflows from about 1e155 (the eigensolver fails) and
    # underflows below about 1e-162 (lambda_p reads lambda_max(D),
    # 2.083c for 2.974c).
    d_mat, d_vec = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, -0.5])
    one = lambda_p(d_mat, d_vec)
    assert abs(lambda_p(c * d_mat, c * d_vec) - c * one) <= 1e-14 * c * one


@pytest.mark.parametrize("eigvals,message", [
    (np.linalg.LinAlgError("no convergence"), "eigenvalue computation failed"),
    (np.array([1.0 + 1.0j, 1.0 - 1.0j, 2.0j, -2.0j]), "no real eigenvalue found"),
])
def test_lambda_p_surfaces_an_eigensolver_failure(monkeypatch, eigvals, message):
    # An eigensolver that fails, or returns no real eigenvalue where one
    # >= ||D|| must exist, is a RuntimeError.
    def broken(matrix):
        if isinstance(eigvals, Exception):
            raise eigvals
        return eigvals

    monkeypatch.setattr(np.linalg, "eigvals", broken)
    with pytest.raises(RuntimeError, match=message):
        lambda_p(np.diag([2.0, 1.0]), np.array([0.0, 0.5]))


def response_norm(sec: Secular) -> float:
    """||pinv(D - ||D|| I) d||, the norm the boundary branch tests."""
    return float(np.linalg.norm(sec.response(sec.smax)))


def test_range_and_response_norm_examples():
    sec = Secular.of(np.diag([2.0, 1.0]), np.array([0.0, 0.5]))
    assert sec.range_holds and response_norm(sec) <= 1.0
    assert response_norm(sec) == pytest.approx(0.5, abs=1e-12)
    sec = Secular.of(np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
    assert not sec.range_holds
    sec = Secular.of(np.diag([2.0, 1.0]), np.array([0.0, 3.0]))
    assert sec.range_holds and not response_norm(sec) <= 1.0
    assert response_norm(sec) == pytest.approx(3.0, abs=1e-12)


def test_finite_reads_the_stored_branch_facts(monkeypatch):
    # ``of`` computes ||D||, the top eigenspace and the range verdict
    # once; ``finite`` reads them and takes no norm per call.
    sec = Secular.of(np.diag([2.0, 1.0]), np.array([1.0, 1.0]))

    def no_norm(*args, **kwargs):
        raise AssertionError("Secular.finite computed a norm")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    monkeypatch.setattr(sphere, "norm", no_norm)
    assert not sec.finite(2.0) and sec.finite(2.5)
    assert sec.finite(np.array([1.0, 2.0, 3.0])).tolist() == [False, False, True]


def test_trust_region_boundary_example():
    sol = solve_trust_region(np.diag([2.0, 1.0]), np.array([0.0, 0.5]))
    assert sol.boundary
    assert sol.lambda_p == pytest.approx(2.0, abs=1e-8)
    assert sol.value == pytest.approx(1.125, abs=1e-9)
    np.testing.assert_allclose(sol.w_star.particular, [0.0, 0.5], atol=1e-9)
    assert sol.w_star.radius_residual == pytest.approx(
        math.sqrt(0.75), abs=1e-9
    )
    rep = sol.w_star.representative()
    assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_trust_region_scales_past_the_overflow_of_a_square():
    # D = c diag(2, 1), d = c (1, 1): the value and the multiplier scale
    # with c, 2.2422c and 3.1322c; the secular root squares no r of the
    # data, so none overflows.
    d_mat, d_vec = np.diag([2.0, 1.0]), np.array([1.0, 1.0])
    one = solve_trust_region(d_mat, d_vec)
    c = 1e160
    far = solve_trust_region(c * d_mat, c * d_vec)
    assert far.value == pytest.approx(c * one.value, rel=1e-9)
    assert far.lambda_p == pytest.approx(c * one.lambda_p, rel=1e-9)


def test_trust_region_interior_example():
    sol = solve_trust_region(np.zeros((2, 2)), np.array([3.0, 4.0]))
    assert not sol.boundary
    assert sol.lambda_p == pytest.approx(5.0, abs=1e-8)
    assert sol.value == pytest.approx(5.0, abs=1e-9)
    np.testing.assert_allclose(sol.w_star.particular, [0.6, 0.8], atol=1e-9)


def test_trust_region_homogeneous():
    sol = solve_trust_region(np.diag([2.0, 1.0]), np.zeros(2))
    assert sol.boundary
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    rep = sol.w_star.representative()
    assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-9)
    assert abs(rep[0]) == pytest.approx(1.0, abs=1e-7)


def test_trust_region_hard_case_transition():
    # response norm exactly 1 at the threshold: both branches agree
    sol = solve_trust_region(np.diag([2.0, 1.0]), np.array([0.0, 1.0]))
    assert sol.near_hard_case
    assert sol.value == pytest.approx(1.5, abs=1e-7)
    rep = sol.w_star.representative()
    assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-7)


def test_interior_stationarity_random():
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        d_mat = random_psd(rng, n)
        d_vec = rng.standard_normal(n)
        sol = solve_trust_region(d_mat, d_vec)
        if sol.boundary:
            sec = Secular.of(d_mat, d_vec)
            assert sec.range_holds and response_norm(sec) <= 1.0
            continue
        w = sol.w_star.particular
        resid = (d_mat - sol.lambda_p * np.eye(n)) @ w + d_vec
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(d_vec))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-7)


def test_solver_beats_sphere_oracle():
    rng = np.random.default_rng(71)
    cfg = OracleConfig(seed=13, samples=20_000)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        d_mat = random_psd(rng, n)
        d_vec = rng.standard_normal(n)
        sol = solve_trust_region(d_mat, d_vec)
        oracle, _ = sphere_max(QuadraticForm(d_mat, d_vec), cfg)
        assert sol.value >= oracle - 1e-9
        assert sol.value <= oracle + 5e-3


def test_lagrangian_saddle_inequality_sampled():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d_mat = random_psd(rng, n)
        d_vec = rng.standard_normal(n)
        sol = solve_trust_region(d_mat, d_vec)
        lam = sol.lambda_p
        for _ in range(100):
            w = rng.standard_normal(n) * rng.uniform(0.0, 3.0)
            lag = 0.5 * w @ d_mat @ w + w @ d_vec - 0.5 * lam * (w @ w - 1.0)
            assert lag <= sol.value + 1e-7 * (1.0 + abs(sol.value))


def test_dual_curve_homogeneous():
    rows = dual_curve(np.diag([2.0, 1.0]), np.zeros(2), 2.0, 4.0, 5)
    for lam, val, der in rows:
        assert val == pytest.approx(lam / 2.0, abs=1e-12)
        assert der == pytest.approx(0.5, abs=1e-12)


def test_dual_curve_infinite_at_threshold_when_off_range():
    rows = dual_curve(np.diag([2.0, 1.0]), np.array([1.0, 1.0]), 1.0, 4.0, 7)
    by_lam = {round(lam, 6): (val, der) for lam, val, der in rows}
    assert by_lam[1.0][0] == math.inf and by_lam[1.0][1] is None
    assert by_lam[1.5][0] == math.inf
    assert by_lam[2.0][0] == math.inf
    for lam in (2.5, 3.0, 3.5, 4.0):
        val, der = by_lam[lam]
        assert math.isfinite(val) and der is not None


def test_dual_curve_finite_boundary_with_negative_slope():
    # condition (i) holds but the response norm exceeds 1, so the curve
    # is finite at ||D|| and still decreasing there
    rows = dual_curve(np.diag([2.0, 1.0]), np.array([0.0, 3.0]), 2.0, 4.0, 3)
    lam0, val0, der0 = rows[0]
    assert lam0 == pytest.approx(2.0)
    assert math.isfinite(val0)
    assert der0 < 0.0


def test_dual_curve_convex_and_derivative_consistent():
    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        d_mat = random_psd(rng, n)
        d_vec = rng.standard_normal(n)
        norm_d = np.linalg.norm(d_mat, 2)
        rows = dual_curve(d_mat, d_vec, norm_d + 0.5, norm_d + 4.5, 41)
        vals = np.array([r[1] for r in rows])
        ders = np.array([r[2] for r in rows])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-8)
        # tight central differences at a few grid points
        h = 1e-6
        for lam, _, der in rows[::10]:
            local = dual_curve(d_mat, d_vec, lam - h, lam + h, 3)
            fd = (local[2][1] - local[0][1]) / (2.0 * h)
            assert fd == pytest.approx(der, rel=1e-5, abs=1e-7)


def test_lambda_p_matches_secular_root():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        d_mat = random_psd(rng, n)
        d_vec = rng.standard_normal(n)
        sol = solve_trust_region(d_mat, d_vec)
        if sol.boundary:
            continue
        norm_d = np.linalg.norm(d_mat, 2)

        def resp(lam):
            return np.linalg.norm(
                np.linalg.solve(d_mat - lam * np.eye(n), d_vec)
            )

        lo = norm_d + 1e-12
        hi = norm_d + 1.0
        while resp(hi) > 1.0:
            hi = norm_d + 2.0 * (hi - norm_d)
        while resp(lo) < 1.0:
            lo = norm_d + 0.5 * (lo - norm_d)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if resp(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert sol.lambda_p == pytest.approx(root, rel=1e-8, abs=1e-10)


def test_lambda_p_in_the_hard_case():
    # With d in R(D - ||D|| I) and a response of norm at most 1 the
    # multiplier is ||D|| = 2, a defective eigenvalue of the companion
    # matrix: ``eigvals`` resolves it only to about sqrt(eps), not to
    # the 1e-8 that holds off the hard case.
    rng = np.random.default_rng(89)
    for i in range(60):
        n = int(rng.integers(2, 5))
        d_mat, d_vec = hard_case_instance(rng, n, (0.5, 1.0)[i % 2])
        sol = solve_trust_region(d_mat, d_vec)
        assert lambda_p(d_mat, d_vec) == pytest.approx(sol.lambda_p, rel=1e-7)


def test_sphere_intersect_cases():
    s = sphere_intersect(AffineSolutionSet(np.array([0.6, 0.8]), np.zeros((2, 0))))
    assert s.radius_residual == pytest.approx(0.0, abs=1e-9)
    s = sphere_intersect(
        AffineSolutionSet(np.array([0.5, 0.0]), np.array([[0.0], [1.0]]))
    )
    assert s.radius_residual == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert np.linalg.norm(s.representative()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sphere_intersect(AffineSolutionSet(np.array([2.0, 0.0]), np.zeros((2, 0))))
    with pytest.raises(ValueError):
        sphere_intersect(AffineSolutionSet(np.array([0.5, 0.0]), np.zeros((2, 0))))


def test_input_validation():
    with pytest.raises(ValueError):
        solve_trust_region(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        solve_trust_region(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        dual_curve(np.eye(2), np.zeros(2), 3.0, 1.0, 5)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("vanishes", [True, False])
def test_dual_curve_rows_match_secular_evaluations(c, vanishes):
    # The array pass over the grid against Secular.response/value at
    # each lambda, on grids with a point exactly on ||D|| = 2c.
    rot = rotation(0.7)
    d_mat = rot.T @ (c * np.diag([2.0, 1.0])) @ rot
    d_vec = rot.T @ (c * np.array([0.0 if vanishes else 1.0, 1.0]))
    sec = Secular.of(d_mat, d_vec)
    rows = (
        dual_curve(d_mat, d_vec, 0.0, sec.smax, 5)
        + dual_curve(d_mat, d_vec, sec.smax, sec.smax + 2.0 * c, 5)
        + dual_curve(d_mat, d_vec, -c, 4.0 * c, 21)
    )
    assert math.isfinite(rows[5][1]) == vanishes
    for lam, value, slope in rows:
        at_norm = abs(lam - sec.smax) <= sec.tol
        if lam < sec.smax - sec.tol or (at_norm and not vanishes):
            assert (value, slope) == (math.inf, None)
            continue
        coords = sec.response(lam)
        assert value == pytest.approx(float(sec.value(lam, coords)), rel=1e-12)
        assert slope == pytest.approx(0.5 * (1.0 - coords @ coords), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("d_mat,d_vec", [
    ([2.0, 1.0], [-1e-9, 0.5]),
    ([2.0, 1.0], [1e-9, 0.5]),
    ([2.0, 2.0, 1.0], [1e-9, 1e-9, 0.5]),
], ids=["negative", "positive", "two-d-top"])
def test_hard_case_representative_follows_the_top_part_of_d(c, d_mat, d_vec):
    # d's part in the top eigenspace passes the range test (hard case),
    # yet it decides which member of the boundary set is best: the
    # representative points along it, and the value is the value there.
    d_mat, d_vec = c * np.diag(d_mat), c * np.array(d_vec)
    sol = solve_trust_region(d_mat, d_vec)
    assert sol.boundary
    form = QuadraticForm(d_mat, d_vec)
    rep = sol.w_star.representative()
    assert abs(form.evaluate(rep) - sol.value) <= 1e-15 * (1.0 + abs(sol.value))
    best, _ = sphere_max(form, OracleConfig(seed=0, samples=2000))
    assert sol.value >= best - 1e-12 * c


def test_empty_sphere_is_an_input_error():
    # The solver and the companion-matrix certificate refuse it alike, as
    # bad input: no eigensolver failed (lambda_p raised RuntimeError).
    for solve in (solve_trust_region, lambda_p):
        with pytest.raises(ValueError, match="D is 0 x 0"):
            solve(np.zeros((0, 0)), np.zeros(0))
    # The dual function has no sphere constraint: lambda/2 everywhere.
    rows = dual_curve(np.zeros((0, 0)), np.zeros(0), 1.0, 3.0, 3)
    assert [value for _, value, _ in rows] == [0.5, 1.0, 1.5]
