"""Metamorphic tests of the lambda curves, the sphere kernel and the
saddle verifier: answers that must not move, or must move in a known
way, when the data is rescaled or rotated, or a trust region is posed as
its p = 0 game."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgames import (
    Direction,
    PartitionedQuadratic,
    dual_curve,
    lambda_curve,
    maxmin_threshold,
    minmax_threshold,
    solve_linear_term,
    solve_saddle,
    solve_trust_region,
    verify_saddle,
)
from quadgames.game import schur_reduction
from quadgames.linalg import spectral_norm
from quadgames.sphere import Secular

from util import random_psd, random_saddle_instance


def orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def grid_off(thresholds, lo, hi, steps):
    """lo..hi shifted by a fifth of a step at a time until every grid
    point lies at least a tenth of a step from each threshold, so that
    rounding cannot move a point across one.  Each threshold rules out
    at most one of the five shifts."""
    h = (hi - lo) / (steps - 1)
    for shift in (0.0, 0.2, 0.4, 0.6, 0.8):
        points = lo + (shift + np.arange(steps)) * h
        if all(np.min(np.abs(points - t)) >= 0.1 * h for t in thresholds):
            return lo + shift * h, hi + shift * h
    raise AssertionError("no shift clears the thresholds")


def random_trust_region(rng):
    """A PSD D (of random rank) and d of dimension 1-5, and a grid that
    reaches below and above ||D||, clear of it."""
    n = int(rng.integers(1, 6))
    d_mat = random_psd(rng, n, int(rng.integers(0, n + 1)))
    d_vec = rng.standard_normal(n)
    norm = spectral_norm(d_mat)
    width = 1.0 + norm + float(np.linalg.norm(d_vec))
    steps = int(rng.integers(2, 12))
    lo = norm - rng.uniform(0.1, 1.0) * width
    lo, hi = grid_off([norm], lo, norm + rng.uniform(0.1, 2.0) * width, steps)
    return d_mat, d_vec, lo, hi, steps


def random_game(rng):
    """A game with M >= 0 and p <= 3, 1 <= n <= 4: M11 well conditioned
    or diagonal with exact zeros (where d1 may stay nonzero, so the game
    is unbounded below), M22 = M12' pinv(M11) M12 + W with W >= 0; and a
    grid from below ||S|| to above ||M22||, clear of both."""
    p, n = int(rng.integers(0, 4)), int(rng.integers(1, 5))
    e = 10.0 ** rng.uniform(-1.0, 1.0, p)
    if rng.uniform() < 0.5:
        m11 = np.diag(np.where(rng.uniform(size=p) < 0.5, 0.0, e))
    else:
        q = orthogonal(rng, p)
        m11 = q @ np.diag(e) @ q.T
    m11 = 0.5 * (m11 + m11.T)
    m12 = rng.standard_normal((p, n))
    zero = np.diag(m11) == 0.0 if p else np.zeros(0, bool)
    m12[zero] = 0.0
    d1 = rng.standard_normal(p)
    if rng.uniform() < 0.7:
        d1[zero] = 0.0
    m22 = m12.T @ np.linalg.pinv(m11) @ m12 + random_psd(rng, n, int(rng.integers(0, n + 1)))
    pq = PartitionedQuadratic(m11, m12, 0.5 * (m22 + m22.T), d1, rng.standard_normal(n))
    norm_s, norm22 = maxmin_threshold(pq), minmax_threshold(pq)
    width = 1.0 + norm22 + float(np.linalg.norm(pq.d2))
    steps = int(rng.integers(2, 12))
    lo, hi = grid_off(
        [norm_s, norm22], norm_s - rng.uniform(0.1, 1.0) * width,
        norm22 + rng.uniform(0.1, 2.0) * width, steps,
    )
    return pq, lo, hi, steps


def close(got, want, tol, ref):
    """Equal infinities, or finite values within tol relative to ref."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= tol * ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-8.0, 8.0))
def test_dual_curve_scales_with_the_data(seed, exponent):
    # Scaling D, d and lambda by c scales the dual value by c and leaves
    # its slope sum r_i^2 / (lambda - s_i)^2 and its finite points alone.
    d_mat, d_vec, lo, hi, steps = random_trust_region(np.random.default_rng(seed))
    c = 10.0**exponent
    base = dual_curve(d_mat, d_vec, lo, hi, steps)
    scaled = dual_curve(c * d_mat, c * d_vec, c * lo, c * hi, steps)
    ref = max((abs(v) for _, v, _ in base if math.isfinite(v)), default=1.0)
    for (lam, value, slope), (c_lam, c_value, c_slope) in zip(base, scaled):
        assert c_lam == pytest.approx(c * lam, rel=1e-14, abs=1e-14 * c * abs(hi - lo))
        assert (c_slope is None) == (slope is None) == (value == math.inf)
        assert close(c_value, c * value, 1e-12, c * ref)
        if slope is not None:
            assert close(c_slope, slope, 1e-12, 1.0 + abs(slope))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dual_curve_is_invariant_under_rotation(seed):
    rng = np.random.default_rng(seed)
    d_mat, d_vec, lo, hi, steps = random_trust_region(rng)
    q = orthogonal(rng, d_vec.shape[0])
    base = dual_curve(d_mat, d_vec, lo, hi, steps)
    turned = dual_curve(q @ d_mat @ q.T, q @ d_vec, lo, hi, steps)
    ref = max((abs(v) for _, v, _ in base if math.isfinite(v)), default=1.0)
    for (lam, value, slope), (t_lam, t_value, t_slope) in zip(base, turned):
        assert t_lam == lam and (t_slope is None) == (slope is None)
        assert close(t_value, value, 1e-12, ref)
        if slope is not None:
            assert close(t_slope, slope, 1e-12, 1.0 + abs(slope))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lambda_curve_is_invariant_under_a_rotation_of_w(seed):
    # w -> Q w maps the game to one with M12 Q', Q M22 Q' and Q d2; both
    # value functions, and the thresholds, stay where they are.
    rng = np.random.default_rng(seed)
    pq, lo, hi, steps = random_game(rng)
    q = orthogonal(rng, pq.w_dim)
    m22 = q @ pq.m22 @ q.T
    turned = PartitionedQuadratic(pq.m11, pq.m12 @ q.T, 0.5 * (m22 + m22.T), pq.d1, q @ pq.d2)
    base = lambda_curve(pq, lo, hi, steps)
    rows = lambda_curve(turned, lo, hi, steps)
    finite = [abs(v) for row in base for v in row[1:] if math.isfinite(v)]
    ref = max(finite, default=1.0)
    for (lam, mm, xm), (t_lam, t_mm, t_xm) in zip(base, rows):
        assert t_lam == lam
        assert close(t_mm, mm, 1e-12, ref) and close(t_xm, xm, 1e-12, ref)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    exponent=st.floats(-8.0, 8.0),
    top=st.sampled_from([0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8]),
)
def test_trust_region_is_the_p0_maxmin_game(seed, n, exponent, top):
    # D = c Q diag(s) Q' of random rank, ||D|| = c a with a in [0.3, 1],
    # and d = c Q r with r_top = top on the top eigenvector beside a rest
    # of norm at most 0.2: r_top falls on either side of TOL (||D||_2 +
    # ||d||) and of TOL (||D||_F + ||d||).  The trust region and its p = 0
    # game share one Secular, field for field, so both directions of the
    # game give the trust region's answer bit for bit.
    rng = np.random.default_rng(seed)
    c = 10.0**exponent
    rank = int(rng.integers(1, n + 1))
    a = rng.uniform(0.3, 1.0)
    s = np.zeros(n)
    s[:rank] = a * rng.uniform(0.5, 1.0, rank)
    s[0] = a
    r = np.zeros(n)
    r[0] = top
    r[1:] = rng.standard_normal(n - 1)
    if n > 1:
        r[1:] *= rng.uniform(0.0, 0.2) / np.linalg.norm(r[1:])
    q = orthogonal(rng, n)
    d_mat = c * (q @ np.diag(s) @ q.T)
    d_mat, d_vec = 0.5 * (d_mat + d_mat.T), c * (q @ r)
    direct = solve_trust_region(d_mat, d_vec)
    pq = PartitionedQuadratic.trust_region(d_mat, d_vec)
    for got, want in zip(schur_reduction(pq).secular, Secular.of(d_mat, d_vec)):
        assert np.array_equal(got, want)
    for direction in Direction:
        sol = solve_linear_term(pq, direction)
        assert (sol.value, sol.lambda0) == (direct.value, direct.lambda_p)
        assert (sol.diagnostics["mode"] != "interior") == direct.boundary
        np.testing.assert_array_equal(
            sol.w_set.representative(), direct.w_star.representative()
        )


@pytest.mark.parametrize("c", [1e-8, 1e8])
def test_verify_saddle_verdict_is_invariant_under_scaling(c):
    # Scaling M and d by c keeps the saddle point and scales V by c, so
    # a bound relative to V's terms keeps every verdict: the solver's
    # saddle passes, and a lie that moves u* by 0.1 (1 + ||z||) fails.
    rng = np.random.default_rng(53)
    verdicts = []
    for trial in range(30):
        p, n = (int(k) for k in rng.integers(1, 3, size=2))
        pq = random_saddle_instance(rng, p, n)
        sol = solve_saddle(pq)
        g = rng.standard_normal(p)
        step = 0.1 * (1.0 + np.linalg.norm(sol.solutions.particular))
        lie = sol.u_star + step * g / np.linalg.norm(g)
        scaled = PartitionedQuadratic(c * pq.m11, c * pq.m12, c * pq.m22, c * pq.d1, c * pq.d2)
        for u in (sol.u_star, lie):
            verdict = verify_saddle(pq, u, sol.w_star, seed=trial)
            assert verify_saddle(scaled, u, sol.w_star, seed=trial) == verdict, trial
            verdicts.append(verdict)
    assert verdicts == [True, False] * 30
