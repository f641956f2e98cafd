from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgames import QuadraticForm, fd_gradient, minimize
from quadgames.linalg import is_psd
from quadgames.oracle import _gaussian_rows

from util import count_factorizations, random_psd


def test_evaluate_examples():
    q = QuadraticForm(np.eye(2), np.zeros(2))
    assert q.evaluate(np.array([1.0, 1.0])) == pytest.approx(1.0)
    q = QuadraticForm(np.diag([2.0, 0.0]), np.array([1.0, -1.0]), constant=3.0)
    assert q.evaluate(np.array([1.0, 2.0])) == pytest.approx(1.0 + 1.0 - 2.0 + 3.0)
    q = QuadraticForm(np.zeros((1, 1)), np.array([4.0]))
    assert q.evaluate(np.array([0.5])) == pytest.approx(2.0)


def test_convexity_flags():
    assert is_psd(QuadraticForm(np.eye(2), np.zeros(2)).hessian)
    assert not is_psd(QuadraticForm(np.diag([1.0, -1.0]), np.zeros(2)).hessian)
    assert is_psd(-QuadraticForm(-np.eye(2), np.zeros(2)).hessian)


def test_minimize_strictly_convex():
    q = QuadraticForm(np.eye(2), np.array([1.0, 1.0]))
    opt = minimize(q)
    assert opt is not None
    np.testing.assert_allclose(opt.points.particular, [-1.0, -1.0], atol=1e-12)
    assert opt.points.dim == 0
    assert opt.value == pytest.approx(-1.0, abs=1e-12)


def test_minimize_rank_deficient_flat_direction():
    q = QuadraticForm(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
    opt = minimize(q)
    assert opt is not None
    np.testing.assert_allclose(opt.points.particular, [-1.0, 0.0], atol=1e-12)
    assert opt.points.dim == 1
    np.testing.assert_allclose(
        np.abs(opt.points.basis.ravel()), [0.0, 1.0], atol=1e-12
    )
    assert opt.value == pytest.approx(-0.5, abs=1e-12)


def test_minimize_unbounded_below():
    q = QuadraticForm(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
    assert minimize(q) is None


def test_minimize_rejects_nonconvex():
    q = QuadraticForm(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="convex"):
        minimize(q)
    with pytest.raises(ValueError, match="convex"):
        minimize(QuadraticForm(-q.hessian, -q.linear))


def test_minimize_negated_concave_form():
    # The maximum of the concave form -|x|^2/2 + 2 x1 + 1 is minus the
    # minimum of its negation, attained at the same point.
    q = QuadraticForm(np.eye(2), np.array([-2.0, 0.0]), constant=-1.0)
    opt = minimize(q)
    assert opt is not None
    np.testing.assert_allclose(opt.points.particular, [2.0, 0.0], atol=1e-12)
    assert -opt.value == pytest.approx(3.0, abs=1e-12)
    assert minimize(QuadraticForm(np.zeros((1, 1)), np.array([-1.0]))) is None


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        q = QuadraticForm(
            random_psd(rng, n), rng.standard_normal(n), float(rng.standard_normal())
        )
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            q.gradient(x), fd_gradient(q.evaluate, x, 1e-5), atol=1e-5
        )


def test_minimum_is_global_against_perturbations():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, n + 1))
        hess = random_psd(rng, n, rank=r)
        d = hess @ rng.standard_normal(n)
        q = QuadraticForm(hess, d)
        opt = minimize(q)
        assert opt is not None
        x0 = opt.points.particular
        perts = rng.standard_normal((1000, n))
        vals = 0.5 * np.einsum("ij,jk,ik->i", x0 + perts, hess, x0 + perts)
        vals += (x0 + perts) @ d
        assert opt.value <= vals.min() + 1e-9
        # every point in the solution set attains the same value
        for _ in range(5):
            pt = opt.points.point(rng.standard_normal(opt.points.dim))
            assert q.evaluate(pt) == pytest.approx(opt.value, abs=1e-8)


def test_value_formula_lower_bound():
    # for convex consistent problems the value is -d' D^+ d / 2 + c
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        hess = random_psd(rng, n)
        d = hess @ rng.standard_normal(n)
        c = float(rng.standard_normal())
        opt = minimize(QuadraticForm(hess, d, c))
        assert opt is not None
        expected = -0.5 * d @ np.linalg.pinv(hess) @ d + c
        assert opt.value == pytest.approx(expected, abs=1e-8)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(0.0, 1.0))
def test_convexity_inequality(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    q = QuadraticForm(random_psd(rng, n), rng.standard_normal(n))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    mix = q.evaluate(alpha * x + (1 - alpha) * y)
    assert mix <= alpha * q.evaluate(x) + (1 - alpha) * q.evaluate(y) + 1e-9


def test_factorization_count(monkeypatch):
    rng = np.random.default_rng(17)
    d_mat = random_psd(rng, 5, rank=3)
    convex = QuadraticForm(d_mat, d_mat @ rng.standard_normal(5))
    counts = count_factorizations(monkeypatch)
    assert minimize(convex) is not None
    assert counts == Counter(eigh=1)


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
@pytest.mark.parametrize("dim", [1, 3])
def test_gaussian_rows_are_standard_normal(seed, dim):
    g = _gaussian_rows(seed, dim, 0, 100_000 // dim)
    assert g.shape == (100_000 // dim, dim) and g.dtype == np.float64
    assert abs(g.mean()) <= 0.02
    assert abs(g.var() - 1.0) <= 0.02


def test_gaussian_rows_drawn_in_blocks_are_one_draw():
    for dim in (1, 2, 5):
        whole = _gaussian_rows(3, dim, 0, 1000)
        for size in (1, 2, 7, 64):
            parts = [_gaussian_rows(3, dim, start, min(start + size, 1000))
                     for start in range(0, 1000, size)]
            np.testing.assert_array_equal(np.vstack(parts), whole)
    assert _gaussian_rows(3, 0, 0, 4).shape == (4, 0)
    assert _gaussian_rows(3, 2, 5, 5).shape == (0, 2)


# Pairs that a seed folded into 64 bits, or added to the counter, would
# send into one stream.
SEEDS = [0, 1, 2, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**65,
         2**70, 2**128, 0x9E3779B97F4A7C15, 2**64 - 0x9E3779B97F4A7C15]


def test_distinct_seeds_draw_distinct_rows():
    draws = [_gaussian_rows(seed, 2, 0, 4).ravel() for seed in SEEDS]
    values = np.concatenate(draws)
    assert np.unique(values).size == values.size


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_no_row_count_reaches_another_seeds_stream(dim):
    # Rows far along one seed's counter, where a counter of
    # seed * 2**k + row (or row * dim + column) would run into the next
    # seed's rows, share no value with the first rows of the other seeds.
    firsts = np.concatenate([_gaussian_rows(s, dim, 0, 4).ravel() for s in SEEDS[1:5]])
    for start in (4, 2**32 - 2, 2**32 // dim, 2**63 - 2, 2**64 // dim - 4, 2**64 - 4):
        far = _gaussian_rows(0, dim, start, start + 4)
        assert np.intersect1d(far, firsts).size == 0
    # A wider row does not run into the next row.
    two = _gaussian_rows(5, dim, 0, 2).ravel()
    wide = _gaussian_rows(5, 2 * dim, 0, 1).ravel()
    assert np.intersect1d(two[dim:], wide).size == 0
