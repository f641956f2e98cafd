import math
import re

import numpy as np
import pytest

from quadgames import (
    AffineSolutionSet,
    Direction,
    PartitionedQuadratic,
    QuadraticForm,
    minimize,
    schur_complements,
    solve_linear,
    solve_linear_term,
    solve_saddle,
)
from quadgames.game import PSD_MESSAGE, schur_reduction
from quadgames.linalg import (
    RANK_EPS, TOL, as_matrix, as_vector, is_psd, spectral_norm, svd, symmetrize
)
from quadgames.oracle import OracleConfig, sphere_max

from util import random_psd


def svd_pinv(a):
    """The pseudoinverse as the library applies it: svd(a).solve."""
    return svd(a).solve(np.eye(a.shape[0]))


def psd_by_blocks(m11, m12, m22) -> bool:
    """Whether ``schur_reduction`` accepts the blocks as a PSD matrix;
    it raises PSD_MESSAGE when it does not."""
    zeros = np.zeros(m12.shape[0]), np.zeros(m12.shape[1])
    try:
        schur_reduction(PartitionedQuadratic(m11, m12, m22, *zeros))
    except ValueError as exc:
        assert str(exc) == PSD_MESSAGE
        return False
    return True


def test_svd_identity():
    f = svd(np.eye(2))
    assert f.rank == 2
    assert f.u2.shape == (2, 0)
    assert f.v2.shape == (2, 0)
    np.testing.assert_allclose(f.sigma, [1.0, 1.0])


def test_svd_zero_matrix():
    f = svd(np.zeros((2, 2)))
    assert f.rank == 0
    assert f.u2.shape == (2, 2)
    assert f.v2.shape == (2, 2)
    np.testing.assert_allclose(f.u2 @ f.u2.T, np.eye(2), atol=1e-14)


def test_svd_rank_one_diag():
    f = svd(np.diag([3.0, 0.0]))
    assert f.rank == 1
    np.testing.assert_allclose(f.sigma, [3.0])
    np.testing.assert_allclose(np.abs(f.u1.ravel()), [1.0, 0.0], atol=1e-14)


def test_pinv_examples():
    np.testing.assert_allclose(svd_pinv(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(svd_pinv(np.zeros((2, 3))), np.zeros((3, 2)))
    np.testing.assert_allclose(
        svd_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
    )


def test_moore_penrose_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        p = svd_pinv(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
        np.testing.assert_allclose(a @ p, (a @ p).T, atol=1e-8)
        np.testing.assert_allclose(p @ a, (p @ a).T, atol=1e-8)


def test_projector_identities():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
        f = svd(a)
        np.testing.assert_allclose(a @ svd_pinv(a), f.u1 @ f.u1.T, atol=1e-9)
        np.testing.assert_allclose(svd_pinv(a) @ a, f.v1 @ f.v1.T, atol=1e-9)
        u = np.hstack([f.u1, f.u2])
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        v = np.hstack([f.v1, f.v2])
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-12)


def test_null_and_range_basis():
    a = np.diag([1.0, 0.0])
    nb = svd(a).v2
    assert nb.shape == (2, 1)
    np.testing.assert_allclose(a @ nb, 0, atol=1e-14)
    rb = svd(a).u1
    assert rb.shape == (2, 1)
    np.testing.assert_allclose(np.abs(rb.ravel()), [1.0, 0.0], atol=1e-14)


def test_solve_identity():
    res = solve_linear(np.eye(2), np.array([1.0, 2.0]))
    assert res.consistent
    assert res.residual <= 1e-12
    np.testing.assert_allclose(res.solutions.particular, [1.0, 2.0])
    assert res.solutions.dim == 0


def test_solve_inconsistent_least_squares():
    res = solve_linear(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
    assert not res.consistent
    np.testing.assert_allclose(res.solutions.particular, [1.0, 0.0], atol=1e-14)
    assert res.residual == pytest.approx(1.0, abs=1e-12)
    assert res.solutions.dim == 1


def test_solve_zero_system():
    res = solve_linear(np.zeros((2, 2)), np.zeros(2))
    assert res.consistent
    np.testing.assert_allclose(res.solutions.particular, 0, atol=1e-14)
    assert res.solutions.dim == 2
    b = res.solutions.basis
    np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-14)


def test_solve_with_no_equations():
    # A 0 x 3 A constrains nothing: every x solves it, and the
    # minimum-norm solution is 0.
    res = solve_linear(np.zeros((0, 3)), np.zeros(0))
    assert res.consistent and res.residual == 0.0
    np.testing.assert_array_equal(res.solutions.particular, np.zeros(3))
    np.testing.assert_array_equal(res.solutions.basis, np.eye(3))


def test_solution_set_parameterizes_solutions():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
        x = rng.standard_normal(n)
        b = a @ x
        res = solve_linear(a, b)
        assert res.consistent
        for _ in range(5):
            c = rng.standard_normal(res.solutions.dim)
            pt = res.solutions.point(c)
            np.testing.assert_allclose(a @ pt, b, atol=1e-8)
        # particular solution has minimum norm among sampled solutions
        norm0 = np.linalg.norm(res.solutions.particular)
        for _ in range(20):
            pt = res.solutions.point(rng.standard_normal(res.solutions.dim))
            assert norm0 <= np.linalg.norm(pt) + 1e-9


def test_solution_set_point_without_coefficients_is_a_copy():
    aset = AffineSolutionSet(np.array([1.0, 2.0]), np.zeros((2, 0)))
    x = aset.point()
    np.testing.assert_array_equal(x, [1.0, 2.0])
    x[0] = 9.0
    np.testing.assert_array_equal(aset.particular, [1.0, 2.0])


def test_least_squares_residual_is_minimal_against_sampled_candidates():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        b = rng.standard_normal(5)
        res = solve_linear(a, b)
        cand = rng.standard_normal((10_000, 4)) * 3.0
        cand_res = np.linalg.norm(cand @ a.T - b, axis=1)
        assert res.residual <= cand_res.min() + 1e-6


def test_spectral_norm():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((2, 2))) == 0.0
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    s = symmetrize(m)
    np.testing.assert_allclose(s, s.T)


def test_is_psd_examples():
    assert is_psd(np.eye(2))
    assert is_psd(np.zeros((3, 3)))
    assert is_psd(np.zeros((0, 0)))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schur_complements_scalar():
    s = schur_complements(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), lam=0.0
    )
    np.testing.assert_allclose(s.schur11, [[0.0]], atol=1e-14)
    np.testing.assert_allclose(s.schur22, [[0.0]], atol=1e-14)


def test_schur_complements_norms_equal_instance():
    m11 = np.diag([1.0, 0.0])
    m12 = np.eye(2)
    m22 = np.eye(2)
    s = schur_complements(m11, m12, m22, lam=0.0)
    np.testing.assert_allclose(s.schur11, np.diag([0.0, 1.0]), atol=1e-12)
    assert spectral_norm(m22) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(s.schur11) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_schur_complements_refuses_a_non_finite_lambda(lam):
    # NaN gave NaN matrices and inf a schur11 of -inf and NaN, silently,
    # as duality_report and the curves refuse such a lambda.
    one = np.eye(1)
    with pytest.raises(ValueError, match="lambda must be finite"):
        schur_complements(one, one, one, lam=lam)


ONE, ROW = np.eye(1), np.ones((1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: PartitionedQuadratic(ONE, ROW, ONE, [0.0], [0.0]),
     "M12 shape (1, 2) inconsistent with blocks (1, 1) and (1, 1)"),
    (lambda: PartitionedQuadratic(ONE, ONE, ONE, [0.0, 0.0], [0.0]),
     "linear terms inconsistent with block dimensions"),
    (lambda: PartitionedQuadratic(ONE, ONE, ONE, [0.0], [0.0, 0.0]),
     "linear terms inconsistent with block dimensions"),
    (lambda: PartitionedQuadratic(ONE, ONE, ONE, [0.0], [0.0]).evaluate([0.0, 0.0], [0.0]),
     "argument dimensions do not match the blocks"),
    (lambda: PartitionedQuadratic(ONE, ONE, ONE, [0.0], [0.0]).evaluate([0.0], [0.0, 0.0]),
     "argument dimensions do not match the blocks"),
    (lambda: as_matrix([1.0, 2.0]), "matrix must be 2-dimensional, got shape (2,)"),
    (lambda: as_vector(ONE), "vector must be 1-dimensional, got shape (1, 1)"),
    (lambda: as_vector([1.0, math.inf]), "vector contains non-finite entries"),
    (lambda: symmetrize(ROW), "matrix must be square, got shape (1, 2)"),
    (lambda: is_psd(ROW), "square matrix required, got shape (1, 2)"),
    (lambda: schur_complements(ONE, ROW, ONE),
     "M12 shape (1, 2) inconsistent with blocks (1, 1) and (1, 1)"),
    (lambda: QuadraticForm(np.eye(2), [0.0, 0.0]).evaluate([0.0]),
     "expected a vector of length 2"),
    (lambda: sphere_max(QuadraticForm(np.zeros((0, 0)), []), OracleConfig()),
     "dimension must be at least 1"),
], ids=[
    "M12-shape", "d1-length", "d2-length", "evaluate-u", "evaluate-w",
    "as-matrix-1d", "as-vector-2d", "as-vector-inf", "symmetrize-non-square",
    "is-psd-non-square", "schur-M12-shape", "form-evaluate", "sphere-max-0x0",
])
def test_malformed_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_assemble_blocks():
    m = PartitionedQuadratic(
        np.eye(1), np.array([[2.0]]), np.eye(1), np.zeros(1), np.zeros(1)
    ).assembled()
    np.testing.assert_allclose(m, [[1.0, 2.0], [2.0, 1.0]])


def test_partitioned_psd_matches_assembled():
    rng = np.random.default_rng(23)
    agree = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            big = random_psd(rng, m + n, rank=int(rng.integers(1, m + n + 1)))
        else:
            big = rng.standard_normal((m + n, m + n))
            big = 0.5 * (big + big.T)
        direct = is_psd(big)
        split = psd_by_blocks(big[:m, :m], big[:m, m:], big[m:, m:])
        assert direct == split
        agree += 1
    assert agree == 200


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_linear(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        svd(np.array([np.nan]).reshape(1, 1))
    with pytest.raises(ValueError):
        AffineSolutionSet(np.zeros(2), np.zeros((3, 1)))


def test_partitioned_psd_matches_assembled_at_every_scale():
    # Rank-deficient PSD blocks make S = M22 - M12' pinv(M11) M12 pure
    # cancellation; its rounding follows the scale of M22, not of S.
    rng = np.random.default_rng(29)
    for k in range(-8, 9):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        big = 10.0**k * random_psd(rng, m + n, rank=int(rng.integers(1, m + n)))
        assert is_psd(big)
        assert psd_by_blocks(big[:m, :m], big[:m, m:], big[m:, m:])
    m11 = np.array([[3840693.2215381153, 4047219.655953346],
                    [4047219.655953346, 4264851.681378312]])
    m12 = np.array([[25085958.44322859], [26434911.158877615]])
    m22 = np.array([[1.6385201178951976e08]])
    assert psd_by_blocks(m11, m12, m22)


@pytest.mark.parametrize("c", [1e-12, 1e-10, 1.0, 1e8])
def test_range_and_sign_tests_scale_with_the_data(c):
    # Each answer is read against the size of the data, with no absolute
    # floor that would turn a tiny problem into a zero one.
    flat, off_range = c * np.diag([1.0, 0.0]), c * np.array([0.0, 1.0])
    assert minimize(QuadraticForm(flat, off_range)) is None
    assert not solve_linear(flat, off_range).consistent
    assert not is_psd(c * np.diag([1.0, -1.0]))
    one, zero = np.array([[c]]), np.zeros((1, 1))
    no_saddle = PartitionedQuadratic(one, zero, zero, np.zeros(1), np.array([c]))
    assert solve_saddle(no_saddle) is None
    indefinite = PartitionedQuadratic(one, zero, -one, np.zeros(1), np.array([c]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        solve_linear_term(indefinite, Direction.MINMAX)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_eigenvalues_the_psd_test_tolerates_count_as_zero(c):
    # M11 = c diag(1, -1e-10) passes the PSD test, but its second
    # eigenvalue is above the rank cutoff: inverting it would turn the
    # flat direction e2 into curvature -1e-10 c.
    m11 = c * np.diag([1.0, -1e-10])
    assert is_psd(m11)
    m12, m22 = c * np.array([[0.0], [1.0]]), c * np.eye(1)
    assert not is_psd(np.block([[m11, m12], [m12.T, m22]]))
    assert not psd_by_blocks(m11, m12, m22)
    e2 = c * np.array([0.0, 1.0])
    assert minimize(QuadraticForm(m11, e2)) is None
    pq = PartitionedQuadratic(m11, np.zeros((2, 1)), m22, e2, np.zeros(1))
    assert solve_linear_term(pq, Direction.MAXMIN) is None


def svd_reference(m, d):
    """Stationary set of 1/2 z'Mz + d'z from numpy's SVD and pinv:
    (min-norm point, value, null dimension), or None when d is outside
    the range of M."""
    n = m.shape[0]
    x = -np.linalg.pinv(m, rtol=RANK_EPS * n) @ d
    if np.linalg.norm(m @ x + d) > TOL * np.linalg.norm(d):
        return None
    s = np.linalg.svd(m, compute_uv=False)
    return x, 0.5 * d @ x, n - int(np.sum(s > RANK_EPS * s[0] * n))


@pytest.mark.parametrize("k", range(-8, 9))
def test_symmetric_solvers_match_the_svd_reference(k):
    # minimize and solve_saddle split their matrix with one eigh; on
    # rank-deficient data at scale 10^k they must give the SVD's answer:
    # same status, same null dimension, same point/value.  The concave
    # kind "max" is minimized in its negation, whose value is negated.
    rng = np.random.default_rng(150 + k)
    c = 10.0**k
    for _ in range(12):
        n, p, q = (int(v) for v in rng.integers(1, [7, 4, 4]))
        d_mat = c * random_psd(rng, n, rank=int(rng.integers(0, n)))
        big = np.zeros((p + q, p + q))
        big[:p, :p] = c * random_psd(rng, p, rank=int(rng.integers(0, p)))
        big[p:, p:] = -c * random_psd(rng, q, rank=int(rng.integers(0, q)))
        r = int(rng.integers(0, min(p, q) + 1))
        big[:p, p:] = c * rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
        big[p:, :p] = big[:p, p:].T
        for kind, m in (("min", d_mat), ("max", -d_mat), ("saddle", big)):
            in_range = rng.random() < 0.5
            size = m.shape[0]
            d = m @ rng.standard_normal(size) if in_range else c * rng.standard_normal(size)
            if kind == "saddle":
                sol = solve_saddle(PartitionedQuadratic(
                    m[:p, :p], m[:p, p:], m[p:, p:], d[:p], d[p:]
                ))
                got = sol and (sol.solutions, sol.value)
            elif kind == "min":
                opt = minimize(QuadraticForm(m, d))
                got = opt and (opt.points, opt.value)
            else:
                opt = minimize(QuadraticForm(-m, -d))
                got = opt and (opt.points, -opt.value)
            ref = svd_reference(m, d)
            assert (got is None) == (ref is None)
            if ref is None:
                continue
            x, value, dim = ref
            assert got[0].dim == dim
            assert np.linalg.norm(got[0].particular - x) <= 1e-10 * np.linalg.norm(x)
            assert abs(got[1] - value) <= 1e-10 * abs(value)
