"""Dense matrix primitives.

Everything downstream is built on the rank-revealing split computed
here: pseudoinverse solves, null/range bases, affine solution sets of
linear systems, semidefiniteness tests, and Schur complements of
partitioned symmetric matrices.  Every symmetric matrix is split by one
``eigh`` (``symmetric_split``, which can run the PSD test on the same
eigenvalues) or read by ``eigvalsh`` (``spectral_norm``, ``is_psd``);
the SVD is for rectangular A alone (``solve_linear``).

Matrices are plain ``numpy.ndarray`` values, validated (2-d, finite) at
the function boundary, as vectors and scalars are.  All functions are
pure and all returned values should be treated as immutable.

The rounding model of the package is here too: every bound any module
reads, the two sizes the bounds multiply, and the one norm they are
measured by (``norm``, by rows ``row_norms``), exact over the normal
floats.  A quantity computed in floating point carries rounding of a few
n eps of the size of its terms (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 3), so a test of a quantity against zero
reads a share of that size.  The sizes are ``data_size``, ||M||_F +
||d|| (+ |lambda|) of the data a decision starts from, and ``term_size``,
1/2 |z|'|M||z| + |d|'|z| of the terms of 1/2 z'Mz + d'z at a point z; a
certificate that builds its own quantities sizes them by their own
terms.  The shares:

- ``RANK_EPS``: a singular value sigma_i is zero when sigma_i <=
  RANK_EPS sigma_max max(rows, cols).
- ``TOL``: the solvers' share for every decision on the data, of the
  size of the data the tested quantity is computed from: range
  membership, for solvers and oracles, by ``SvdFactors.in_range`` (||U2'
  b|| <= TOL ||b||, or TOL ||d|| for a game's d1), symmetry (||M - M'||
  <= TOL ||M||, larger is rejected), the PSD test (eigenvalues >= -TOL
  ||M||), the branch tests of ``sphere.Secular`` (TOL (||D||_2 + ||C|| +
  ||d||), C the term a Schur complement D was reduced by, 0 for a given
  D; its PSD test reads ||D||_2 + ||C||) and the unit-sphere test of
  ``sphere.sphere_intersect`` (| ||w|| - 1 | <= TOL).
- ``ROUNDING``: the certificates' share of their terms' size, for every
  certificate and value comparison of ``check``.
- ``BRACKET``: the cut-engine verdicts of ``check`` (MINMAX,
  ``lagrangian``): with delta = BRACKET (data_size + |value|), the
  oracle's bracket is at most delta wide and holds the value to delta.
- ``CUT_STOP``: the central cuts stop once upper - lower <= CUT_STOP
  (min(1, size) + |upper|), size the data_size (1 if 0).
- ``SECULAR_STOP``: Newton on the secular f(mu) = 1/||c(mu)|| - 1 stops at
  f >= -SECULAR_STOP, 4 eps: f is formed with a few eps of rounding.
- ``IMAG_TOL``: an eigenvalue counts as real when |Im| <= IMAG_TOL
  (1 + |Re|); nonsymmetric eigensolvers return complex pairs with
  rounding noise.
- ``HARD_CASE_BAND``: ``near_hard_case`` flags a trust region whose
  boundary response norm is within this of 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

RANK_EPS = 1e-12
TOL = 1e-9
ROUNDING = 1e-12
BRACKET = 1e-8
CUT_STOP = 1e-10
SECULAR_STOP = 4.0 * np.finfo(float).eps
IMAG_TOL = 1e-8
HARD_CASE_BAND = 1e-6
_TINY = float(np.finfo(float).tiny)
_UNIT = 2.0**600


def data_size(m: np.ndarray, d: np.ndarray | None = None, lam: float = 0.0) -> float:
    """||m||_F + ||d|| + |lam|, the size of the data (m, d) at lam."""
    return norm(m) + (0.0 if d is None else norm(d)) + abs(lam)


def term_size(m: np.ndarray, d: np.ndarray, z: np.ndarray) -> float:
    """1/2 |z|'|m||z| + |d|'|z|, the size of the terms of 1/2 z'mz + d'z
    at z."""
    z = np.abs(z)
    return 0.5 * z @ np.abs(m) @ z + np.abs(d) @ z


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Validate and convert ``b`` to a 1-d float array with finite entries."""
    v = np.asarray(b, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_scalar(x, name: str = "number") -> float:
    """Validate and convert ``x`` to a finite float."""
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_integer(value, name: str, least: int) -> None:
    """Refuse a ``value`` that is not an integer (a bool is not one) or is
    below ``least``: TypeError, ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


class SvdFactors(NamedTuple):
    """Rank-revealing SVD split A = U1 diag(sigma) V1', from ``svd`` or,
    for symmetric A, from one ``eigh`` (``symmetric_split``).

    Columns of ``u1``/``u2`` span the range of A and its orthogonal
    complement; columns of ``v1``/``v2`` span the row space and the null
    space.  ``sigma`` holds the retained (positive, descending) singular
    values, and ``rank`` equals ``len(sigma)``.  The zero matrix has rank
    0 with empty ``u1``/``v1`` blocks; a square invertible matrix has
    empty ``u2``/``v2`` blocks.
    """

    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    sigma: np.ndarray
    rank: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """pinv(A) b = V1 diag(1/sigma) U1' b, for a vector or the columns
        of a matrix b, without forming pinv(A)."""
        return (self.v1 / self.sigma) @ (self.u1.T @ b)

    def in_range(self, b: np.ndarray, scale: float | None = None) -> bool:
        """Whether b, a vector or the columns of a matrix, lies in the range
        of A by the one range rule ||U2' b|| <= TOL scale: scale ||b||, or
        ||d|| for a game's d1, the data it was taken from (not ||d1||)."""
        return norm(self.u2.T @ b) <= TOL * (norm(b) if scale is None else scale)


def svd(a) -> SvdFactors:
    """Full SVD of ``a`` split at the numerical rank."""
    a = as_matrix(a)
    m, n = a.shape
    if a.size == 0:
        return _split(np.eye(m), np.zeros(0), np.eye(n))
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return _split(u, s, vt.T)


def symmetric_split(m: np.ndarray, psd: bool = False) -> SvdFactors | None:
    """The SVD split of symmetric M from one ``eigh`` M = V diag(s) V':
    sigma_i = |s_i|, U = V sign(s), with the SVD's rank rule on |s_i|.
    A caller that requires M >= 0 passes ``psd``: the split is None when
    M fails the PSD test of ``is_psd``, and the negative eigenvalues
    that test tolerates are rounding, so they are split as zeros (null
    space, not inverted by ``solve``); the clipped spectrum is then its
    own |s| with U = V, sorted already: ``eigh``'s order read backwards.
    Otherwise every |s_i| is kept."""
    s, v = np.linalg.eigh(m)
    if psd:
        if not nonnegative_spectrum(s):
            return None
        return _split(v[:, ::-1], np.maximum(s[::-1], 0.0), v[:, ::-1])
    order = np.argsort(-np.abs(s), kind="stable")
    v = v[:, order]
    return _split(v * np.copysign(1.0, s[order]), np.abs(s[order]), v)


def _split(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> SvdFactors:
    """Split U diag(s) V' (s descending) at the numerical rank.

    ``v2`` is a compact copy: it is the null-space basis the solvers
    hand out in their solution sets, and a slice would keep the whole
    n x n factor alive as long as the result is held.  The other blocks
    are views that live only as long as the split."""
    smax = float(s[0]) if s.size else 0.0
    rank = np.count_nonzero(s > RANK_EPS * smax * max(u.shape[0], v.shape[0], 1))
    return SvdFactors(
        u1=u[:, :rank],
        u2=u[:, rank:],
        v1=v[:, :rank],
        v2=v[:, rank:].copy(),
        sigma=s[:rank],
        rank=rank,
    )


def norm(x: np.ndarray) -> float:
    """||x|| of a float array, Frobenius for a matrix.  A sum of squares
    x'x in the normal range is taken as ``np.linalg.norm`` takes it, to
    its bits; one that overflows (numpy warns) or underflows, 0 included,
    is summed again of x 2^-600 or x 2^600, an exact scaling, and the
    power of two undone (Blue, ACM TOMS 4(1), 1978; LAPACK's dnrm2)."""
    x = x.ravel(order="K")
    square = x.dot(x)
    if _TINY <= square < math.inf:
        return math.sqrt(square)
    unit = _UNIT if square < _TINY else 1.0 / _UNIT
    x = x * unit
    return math.sqrt(x @ x) / unit


def row_norms(x: np.ndarray) -> np.ndarray:
    """``norm`` of each row of a float matrix x; in the normal range the
    bits of ``np.linalg.norm(x, axis=1)``."""
    square = np.add.reduce(x * x, axis=1)
    if ((square >= _TINY) & (square < math.inf)).all() or not x.any():
        return np.sqrt(square)
    unit = np.where(square < _TINY, _UNIT, np.where(square < math.inf, 1.0, 1.0 / _UNIT))
    return np.sqrt(np.add.reduce((x * unit[:, None]) ** 2, axis=1)) / unit


def spectral_norm(m) -> float:
    """Largest |eigenvalue| of symmetric ``m``, its spectral norm; 0 for
    the zero or empty matrix."""
    s = np.linalg.eigvalsh(as_matrix(m))
    return float(max(-s[0], s[-1])) if s.size else 0.0


class Validated:
    """Mixin for a validating namedtuple subclass: ``_make``, and with it
    ``_replace``, builds through the class, so its ``__new__`` checks
    the new fields too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AffineSolutionSet(Validated, namedtuple("AffineSolutionSet", "particular basis")):
    """An affine set x0 + span(basis columns).

    ``particular`` is the minimum-norm representative and is orthogonal
    to the orthonormal ``basis`` columns, which span the free directions
    (the basis may have zero columns, in which case the set is a single
    point).
    """

    __slots__ = ()

    def __new__(cls, particular, basis):
        particular = as_vector(particular, "particular")
        basis = as_matrix(basis, "basis")
        if basis.shape[0] != particular.shape[0]:
            raise ValueError(
                f"basis rows {basis.shape[0]} do not match the particular "
                f"point length {particular.shape[0]}"
            )
        return super().__new__(cls, particular, basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def point(self, coeffs=None) -> np.ndarray:
        """A member of the set: particular + basis @ coeffs."""
        if coeffs is None:
            return self.particular.copy()
        coeffs = as_vector(coeffs, "coeffs")
        return self.particular + self.basis @ coeffs


class LinearSolve(NamedTuple):
    """Outcome of solving A x = b.

    When ``consistent`` the set solves the system exactly; otherwise it
    is the least-squares solution set and ``residual`` = ||A x - b||,
    which equals ||U2' b||.
    """

    solutions: AffineSolutionSet
    residual: float
    consistent: bool


def solve_linear(a, b) -> LinearSolve:
    """Solve A x = b, returning the full solution set.

    The particular solution is the minimum-norm one (pinv(A) b); the
    basis spans the null space of A.  Consistency is ``in_range``'s rule,
    written out to report the residual it compares; b = 0 passes it.
    """
    a = as_matrix(a, "A")
    b = as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"A has {a.shape[0]} rows but b has length {b.shape[0]}")
    f = svd(a)
    x = f.solve(b)
    residual = norm(f.u2.T @ b)
    consistent = residual <= TOL * norm(b)
    return LinearSolve(AffineSolutionSet(x, f.v2), residual, consistent)


def symmetrize(m, name: str = "matrix") -> np.ndarray:
    """Return (M + M')/2, rejecting inputs with material asymmetry."""
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    asym = norm(m - m.T)
    if asym > TOL * norm(m):
        raise ValueError(f"{name} is not symmetric (asymmetry {asym:g})")
    return 0.5 * (m + m.T)


def is_psd(m) -> bool:
    """Whether ``m`` is symmetric positive semidefinite.

    Returns False (rather than raising) for symmetric-looking input
    that fails the eigenvalue test or for materially asymmetric input.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    if m.size == 0:
        return True
    if norm(m - m.T) > TOL * norm(m):
        return False
    return nonnegative_spectrum(np.linalg.eigvalsh(0.5 * (m + m.T)))


def nonnegative_spectrum(w: np.ndarray, scale: float | None = None) -> bool:
    """Whether ascending eigenvalues ``w`` of a symmetric matrix pass the
    PSD test of ``is_psd``; lets a caller that needs the eigenpairs
    anyway test them without a second factorization.  ``scale`` is the
    size of the data the matrix was computed from (default max |w|)."""
    if w.size == 0:
        return True
    if scale is None:
        scale = max(-w[0], w[-1])
    return bool(w[0] >= -TOL * scale)


class SchurPair(NamedTuple):
    """The two lambda-dependent Schur complements of a partitioned matrix.

    ``schur11`` = (M22 - lambda I) - M12' pinv(M11) M12 is the complement
    of the upper-left block; ``schur22`` = M11 - M12 pinv(M22 - lambda I) M12'
    is the complement of the (shifted) lower-right block.  Both are
    symmetric.
    """

    schur11: np.ndarray
    schur22: np.ndarray


def schur_complements(m11, m12, m22, lam: float = 0.0) -> SchurPair:
    """Compute both Schur complements of [[M11, M12], [M12', M22 - lam I]],
    each through ``_schur``'s split: one ``eigh`` of a PSD block, a
    second of one that fails the PSD test."""
    m11 = symmetrize(m11, "M11")
    m22 = symmetrize(m22, "M22")
    m12 = as_matrix(m12, "M12")
    if m12.shape != (m11.shape[0], m22.shape[0]):
        raise ValueError(
            f"M12 shape {m12.shape} inconsistent with blocks "
            f"{m11.shape} and {m22.shape}"
        )
    m22l = m22 - as_scalar(lam, "lambda") * np.eye(m22.shape[0])
    return SchurPair(_schur(m11, m12, m22l), _schur(m22l, m12.T, m11))


def _schur(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """C - B' pinv(A) B for symmetric A and C, symmetrized.  A is split as
    ``schur_reduction`` splits M11: a PSD A with the negative eigenvalues
    that the PSD test tolerates clipped to zero, by one ``eigh``; any
    other A as it is, by a second."""
    s = c - b.T @ (symmetric_split(a, psd=True) or symmetric_split(a)).solve(b)
    return 0.5 * (s + s.T)
