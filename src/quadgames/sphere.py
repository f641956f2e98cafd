"""Maximization of a convex quadratic over the unit sphere.

The problem max V(w) = 1/2 w'Dw + w'd over w'w = 1 with D >= 0 is solved
from one symmetric eigendecomposition D = Q diag(s) Q'.  With r = Q'd,
the stationary point at a multiplier lambda > s_max = ||D|| has
coordinates r_i / (lambda - s_i), and the value there is
lambda/2 + 1/2 sum r_i^2 / (lambda - s_i).  The optimal multiplier is
the root of the secular equation sum r_i^2 / (lambda - s_i)^2 = 1, found
by a safeguarded Newton iteration on 1/||w(lambda)|| - 1 (Moré &
Sorensen 1983), unless the hard case holds: r vanishes on the top
eigenspace and the response at s_max has norm at most 1.  Then the
multiplier stays at ||D|| (boundary case) and the optimizers are that
response plus the top eigenspace, intersected with the sphere; the part
of r on that eigenspace, zero up to the range test, still points the
representative at the best member.
One ``Secular`` rule decides each branch for the solve, the dual curve
(one array pass over a lambda grid) and the games of ``game``.

The paper's certificate for the multiplier, the largest real eigenvalue
of the 2n x 2n companion matrix [[D, I], [dd', D]], is kept as
``lambda_p``; no solver calls it, the tests check it against the
secular root (Adachi, Iwata, Nakatsukasa & Takeda 2017 relate the two).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import TOL, AffineSolutionSet, as_vector, nonnegative_spectrum, symmetrize

# An eigenvalue counts as real when |Im| <= IMAG_TOL * (1 + |Re|);
# nonsymmetric eigensolvers return complex pairs with rounding noise.
IMAG_TOL = 1e-8
# ``near_hard_case`` flags a boundary response norm within this of 1.
HARD_CASE_BAND = 1e-6
# Newton steps on the secular equation converge quadratically from the
# left; the cap only guards against a stalled iteration.
NEWTON_STEPS = 100


class SphereSolutionSet(NamedTuple):
    """Intersection of an affine set with the unit sphere.

    ``particular`` is the minimum-norm point of the affine set (norm at
    most 1), ``basis`` spans the free directions, and ``radius_residual``
    = sqrt(max(0, 1 - ||particular||^2)) is the norm available along
    them.  Representatives are unit vectors.
    """

    particular: np.ndarray
    basis: np.ndarray
    radius_residual: float

    def representative(self) -> np.ndarray:
        """Deterministic unit-norm member: positive coefficient on the
        first free direction, or the particular point alone."""
        if self.basis.shape[1] == 0:
            return self.particular.copy()
        return self.particular + self.radius_residual * self.basis[:, 0]


def sphere_intersect(aset: AffineSolutionSet) -> SphereSolutionSet:
    """Intersect an affine solution set with the unit sphere.

    Relies on the particular point being the minimum-norm member
    (orthogonal to the basis).  Raises when the intersection is empty,
    which on trust-region solution sets signals a numerical breakdown.
    """
    p_norm = float(np.linalg.norm(aset.particular))
    if p_norm > 1.0 + TOL:
        raise ValueError(
            f"affine set does not reach the unit sphere (min norm {p_norm!r})"
        )
    if aset.basis.shape[1] == 0 and p_norm < 1.0 - TOL:
        raise ValueError(
            f"affine set is a single interior point (norm {p_norm!r}); "
            "empty intersection with the sphere"
        )
    residual = math.sqrt(max(0.0, 1.0 - p_norm * p_norm))
    return SphereSolutionSet(aset.particular, aset.basis, residual)


class TrustRegionSolution(NamedTuple):
    """Solution of max of a convex quadratic over the unit sphere.

    ``boundary`` records whether the optimal multiplier equals ||D||
    (solution set may include top-eigenspace directions) or exceeds it
    (unique optimizer).  ``near_hard_case`` flags instances whose
    boundary response norm sits within ``HARD_CASE_BAND`` of 1, where
    the branch decision is fragile.
    """

    value: float
    lambda_p: float
    boundary: bool
    w_star: SphereSolutionSet
    near_hard_case: bool = False


class Secular(NamedTuple):
    """A trust region (D, d) in the eigenbasis of D = Q diag(s) Q'.

    ``s`` ascends, ``r`` = Q'd, and ``tol`` = TOL (||D|| + ||d||) is
    the scale of the eigenvalue tests (top eigenspace, gaps lam - s_i).
    ``range_tol`` is that of the test that r vanishes on the top
    eigenspace; it equals ``tol`` unless d was computed from larger data.
    One instance serves the solve, the dual curve and the lambda-family
    of a game, which all decide their branches by ``range_holds``,
    ``finite`` and ``at``.
    """

    s: np.ndarray
    q: np.ndarray
    r: np.ndarray
    tol: float
    range_tol: float

    @classmethod
    def of(
        cls, d_mat: np.ndarray, d_vec: np.ndarray, scale=None, d_scale=None
    ) -> "Secular":
        """Factor symmetric D once; its PSD test reads ``s``.  ``scale``
        stands in for ||D|| when D was computed from larger data (a Schur
        complement), whose rounding its eigenvalues carry; ``d_scale``
        likewise stands in for ||d|| in ``range_tol``."""
        s, q = np.linalg.eigh(d_mat)
        if scale is None:
            scale = float(np.max(np.abs(s))) if s.size else 0.0
        tol = TOL * (scale + float(np.linalg.norm(d_vec)))
        range_tol = tol if d_scale is None else TOL * (scale + d_scale)
        return cls(s, q, q.T @ d_vec, tol, range_tol)

    @property
    def smax(self) -> float:
        """||D|| for PSD D; -inf for a 0 x 0 D, whose empty spectrum sets
        no threshold, so every lambda is above it."""
        return float(self.s[-1]) if self.s.size else -math.inf

    @property
    def top(self) -> np.ndarray:
        """Mask of the top eigenspace: s_i within tol of s_max."""
        return self.s >= self.smax - self.tol

    def response(self, lam: float | np.ndarray) -> np.ndarray:
        """Coordinates r_i / (lam - s_i) of the stationary point at lam,
        leaving out directions with lam - s_i <= tol (the pseudoinverse
        at the top of the spectrum).  A scalar lam gives one row, a 1-D
        array of multipliers one row per entry."""
        gap = np.subtract.outer(lam, self.s)
        return np.divide(self.r, gap, out=np.zeros_like(gap), where=gap > self.tol)

    def value(self, lam: float | np.ndarray, c: np.ndarray) -> float | np.ndarray:
        """Dual value lam/2 + 1/2 r'c per row of response coordinates c."""
        return 0.5 * np.asarray(lam) + 0.5 * np.vecdot(c, self.r)

    @property
    def range_holds(self) -> bool:
        """Whether d lies in R(D - ||D|| I): r vanishes on the top
        eigenspace, up to ``range_tol``."""
        return bool(np.linalg.norm(self.r[self.top]) <= self.range_tol)

    def finite(self, lam: float | np.ndarray, thr: float | None = None):
        """Whether the dual value at lam is finite, elementwise: from the
        threshold ``thr`` (default ||D||) less tol on, except within tol
        of ||D||, where d must lie in R(D - ||D|| I)."""
        thr = self.smax if thr is None else thr
        above = lam > self.smax + self.tol
        return (lam >= thr - self.tol) & (above | self.range_holds)

    def at(self, lam: float, b: Secular | None = None):
        """Response coordinates c at lam and the stationary set
        w0 + null(B - lam I), w0 = Qc, held by its minimum-norm point.
        B is D unless the eigenpairs ``b`` of another matrix (M22) are
        given."""
        b = self if b is None else b
        c = self.response(lam)
        w0 = self.q @ c
        null = b.q[:, np.abs(b.s - lam) <= b.tol]
        return c, AffineSolutionSet(w0 - null @ (null.T @ w0), null)

    def solve(self) -> tuple[TrustRegionSolution, int]:
        """The maximizer set and value, plus the Newton step count."""
        response_norm = float(np.linalg.norm(self.response(self.smax)))
        range_holds = self.range_holds
        boundary = range_holds and response_norm <= 1.0
        if boundary:
            lam, steps = self.smax, 0
            c, aset = self.at(lam)
            value = float(self.value(lam, c))
            w_star, value = self.orient(sphere_intersect(aset), lam, value)
        else:
            mu, c, steps = _secular_root(np.maximum(self.smax - self.s, 0.0), self.r)
            lam = self.smax + mu
            w_star = SphereSolutionSet(self.q @ c, np.zeros((c.shape[0], 0)), 0.0)
            value = float(self.value(lam, c))
        near_hard = range_holds and abs(response_norm - 1.0) < HARD_CASE_BAND
        return TrustRegionSolution(value, lam, boundary, w_star, near_hard), steps

    def orient(
        self, sset: SphereSolutionSet, lam: float, value: float, r=None
    ) -> tuple[SphereSolutionSet, float]:
        """Turn ``sset``, whose free directions span null(D - lam I), so
        that its representative points along the part of r (default
        ``self.r``; eigenbasis coordinates) in that null space, and add
        radius ||r_null|| to ``value``, the value at the set's stationary
        point: the representative's value.  That part passes the range
        test, so it is rounding, but it still picks the best member of
        the set.  When it is exactly 0 both come back as they are."""
        r = self.r if r is None else r
        part = r[np.abs(self.s - lam) <= self.tol]
        norm = float(np.linalg.norm(part))
        if norm == 0.0:
            return sset, value
        # A Householder reflection maps the first coordinate axis to the
        # unit part: the new first free direction is basis @ part / norm.
        v = -part / norm
        v[0] += 1.0
        vv = float(v @ v)
        basis = sset.basis
        if vv > 0.0:
            basis = basis - np.outer(basis @ v, (2.0 / vv) * v)
        turned = sset._replace(basis=basis)
        return turned, value + sset.radius_residual * norm


def _secular_root(gaps: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Root mu of ||c(mu)|| = 1 with c_i = r_i / (mu + gaps_i), gaps >= 0.

    Newton on f(mu) = 1/||c(mu)|| - 1, which is concave and increasing,
    starts at the lower bound mu = max(0, max_i |r_i| - gaps_i), where
    f <= 0; its iterates then rise monotonically to the root, capped at
    ||r||, where f >= 0.  Returns (mu, c(mu), Newton steps).
    """
    live = r != 0.0
    g, rl = gaps[live], r[live]
    r2 = rl * rl
    mu = max(0.0, float(np.max(np.abs(rl) - g)))
    hi = math.sqrt(float(r2.sum()))
    steps = 0
    while steps < NEWTON_STEPS:
        terms = r2 / (mu + g) ** 2
        norm2 = float(terms.sum())
        f = 1.0 / math.sqrt(norm2) - 1.0
        if f >= -4.0 * np.finfo(float).eps:
            break
        slope = float(np.sum(terms / (mu + g))) / norm2**1.5
        nxt = min(mu - f / slope, hi)
        if not nxt > mu:
            break
        mu = nxt
        steps += 1
    c = np.zeros_like(r)
    c[live] = rl / (mu + g)
    return mu, c, steps


def _check_inputs(d_mat, d_vec) -> tuple[np.ndarray, np.ndarray, Secular]:
    """Validated D and d, and the eigenpairs of D that the PSD test read."""
    d_mat = symmetrize(d_mat, "D")
    d_vec = as_vector(d_vec, "d")
    if d_vec.shape[0] != d_mat.shape[0]:
        raise ValueError("d length does not match D")
    sec = Secular.of(d_mat, d_vec)
    if not nonnegative_spectrum(sec.s):
        raise ValueError("D must be positive semidefinite")
    return d_mat, d_vec, sec


def lambda_p(d_mat, d_vec) -> float:
    """Largest real eigenvalue of the 2n x 2n companion matrix
    [[D, I], [dd', D]].

    A real eigenvalue >= ||D|| always exists for PSD D; its absence
    signals an eigensolver failure and is surfaced as a RuntimeError.
    Off the hard case it matches the secular multiplier to rounding.
    In the hard case the multiplier ||D|| is a defective eigenvalue of
    this matrix, and ``eigvals`` resolves it only to about sqrt(eps):
    gaps up to about 2e-8 relative on random hard cases of dimension
    2-4.
    """
    d_mat, d_vec, _ = _check_inputs(d_mat, d_vec)
    p = np.block([[d_mat, np.eye(d_vec.shape[0])], [np.outer(d_vec, d_vec), d_mat]])
    try:
        eigs = np.linalg.eigvals(p)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigenvalue computation failed") from exc
    real = eigs[np.abs(eigs.imag) <= IMAG_TOL * (1.0 + np.abs(eigs.real))]
    if real.size == 0:
        raise RuntimeError("no real eigenvalue found in the companion matrix")
    return float(real.real.max())


def _lambda_grid(lambda_min: float, lambda_max: float, steps: int) -> np.ndarray:
    """The uniform grid of a curve, ``steps`` >= 2 points from
    ``lambda_min`` < ``lambda_max``; ValueError otherwise."""
    if not lambda_min < lambda_max:
        raise ValueError("lambda_min must be smaller than lambda_max")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return np.linspace(lambda_min, lambda_max, steps)


def solve_trust_region(d_mat, d_vec) -> TrustRegionSolution:
    """Solve max 1/2 w'Dw + w'd over the unit sphere for PSD D.

    The value is lambda/2 - 1/2 d' pinv(D - lambda I) d at the optimal
    multiplier; one eigendecomposition of D gives the multiplier, the
    branch and the maximizer set.  A 0 x 0 D is an input error: the
    unit sphere in R^0 has no points.
    """
    _, _, sec = _check_inputs(d_mat, d_vec)
    if sec.s.size == 0:
        raise ValueError("D is 0 x 0; the unit sphere in R^0 is empty")
    solution, _ = sec.solve()
    return solution


def dual_curve(
    d_mat,
    d_vec,
    lambda_min: float,
    lambda_max: float,
    steps: int,
) -> list[tuple[float, float, float | None]]:
    """Sample the dual value function and its derivative on a grid.

    For lambda > ||D|| the value is lambda/2 + 1/2 sum r_i^2/(lambda - s_i)
    with derivative 1/2 (1 - sum r_i^2/(lambda - s_i)^2), read off the
    eigenpairs of D.  Within tol of ||D|| the value is finite iff d is
    in the range of D - ||D|| I (``Secular.finite``), and the top
    eigenspace drops out of the sums.  Points below ||D|| are infinite
    with no derivative (encoded math.inf / None).  The whole grid is one
    array pass over a (steps x n) response matrix.
    """
    _, _, sec = _check_inputs(d_mat, d_vec)
    lams = _lambda_grid(lambda_min, lambda_max, steps)
    c = sec.response(lams)
    values = sec.value(lams, c)
    slopes = 0.5 * (1.0 - np.vecdot(c, c))
    finite = sec.finite(lams)
    return [
        (lam, value, slope) if ok else (lam, math.inf, None)
        for lam, value, slope, ok in zip(
            lams.tolist(), values.tolist(), slopes.tolist(), finite.tolist()
        )
    ]
