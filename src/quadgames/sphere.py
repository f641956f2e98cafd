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
(one ``eigh``, then whole-array steps whose count does not grow with
its lambda grid) and the games of ``game``.  One routine,
``Secular.on_sphere``, puts a stationary set on the sphere, for the
solve's boundary branch and for a MINMAX multiplier stuck at ||M22||.

The paper's certificate for the multiplier, the largest real eigenvalue
of the 2n x 2n companion matrix [[D, I], [dd', D]], is kept as
``lambda_p``; no solver calls it, the tests check it against the
secular root (Adachi, Iwata, Nakatsukasa & Takeda 2017 relate the two).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    HARD_CASE_BAND, IMAG_TOL, SECULAR_STOP, TOL, AffineSolutionSet, as_scalar,
    as_vector, check_integer, nonnegative_spectrum, norm, symmetrize,
)

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
    p_norm = norm(aset.particular)
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

    ``s`` ascends, ``r`` = Q'd, and ``tol`` = TOL (scale + ||d||) is the
    scale of the eigenvalue tests (top eigenspace, gaps lam - s_i), with
    scale = ||D||_2 + ``coupling``, the norm of the term D was reduced by
    (0 for data given as D).  ``psd`` is the PSD test of
    ``nonnegative_spectrum`` on ``s`` at that scale.  By Weyl's theorem
    an error E in D moves each eigenvalue by at most ||E||_2, a few eps
    of ||M||_2 + ||C|| for D = M - C; the scale is within a factor of 2
    of that, as ||D||_2 + ||C|| >= ||M||_2.  A p = 0 game's S is its M22
    with C = 0, so its instance is the trust region's, field for field.
    ``range_tol`` is that of the test that r vanishes on the top
    eigenspace; it equals ``tol`` unless d was computed from larger data.
    ``smax`` is ||D|| for PSD D, and -inf for a 0 x 0 D, whose empty
    spectrum sets no threshold, so every lambda is above it.
    ``range_holds`` says whether d lies in R(D - ||D|| I): r vanishes on
    the top eigenspace (s_i within tol of ``smax``), up to
    ``range_tol``.  Only ``of`` builds an instance, as it derives the
    tests from the others; a ``_replace`` would leave them stale.  One
    instance serves the solve, the dual curve and the lambda-family of a
    game, which all decide their branches by ``range_holds`` and
    ``finite``, and read their sets off ``at`` and ``on_sphere``.
    """

    s: np.ndarray
    q: np.ndarray
    r: np.ndarray
    tol: float
    range_tol: float
    smax: float
    range_holds: bool
    psd: bool

    @classmethod
    def of(
        cls, d_mat: np.ndarray, d_vec: np.ndarray, coupling: float = 0.0, d_scale=None
    ) -> "Secular":
        """Factor symmetric D once.  ``coupling`` is the norm of the term
        a Schur complement D was reduced by; ``d_scale`` stands in for
        ||d|| in ``range_tol`` when d was computed from larger data."""
        s, q = np.linalg.eigh(d_mat)
        scale = (float(max(-s[0], s[-1])) if s.size else 0.0) + coupling
        tol = TOL * (scale + norm(d_vec))
        range_tol = tol if d_scale is None else TOL * (scale + d_scale)
        r = q.T @ d_vec
        smax = float(s[-1]) if s.size else -math.inf
        range_holds = norm(r[s >= smax - tol]) <= range_tol
        psd = nonnegative_spectrum(s, scale)
        return cls(s, q, r, tol, range_tol, smax, range_holds, psd)

    def response(self, lam: float | np.ndarray) -> np.ndarray:
        """Coordinates r_i / (lam - s_i) of the stationary point at lam,
        leaving out directions with lam - s_i <= tol (the pseudoinverse
        at the top of the spectrum).  A scalar lam gives one row, a 1-D
        array of multipliers one row per entry."""
        gap = np.asarray(lam)[..., None] - self.s
        return np.divide(self.r, gap, out=np.zeros(gap.shape), where=gap > self.tol)

    def value(self, lam: float | np.ndarray, c: np.ndarray) -> float | np.ndarray:
        """Dual value lam/2 + 1/2 r'c per row of response coordinates c."""
        return 0.5 * np.asarray(lam) + 0.5 * np.vecdot(c, self.r)

    def finite(self, lam: float | np.ndarray, thr: float | None = None):
        """Whether the dual value at lam is finite, elementwise: from the
        threshold ``thr`` (default ||D||) less tol on, except within tol
        of ||D||, where d must lie in R(D - ||D|| I)."""
        thr = self.smax if thr is None else thr
        above = lam > self.smax + self.tol
        return (lam >= thr - self.tol) & (above | self.range_holds)

    def at(self, lam: float, w0: np.ndarray) -> AffineSolutionSet:
        """The stationary set w0 + null(D - lam I) at lam, held by its
        minimum-norm point."""
        null = self.q[:, np.abs(self.s - lam) <= self.tol]
        return AffineSolutionSet(w0 - null @ (null.T @ w0), null)

    def solve(self) -> tuple[TrustRegionSolution, int]:
        """The maximizer set and value, plus the Newton step count."""
        c = self.response(self.smax)
        response_norm = norm(c)
        boundary = self.range_holds and response_norm <= 1.0
        if boundary:
            lam, steps = self.smax, 0
            w_star, value = self.on_sphere(lam, self.q @ c, float(self.value(lam, c)))
        else:
            mu, c, steps = _secular_root(np.maximum(self.smax - self.s, 0.0), self.r)
            lam = self.smax + mu
            w_star = SphereSolutionSet(self.q @ c, np.zeros((c.shape[0], 0)), 0.0)
            value = float(self.value(lam, c))
        near_hard = self.range_holds and abs(response_norm - 1.0) < HARD_CASE_BAND
        return TrustRegionSolution(value, lam, boundary, w_star, near_hard), steps

    def on_sphere(
        self, lam: float, w0: np.ndarray, value: float, r=None
    ) -> tuple[SphereSolutionSet, float]:
        """The stationary set ``at(lam, w0)`` on the unit sphere, turned
        so that its representative points along the part of r (default
        ``self.r``; eigenbasis coordinates) in null(D - lam I), and
        ``value``, the value at w0, plus radius ||r_null||: the
        representative's value.  That part passes the range test, so it
        is rounding, but it still picks the best member of the set.  When
        it is exactly 0 the set is not turned."""
        sset = sphere_intersect(self.at(lam, w0))
        r = self.r if r is None else r
        part = r[np.abs(self.s - lam) <= self.tol]
        length = norm(part)
        if length == 0.0:
            return sset, value
        # A Householder reflection maps the first coordinate axis to the
        # unit part: the new first free direction is basis @ part / length.
        v = -part / length
        v[0] += 1.0
        vv = float(v @ v)
        basis = sset.basis
        if vv > 0.0:
            basis = basis - np.outer(basis @ v, (2.0 / vv) * v)
        turned = sset._replace(basis=basis)
        return turned, value + sset.radius_residual * length


def _secular_root(gaps: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Root mu of ||c(mu)|| = 1 with c_i = r_i / (mu + gaps_i), gaps >= 0.

    Newton on f(mu) = 1/||c(mu)|| - 1, which is concave and increasing,
    starts at the lower bound mu = max(0, max_i |r_i| - gaps_i), where
    f <= 0; its iterates then rise monotonically to the root, capped at
    ||r||, where f >= 0, and stop once f >= -``SECULAR_STOP``.
    The steps run on (gaps, r) / 2^k, 2^k <= max |r_i| < 2^(k+1): an
    exact scaling that leaves c as it is and puts max r_i^2 in [1, 4).
    Returns (mu, c(mu), Newton steps).
    """
    live = r != 0.0
    unit = 2.0 ** (math.frexp(np.abs(r).max())[1] - 1)
    g, rl = gaps[live] / unit, r[live] / unit
    r2 = rl * rl
    mu = max(0.0, float((np.abs(rl) - g).max()))
    hi = math.sqrt(float(r2.sum()))
    steps = 0
    while steps < NEWTON_STEPS:
        terms = r2 / (mu + g) ** 2
        norm2 = float(terms.sum())
        f = 1.0 / math.sqrt(norm2) - 1.0
        if f >= -SECULAR_STOP:
            break
        slope = float((terms / (mu + g)).sum()) / norm2**1.5
        nxt = min(mu - f / slope, hi)
        if not nxt > mu:
            break
        mu = nxt
        steps += 1
    c = np.zeros_like(r)
    c[live] = rl / (mu + g)
    return mu * unit, c, steps


def _check_inputs(d_mat, d_vec) -> tuple[np.ndarray, np.ndarray, Secular]:
    """Validated D and d, and the eigenpairs of D that the PSD test read."""
    d_mat = symmetrize(d_mat, "D")
    d_vec = as_vector(d_vec, "d")
    if d_vec.shape[0] != d_mat.shape[0]:
        raise ValueError("d length does not match D")
    sec = Secular.of(d_mat, d_vec)
    if not sec.psd:
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
    # The similar [[D, sI], [dd'/s, D]] (by diag(I, sI)), s a power of two
    # near ||d||, has blocks of the data's size where dd' over- or underflows.
    n, unit = d_vec.shape[0], 2.0 ** (math.frexp(norm(d_vec))[1] - 1)
    p = np.block([[d_mat, unit * np.eye(n)], [np.outer(d_vec, d_vec / unit), d_mat]])
    try:
        eigs = np.linalg.eigvals(p)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigenvalue computation failed") from exc
    real = eigs[np.abs(eigs.imag) <= IMAG_TOL * (1.0 + np.abs(eigs.real))]
    if real.size == 0:
        raise RuntimeError("no real eigenvalue found in the companion matrix")
    return float(real.real.max())


def _lambda_grid(lambda_min: float, lambda_max: float, steps: int) -> np.ndarray:
    """The uniform grid of a curve, ``steps`` >= 2 points from finite
    ``lambda_min`` < ``lambda_max``; ValueError otherwise (TypeError for
    a ``steps`` that is no integer)."""
    lambda_min = as_scalar(lambda_min, "lambda_min")
    lambda_max = as_scalar(lambda_max, "lambda_max")
    if not lambda_min < lambda_max:
        raise ValueError("lambda_min must be smaller than lambda_max")
    check_integer(steps, "steps", 2)
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
    finite = sec.finite(lams)
    values = np.where(finite, sec.value(lams, c), math.inf)
    slopes = np.where(finite, 0.5 * (1.0 - np.vecdot(c, c)), None)
    return list(zip(lams.tolist(), values.tolist(), slopes.tolist()))
