"""Two-player quadratic games.

Covers the unconstrained saddle-point problem for
V(u, w) = 1/2 [u; w]' M [u; w] + [u; w]' d with M11 >= 0 and M22 <= 0
(its sampled verifier is ``oracle.verify_saddle``), and the
lambda-parameterized family
L(u, w, lambda) = V(u, w) - lambda/2 (w'w - 1) with M >= 0.  Its minmax
value is finite from ||M22|| on and its maxmin value from ||S|| on,
where S = M22 - M12' pinv(M11) M12; between those two thresholds the
duality gap is infinite.  Where finite, both equal
lambda/2 - c0 + 1/2 sum r_i^2 / (lambda - s_i) over the eigenpairs of S
from ``schur_reduction``, whose ``at`` gives the joint stationary point
at a lambda, its value and its u set without deciding a branch: only
``duality_report`` and ``lambda_curve`` test finiteness.  One ``eigh``
each of M11, S and M22 serves every lambda, and ``lambda_curve``
evaluates a whole grid in one array pass, reading only the eigenvalues
of M22; past those factorizations its Python work does not grow with
the grid.  Threshold tests are
relative to the data S is computed from.  An empty w block sets no
threshold: both values are min over u of V plus lambda/2 at every
lambda (``minmax_threshold`` and ``maxmin_threshold`` still read 0.0,
the norm of an empty matrix).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .linalg import (
    AffineSolutionSet,
    Validated,
    _schur,
    as_matrix,
    as_scalar,
    as_vector,
    nonnegative_spectrum,
    norm,
    spectral_norm,
    symmetric_split,
    symmetrize,
)
from .sphere import Secular, _lambda_grid


class PartitionedQuadratic(
    Validated, namedtuple("PartitionedQuadratic", "m11 m12 m22 d1 d2")
):
    """V(u, w) = 1/2 [u; w]' [[M11, M12], [M12', M22]] [u; w] + u'd1 + w'd2."""

    __slots__ = ()

    def __new__(cls, m11, m12, m22, d1, d2):
        m11 = symmetrize(m11, "M11")
        m22 = symmetrize(m22, "M22")
        m12 = as_matrix(m12, "M12")
        d1 = as_vector(d1, "d1")
        d2 = as_vector(d2, "d2")
        p, n = m11.shape[0], m22.shape[0]
        if m12.shape != (p, n):
            raise ValueError(
                f"M12 shape {m12.shape} inconsistent with blocks "
                f"{m11.shape} and {m22.shape}"
            )
        if d1.shape[0] != p or d2.shape[0] != n:
            raise ValueError("linear terms inconsistent with block dimensions")
        return super().__new__(cls, m11, m12, m22, d1, d2)

    @classmethod
    def trust_region(cls, d_mat, d_vec) -> "PartitionedQuadratic":
        """The trust region max 1/2 w'Dw + d'w over the unit sphere as the
        game with an empty u block (p = 0): its Schur complement is D and
        its r is d, so its MAXMIN answer is the trust region's."""
        d_vec = as_vector(d_vec, "d2")
        empty = np.zeros((0, d_vec.shape[0]))
        return cls(np.zeros((0, 0)), empty, d_mat, np.zeros(0), d_vec)

    @property
    def u_dim(self) -> int:
        return self.m11.shape[0]

    @property
    def w_dim(self) -> int:
        return self.m22.shape[0]

    @property
    def d(self) -> np.ndarray:
        return np.concatenate([self.d1, self.d2])

    def assembled(self, lam: float = 0.0) -> np.ndarray:
        """The block matrix with the w-block shifted by -lambda I."""
        p, n = self.u_dim, self.w_dim
        m = np.zeros((p + n, p + n))
        m[:p, :p] = self.m11
        m[:p, p:] = self.m12
        m[p:, :p] = self.m12.T
        m[p:, p:] = self.m22 - lam * np.eye(n)
        return m

    def evaluate(self, u, w) -> float:
        u = as_vector(u, "u")
        w = as_vector(w, "w")
        if u.shape[0] != self.u_dim or w.shape[0] != self.w_dim:
            raise ValueError("argument dimensions do not match the blocks")
        z = np.concatenate([u, w])
        return float(0.5 * z @ self.assembled() @ z + z @ self.d)


class SaddleSolution(NamedTuple):
    """Joint saddle-point set over the stacked (u, w) vector.

    The set is stored jointly because the null space of M couples the
    two players; per-player particular points are sliced on demand.
    """

    solutions: AffineSolutionSet
    value: float
    u_dim: int

    @property
    def u_star(self) -> np.ndarray:
        return self.solutions.particular[: self.u_dim]

    @property
    def w_star(self) -> np.ndarray:
        return self.solutions.particular[self.u_dim :]


def solve_saddle(pq: PartitionedQuadratic) -> SaddleSolution | None:
    """Saddle point of V, which exists iff d is in the range of M.

    Requires M11 >= 0 and M22 <= 0, read off the eigenvalues of the
    blocks ``PartitionedQuadratic`` validated.  Returns None when no
    solution exists.  At a solution, strong duality holds: the minmax
    and maxmin values both equal -1/2 d' pinv(M) d.  One ``eigh`` of M
    gives pinv(M), the range test and null(M).
    """
    if not nonnegative_spectrum(np.linalg.eigvalsh(pq.m11)):
        raise ValueError("solve_saddle requires M11 positive semidefinite")
    if not nonnegative_spectrum(np.linalg.eigvalsh(-pq.m22)):
        raise ValueError("solve_saddle requires M22 negative semidefinite")
    f = symmetric_split(pq.assembled())
    d = pq.d
    if not f.in_range(d):
        return None
    step = f.solve(d)
    value = float(-0.5 * d @ step)
    return SaddleSolution(AffineSolutionSet(-step, f.v2), value, pq.u_dim)


def minmax_threshold(pq: PartitionedQuadratic) -> float:
    """Smallest lambda at which min-max of L is finite: ||M22||, from
    one ``eigvalsh``; 0.0 for an empty w block, finite at every lambda."""
    return spectral_norm(pq.m22)


def maxmin_threshold(pq: PartitionedQuadratic) -> float:
    """Smallest lambda at which max-min of L is finite: ||S|| with
    S = M22 - M12' pinv(M11) M12, from one ``eigh`` of M11 (a second when
    M11 fails the PSD test; a PSD M11 is split as ``schur_reduction``
    splits it) and one ``eigvalsh`` of S.  It asks nothing of the signs
    of the blocks.
    0.0 for an empty w block, finite at every lambda."""
    return spectral_norm(_schur(pq.m11, pq.m12, pq.m22))


class LambdaSolve(NamedTuple):
    """One evaluation of the parameterized game at the caller's lambda.

    ``finite`` is False below the existence threshold; the value and the
    per-player optimizer sets are populated only when finite.
    """

    finite: bool
    value: float | None = None
    u_set: AffineSolutionSet | None = None
    w_set: AffineSolutionSet | None = None


PSD_MESSAGE = "the assembled block matrix must be positive semidefinite"


class SchurReduction(NamedTuple):
    """The game reduced to a trust region on the Schur complement of M11.

    With X = pinv(M11) [M12, d1]: S = M22 - M12' X12, r = d2 - M12' x1
    and c0 = 1/2 d1' x1.  When d1 lies in the range of M11 (``bounded``),
    min over u of V(u, w) = 1/2 w'Sw + r'w - c0, attained on
    ``u_set(w)`` = -(X12 w + x1) + null(M11); otherwise that minimum is
    -inf for every w.  The one range rule, ``SvdFactors.in_range``, tests
    R(M12) in R(M11) at ||M12|| and compares the part of d1 outside R(M11)
    with ||d||, not ||d1||: neither test depends on the scale of the data.
    ``secular`` holds the eigenpairs of S; its ``tol`` is relative to
    ||S||_2 + ||M12' X12||_F + ||r|| (``Secular.of``'s one rule, with
    the coupling M12' X12 the term S is reduced by), and its
    ``range_tol`` to ||S||_2 + ||M12' X12||_F + ||d2|| + ||M12' x1||,
    which also covers the data r is computed from.  With p = 0 the
    coupling is 0, and ``secular`` is the trust region's on (M22, d2).
    """

    secular: Secular
    c0: float
    x12: np.ndarray
    x1: np.ndarray
    null11: np.ndarray
    bounded: bool

    def u_set(self, w: np.ndarray) -> AffineSolutionSet:
        return AffineSolutionSet(-(self.x12 @ w + self.x1), self.null11)

    def at(self, lam: float) -> tuple[np.ndarray, float, AffineSolutionSet]:
        """The joint stationary point w0 at lam (coordinates
        r_i / (lam - s_i) in S's eigenbasis), the value there and the u
        set ``u_set(w0)``.  It decides no branch: whether the value is
        that of the minmax or the maxmin is the caller's test."""
        sec = self.secular
        c = sec.response(lam)
        w0 = sec.q @ c
        return w0, float(sec.value(lam, c)) - self.c0, self.u_set(w0)


def schur_reduction(pq: PartitionedQuadratic) -> SchurReduction:
    """Factor M11 and S once each.  The assembled matrix is PSD iff
    M11 >= 0, R(M12) lies in R(M11) and S >= 0; that test reads the two
    eigendecompositions and raises ValueError(PSD_MESSAGE) otherwise."""
    f11 = symmetric_split(pq.m11, psd=True)
    if f11 is None or (f11.v2.size and not f11.in_range(pq.m12)):
        raise ValueError(PSD_MESSAGE)
    null11 = f11.v2
    x = f11.solve(np.concatenate((pq.m12, pq.d1[:, None]), axis=1))
    x12, x1 = x[:, :-1], x[:, -1]
    coupling, shift = pq.m12.T @ x12, pq.m12.T @ x1
    schur = pq.m22 - coupling
    # S and r are differences of two terms; their rounding follows the
    # size of those terms, so the PSD and eigenvalue tests read the
    # coupling beside ||S|| and the test that r vanishes r's terms.
    d_scale = norm(pq.d2) + norm(shift)
    secular = Secular.of(0.5 * (schur + schur.T), pq.d2 - shift, norm(coupling), d_scale)
    if not secular.psd:
        raise ValueError(PSD_MESSAGE)
    bounded = not null11.size or f11.in_range(pq.d1, norm(pq.d))
    return SchurReduction(secular, float(0.5 * pq.d1 @ x1), x12, x1, null11, bounded)


class DualityReport(NamedTuple):
    """Joint status of the two value functions at one lambda.

    status is "strong_duality" (both finite, equal value),
    "infinite_gap" (only maxmin finite), "both_infinite", or
    "unbounded_below" (d1 outside the range of M11; ``minmax`` and
    ``maxmin``, the two evaluations, are then None).
    """

    status: str
    value: float | None = None
    minmax: LambdaSolve | None = None
    maxmin: LambdaSolve | None = None


def duality_report(pq: PartitionedQuadratic, lam: float) -> DualityReport:
    """Both value functions at lam from one reduction and one
    factorization of M22.

    ``minmax`` is min over u of max over w of L, infinite below ||M22||;
    its w set is the inner best response at the particular u.
    ``maxmin`` is max over w of min over u of L, infinite below ||S||;
    its u set is the inner best response at the particular w.  A lam
    that is NaN or infinite is an input error (ValueError).
    """
    lam = as_scalar(lam, "lambda")
    red = schur_reduction(pq)
    if not red.bounded:
        return DualityReport("unbounded_below")
    w0, value, u_set = red.at(lam)
    # Each side's w set is w0 + null(B - lam I), B = M22 for minmax, S for maxmin.
    mm, xm = [
        LambdaSolve(True, value, u_set, b.at(lam, w0))
        if red.secular.finite(lam, b.smax) else LambdaSolve(False)
        for b in (Secular.of(pq.m22, np.zeros(pq.w_dim)), red.secular)
    ]
    if not xm.finite:
        return DualityReport("both_infinite", None, mm, xm)
    if not mm.finite:
        return DualityReport("infinite_gap", None, mm, xm)
    return DualityReport("strong_duality", mm.value, mm, xm)


def lambda_curve(
    pq: PartitionedQuadratic,
    lambda_min: float,
    lambda_max: float,
    steps: int,
) -> list[tuple[float, float, float]]:
    """Sample both value functions on a uniform lambda grid.

    Returns (lambda, minmax value, maxmin value) triples ordered by
    lambda; infinite branches are encoded as math.inf, and the
    finiteness rule is that of ``duality_report``.
    Where finite, both equal lambda/2 - c0 + 1/2 sum r_i^2 / (lambda - s_i)
    over the eigenpairs of S.  When the game is unbounded below, maxmin
    is -inf at every lambda, and minmax is +inf below ||M22|| and -inf
    from there on.  The whole grid is one array pass over a (steps x n)
    response matrix.
    """
    lams = _lambda_grid(lambda_min, lambda_max, steps)
    red = schur_reduction(pq)
    sec = red.secular
    s22 = np.linalg.eigvalsh(pq.m22)  # only ||M22|| is read
    norm22 = float(s22[-1]) if s22.size else -math.inf  # as ``Secular.smax``
    if not red.bounded:
        mm = np.where(lams < norm22 - sec.tol, math.inf, -math.inf)
        xm = np.full(steps, -math.inf)
    else:
        values = sec.value(lams, sec.response(lams)) - red.c0
        mm = np.where(sec.finite(lams, norm22), values, math.inf)
        xm = np.where(sec.finite(lams), values, math.inf)
    return list(zip(lams.tolist(), mm.tolist(), xm.tolist()))
