"""Single-player convex quadratic forms and their exact minimization.

V(u) = 1/2 u'Du + u'd + c with symmetric D.  Minimization is exact: the
minimum exists iff d lies in the range of D, in which case the full
minimizer set is -pinv(D) d + null(D) and the value is
-1/2 d' pinv(D) d + c.  One ``eigh`` of D gives the convexity test,
pinv(D), the range test and null(D).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .linalg import AffineSolutionSet, Validated, as_vector, symmetric_split, symmetrize

# Most rows one array pass of a sampling oracle holds: the oracles draw
# and evaluate their candidates in blocks of this many rows, so their
# memory does not grow with the sample count.
BLOCK = 8192


class QuadraticForm(Validated, namedtuple("QuadraticForm", "hessian linear constant")):
    """V(u) = 1/2 u'hessian u + u'linear + constant."""

    __slots__ = ()

    def __new__(cls, hessian, linear, constant=0.0):
        h = symmetrize(hessian, "hessian")
        lin = as_vector(linear, "linear")
        if lin.shape[0] != h.shape[0]:
            raise ValueError(
                f"linear term has length {lin.shape[0]} but the quadratic "
                f"term is {h.shape[0]}x{h.shape[0]}"
            )
        return super().__new__(cls, h, lin, float(constant))

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def evaluate(self, u) -> float:
        u = as_vector(u, "u")
        if u.shape[0] != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}")
        return float(0.5 * u @ self.hessian @ u + u @ self.linear + self.constant)

    def _evaluate_rows(self, x: np.ndarray) -> np.ndarray:
        """``evaluate`` along the last axis of x, for stacked rows."""
        quad = 0.5 * np.einsum("...i,...i->...", x @ self.hessian, x)
        return quad + x @ self.linear + self.constant

    def gradient(self, u) -> np.ndarray:
        u = as_vector(u, "u")
        return self.hessian @ u + self.linear

    def negated(self) -> "QuadraticForm":
        return QuadraticForm(-self.hessian, -self.linear, -self.constant)


def _blocks(count: int):
    """Consecutive (start, stop) row ranges that cover range(count), of
    ``BLOCK`` rows each; a lone last row joins the block before it.

    numpy hands a one-row product to another BLAS routine than a taller
    one, and the two round differently; with no one-row block (unless
    count is 1) a row gets the same numbers in any block as in one pass
    over all rows.  Draws made block by block from one generator
    (``rng.standard_normal((stop - start, dim))``) are the rows of one
    draw of ``count`` rows.
    """
    start = 0
    while start < count:
        stop = start + BLOCK
        if stop >= count - 1:
            stop = count
        yield start, stop
        start = stop


class QuadOptimum(NamedTuple):
    """Optimizer set and optimal value of a bounded quadratic problem."""

    points: AffineSolutionSet
    value: float


def minimize(q: QuadraticForm) -> QuadOptimum | None:
    """Global minimum of a convex quadratic form.

    Returns None when the form is unbounded below (linear term not in the
    range of the hessian).  Raises for non-convex input; maximize the
    negation instead.
    """
    return _minimum(q, "minimize requires a convex form (PSD quadratic term)")


def maximize(q: QuadraticForm) -> QuadOptimum | None:
    """Global maximum of a concave quadratic form, by negation.

    Returns None when unbounded above.
    """
    opt = _minimum(q.negated(), "maximize requires a concave form (NSD quadratic term)")
    if opt is None:
        return None
    return QuadOptimum(opt.points, -opt.value)


def _minimum(q: QuadraticForm, not_convex: str) -> QuadOptimum | None:
    """``minimize``, raising ValueError(not_convex) for non-convex q."""
    f = symmetric_split(q.hessian, psd=True)
    if f is None:
        raise ValueError(not_convex)
    if not f.in_range(q.linear):
        return None
    step = f.solve(q.linear)
    value = float(-0.5 * q.linear @ step + q.constant)
    return QuadOptimum(AffineSolutionSet(-step, f.v2), value)
