"""Single-player convex quadratic forms and their exact minimization.

V(u) = 1/2 u'Du + u'd + c with symmetric D.  Minimization is exact: the
minimum exists iff d lies in the range of D, in which case the full
minimizer set is -pinv(D) d + null(D) and the value is
-1/2 d' pinv(D) d + c.  One ``eigh`` of D gives the convexity test,
pinv(D), the range test and null(D).  The sampled check of a minimum,
like every draw, is in ``oracle``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .linalg import (
    AffineSolutionSet, Validated, as_scalar, as_vector, symmetric_split, symmetrize
)


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
        return super().__new__(cls, h, lin, as_scalar(constant, "constant"))

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


class QuadOptimum(NamedTuple):
    """Optimizer set and optimal value of a bounded quadratic problem."""

    points: AffineSolutionSet
    value: float


def minimize(q: QuadraticForm) -> QuadOptimum | None:
    """Global minimum of a convex quadratic form.

    Returns None when the form is unbounded below (linear term not in the
    range of the hessian).  Raises for non-convex input; the maximum of
    a concave form is minus the minimum of its negation.
    """
    f = symmetric_split(q.hessian, psd=True)
    if f is None:
        raise ValueError("minimize requires a convex form (PSD quadratic term)")
    if not f.in_range(q.linear):
        return None
    step = f.solve(q.linear)
    value = float(-0.5 * q.linear @ step + q.constant)
    return QuadOptimum(AffineSolutionSet(-step, f.v2), value)
