"""Sphere-constrained two-player quadratic games.

min over u, max over unit-norm w (or the reversed order) of
V(u, w) = 1/2 [u; w]' M [u; w] + u'd1 + w'd2 with M >= 0.  Both orders
reduce to the trust region on the Schur complement of M11: with
S = M22 - M12' pinv(M11) M12 and r = d2 - M12' pinv(M11) d1,

- maxmin = max over the sphere of 1/2 w'Sw + r'w, minus
  1/2 d1' pinv(M11) d1, at the trust-region multiplier lambda_TR(S, r);
- minmax has the multiplier lambda0 = max(||M22||, lambda_TR(S, r)).
  When ||M22|| is larger, u* comes from the joint stationary point at
  ||M22||, w0 = -(S - ||M22|| I)^{-1} r, and the maximizers over w at u*
  are w0 + null(M22 - ||M22|| I) on the sphere.

One factorization of M11, one of S and (minmax) one of M22 give every
answer; the multiplier is the secular root of ``sphere.Secular``.  At
||M22|| >= lambda_TR >= ||S|| no finiteness rule is asked: the sets are
``game.SchurReduction.at``'s and M22's ``Secular.on_sphere``.  When
d1 is outside the range of M11 the game is unbounded below in both
orders (u = -t P_null(M11) d1 drives V to -inf) and the solvers return
None.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from . import game
from .game import PartitionedQuadratic
from .linalg import AffineSolutionSet
from .sphere import Secular, SphereSolutionSet


class Direction(enum.Enum):
    MINMAX = "minmax"
    MAXMIN = "maxmin"


class ConstrainedGameSolution(NamedTuple):
    """Value, multiplier, and per-player optimizer sets.

    The w set lives on the unit sphere; its representatives have unit
    norm.  ``diagnostics`` records how the multiplier was found:
    ``mode`` is "homogeneous" (no linear terms), "boundary" (the
    multiplier sits at the direction threshold) or "interior" (a secular
    root above it), and ``iterations`` counts the Newton steps.
    """

    value: float
    lambda0: float
    u_set: AffineSolutionSet
    w_set: SphereSolutionSet
    diagnostics: dict


def solve_homogeneous(
    pq: PartitionedQuadratic, direction: Direction
) -> ConstrainedGameSolution:
    """Solution when both linear terms vanish.

    The optimal multiplier equals the direction threshold and the value
    is threshold / 2; optimizer sets are top-eigenspace slices.
    """
    if np.any(pq.d):
        raise ValueError("solve_homogeneous requires zero linear terms")
    return solve_linear_term(pq, direction)


def solve_linear_term(
    pq: PartitionedQuadratic, direction: Direction
) -> ConstrainedGameSolution | None:
    """Sphere-constrained solve; None when the game is unbounded below.

    The value is lambda0/2 - 1/2 d' pinv(M(lambda0)) d, read off the
    eigenpairs of S, and the w set is the optimizer set intersected with
    the unit sphere.  The u set is -pinv(M11)(M12 w + d1) + null(M11)
    at the representative w (maxmin, or minmax above ||M22||) or at the
    joint stationary point w0 (minmax at ||M22||).  An empty w block is
    an input error: the unit sphere in R^0 has no points.
    """
    if pq.w_dim == 0:
        raise ValueError("the w block is empty; the unit sphere in R^0 is empty")
    red = game.schur_reduction(pq)
    if not red.bounded:
        return None
    tr, steps = red.secular.solve()
    lam0, boundary, w_set = tr.lambda_p, tr.boundary, tr.w_star
    value, u_set = tr.value - red.c0, red.u_set(w_set.representative())
    if direction is Direction.MINMAX:
        m22 = Secular.of(pq.m22, np.zeros(pq.w_dim))
        if m22.smax >= lam0:
            # lambda0 sticks at ||M22||: u* answers the joint stationary
            # point w0 there, and the maximizers over w at u* are
            # w0 + null(M22 - ||M22|| I) on the sphere, turned as in the
            # trust region by the inner linear term M12'u* + d2.
            lam0, boundary = m22.smax, True
            w0, value, u_set = red.at(lam0)
            inner = m22.q.T @ (pq.m12.T @ u_set.particular + pq.d2)
            w_set, value = m22.on_sphere(lam0, w0, value, inner)
    mode = "boundary" if boundary else "interior"
    if not np.any(pq.d):
        mode = "homogeneous"
    return ConstrainedGameSolution(
        value=value,
        lambda0=lam0,
        u_set=u_set,
        w_set=w_set,
        diagnostics={"mode": mode, "iterations": steps},
    )
