"""Brute-force verifiers, independent of the closed-form solvers.

Sphere sampling for constrained maximization, finite-difference
gradients, and for the small sphere games a deterministic grid of w
(2 points or a circle): MAXMIN and the Lagrangian solve the inner
minimum over u exactly, MINMAX brackets the outer minimum over u by
central cuts, with no random starts.  These are desk-scale bounds, not
certificates: a w of up to 2 dimensions, a MINMAX u of up to 4 (any u
otherwise), spheres of up to 4.  All randomness flows from the seed in
OracleConfig through the counter-based ``quadratic._gaussian_rows``, so
identical configurations give identical outputs, however the draws are
blocked.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .game import PartitionedQuadratic
from .linalg import (
    TOL,
    Validated,
    as_vector,
    check_integer,
    spectral_norm,
    symmetric_split,
)
from .minmax import Direction
from .quadratic import QuadraticForm, _blocks, _gaussian_rows

POLISH_STEPS = 100
# The MINMAX cuts stop on their bracket after a few hundred steps for a
# u of up to 4 dimensions; the cap only guards against a stalled bracket.
_MAX_CUTS = 10_000


class OracleConfig(Validated, namedtuple("OracleConfig", "seed samples grid_points")):
    """``seed`` of every random draw, ``samples`` draws or circle points,
    and ``grid_points`` per axis of the ``grid_lagrangian`` w grid; that
    grid takes at most 400, which is also the default."""

    __slots__ = ()

    def __new__(cls, seed=0, samples=100_000, grid_points=400):
        check_integer(seed, "seed", 0)
        check_integer(samples, "samples", 1)
        check_integer(grid_points, "grid_points", 2)
        return super().__new__(cls, seed, samples, grid_points)


def unit_samples(seed: int, dim: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the uniform points on the unit sphere that
    ``seed`` draws: its Gaussian rows (``quadratic._gaussian_rows``,
    never zero), normalized."""
    g = _gaussian_rows(seed, dim, start, stop)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sphere_max(q: QuadraticForm, cfg: OracleConfig) -> tuple[float, np.ndarray]:
    """Best sampled value of q on the unit sphere, with a polish step.

    The best of ``cfg.samples`` uniform unit vectors, drawn and evaluated
    in blocks of ``BLOCK`` rows (``unit_samples`` of ``cfg.seed``), is
    refined by projected gradient ascent (fixed step 1/(||D|| + 1)).
    """
    if q.dim < 1:
        raise ValueError("dimension must be at least 1")
    best, w = -math.inf, None
    for start, stop in _blocks(cfg.samples):
        candidates = unit_samples(cfg.seed, q.dim, start, stop)
        values = q._evaluate_rows(candidates)
        i = int(np.argmax(values))
        if w is None or values[i] > best:
            best, w = values[i], candidates[i]
    sampled = w
    step = 1.0 / (spectral_norm(q.hessian) + 1.0)
    for _ in range(POLISH_STEPS):
        w = w + step * q.gradient(w)
        w = w / np.linalg.norm(w)
    polished = q.evaluate(w)
    if polished >= best:
        return float(polished), w
    return float(best), sampled


def _w_candidates(dim: int, count: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the ``count`` w candidates: +-1 in 1-d (count
    2), else a deterministic circle grid, dense enough that the
    discretization error is negligible next to the oracle tolerance."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])[start:stop]
    theta = np.arange(start, stop) * (2.0 * math.pi / count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _check_dims(pq: PartitionedQuadratic, direction: Direction | None = None):
    """Refuse blocks the grid oracles cannot take.  They sample w, on a
    circle at most (2-d); MINMAX also searches u, by cuts whose count
    grows with the square of dim u, up to 4-d.  MAXMIN and
    ``grid_lagrangian`` solve the inner minimum over u exactly, for any
    dim u."""
    if pq.w_dim > 2:
        raise ValueError("grid oracle supports w dimensions up to 2")
    if direction is Direction.MINMAX and pq.u_dim > 4:
        raise ValueError("MINMAX grid oracle supports u dimensions up to 4")


def grid_minmax(
    pq: PartitionedQuadratic, cfg: OracleConfig, direction: Direction
) -> float:
    """Nested brute-force value of the sphere-constrained game, with the
    maximum over w taken over candidates: +-1 for a 1-d w, else
    ``cfg.samples`` points of a deterministic circle grid.

    MINMAX: the convex f(u) = max over the candidates of V(u, w) is
    minimized by central cuts (``_convex_min``), deterministic and
    with no random starts, for a u of up to 4 dimensions; the value is
    f at the best point found.
    MAXMIN: outer maximum over the candidates, swept in blocks of
    ``BLOCK`` rows, with the inner minimum over u solved exactly
    (``_inner_min``), for a u of any dimension.
    """
    _check_dims(pq, direction)
    n = pq.w_dim
    count = 2 if n == 1 else max(cfg.samples, 4)

    if direction is Direction.MAXMIN:
        f11 = symmetric_split(pq.m11)
        best = -math.inf
        for start, stop in _blocks(count):
            w_rows = _w_candidates(n, count, start, stop)
            best = np.maximum(best, np.max(_inner_min(pq, w_rows, f11)))
        return float(best)
    return _convex_min(pq, _w_candidates(n, count, 0, count))[1]


def _convex_min(pq: PartitionedQuadratic, w_cand: np.ndarray) -> tuple[float, float]:
    """Bracket (lower, upper) on the minimum over u of the convex
    f(u) = max over the rows w of ``w_cand`` of V(u, w), by central cuts
    (the ellipsoid method; bisection when the search space is 1-d).

    f is constant along null(M11) when M >= 0 and d1 is in R(M11), so
    the search runs over u = V1 x in R(M11); with d1 outside R(M11)
    (beyond TOL ||d||) f is unbounded below and both ends are -inf.  As
    the rows are unit vectors, f(V1 x) >= f(0) - a ||x|| +
    sigma_min ||x||^2 / 2 with a = ||V1' d1|| + ||V1' M12||_F, so every
    minimizer lies in the first ellipsoid, the ball ||x|| <= 2a / sigma_min.
    Each ellipsoid E = {x + By : ||y|| <= 1} is cut at its center x along
    the subgradient g = V1'(M11 u + d1 + M12 w*), w* the best row.  E
    keeps a minimizer, so f(x) - ||B'g||, the least value on E of the
    cut's linear bound, is a lower end; upper is the least f(x) seen.
    The cuts stop when upper - lower <= 1e-10 (1 + |upper|).
    """
    f11 = symmetric_split(pq.m11, psd=True)
    m12_off = np.linalg.norm(f11.v2.T @ pq.m12) if f11 is not None else math.inf
    if m12_off > TOL * np.linalg.norm(pq.m12):
        raise ValueError("the MINMAX oracle requires M11 >= 0 and R(M12) in R(M11)")
    if np.linalg.norm(f11.v2.T @ pq.d1) > TOL * np.linalg.norm(pq.d):
        return -math.inf, -math.inf
    sigma, k = f11.sigma, f11.rank
    coupling, lin = f11.v1.T @ pq.m12, f11.v1.T @ pq.d1
    quad_w = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_cand)
    cross = coupling @ w_cand.T

    def at(x: np.ndarray) -> tuple[float, np.ndarray]:
        inner = quad_w + x @ cross
        j = int(np.argmax(inner))
        value = inner[j] + (0.5 * sigma * x + lin) @ x
        return float(value), sigma * x + lin + cross[:, j]

    x = np.zeros(k)
    if k == 0:
        value, _ = at(x)
        return value, value
    # B holds the ellipsoid: P = BB' stays PSD under rounding, where
    # P itself does not.  A cut along p = B'g / ||B'g|| moves x by
    # -Bp / (k+1) and maps B to B (alpha (I - pp') + gamma pp'), the
    # update P <- k^2/(k^2-1) (P - 2/(k+1) Pgg'P / g'Pg) in factored form.
    # For k = 1 it halves B: bisection.
    radius = 2.0 * float(np.linalg.norm(lin) + np.linalg.norm(coupling)) / sigma[-1]
    b = radius * np.eye(k)
    alpha = k / math.sqrt(k * k - 1.0) if k > 1 else 0.0
    gamma = k / (k + 1.0)
    lower, upper = -math.inf, math.inf
    for _ in range(_MAX_CUTS):
        value, g = at(x)
        bg = b.T @ g
        width = float(np.linalg.norm(bg))
        upper = min(upper, value)
        lower = max(lower, value - width)
        if upper - lower <= 1e-10 * (1.0 + abs(upper)):
            break
        p = bg / width
        bp = b @ p
        x = x - bp / (k + 1.0)
        b = alpha * b + (gamma - alpha) * np.outer(bp, p)
    return lower, upper


def _inner_min(pq: PartitionedQuadratic, w_rows: np.ndarray, f11) -> np.ndarray:
    """min over u of V(u, w) for each row w, solved exactly (a convex
    quadratic in u; f11 is ``symmetric_split(M11)``, with no PSD
    clipping, so it splits M11 as its SVD would); -inf where
    M11 u = -(M12 w + d1) has no solution.  The right-hand side is
    formed by cancellation, so its residual off the range of M11 is read
    against TOL (||M12 w|| + ||d||): the norm of M12 w it is formed
    from, and the scale the solvers' range test reads d1 against."""
    cross = w_rows @ pq.m12.T
    rhs = cross + pq.d1
    residuals = np.linalg.norm(rhs @ f11.u2, axis=1)
    scale = np.linalg.norm(cross, axis=1) + np.linalg.norm(pq.d)
    feasible = residuals <= TOL * scale
    inner = -0.5 * np.einsum("ij,ji->i", rhs, f11.solve(rhs.T))
    outer = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_rows)
    return np.where(feasible, inner + outer, -math.inf)


def grid_lagrangian(pq: PartitionedQuadratic, lam: float, cfg: OracleConfig) -> float:
    """Brute-force max over w of min over u of L(u, w, lam) = V(u, w)
    - lam/2 (w'w - 1): a grid over a box of w (dimensions up to 2) with
    the inner minimum over u solved exactly, swept in blocks of ``BLOCK``
    rows in meshgrid's order (first axis fastest); an empty w block has
    the one row of R^0."""
    _check_dims(pq)
    n = pq.w_dim
    # The box holds the w part of the stationary point -pinv(M(lam)) d,
    # a maximizer wherever the maxmin value is finite.
    step = symmetric_split(pq.assembled(lam)).solve(pq.d)
    box = 2.0 * (1.0 + float(np.linalg.norm(step)))
    points = np.linspace(-box, box, min(cfg.grid_points, 400))
    k, f11 = points.shape[0], symmetric_split(pq.m11)
    best = -math.inf
    for start, stop in _blocks(k**n):
        w_rows = points[np.arange(start, stop)[:, None] // k ** np.arange(n) % k]
        penalty = 0.5 * lam * (1.0 - np.einsum("ij,ij->i", w_rows, w_rows))
        best = np.maximum(best, np.max(_inner_min(pq, w_rows, f11) + penalty))
    return float(best)


def fd_gradient(f, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar field."""
    x = as_vector(x, "x")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return grad
