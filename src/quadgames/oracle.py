"""Brute-force verifiers, independent of the closed-form solvers.

Sphere sampling for constrained maximization, nested grid / multi-start
search for the small minmax games, and finite-difference gradients.
These are probabilistic desk-scale bounds (dimensions up to 4), not
certificates.  All randomness flows from the seed in OracleConfig, so
identical configurations give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import PartitionedQuadratic
from .linalg import TOL, as_vector, pinv, spectral_norm, svd
from .minmax import Direction
from .quadratic import QuadraticForm, _blocks

POLISH_STEPS = 100


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    samples: int = 100_000
    grid_points: int = 2000

    def __post_init__(self):
        for name, least in (("seed", 0), ("samples", 1), ("grid_points", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")


def unit_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on the unit sphere via normalized Gaussian draws."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def sphere_max(q: QuadraticForm, cfg: OracleConfig) -> tuple[float, np.ndarray]:
    """Best sampled value of q on the unit sphere, with a polish step.

    The best of ``cfg.samples`` uniform unit vectors, drawn and evaluated
    in blocks of ``BLOCK`` rows, is refined by projected gradient
    ascent (fixed step 1/(||D|| + 1)).
    """
    if q.dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    best, w = -math.inf, None
    for start, stop in _blocks(cfg.samples):
        candidates = unit_samples(rng, stop - start, q.dim)
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


def _auto_box(pq: PartitionedQuadratic) -> float:
    d = pq.d
    return 2.0 * (1.0 + float(np.linalg.norm(pinv(pq.assembled()) @ d)))


def grid_minmax(
    pq: PartitionedQuadratic, cfg: OracleConfig, direction: Direction
) -> float:
    """Nested brute-force value of the sphere-constrained game.

    MINMAX: outer search over u (grid for 1-d, multi-start simplex for
    2-d) with the inner maximum taken over sampled sphere points.  It
    holds every w candidate at once (``cfg.samples`` rows for a 2-d w),
    because each u evaluation re-reads them; the u rows are evaluated in
    blocks of about ``BLOCK`` numbers against them.
    MAXMIN: outer maximum over sampled sphere points, swept in blocks of
    ``BLOCK`` rows, with the inner minimum over u solved exactly
    (``_inner_min``).
    """
    m, n = pq.u_dim, pq.w_dim
    if m > 2 or n > 2:
        raise ValueError("grid oracle supports dimensions up to 2")
    count = 2 if n == 1 else max(cfg.samples, 4)

    if direction is Direction.MAXMIN:
        f11 = svd(pq.m11)
        best = -math.inf
        for start, stop in _blocks(count):
            w_rows = _w_candidates(n, count, start, stop)
            best = np.maximum(best, np.max(_inner_min(pq, w_rows, f11)))
        return float(best)

    box = _auto_box(pq)
    w_cand = _w_candidates(n, count, 0, count)
    quad_w = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_cand)
    quad_u = QuadraticForm(pq.m11, pq.d1)

    def outer(u_rows: np.ndarray) -> np.ndarray:
        """The inner maximum plus the u terms, one entry per row of u."""
        inner = np.empty(len(u_rows))
        for start, stop in _blocks(len(u_rows), len(w_cand)):
            cross = (u_rows[start:stop] @ pq.m12) @ w_cand.T
            inner[start:stop] = np.max(quad_w + cross, axis=1)
        return inner + quad_u._evaluate_rows(u_rows)

    if m == 0:
        return float(outer(np.zeros((1, 0)))[0])
    if m == 1:
        grid = np.linspace(-box, box, cfg.grid_points)
        best = int(np.argmin(outer(grid[:, None])))
        # Derivative-free refinement around the best grid point; the
        # outer function can have a kink where the inner argmax
        # switches, so the raw grid error is O(step), not O(step^2).
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        for _ in range(80):
            third = (hi - lo) / 3.0
            a, b = lo + third, hi - third
            at_a, at_b = outer(np.array([[a], [b]]))
            if at_a <= at_b:
                hi = b
            else:
                lo = a
        return float(outer(np.array([[0.5 * (lo + hi)]]))[0])
    from scipy import optimize  # only this branch needs scipy

    rng = np.random.default_rng(cfg.seed)
    best = math.inf
    for _ in range(20):
        start = rng.uniform(-box, box, size=m)
        result = optimize.minimize(
            lambda u: float(outer(u[None])[0]), start, method="Nelder-Mead"
        )
        best = min(best, float(result.fun))
    return best


def _inner_min(pq: PartitionedQuadratic, w_rows: np.ndarray, f11) -> np.ndarray:
    """min over u of V(u, w) for each row w, solved exactly (a convex
    quadratic in u; f11 is ``svd(M11)``); -inf where M11 u = -(M12 w + d1)
    has no solution.  The right-hand side is formed by cancellation, so
    its residual off the range of M11 is read against TOL (||M12 w|| +
    ||d1||), the norms it is formed from."""
    cross = w_rows @ pq.m12.T
    rhs = cross + pq.d1
    residuals = np.linalg.norm(rhs @ f11.u2, axis=1)
    scale = np.linalg.norm(cross, axis=1) + np.linalg.norm(pq.d1)
    feasible = residuals <= TOL * scale
    inner = -0.5 * np.einsum("ij,ij->i", rhs @ f11.pinv(), rhs)
    outer = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_rows)
    return np.where(feasible, inner + outer, -math.inf)


def grid_lagrangian(pq: PartitionedQuadratic, lam: float, cfg: OracleConfig) -> float:
    """Brute-force max over w of min over u of L(u, w, lam) = V(u, w)
    - lam/2 (w'w - 1): a grid over a box of w (dimensions up to 2) with
    the inner minimum over u solved exactly."""
    n = pq.w_dim
    if n > 2:
        raise ValueError("grid oracle supports w dimensions up to 2")
    box = _auto_box(pq)
    points = np.linspace(-box, box, min(cfg.grid_points, 400))
    w_grid = np.stack(np.meshgrid(*([points] * n)), axis=-1).reshape(-1, n)
    penalty = 0.5 * lam * (1.0 - np.einsum("ij,ij->i", w_grid, w_grid))
    return float(np.max(_inner_min(pq, w_grid, svd(pq.m11)) + penalty))


def fd_gradient(f, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar field."""
    x = as_vector(x, "x")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return grad
