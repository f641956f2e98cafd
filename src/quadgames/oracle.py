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
from .linalg import as_vector, pinv, spectral_norm, svd
from .minmax import Direction
from .quadratic import QuadraticForm

POLISH_STEPS = 100


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    samples: int = 100_000
    grid_points: int = 2000

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")


def unit_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on the unit sphere via normalized Gaussian draws."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def sphere_max(q: QuadraticForm, cfg: OracleConfig) -> tuple[float, np.ndarray]:
    """Best sampled value of q on the unit sphere, with a polish step.

    The best of ``cfg.samples`` uniform unit vectors is refined by
    projected gradient ascent (fixed step 1/(||D|| + 1)).
    """
    if q.dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    candidates = unit_samples(rng, cfg.samples, q.dim)
    values = q._evaluate_rows(candidates)
    best = int(np.argmax(values))
    w = candidates[best]
    step = 1.0 / (spectral_norm(q.hessian) + 1.0)
    for _ in range(POLISH_STEPS):
        w = w + step * q.gradient(w)
        w = w / np.linalg.norm(w)
    polished = q.evaluate(w)
    if polished >= values[best]:
        return float(polished), w
    return float(values[best]), candidates[best]


def _w_candidates(dim: int, cfg: OracleConfig) -> np.ndarray:
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    # Deterministic circle grid; dense enough that the discretization
    # error is negligible next to the oracle tolerance.
    count = max(cfg.samples, 4)
    theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _auto_box(pq: PartitionedQuadratic) -> float:
    d = pq.d
    return 2.0 * (1.0 + float(np.linalg.norm(pinv(pq.assembled()) @ d)))


def grid_minmax(
    pq: PartitionedQuadratic, cfg: OracleConfig, direction: Direction
) -> float:
    """Nested brute-force value of the sphere-constrained game.

    MINMAX: outer search over u (grid for 1-d, multi-start simplex for
    2-d) with the inner maximum taken over sampled sphere points.
    MAXMIN: outer maximum over sampled sphere points with the inner
    minimum over u solved exactly (``_inner_min``).
    """
    m, n = pq.u_dim, pq.w_dim
    if m > 2 or n > 2:
        raise ValueError("grid oracle supports dimensions up to 2")
    w_cand = _w_candidates(n, cfg)

    if direction is Direction.MINMAX:
        box = _auto_box(pq)
        quad_w = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_cand)

        def outer(u: np.ndarray) -> float:
            cross = w_cand @ (pq.m12.T @ u)
            inner = float(np.max(quad_w + cross))
            return inner + float(0.5 * u @ pq.m11 @ u + u @ pq.d1)

        if m == 0:
            return outer(np.zeros(0))
        if m == 1:
            grid = np.linspace(-box, box, cfg.grid_points)
            vals = [outer(np.array([u])) for u in grid]
            best = int(np.argmin(vals))
            # Derivative-free refinement around the best grid point; the
            # outer function can have a kink where the inner argmax
            # switches, so the raw grid error is O(step), not O(step^2).
            lo = grid[max(best - 1, 0)]
            hi = grid[min(best + 1, len(grid) - 1)]
            for _ in range(80):
                third = (hi - lo) / 3.0
                a, b = lo + third, hi - third
                if outer(np.array([a])) <= outer(np.array([b])):
                    hi = b
                else:
                    lo = a
            return float(outer(np.array([0.5 * (lo + hi)])))
        from scipy import optimize  # only this branch needs scipy

        rng = np.random.default_rng(cfg.seed)
        best = math.inf
        for _ in range(20):
            start = rng.uniform(-box, box, size=m)
            result = optimize.minimize(outer, start, method="Nelder-Mead")
            best = min(best, float(result.fun))
        return best

    return float(np.max(_inner_min(pq, w_cand)))


def _inner_min(pq: PartitionedQuadratic, w_rows: np.ndarray) -> np.ndarray:
    """min over u of V(u, w) for each row w, solved exactly (a convex
    quadratic in u); -inf where M11 u = -(M12 w + d1) has no solution."""
    f11 = svd(pq.m11)
    rhs = w_rows @ pq.m12.T + pq.d1
    residuals = np.linalg.norm(rhs @ f11.u2, axis=1)
    feasible = residuals <= 1e-9 * np.maximum(1.0, np.linalg.norm(rhs, axis=1))
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
    return float(np.max(_inner_min(pq, w_grid) + penalty))


def fd_gradient(f, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar field."""
    x = as_vector(x, "x")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return grad
