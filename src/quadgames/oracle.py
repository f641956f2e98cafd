"""Brute-force verifiers, independent of the solvers: no solver imports them.

A "no answer" gets a step-free certificate at any dimension (``off_range``,
``infinite_maxmin``, ``infinite_minmax``); an answer gets Gaussian draws
around a candidate, finite differences, one sampled and polished search
of the sphere (``_ascend``, which weighs the claimed point too) for the
trust region and the MAXMIN w, and a grid of MINMAX's w (2 points or a circle).
MAXMIN and the lambda family solve the inner minimum over u exactly; one
engine of central cuts brackets the MINMAX outer minimum over u and the
lambda family's maximum over w.
These searches are desk-scale bounds, not certificates: spheres and w
blocks of up to 4 dimensions, but a MINMAX w of up to 2 and u of up to 4.
All draws come from one seed through the counter-based
``_gaussian_rows``, and every best row from one ``_sweep`` in blocks,
so a configuration gives one output, however the rows are blocked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

import numpy as np

from .game import PartitionedQuadratic, schur_reduction
from .linalg import (
    TOL,
    Validated,
    as_vector,
    check_integer,
    symmetric_split,
)
from .minmax import Direction
from .quadratic import QuadraticForm

POLISH_STEPS = 100
# The cuts close their bracket in a few hundred steps at the desk
# dimensions; the cap only guards against a stalled bracket.
_MAX_CUTS = 10_000
# Most rows one array pass of a sampling oracle holds: the oracles draw
# and evaluate their candidates in blocks of this many rows, so their
# memory does not grow with the sample count.  At the desk dimensions
# (up to 4 per row) one block's temporaries stay under about 1 MB.
BLOCK = 2048

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class OracleConfig(Validated, namedtuple("OracleConfig", "seed samples grid_points")):
    """``seed`` of every random draw and ``samples`` sphere draws (trust
    region, MAXMIN) or circle points (MINMAX).  ``grid_points`` (an integer
    >= 2) is validated for callers that still pass it; no oracle reads it."""

    __slots__ = ()

    def __new__(cls, seed=0, samples=100_000, grid_points=400):
        check_integer(seed, "seed", 0)
        check_integer(samples, "samples", 1)
        check_integer(grid_points, "grid_points", 2)
        return super().__new__(cls, seed, samples, grid_points)


def _sweep(count: int, rows, score):
    """The largest score over rows 0..count-1 and its row, the first row
    on ties.  ``rows(start, stop)`` makes the rows of one block of up to
    ``BLOCK`` and ``score`` rates them, so one block is held at a time.

    A lone last row joins the block before it: numpy hands a one-row
    product to another BLAS routine than a taller one, and the two round
    differently; with no one-row block (unless count is 1) a row gets
    the same numbers in any block as in one pass over all rows.  Draws
    made block by block (``_gaussian_rows(seed, dim, start, stop)``) are
    the rows of one draw of ``count`` rows.
    """
    best, arg, start = -math.inf, None, 0
    while start < count:
        stop = start + BLOCK
        if stop >= count - 1:
            stop = count
        x = rows(start, stop)
        values = score(x)
        i = int(np.argmax(values))
        if arg is None or values[i] > best:
            best, arg = values[i], x[i]
        start = stop
    return best, arg


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014): a
    bijection of uint64 arrays that scatters every input bit."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _gaussian_rows(seed: int, dim: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the standard normal draws of ``seed`` (an
    integer >= 0 of any size), ``dim`` per row.

    A counter-based generator (Salmon et al., SC 2011): row i is a
    function of (seed, i) alone, so rows drawn block by block are the
    rows of one draw.  The row counter i is keyed by each 64-bit word w_j
    of the seed in turn, low word first, through the round
    x -> mix(mix(x ^ k) + k) with k = w_j + (j + 1) gamma (mod 2**64).
    A round is a bijection of x for each key, so no two of a seed's
    first 2**64 rows share a state, and the seed enters as a key, never
    as an offset of the counter, so no row count runs one seed's stream
    into another's.  The row's state x then seeds a SplitMix64 stream
    mix(x + m gamma), m = 1, 2, ...: the top 52 bits of each output give
    a uniform in the open interval (0, 1), and Box-Muller turns each
    pair (a, b) into r cos t and r sin t, r = sqrt(-2 ln a), t = 2 pi b.
    No draw is zero: r >= 1.4e-8, and |cos t|, |sin t| >= 6e-17 at
    every float t in (0, 2 pi).
    """
    x = np.arange(start, stop, dtype=np.uint64)
    seed = int(seed)
    for j, shift in enumerate(range(0, max(seed.bit_length(), 1), 64), 1):
        k = np.uint64((((seed >> shift) & _MASK) + j * _GOLDEN) & _MASK)
        x = _mix(_mix(x ^ k) + k)
    pairs = (dim + 1) // 2
    steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    uniform = ((_mix(x[:, None] + steps) >> np.uint64(12)) + 0.5) * 2.0**-52
    r = np.sqrt(-2.0 * np.log(uniform[:, 0::2]))
    t = (2.0 * np.pi) * uniform[:, 1::2]
    z = np.stack((r * np.cos(t), r * np.sin(t)), axis=-1)
    return z.reshape(x.shape[0], 2 * pairs)[:, :dim]


def unit_samples(seed: int, dim: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the uniform points on the unit sphere that
    ``seed`` draws: its Gaussian rows (``_gaussian_rows``, never zero),
    normalized."""
    g = _gaussian_rows(seed, dim, start, stop)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sampled_min(objective, x0, cfg: OracleConfig, value: float, size: float):
    """Smallest objective over ``cfg.samples`` Gaussian draws around x0
    (row 0 is x0), spread by 1 + ||x0||: (value, oracle value, passed).
    It passes when the two values differ by at most 1e-12 ``size``, the
    size of the objective's terms at x0: their rounding, a few n eps size,
    is all by which a draw may beat the value or x0 miss it."""
    spread = 1.0 + np.linalg.norm(x0)

    def draws(start, stop):
        x = x0 + _gaussian_rows(cfg.seed, x0.shape[0], start, stop) * spread
        if start == 0:
            x[0] = x0
        return x

    oracle_value = -float(_sweep(cfg.samples, draws, lambda x: -objective(x))[0])
    return value, oracle_value, abs(oracle_value - value) <= 1e-12 * size


def verify_saddle(
    pq: PartitionedQuadratic,
    u_star,
    w_star,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Sampled check of V(u*, w) <= V(u*, w*) <= V(u, w*).

    Draws ``samples`` Gaussian perturbations around the candidate point
    from ``seed`` (row i: the u part moves u*, the w part moves w*) and
    sweeps them for a row that breaks either inequality; a probabilistic
    refutation test, not a certificate.  ``samples`` must be an integer
    >= 1 and ``seed`` one >= 0, as in ``OracleConfig``.
    """
    OracleConfig(seed, samples)  # refuses what the config refuses
    u_star = as_vector(u_star, "u_star")
    w_star = as_vector(w_star, "w_star")
    p = pq.u_dim
    center = pq.evaluate(u_star, w_star)
    scale = 1.0 + float(np.linalg.norm(u_star) + np.linalg.norm(w_star))
    form = QuadraticForm(pq.assembled(), pq.d)
    point = np.concatenate([u_star, w_star])

    def broken(g):
        z = np.tile(point, (2, g.shape[0], 1))
        z[0, :, p:] += scale * g[:, p:]  # rows (u*, w)
        z[1, :, :p] += scale * g[:, :p]  # rows (u, w*)
        v = form._evaluate_rows(z)
        return ~((v[0] <= center + tol) & (v[1] >= center - tol))

    return not _sweep(samples, partial(_gaussian_rows, seed, p + pq.w_dim), broken)[0]


def off_range(h, d, size: float):
    """Certificate of an unbounded or unsolvable answer of 1/2 z'hz + d'z:
    along -P d, P the projector onto null(h), the objective has no
    curvature and falls at the rate ||P d||, with no step to choose (for
    h >= 0 a recession direction; Rockafellar, Convex Analysis, 1970,
    section 8).  (nan, ||P d||, passed): it passes when ||P d|| > TOL size,
    the solvers' range test (size ||d||; ||(d1, d2)|| for a game's d1)."""
    f = symmetric_split(h)
    norm = float(np.linalg.norm(f.v2.T @ d))
    return math.nan, norm, norm > TOL * size


def infinite_maxmin(pq: PartitionedQuadratic, lam: float):
    """Certificate of an infinite maxmin answer at lam: g(w) = min over u
    of L(u, w, lam) is 1/2 w'(S - lam I)w + r'w + const.  Along each
    eigenvector q_i of S (from the solvers' ``game.schur_reduction``) the
    exact ``_inner_gradient`` gives g's slope r'q_i at w = 0 and, in the
    game with d1 = d2 = 0, so that no d term cancels, its curvature
    q_i'(S - lam I)q_i.  (nan, rise, passed): it passes when the largest
    curvature, the rise, exceeds the reduction's ``tol``, or else when the
    rise, the norm of the slopes along curvatures within ``tol`` of 0,
    exceeds its ``range_tol`` (r off R(S - lam I), as at lam = ||S||)."""
    sec = schur_reduction(pq).secular
    f11 = symmetric_split(pq.m11)
    flat = pq._replace(d1=np.zeros(pq.u_dim), d2=np.zeros(pq.w_dim))
    curvature = np.array([q @ _inner_gradient(flat, q, f11) for q in sec.q.T]) - lam
    if np.max(curvature) > sec.tol:
        return math.nan, float(np.max(curvature)), True
    slope = sec.q.T @ _inner_gradient(pq, np.zeros(pq.w_dim), f11)
    rise = float(np.linalg.norm(slope[np.abs(curvature) <= sec.tol]))
    return math.nan, rise, rise > sec.range_tol


def infinite_minmax(pq: PartitionedQuadratic, lam: float) -> bool:
    """Certificate of an infinite minmax answer at lam: along the top
    eigenvector of M22 (one ``eigvalsh``), L(u, ., lam) has the curvature
    s_max - lam for every u.  It passes when that exceeds the ``tol`` of
    ``game.schur_reduction``, the solvers' threshold test."""
    s = np.linalg.eigvalsh(pq.m22)
    return bool(s.size) and float(s[-1]) - lam > schur_reduction(pq).secular.tol


def _ascend(rows_value, gradient, dim: int, cfg: OracleConfig, x0=None):
    """(value, point) of the best point found on the unit sphere in R^dim
    for an objective rated on stacked rows by ``rows_value``, with gradient
    ``gradient``: the better of +-1, the whole 0-sphere (dim 1), else the
    best of ``cfg.samples`` ``unit_samples`` of ``cfg.seed``, its polish by
    ``POLISH_STEPS`` power steps w <- g / ||g|| (g the gradient at w; they
    stop at g = 0) and a claimed point x0, normalized.  On a convex
    objective each step rises with no step length (Journee, Nesterov,
    Richtarik & Sepulchre, JMLR 2010, section 3) but contracts by about
    ||D|| / lambda, so near ||D|| it stops short of x0.  Only the best
    sample starts it: a wrong x0 may sit at a quadratic's one non-global
    local maximizer (Martinez, SIAM J. Optim. 1994), a fixed point of it."""
    if dim == 1:
        best, w = _sweep(2, partial(_w_candidates, 1, 2), rows_value)
        return float(best), w
    best, w = _sweep(cfg.samples, partial(unit_samples, cfg.seed, dim), rows_value)
    sampled = w
    for _ in range(POLISH_STEPS):
        g = gradient(w)
        norm = np.linalg.norm(g)
        if not norm:
            break
        w = g / norm
    polished = rows_value(w[None, :])[0]
    value, w = (polished, w) if polished >= best else (best, sampled)
    if x0 is not None:
        x0 = as_vector(x0, "x0") / np.linalg.norm(x0)
        claimed = rows_value(x0[None, :])[0]
        value, w = (claimed, x0) if claimed > value else (value, w)
    return float(value), w


def sphere_max(q: QuadraticForm, cfg: OracleConfig, x0=None) -> tuple[float, np.ndarray]:
    """Best value of q on the unit sphere and its point (``_ascend``, from
    x0 too), with no factorization: the power step needs no curvature bound."""
    _check_dims(q.dim)
    return _ascend(q._evaluate_rows, q.gradient, q.dim, cfg, x0)


def _w_candidates(dim: int, count: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of MINMAX's ``count`` w candidates: +-1 in 1-d
    (count 2; ``_ascend``'s 0-sphere too), else a deterministic circle
    grid, dense enough that the discretization error is negligible next
    to the oracle tolerance."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])[start:stop]
    theta = np.arange(start, stop) * (2.0 * math.pi / count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _check_dims(w_dim: int, u_dim: int = 0, direction: Direction | None = None):
    """Refuse what the oracles cannot take: a sphere (the trust region's,
    a game's w) of 1 to 4 dimensions, with any u (the inner minimum over u
    is exact); for MINMAX, a w of up to 2, read on a circle, and a u of up
    to 4, searched by cuts whose count grows with the square of dim u."""
    if w_dim < 1:
        raise ValueError("dimension must be at least 1")
    if w_dim > 4:
        raise ValueError("sphere oracle supports dimensions up to 4")
    if direction is Direction.MINMAX and (w_dim > 2 or u_dim > 4):
        raise ValueError("MINMAX grid oracle supports w dimensions up to 2, u up to 4")


def grid_minmax(
    pq: PartitionedQuadratic, cfg: OracleConfig, direction: Direction, x0=None
) -> float:
    """Nested brute-force value of the sphere-constrained game.

    MINMAX: the convex f(u) = max of V(u, w) over w candidates, +-1 for a
    1-d w, else ``cfg.samples`` points of a deterministic circle grid, is
    minimized by central cuts (``_convex_min``), deterministic and with no
    random starts; the value is f at the best point found.
    MAXMIN: g(w) = min over u of V(u, w), solved exactly (``_inner_min``),
    is maximized by the sphere search of ``_ascend``, which reads a
    claimed w x0 too (MINMAX refuses one), along g's exact gradient
    (``_inner_gradient``); its one factorization is M11's eigh.
    """
    _check_dims(pq.w_dim, pq.u_dim, direction)
    if x0 is not None and direction is Direction.MINMAX:
        raise ValueError("the MINMAX oracle reads no claimed w")
    n = pq.w_dim
    if direction is Direction.MAXMIN:
        f11 = symmetric_split(pq.m11)
        score = partial(_inner_min, pq, f11=f11)
        gradient = partial(_inner_gradient, pq, f11=f11)
        return _ascend(score, gradient, n, cfg, x0)[0]
    count = 2 if n == 1 else max(cfg.samples, 4)
    return _convex_min(pq, _w_candidates(n, count, 0, count))[1]


def _convex_min(pq: PartitionedQuadratic, w_cand: np.ndarray) -> tuple[float, float]:
    """Bracket (lower, upper) on the minimum over u of the convex
    f(u) = max over the rows w of ``w_cand`` of V(u, w), by ``_cuts``.

    f is constant along null(M11) when M >= 0 and d1 is in R(M11), so
    the search runs over u = V1 x in R(M11); with d1 outside R(M11)
    (beyond TOL ||d||) f is unbounded below and both ends are -inf.  As
    the rows are unit vectors, f(V1 x) >= f(0) - a ||x|| +
    sigma_min ||x||^2 / 2 with a = ||V1' d1|| + ||V1' M12||_F, so every
    minimizer lies in the ball ||x|| <= 2a / sigma_min.  The subgradient
    at x is V1'(M11 u + d1 + M12 w*), w* the best row.
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

    a = float(np.linalg.norm(lin) + np.linalg.norm(coupling))
    return _cuts(at, k, 2.0 * a / sigma[-1] if k else 0.0)


def _cuts(at, k: int, radius: float) -> tuple[float, float]:
    """Bracket (lower, upper) on the minimum of a convex f over R^k by
    central cuts (the ellipsoid method; bisection for k = 1): ``at(x)``
    gives f(x) and a subgradient g, and the ball ||x|| <= radius holds a
    minimizer.  Each ellipsoid E = {x + By : ||y|| <= 1}, cut at its
    center x along g, keeps one, so f(x) - ||B'g||, the least value on E
    of the cut's linear bound, is a lower end; upper is the least f(x)
    seen.  The cuts stop when upper - lower <= 1e-10 (1 + |upper|), or
    after ``_MAX_CUTS``.  R^0 has the one point x = ()."""
    x = np.zeros(k)
    if k == 0:
        value, _ = at(x)
        return value, value
    # B holds the ellipsoid: P = BB' stays PSD under rounding, where
    # P itself does not.  A cut along p = B'g / ||B'g|| moves x by
    # -Bp / (k+1) and maps B to B (alpha (I - pp') + gamma pp'), the
    # update P <- k^2/(k^2-1) (P - 2/(k+1) Pgg'P / g'Pg) in factored form.
    # For k = 1 it halves B: bisection.
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


def _inner_gradient(pq: PartitionedQuadratic, w: np.ndarray, f11) -> np.ndarray:
    """The exact gradient M22 w + d2 + M12'u* of g(w) = min over u of V(u, w)
    where finite, u* = -pinv(M11)(M12 w + d1) (f11 as in ``_inner_min``)."""
    u = -f11.solve(pq.m12 @ w + pq.d1)
    return pq.m22 @ w + pq.d2 + pq.m12.T @ u


def lagrangian_bracket(pq: PartitionedQuadratic, lam: float) -> tuple[float, float]:
    """Bracket (lower, upper) on the lambda family's maxmin value, max over
    w of the concave g(w) = min over u of V(u, w) - lam/2 (w'w - 1): the
    ``_cuts`` of -g, g from ``_inner_min``, along its exact gradient
    (``_inner_gradient`` less lam w), from the ball of radius 2 (1 + ||w0||),
    w0 the w part of -pinv(M(lam)) d.  That assumes w0 is a maximizer, as
    it is wherever the maxmin value is finite.  An empty w block is the single point of R^0.  g is read in
    units of min(1, ||M||_F + ||d|| + |lam|): the cuts stop relative to
    small data too."""
    if pq.w_dim:  # R^0, the one point of an empty w block, needs no cap
        _check_dims(pq.w_dim)
    f11 = symmetric_split(pq.m11)
    w0 = symmetric_split(pq.assembled(lam)).solve(pq.d)[pq.u_dim :]
    size = float(np.linalg.norm(pq.assembled()) + np.linalg.norm(pq.d) + abs(lam))
    unit = min(1.0, size) or 1.0  # on all-zero data g is 0 in any unit

    def at(w: np.ndarray) -> tuple[float, np.ndarray]:
        g = _inner_min(pq, w[None, :], f11)[0] + 0.5 * lam * (1.0 - w @ w)
        return -float(g) / unit, (lam * w - _inner_gradient(pq, w, f11)) / unit

    lower, upper = _cuts(at, pq.w_dim, 2.0 * (1.0 + float(np.linalg.norm(w0))))
    return -upper * unit, -lower * unit


def fd_gradient(f, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar field."""
    x = as_vector(x, "x")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return grad
