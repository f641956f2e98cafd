"""Brute-force verifiers, independent of the solvers: no solver imports them.

A "no answer" gets a step-free certificate at any dimension (``off_range``,
``infinite_maxmin``, ``infinite_minmax``); an answer gets Gaussian draws
around a candidate, finite differences, one sampled and polished search
of the sphere (``_ascend``) for the MAXMIN w, a trust region's as its
p = 0 game, beside the exact ``sphere_certificate`` of a claimed point,
and a MINMAX w grid.
MAXMIN and the lambda family solve the inner minimum over u exactly; one
engine of central cuts, stopped relative to the data, brackets the MINMAX
outer minimum over u (widened by the circle's error) and the lambda
family's maximum over w.  These searches are bounds, not certificates:
the sphere search takes any dimension, the cuts only desk-scale blocks, a
lambda-family w of up to 4 and a MINMAX w of up to 2 and u of up to 4.
All draws come from one seed through the counter-based
``_gaussian_rows``, and every best row from one ``_sweep`` in blocks,
so a configuration gives one output, however the rows are blocked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

import numpy as np

from .game import PartitionedQuadratic
from .linalg import (
    CUT_STOP, ROUNDING, TOL, Validated, as_vector, check_integer, data_size,
    norm, row_norms, symmetric_split,
)
from .minmax import Direction
from .quadratic import QuadraticForm

POLISH_STEPS = 100
# The cuts close their bracket in a few hundred steps at the desk
# dimensions; the cap only guards against a stalled bracket.
_MAX_CUTS = 10_000
# Most rows one array pass of a sampling oracle holds: the oracles draw
# and evaluate their candidates in blocks of this many rows, so their
# memory does not grow with the sample count.  One block's temporaries
# take about 50 bytes per row and dimension: 0.4 MB at 4, 20 MB at 200.
BLOCK = 2048

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class OracleConfig(Validated, namedtuple("OracleConfig", "seed samples grid_points")):
    """``seed`` of every random draw and ``samples`` sphere draws (trust
    region, MAXMIN) or circle points (MINMAX).  ``grid_points`` (an integer
    >= 2) is validated and kept for the benchmark's checks, its one
    caller; no oracle reads it."""

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
    return g / row_norms(g)[:, None]


def sampled_min(objective, center, cfg: OracleConfig, value: float, size: float):
    """Smallest objective over ``cfg.samples`` Gaussian draws around center
    (row 0), spread by 1 + ||center||: (value, oracle value, passed).  It
    passes when the two values differ by at most ``ROUNDING`` ``size``, the
    size of the objective's terms at center: their rounding is all by
    which a draw may beat the value or center miss it."""
    spread = 1.0 + norm(center)

    def draws(start, stop):
        x = center + _gaussian_rows(cfg.seed, center.shape[0], start, stop) * spread
        if start == 0:
            x[0] = center
        return x

    oracle_value = -float(_sweep(cfg.samples, draws, lambda x: -objective(x))[0])
    return value, oracle_value, abs(oracle_value - value) <= ROUNDING * size


def verify_saddle(
    pq: PartitionedQuadratic,
    u_star,
    w_star,
    samples: int = 200,
    seed: int = 0,
) -> bool:
    """Sampled check of V(u*, w) <= V(u*, w*) <= V(u, w*).

    Draws ``samples`` Gaussian perturbations around the candidate point
    from ``seed`` (row i: the u part moves u*, the w part moves w*),
    spread by r = 1 + ||u*|| + ||w*||, and sweeps them for a row that
    breaks either inequality by more than ``ROUNDING`` (||M||_F r^2 +
    ||d|| r), the size of V's terms at the draws' spread; a
    probabilistic refutation test, not a certificate.  ``samples`` must
    be an integer >= 1 and ``seed`` one >= 0, as in ``OracleConfig``.
    """
    OracleConfig(seed, samples)  # refuses what the config refuses
    u_star = as_vector(u_star, "u_star")
    w_star = as_vector(w_star, "w_star")
    p = pq.u_dim
    center = pq.evaluate(u_star, w_star)
    scale = 1.0 + (norm(u_star) + norm(w_star))
    m = pq.assembled()
    tol = ROUNDING * (norm(m) * scale**2 + norm(pq.d) * scale)
    form = QuadraticForm(m, pq.d)
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
    section 8).  (nan, ||P d||, passed): it passes when d fails the
    solvers' ``in_range`` at ``size`` (||d||; ||(d1, d2)|| for d1)."""
    f = symmetric_split(h)
    return math.nan, norm(f.v2.T @ d), not f.in_range(d, size)


def _hessian(pq: PartitionedQuadratic, f11) -> tuple[np.ndarray, float]:
    """(S, size): the Hessian S = M22 - M12'X, X = pinv(M11) M12 (f11 as in
    ``_inner_min``), of g(w) = min over u of V(u, w), symmetrized, and the
    size || |M22| + |M12'||X| ||_F of its terms, not of S: M12'X cancels
    where M11 is ill-conditioned."""
    x = f11.solve(pq.m12)
    s, terms = pq.m22 - pq.m12.T @ x, abs(pq.m22) + abs(pq.m12.T) @ abs(x)
    return 0.5 * (s + s.T), norm(terms)


def infinite_maxmin(pq: PartitionedQuadratic, lam: float):
    """Certificate of an infinite maxmin answer at lam: g(w) = min over u
    of L(u, w, lam) is 1/2 w'(S - lam I)w + r'w + const, S from ``_hessian``
    = Q diag(s) Q' by one ``eigh``.  (nan, rise, passed): it passes when the
    largest curvature s_i - lam, the rise, exceeds ROUNDING (size + |lam|),
    or else when the rise, the norm of g's slopes Q' grad g(0) along the
    curvatures within that bound of 0, exceeds ROUNDING times the size
    || |d2| + |M12'| |pinv(M11) d1| || of r's terms (r off R(S - lam I))."""
    f11 = symmetric_split(pq.m11)
    s, size = _hessian(pq, f11)
    curvature, q = np.linalg.eigh(s)
    curvature, bound = curvature - lam, ROUNDING * (size + abs(lam))
    if curvature.size and curvature[-1] > bound:  # an empty w has none
        return math.nan, float(curvature[-1]), True
    slope = q.T @ _inner_gradient(pq, np.zeros(pq.w_dim), f11)
    rise = norm(slope[np.abs(curvature) <= bound])
    terms = abs(pq.d2) + abs(pq.m12.T) @ abs(f11.solve(pq.d1))
    return math.nan, rise, rise > ROUNDING * norm(terms)


def infinite_minmax(pq: PartitionedQuadratic, lam: float) -> bool:
    """Certificate of an infinite minmax answer at lam: along the top
    eigenvector of M22 (one ``eigvalsh``), L(u, ., lam) has the curvature
    s_max - lam for every u.  It passes when that exceeds ``ROUNDING``
    (||M22||_F + |lam|)."""
    s = np.linalg.eigvalsh(pq.m22)
    return bool(s.size) and float(s[-1]) - lam > ROUNDING * data_size(pq.m22, lam=lam)


def _ascend(pq: PartitionedQuadratic, cfg: OracleConfig):
    """(value, point) of the best w found on the unit sphere for the
    MAXMIN objective of pq, g(w) = min over u of V(u, w), rated exactly
    (``_inner_min``; its one factorization is M11's eigh) along its exact
    gradient (``_inner_gradient``): the better of +-1, the whole 0-sphere
    (a w of 1), else the better of the best of ``cfg.samples``
    ``unit_samples`` of ``cfg.seed`` and its polish by ``POLISH_STEPS``
    power steps w <- grad g / ||grad g|| (they stop at a zero gradient).
    On a convex g each step rises with no step length (Journee, Nesterov,
    Richtarik & Sepulchre, JMLR 2010, section 3) but contracts by about
    ||S|| / lambda, so near ||S|| it stops short: the value is a lower
    bound on the maximum."""
    f11 = symmetric_split(pq.m11)
    score = partial(_inner_min, pq, f11=f11)
    if pq.w_dim == 1:
        best, w = _sweep(2, partial(_w_candidates, 1, 2), score)
        return float(best), w
    best, w = _sweep(cfg.samples, partial(unit_samples, cfg.seed, pq.w_dim), score)
    sampled = w
    for _ in range(POLISH_STEPS):
        g = _inner_gradient(pq, w, f11)
        length = norm(g)
        if not length:
            break
        w = g / length
    polished = score(w[None, :])[0]
    return (float(polished), w) if polished >= best else (float(best), sampled)


def sphere_max(q: QuadraticForm, cfg: OracleConfig) -> tuple[float, np.ndarray]:
    """Best value of q found on the unit sphere and its point: the MAXMIN
    search (``_ascend``) of q's p = 0 game, whose g is q less its
    constant, plus ``q.constant``.  The power step needs no curvature
    bound, so no spectrum of q's hessian D is computed.  It rises only
    for a convex q; on an indefinite D (linear term d) the polish can
    fall back, and the value is about that of the best sample: up to a
    few 1e-3 of ||D||_F + ||d|| short of the maximum on random
    indefinite 2 x 2 to 4 x 4 D at the default samples."""
    _check_dims(q.dim)
    value, w = _ascend(PartitionedQuadratic.trust_region(q.hessian, q.linear), cfg)
    return value + q.constant, w


def sphere_certificate(pq: PartitionedQuadratic, w, lam: float) -> tuple[float, bool]:
    """(g(w), optimal) of a claimed maximizer w on the unit sphere of the
    exact g(w) = min over u of V(u, w) (``_inner_min``; a trust region has
    no u) = 1/2 w'Sw + r'w + const, with multiplier lam: optimal iff
    ||w|| = 1, grad g(w) = lam w and lam >= lambda_max(S) (More & Sorensen
    1983), each to ``ROUNDING`` of its terms' size: |M22||w| + |M12'||u*|
    + |d2| + |lam||w| for the gradient (``_inner_gradient``), 1 for ||w||
    and ``_hessian``'s size + |lam| for S, read by one ``eigvalsh``."""
    w = as_vector(w, "w")
    f11 = symmetric_split(pq.m11)
    u = f11.solve(pq.m12 @ w + pq.d1)  # -u*, u* the inner minimizer
    terms = abs(pq.m22) @ abs(w) + abs(pq.m12.T) @ abs(u) + abs(pq.d2) + abs(lam * w)
    residual = norm(_inner_gradient(pq, w, f11) - lam * w)
    s, size = _hessian(pq, f11)
    optimal = (
        residual <= ROUNDING * norm(terms)
        and abs(norm(w) - 1.0) <= ROUNDING
        and np.linalg.eigvalsh(s)[-1] - lam <= ROUNDING * (size + abs(lam))
    )
    return float(_inner_min(pq, w[None, :], f11)[0]), bool(optimal)


def _w_candidates(dim: int, count: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of MINMAX's ``count`` w candidates: +-1 in 1-d
    (count 2; ``_ascend``'s 0-sphere too), else a deterministic circle
    grid, whose error ``minmax_bracket`` bounds."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])[start:stop]
    theta = np.arange(start, stop) * (2.0 * math.pi / count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _check_dims(w_dim: int, u_dim=0, direction: Direction | None = None, family=False):
    """Refuse what the oracles cannot take: an empty sphere, and blocks too
    large for the cuts, whose count grows with the square of the dimension
    they search: a lambda-family w (``family``) over 4, a MINMAX u over 4 or
    w over 2 (read on a circle).  The sphere search takes any dimension."""
    if w_dim < 1:
        raise ValueError("dimension must be at least 1")
    if family and w_dim > 4:
        raise ValueError("lambda-family oracle supports w dimensions up to 4")
    if direction is Direction.MINMAX and (w_dim > 2 or u_dim > 4):
        raise ValueError("MINMAX grid oracle supports w dimensions up to 2, u up to 4")


def grid_minmax(
    pq: PartitionedQuadratic, cfg: OracleConfig, direction: Direction
) -> float:
    """Nested brute-force value of the sphere-constrained game.

    MINMAX: the convex f(u) = max of V(u, w) over w candidates, +-1 for a
    1-d w, else ``cfg.samples`` points of a deterministic circle grid, is
    minimized by central cuts (``_convex_min``), deterministic and with no
    random starts; the value is f at the best point found.
    MAXMIN: g(w) = min over u of V(u, w) is maximized by the sphere
    search of ``_ascend``.
    """
    _check_dims(pq.w_dim, pq.u_dim, direction)
    if direction is Direction.MAXMIN:
        return _ascend(pq, cfg)[0]
    return _convex_min(pq, cfg)[1]


def minmax_bracket(pq: PartitionedQuadratic, cfg: OracleConfig) -> tuple[float, float]:
    """Bracket (lower, upper) on the MINMAX value: ``_convex_min``'s, its
    upper end widened by the circle grid's error.  On N points h = 2 pi / N
    apart, V(u, w) at angle t has a second derivative of at most kappa =
    (s1 - s2) + ||M12'u + d2||, s1 - s2 M22's eigenvalue gap, so at the best
    u the grid misses the maximum over w by kappa h^2 / 8 at most; +-1 is
    the whole 0-sphere."""
    _check_dims(pq.w_dim, pq.u_dim, Direction.MINMAX)
    lower, upper, widening = _convex_min(pq, cfg)
    return lower, upper + widening


def _convex_min(pq: PartitionedQuadratic, cfg: OracleConfig):
    """Bracket on the minimum over u of the convex f(u) = max over the w
    candidates of ``grid_minmax`` of V(u, w), by ``_cuts``, and its widening.

    f is constant along null(M11) when M >= 0 and d1 is in R(M11), so
    the search runs over u = V1 x in R(M11); with d1 outside R(M11)
    (``in_range`` at ||d||) f is unbounded below and both ends are -inf.  As
    the rows are unit vectors, f(V1 x) >= f(0) - a ||x|| +
    sigma_min ||x||^2 / 2 with a = ||V1' d1|| + ||V1' M12||_F, so every
    minimizer lies in the ball ||x|| <= 2a / sigma_min.  The subgradient
    at x is V1'(M11 u + d1 + M12 w*), w* the best row.
    """
    f11 = symmetric_split(pq.m11, psd=True)
    if f11 is None or not f11.in_range(pq.m12):
        raise ValueError("the MINMAX oracle requires M11 >= 0 and R(M12) in R(M11)")
    if not f11.in_range(pq.d1, norm(pq.d)):
        return -math.inf, -math.inf, 0.0
    sigma, k, m = f11.sigma, f11.rank, pq.m22
    count = 2 if pq.w_dim == 1 else max(cfg.samples, 4)
    w_cand = _w_candidates(pq.w_dim, count, 0, count)
    coupling, lin = f11.v1.T @ pq.m12, f11.v1.T @ pq.d1
    quad_w = QuadraticForm(m, pq.d2)._evaluate_rows(w_cand)
    cross = coupling @ w_cand.T

    def at(x: np.ndarray) -> tuple[float, np.ndarray]:
        inner = quad_w + x @ cross
        j = int(np.argmax(inner))
        value = inner[j] + (0.5 * sigma * x + lin) @ x
        return float(value), sigma * x + lin + cross[:, j]

    a = norm(lin) + norm(coupling)
    size = data_size(pq.assembled(), pq.d)
    lower, upper, x = _cuts(at, k, 2.0 * a / sigma[-1] if k else 0.0, size)
    if pq.w_dim == 1:
        return lower, upper, 0.0
    kappa = math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1])
    kappa += norm(coupling.T @ x + pq.d2)
    return lower, upper, kappa * (2.0 * math.pi / count) ** 2 / 8.0


def _cuts(at, k: int, radius: float, size: float):
    """Bracket (lower, upper) on the minimum of a convex f over R^k by
    central cuts (the ellipsoid method; bisection for k = 1): ``at(x)``
    gives f(x) and a subgradient g, and the ball ||x|| <= radius holds a
    minimizer.  Each ellipsoid E = {x + By : ||y|| <= 1}, cut at its
    center x along g, keeps one, so f(x) - ||B'g||, the least value on E
    of the cut's linear bound, is a lower end; upper is the least f(x)
    seen, at the x it returns too.  The cuts stop when upper - lower <=
    ``CUT_STOP`` (min(1, size) + |upper|), relative to the data's ``size``
    (1 if 0), after ``_MAX_CUTS`` or at a non-finite f(x), which bounds
    nothing.
    Rounding near a singular M(lambda) can invert the ends, which ``check``
    fails beyond its tolerance.  R^0 has the one point x = ()."""
    unit = min(1.0, size) or 1.0
    best = x = np.zeros(k)
    if k == 0:
        value, _ = at(x)
        return value, value, x
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
        if value < upper:
            upper, best = value, x
        if not math.isfinite(value):
            break
        bg = b.T @ g
        width = norm(bg)
        lower = max(lower, value - width)
        if upper - lower <= CUT_STOP * (unit + abs(upper)):
            break
        p = bg / width
        bp = b @ p
        x = x - bp / (k + 1.0)
        b = alpha * b + (gamma - alpha) * np.outer(bp, p)
    return lower, upper, best


def _inner_min(pq: PartitionedQuadratic, w_rows: np.ndarray, f11) -> np.ndarray:
    """min over u of V(u, w) for each row w, solved exactly (a convex
    quadratic in u; f11 is ``symmetric_split(M11)``, with no PSD
    clipping, so it splits M11 as its SVD would); -inf where
    M11 u = -(M12 w + d1) has no solution.  The right-hand side is
    formed by cancellation, so its residual off the range of M11 is read
    against TOL (||M12 w|| + ||d||): the norm of M12 w it is formed from,
    and the scale ``in_range`` reads d1 against.  The rule is written out
    to test every row in one array pass, not one call per row."""
    cross = w_rows @ pq.m12.T
    rhs = cross + pq.d1
    residuals = row_norms(rhs @ f11.u2)
    scale = row_norms(cross) + norm(pq.d)
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
    it is wherever the maxmin value is finite.  An empty w block is the
    single point of R^0.  The data's size is ``data_size`` of (M, d, lam).
    Near a singular M(lam) rounding in g can invert the ends, as
    ``_cuts`` says: on the rng5 game at c = 1e8 (M = c aa' from
    ``default_rng(5)``), lam = ||S|| + 0.1 gives lower > upper."""
    if pq.w_dim:  # R^0, the one point of an empty w block, needs no cap
        _check_dims(pq.w_dim, family=True)
    f11 = symmetric_split(pq.m11)
    w0 = symmetric_split(pq.assembled(lam)).solve(pq.d)[pq.u_dim :]
    size = data_size(pq.assembled(), pq.d, lam)

    def at(w: np.ndarray) -> tuple[float, np.ndarray]:
        g = _inner_min(pq, w[None, :], f11)[0] + 0.5 * lam * (1.0 - w @ w)
        return -float(g), lam * w - _inner_gradient(pq, w, f11)

    lower, upper, _ = _cuts(at, pq.w_dim, 2.0 * (1.0 + norm(w0)), size)
    return -upper, -lower


def fd_gradient(f, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar field."""
    x = as_vector(x, "x")
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return grad
