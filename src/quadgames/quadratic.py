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
# memory does not grow with the sample count.  At the desk dimensions
# (up to 4 per row) one block's temporaries stay under about 1 MB.
BLOCK = 2048

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


def _blocks(count: int):
    """Consecutive (start, stop) row ranges that cover range(count), of
    ``BLOCK`` rows each; a lone last row joins the block before it.

    numpy hands a one-row product to another BLAS routine than a taller
    one, and the two round differently; with no one-row block (unless
    count is 1) a row gets the same numbers in any block as in one pass
    over all rows.  Draws made block by block
    (``_gaussian_rows(seed, dim, start, stop)``) are the rows of one draw
    of ``count`` rows.
    """
    start = 0
    while start < count:
        stop = start + BLOCK
        if stop >= count - 1:
            stop = count
        yield start, stop
        start = stop


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
