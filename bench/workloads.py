"""Seeded op streams for the library workloads.

Each workload is a stream of batches.  A batch has a fixed composition
(the same kinds and cases in the same proportions), so any whole number
of batches has the same mix, and a run's ratios do not depend on where
the clock stopped.  Only the instance data is random, drawn from the
workload seed.  The generators use plain numpy and never call the
library: the program receives only the generated arrays.

Why these workloads:

- ``desk_solve``: fresh small problems of every kind, at the scale the
  brute-force oracles can check.  Per-call Python overhead and the
  multiplier search dominate; LAPACK is a minor share.
- ``large_solve``: the same one-shot kinds at p = n = 200 (assembled
  matrix 400x400).  LAPACK dominates, so a change to the spectral kernel
  shows here.
- ``curve_sweep``: one game per op, swept over 100 multipliers by
  ``lambda_curve`` and ``dual_curve``.  The only workload where many
  calls share one problem, so a per-problem cache shows its gain here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("desk_solve", "large_solve", "curve_sweep")

# Scaled desk instances multiply all data by 10**k, k cycling through
# this range (ROADMAP item 3).
SCALE_EXPONENTS = tuple(range(-8, 9))
CURVE_STEPS = 100
CURVE_DIM = 20
LARGE_DIM = 200


@dataclass
class Op:
    """One library call: ``kind`` names the solver, ``case`` the kind of
    instance, ``scale`` the factor applied to all data."""

    kind: str
    case: str
    data: dict
    scale: float = 1.0


# ----------------------------------------------------------------------
# plain-numpy building blocks


def _orth_complement_projector(vectors: np.ndarray, dim: int) -> np.ndarray:
    """I - Q Q' for an orthonormal basis Q of span(vectors columns)."""
    if vectors.shape[1] == 0:
        return np.eye(dim)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    q = u[:, s > 1e-10 * max(1.0, s[0])]
    return np.eye(dim) - q @ q.T


def _null_space(m: np.ndarray, rel: float = 1e-10) -> np.ndarray:
    s, q = np.linalg.eigh(0.5 * (m + m.T))
    scale = max(float(np.max(np.abs(s))), 1e-300)
    return q[:, np.abs(s) <= rel * scale]


def _psd(rng, n: int, rank: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((n, n))
    b = rng.standard_normal((rank, n))
    m = b.T @ b / max(rank, 1)
    return 0.5 * (m + m.T)


def _game_matrix(rng, p: int, n: int, rank_deficient: bool) -> np.ndarray:
    """PSD (p+n)x(p+n) matrix.  A rank-deficient one has rank in
    [size/2, size) and a singular u-block M11 (null vector (a, 0))."""
    size = p + n
    if not rank_deficient:
        return _psd(rng, size, size)
    rank = int(rng.integers(max(1, size // 2), size))
    b = rng.standard_normal((rank, size))
    a = rng.standard_normal(p)
    a /= np.linalg.norm(a)
    b[:, :p] = b[:, :p] @ (np.eye(p) - np.outer(a, a))
    m = b.T @ b / rank
    return 0.5 * (m + m.T)


def _blocks(m: np.ndarray, p: int) -> dict:
    return {"M11": m[:p, :p].copy(), "M12": m[:p, p:].copy(), "M22": m[p:, p:].copy()}


def _in_range(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Component of g in the range of the symmetric matrix m."""
    null = _null_space(m)
    return g - null @ (null.T @ g)


def _schur(m: np.ndarray, p: int) -> np.ndarray:
    m11, m12, m22 = m[:p, :p], m[:p, p:], m[p:, p:]
    s = m22 - m12.T @ np.linalg.pinv(m11, hermitian=True) @ m12
    return 0.5 * (s + s.T)


def thresholds(m: np.ndarray, p: int) -> tuple[float, float]:
    """(minmax threshold ||M22||, maxmin threshold ||S||) for PSD M."""
    t_mm = float(np.linalg.eigvalsh(m[p:, p:])[-1]) if m.shape[0] > p else 0.0
    t_xm = float(np.linalg.eigvalsh(_schur(m, p))[-1]) if m.shape[0] > p else 0.0
    return t_mm, t_xm


def _shifted(m: np.ndarray, p: int, lam: float) -> np.ndarray:
    out = m.copy()
    out[p:, p:] -= lam * np.eye(m.shape[0] - p)
    return out


def _boundary_linear_terms(rng, m: np.ndarray, p: int, thresh: float) -> np.ndarray:
    """d in R(M) and in R(M(thresh)) whose stationary w-block at the
    threshold has norm in [0.3, 0.8]: the multiplier sticks at the
    threshold (the boundary mode of the multiplier search)."""
    size = m.shape[0]
    mt = _shifted(m, p, thresh)
    nulls = np.hstack([_null_space(mt), _null_space(m)])
    for _ in range(20):
        d = _orth_complement_projector(nulls, size) @ rng.standard_normal(size)
        z = np.linalg.lstsq(mt, -d, rcond=None)[0]
        wnorm = float(np.linalg.norm(z[p:]))
        if wnorm > 1e-8 and np.linalg.norm(d) > 1e-8:
            return d * (rng.uniform(0.3, 0.8) / wnorm)
    return np.zeros(size)


def _interior_linear_terms(rng, m: np.ndarray) -> np.ndarray:
    norm = max(float(np.linalg.eigvalsh(m)[-1]), 1e-3)
    return _in_range(m, rng.standard_normal(m.shape[0])) * norm * rng.uniform(1.0, 3.0)


# ----------------------------------------------------------------------
# instance generators, one per (kind, case)


def gen_linear(rng, m, n, consistent):
    rank = int(rng.integers(1, min(m, n) + 1))
    if not consistent:
        rank = min(rank, m - 1) if m > 1 else 0
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)) if rank else np.zeros((m, n))
    if consistent:
        b = a @ rng.standard_normal(n)
    else:
        u, s, _ = np.linalg.svd(a)
        r = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 0.0)))
        outside = u[:, r:] @ rng.standard_normal(m - r)
        b = a @ rng.standard_normal(n) + outside
    return {"A": a, "b": b, "consistent": consistent}


def gen_minimize(rng, n, bounded):
    rank = int(rng.integers(1, n + 1)) if bounded else int(rng.integers(0, n))
    d_mat = _psd(rng, n, rank)
    g = rng.standard_normal(n)
    d = _in_range(d_mat, g)
    if not bounded:
        null = _null_space(d_mat)
        d = d + null @ rng.standard_normal(null.shape[1])
    return {"D": d_mat, "d": d, "c": float(rng.standard_normal()), "bounded": bounded}


def gen_saddle(rng, p, n, solvable):
    """M11 >= 0, M22 <= 0; unsolvable ones have a null vector (a, 0) of M
    and a linear term with a component along it."""
    m11 = _psd(rng, p, int(rng.integers(0 if not solvable else 1, p + 1)))
    m22 = -_psd(rng, n, int(rng.integers(1, n + 1)))
    m12 = rng.standard_normal((p, n))
    if not solvable:
        a = rng.standard_normal(p)
        a /= np.linalg.norm(a)
        pa = np.eye(p) - np.outer(a, a)
        m11 = pa @ m11 @ pa
        m12 = pa @ m12
    m = np.block([[m11, m12], [m12.T, m22]])
    m = 0.5 * (m + m.T)
    d = _in_range(m, rng.standard_normal(p + n))
    if not solvable:
        null = _null_space(m)
        d = d + null @ rng.standard_normal(null.shape[1]) * 2.0
    return {**_blocks(m, p), "d1": d[:p], "d2": d[p:], "solvable": solvable}


def _game_with_gap(rng, p, n, rank_deficient):
    for _ in range(100):
        m = _game_matrix(rng, p, n, rank_deficient)
        t_mm, t_xm = thresholds(m, p)
        norm = float(np.linalg.eigvalsh(m)[-1])
        if t_mm - t_xm >= 0.05 * norm:
            return m, t_mm, t_xm, norm
    raise RuntimeError("could not draw a game with a duality gap")


def gen_duality(rng, p, n, region, rank_deficient):
    # With p = 1 a singular M11 decouples the players: no gap.
    m, t_mm, t_xm, norm = _game_with_gap(rng, p, n, p > 1 and rank_deficient)
    if region == "below":
        lam = t_xm - rng.uniform(0.1, 0.5) * norm
    elif region == "gap":
        lam = t_xm + rng.uniform(0.1, 0.9) * (t_mm - t_xm)
    else:
        lam = t_mm + rng.uniform(0.1, 1.0) * norm
    d = _in_range(m, rng.standard_normal(p + n))
    return {**_blocks(m, p), "d1": d[:p], "d2": d[p:], "lam": float(lam)}


def gen_trust_region(rng, n, case):
    """D = Q diag(s) Q' >= 0 with a simple top eigenvalue; d = Q r.

    interior: r random.  boundary: r_top = 0 and the response at ||D||
    has norm in [0.3, 0.8].  near_hard: that response norm is within
    1e-7 of 1 and r_top is tiny but nonzero.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(rng.uniform(0.0, 1.0, n))
    if n > 1:
        s[0] = 0.0 if rng.integers(0, 2) else s[0]  # rank-deficient share
        s[-1] = s[-2] + rng.uniform(0.2, 1.0)
    else:
        s[-1] = rng.uniform(0.2, 1.0)
    if case == "interior" or n == 1:
        r = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    else:
        r = rng.standard_normal(n)
        r[-1] = 0.0
        resp = np.linalg.norm(r[:-1] / (s[-1] - s[:-1]))
        target = rng.uniform(0.3, 0.8) if case == "boundary" else 1.0 + rng.uniform(-1e-7, 1e-7)
        r *= target / resp
        if case == "near_hard":
            r[-1] = 1e-9 * (1.0 + rng.uniform())
    d_mat = q @ np.diag(s) @ q.T
    return {"D": 0.5 * (d_mat + d_mat.T), "d": q @ r}


def gen_game(rng, p, n, direction, case, rank_deficient):
    """Sphere game: case 'homogeneous' (d = 0), 'interior' or 'boundary'."""
    m = _game_matrix(rng, p, n, rank_deficient)
    if case == "homogeneous":
        d = np.zeros(p + n)
    elif case == "boundary":
        t_mm, t_xm = thresholds(m, p)
        d = _boundary_linear_terms(rng, m, p, t_mm if direction == "minmax" else t_xm)
    else:
        d = _interior_linear_terms(rng, m)
    return {**_blocks(m, p), "d1": d[:p], "d2": d[p:], "direction": direction}


def scaled(data: dict, c: float) -> dict:
    out = {}
    for key, val in data.items():
        if isinstance(val, np.ndarray) or key == "lam":
            out[key] = val * c
        else:
            out[key] = val
    return out


# ----------------------------------------------------------------------
# streams


class Stream:
    """Endless sequence of batches for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown library workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.scale_order = list(self.rng.permutation(SCALE_EXPONENTS))
        self.scaled_count = 0
        self.turn = 0

    def warmup(self) -> Op:
        """The op a fresh process finishes before it counts as set up."""
        rng = np.random.default_rng([0, 99])
        if self.workload == "desk_solve":
            return Op("solve_trust_region", "interior", gen_trust_region(rng, 2, "interior"))
        if self.workload == "large_solve":
            return Op("minimize", "bounded", gen_minimize(rng, 2 * LARGE_DIM, True))
        return self._curve_op(rng)

    def next_batch(self) -> list[Op]:
        if self.workload == "desk_solve":
            return self._desk_batch()
        if self.workload == "large_solve":
            return self._large_batch()
        return [self._curve_op(self.rng)]

    def _desk_cases(self, turn: int):
        """The 22 desk cases.  Sizes and rank deficiency cycle with
        ``turn`` (period 24) instead of being drawn, so runs of whole
        batches have the same mix of sizes; only the entries are random."""
        rng = self.rng
        d4 = 1 + turn % 4  # 1..4
        m4 = 2 + turn % 3  # 2..4, for cases that need a deficient direction
        p, n = 1 + turn % 2, 1 + (turn // 2) % 2  # game blocks 1..2
        deficient = bool((turn // 4) % 2)
        return [
            ("solve_linear", "consistent", lambda: gen_linear(rng, m4, d4, True)),
            ("solve_linear", "inconsistent", lambda: gen_linear(rng, m4, d4, False)),
            ("minimize", "bounded", lambda: gen_minimize(rng, d4, True)),
            ("minimize", "unbounded", lambda: gen_minimize(rng, m4, False)),
            ("solve_saddle", "solvable", lambda: gen_saddle(rng, p, n, True)),
            ("solve_saddle", "no_solution", lambda: gen_saddle(rng, p, n, False)),
            ("duality_report", "below", lambda: gen_duality(rng, p, n, "below", deficient)),
            ("duality_report", "gap", lambda: gen_duality(rng, p, n, "gap", deficient)),
            ("duality_report", "above", lambda: gen_duality(rng, p, n, "above", deficient)),
            ("solve_trust_region", "interior", lambda: gen_trust_region(rng, d4, "interior")),
            ("solve_trust_region", "boundary", lambda: gen_trust_region(rng, m4, "boundary")),
            ("solve_trust_region", "near_hard", lambda: gen_trust_region(rng, m4, "near_hard")),
            ("solve_homogeneous", "minmax", lambda: gen_game(rng, p, n, "minmax", "homogeneous", deficient)),
            ("solve_homogeneous", "maxmin", lambda: gen_game(rng, p, n, "maxmin", "homogeneous", deficient)),
            ("minmax", "boundary", lambda: gen_game(rng, p, n, "minmax", "boundary", deficient)),
            ("maxmin", "boundary", lambda: gen_game(rng, p, n, "maxmin", "boundary", deficient)),
        ] + [
            # The multiplier searches are the slow ops.  Three of each put
            # them at 6 of 22 ops, so latency_ms_p90 falls well inside
            # their cluster rather than on its edge.
            (kind, "interior", lambda kind=kind: gen_game(rng, p, n, kind, "interior", deficient))
            for kind in ("minmax", "maxmin")
            for _ in range(3)
        ]

    def _desk_batch(self) -> list[Op]:
        """Every case once unscaled and once scaled by 10**k."""
        self.turn += 1
        ops = []
        for kind, case, make in self._desk_cases(self.turn):
            ops.append(Op(kind, case, make()))
        for kind, case, make in self._desk_cases(self.turn + 12):
            k = self.scale_order[self.scaled_count % len(self.scale_order)]
            self.scaled_count += 1
            c = 10.0 ** int(k)
            ops.append(Op(kind, case, scaled(make(), c), scale=c))
        return ops

    def _large_batch(self) -> list[Op]:
        rng, n = self.rng, LARGE_DIM
        return [
            Op("solve_linear", "inconsistent", gen_linear(rng, 2 * n, 2 * n, False)),
            Op("minimize", "bounded", gen_minimize(rng, 2 * n, True)),
            Op("solve_saddle", "solvable", gen_saddle(rng, n, n, True)),
            Op("duality_report", "above", gen_duality(rng, n, n, "above", False)),
            Op("solve_trust_region", "interior", gen_trust_region(rng, n, "interior")),
            Op("solve_trust_region", "boundary", gen_trust_region(rng, n, "boundary")),
            Op("solve_homogeneous", "maxmin", gen_game(rng, n, n, "maxmin", "homogeneous", True)),
            Op("minmax", "interior", gen_game(rng, n, n, "minmax", "interior", False)),
            Op("maxmin", "interior", gen_game(rng, n, n, "maxmin", "interior", False)),
            Op("minmax", "boundary", gen_game(rng, n, n, "minmax", "boundary", True)),
            Op("maxmin", "boundary", gen_game(rng, n, n, "maxmin", "boundary", True)),
        ]

    def _curve_op(self, rng) -> Op:
        """A full-rank p = n = 20 game with a duality gap, its Schur
        complement trust region (S, r), and a multiplier range covering
        the region below both thresholds, the gap and the region above
        in fixed proportions, so every op does the same work."""
        p = n = CURVE_DIM
        m, t_mm, t_xm, norm = _game_with_gap(rng, p, n, False)
        d = rng.standard_normal(p + n) * norm
        m11_pinv = np.linalg.pinv(m[:p, :p], hermitian=True)
        s_mat = _schur(m, p)
        r = d[p:] - m[:p, p:].T @ (m11_pinv @ d[:p])
        # Thresholds half a step past grid points 19 and 59: 20 points
        # below both, 40 in the gap and 40 above both, for every game.
        width = (t_mm - t_xm) * (CURVE_STEPS - 1) / 40.0
        lo = t_xm - 19.5 * width / (CURVE_STEPS - 1)
        hi = lo + width
        data = {
            **_blocks(m, p),
            "d1": d[:p],
            "d2": d[p:],
            "S": s_mat,
            "r": r,
            "lo": float(lo),
            "hi": float(hi),
            "steps": CURVE_STEPS,
        }
        return Op("curve", "sweep", data)


def run_op(qg, op: Op):
    """Call the library for one op.  Building the problem object is part
    of the op, as it is for a caller of the library."""
    d = op.data
    kind = op.kind
    if kind == "solve_linear":
        return qg.solve_linear(d["A"], d["b"])
    if kind == "minimize":
        return qg.minimize(qg.QuadraticForm(d["D"], d["d"], d["c"]))
    if kind == "solve_trust_region":
        return qg.solve_trust_region(d["D"], d["d"])
    pq = qg.PartitionedQuadratic(d["M11"], d["M12"], d["M22"], d["d1"], d["d2"])
    if kind == "solve_saddle":
        return qg.solve_saddle(pq)
    if kind == "duality_report":
        return qg.duality_report(pq, d["lam"])
    if kind == "solve_homogeneous":
        return qg.solve_homogeneous(pq, qg.Direction(d["direction"]))
    if kind in ("minmax", "maxmin"):
        return qg.solve_linear_term(pq, qg.Direction(d["direction"]))
    if kind == "curve":
        game_rows = qg.lambda_curve(pq, d["lo"], d["hi"], d["steps"])
        dual_rows = qg.dual_curve(d["S"], d["r"], d["lo"], d["hi"], d["steps"])
        return game_rows, dual_rows
    raise ValueError(f"unknown op kind {kind!r}")
