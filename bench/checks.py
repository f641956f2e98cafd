"""Answer checks, run outside the timed region.

Every answer is normalised to a small dict (value, multiplier, points)
and checked with residual certificates computed in plain numpy:

- the unit norm of w;
- the stationarity residual ||M(lambda) z + d|| relative to the data;
- lambda at or above its threshold (computed here with eigvalsh);
- the reported value equals the objective at the returned point.

For the sphere games these four together prove optimality (the
Lagrangian is convex in u and, at lambda >= threshold, concave in the
reduced w problem).  The returned points are also checked directly: the
inner maximum over w at u* (minmax) or the inner minimum over u at w*
(maxmin) must equal the value.  At desk scale the repo's oracles
(``sphere_max``, ``grid_minmax``, ``verify_saddle``, ``fd_gradient``)
check the answer as well; they run on the unscaled data, and the answer
to data scaled by c must be c times theirs.

A check returns a list of failure reasons; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

RES_TOL = 1e-8  # relative residual of a certificate
VALUE_TOL = 1e-7  # relative agreement with an exact independent value
ORACLE_TOL = 5e-3  # relative agreement with a sampling oracle
BAND = 1e-7  # relative width around a threshold where either branch is accepted
ORACLE_SAMPLES = 4096
ORACLE_GRID = 1000
SADDLE_SAMPLES = 100


def _fro(*xs) -> float:
    return float(sum(np.linalg.norm(x) for x in xs))


def _null_space(m: np.ndarray, rel: float = 1e-10) -> np.ndarray:
    s, q = np.linalg.eigh(0.5 * (m + m.T))
    scale = max(float(np.max(np.abs(s))) if s.size else 0.0, 1e-300)
    return q[:, np.abs(s) <= rel * scale]


def _outside_range(m: np.ndarray, v: np.ndarray, ref: float) -> float:
    """Size of the component of v outside R(m), m symmetric, over ref."""
    null = _null_space(m)
    return float(np.linalg.norm(null.T @ v)) / max(ref, 1e-300)


def _pinv_quad(m: np.ndarray, v: np.ndarray) -> float:
    """v' pinv(m) v for symmetric PSD m, by lstsq."""
    if v.size == 0:
        return 0.0
    return float(v @ np.linalg.lstsq(m, v, rcond=None)[0])


def tr_max(d_mat: np.ndarray, d_vec: np.ndarray) -> tuple[float, float]:
    """max 1/2 w'Dw + w'd over ||w|| = 1 for symmetric PSD D.

    Minimises the convex dual phi(lam) = lam/2 + 1/2 sum r_i^2/(lam - s_i)
    on (s_max, s_max + ||r||] by bisection on phi' to machine precision;
    the hard case is the limit lam -> s_max.  Returns (value, lam).
    """
    s, q = np.linalg.eigh(0.5 * (d_mat + d_mat.T))
    r2 = (q.T @ d_vec) ** 2
    smax = float(s[-1])
    rnorm = math.sqrt(float(r2.sum()))
    if rnorm == 0.0:
        return 0.5 * smax, smax
    lo, hi = smax, smax + rnorm
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(np.sum(r2 / (mid - s) ** 2)) > 1.0:
            lo = mid
        else:
            hi = mid
    return _dual_eig(s, r2, hi), hi


def _dual_eig(s: np.ndarray, r2: np.ndarray, lam: float) -> float:
    """phi(lam) = lam/2 + 1/2 sum r_i^2 / (lam - s_i), leaving out the
    hard-case directions at lam = s_max (r_i = 0, or r_i so small that
    s_max + |r| rounds to s_max)."""
    keep = (r2 > 0) & (lam > s)
    return 0.5 * lam + 0.5 * float(np.sum(r2[keep] / (lam - s[keep])))


def _dual(d_mat: np.ndarray, d_vec: np.ndarray, lam: float) -> float:
    s, q = np.linalg.eigh(0.5 * (d_mat + d_mat.T))
    return _dual_eig(s, (q.T @ d_vec) ** 2, lam)


def _assembled(data: dict) -> tuple[np.ndarray, np.ndarray, int]:
    m11, m12, m22 = data["M11"], data["M12"], data["M22"]
    m = np.block([[m11, m12], [m12.T, m22]])
    return 0.5 * (m + m.T), np.concatenate([data["d1"], data["d2"]]), m11.shape[0]


def _thresholds(m: np.ndarray, p: int) -> tuple[float, float]:
    if m.shape[0] == p:
        return 0.0, 0.0
    m11, m12, m22 = m[:p, :p], m[:p, p:], m[p:, p:]
    t_mm = float(np.linalg.eigvalsh(m22)[-1])
    schur = m22 - m12.T @ np.linalg.lstsq(m11, m12, rcond=None)[0] if p else m22
    t_xm = float(np.linalg.eigvalsh(0.5 * (schur + schur.T))[-1])
    return t_mm, t_xm


def _schur_tr(m: np.ndarray, d: np.ndarray, p: int):
    """(S, r, c0): maxmin is max_w 1/2 w'Sw + r'w - c0 over the sphere."""
    m11, m12, m22 = m[:p, :p], m[:p, p:], m[p:, p:]
    if p == 0:
        return m22, d, 0.0
    x = np.linalg.lstsq(m11, np.column_stack([m12, d[:p]]), rcond=None)[0]
    schur = m22 - m12.T @ x[:, :-1]
    r = d[p:] - m12.T @ x[:, -1]
    return 0.5 * (schur + schur.T), r, 0.5 * float(d[:p] @ x[:, -1])


# ----------------------------------------------------------------------
# certificates per kind


def _check_linear(data, ans, ctx):
    a, b = data["A"], data["b"]
    x, basis = ans["x"], ans["basis"]
    out = []
    scale = _fro(a) * (1.0 + float(np.linalg.norm(x))) + _fro(b) + 1e-300
    resid = a @ x - b
    if np.linalg.norm(a.T @ resid) > RES_TOL * _fro(a) * scale:
        out.append("normal_equations")
    if abs(float(np.linalg.norm(resid)) - ans["residual"]) > RES_TOL * scale:
        out.append("residual_mismatch")
    if basis.size and np.linalg.norm(a @ basis) > RES_TOL * _fro(a) * max(1, basis.shape[1]):
        out.append("basis_not_null")
    if basis.size and np.linalg.norm(basis.T @ x) > RES_TOL * (1.0 + np.linalg.norm(x)):
        out.append("not_min_norm")
    consistent = float(np.linalg.norm(resid)) <= 1e-6 * scale
    if ans["consistent"] != consistent:
        out.append("consistency_flag")
    return out


def _check_minimize(data, ans, ctx):
    d_mat, d, c = data["D"], data["d"], data["c"]
    unbounded = _outside_range(d_mat, d, float(np.linalg.norm(d))) > 1e-6
    if ans is None:
        return [] if unbounded else ["false_unbounded"]
    x, value = ans["x"], ans["value"]
    out = []
    scale = _fro(d_mat) * (1.0 + float(np.linalg.norm(x))) + _fro(d) + 1e-300
    if np.linalg.norm(d_mat @ x + d) > RES_TOL * scale:
        out.append("not_stationary")
    objective = 0.5 * x @ d_mat @ x + d @ x + c
    if abs(value - objective) > VALUE_TOL * (scale * (1.0 + np.linalg.norm(x)) + abs(c)):
        out.append("value_not_objective")
    basis = ans["basis"]
    if basis.size and np.linalg.norm(d_mat @ basis) > RES_TOL * _fro(d_mat) * basis.shape[1]:
        out.append("basis_not_null")
    return out


def _check_saddle(data, ans, ctx):
    m, d, p = _assembled(data)
    if ans is None:
        return [] if _outside_range(m, d, float(np.linalg.norm(d))) > 1e-6 else ["false_no_solution"]
    z, value = ans["z"], ans["value"]
    out = []
    scale = _fro(m) * (1.0 + float(np.linalg.norm(z))) + _fro(d) + 1e-300
    if np.linalg.norm(m @ z + d) > RES_TOL * scale:
        out.append("not_stationary")
    if abs(value - (0.5 * z @ m @ z + d @ z)) > VALUE_TOL * scale * (1.0 + np.linalg.norm(z)):
        out.append("value_not_objective")
    if ctx.oracle and not out:
        # The saddle point does not move when the data is scaled.
        seed = int(ctx.rng.integers(1 << 31))
        if not ctx.qg.verify_saddle(_game(ctx), z[:p], z[p:], samples=SADDLE_SAMPLES, seed=seed):
            out.append("oracle_refutes_saddle")
    return out


def _check_duality(data, ans, ctx):
    """The status follows from the two thresholds (either status is
    accepted within BAND of one); a strong-duality value must equal the
    Lagrangian at a stationary point, found here by lstsq."""
    m, d, p = _assembled(data)
    lam = data["lam"]
    t_mm, t_xm = _thresholds(m, p)
    band = BAND * (_fro(m) + abs(lam))
    if abs(lam - t_mm) <= band or abs(lam - t_xm) <= band:
        expected = ans["status"]
    elif lam > t_mm:
        expected = "strong_duality"
    elif lam > t_xm:
        expected = "infinite_gap"
    else:
        expected = "both_infinite"
    if ans["status"] != expected:
        return [f"status_{ans['status']}_expected_{expected}"]
    if expected != "strong_duality":
        return [] if ans["value"] is None else ["value_where_infinite"]
    shifted = m.copy()
    shifted[p:, p:] -= lam * np.eye(m.shape[0] - p)
    z = np.linalg.lstsq(shifted, -d, rcond=None)[0]
    scale = (_fro(m) + abs(lam)) * (1.0 + float(np.linalg.norm(z))) + _fro(d) + 1e-300
    if np.linalg.norm(shifted @ z + d) > RES_TOL * scale:
        return ["no_stationary_point"]
    ref = 0.5 * lam + 0.5 * float(d @ z)
    if ans["value"] is None or abs(ans["value"] - ref) > VALUE_TOL * scale * (1.0 + np.linalg.norm(z)):
        return ["value_mismatch"]
    return []


def _check_trust_region(data, ans, ctx):
    d_mat, d = data["D"], data["d"]
    w, lam, value = ans["w"], ans["lam"], ans["value"]
    out = []
    scale = _fro(d_mat) + _fro(d) + 1e-300
    if abs(float(np.linalg.norm(w)) - 1.0) > RES_TOL:
        out.append("w_not_unit")
    if np.linalg.norm(d_mat @ w - lam * w + d) > RES_TOL * (scale + abs(lam)):
        out.append("not_stationary")
    if lam < float(np.linalg.eigvalsh(d_mat)[-1]) - RES_TOL * scale:
        out.append("lambda_below_threshold")
    if abs(value - (0.5 * w @ d_mat @ w + d @ w)) > VALUE_TOL * scale:
        out.append("value_not_objective")
    ref, _ = tr_max(d_mat, d)
    if abs(value - ref) > VALUE_TOL * scale:
        out.append("value_not_maximum")
    if ctx.oracle:
        base = ctx.base
        best, _ = ctx.qg.sphere_max(ctx.qg.QuadraticForm(base["D"], base["d"]), _oracle_config(ctx))
        base_scale = scale / ctx.scale
        gap = value / ctx.scale - best
        if not -VALUE_TOL * base_scale <= gap <= ORACLE_TOL * base_scale:
            out.append("oracle_disagrees")
    return out


def _check_sphere_game(data, ans, ctx):
    """Sphere game certificates.

    maxmin: the full stationarity of (u*, w*) at lambda >= ||S|| holds at
    every optimum, and the value is max_w over the sphere of the Schur
    trust region (S, r) minus 1/2 d1' M11^+ d1.

    minmax: the optimum need not be a pure saddle point (the argmax over
    w at u* can be a set), so only the inner KKT row for w is required;
    u* is checked by max_w V(u*, w) = value, and the value against
    min over lambda >= ||M22|| of the same dual function.
    """
    direction = data.get("direction", ctx.kind)
    m, d, p = _assembled(data)
    n = m.shape[0] - p
    u, w, lam, value = ans["u"], ans["w"], ans["lam"], ans["value"]
    z = np.concatenate([u, w])
    m11, m12, m22 = m[:p, :p], m[:p, p:], m[p:, p:]
    out = []
    scale = _fro(m) + _fro(d) + 1e-300
    zscale = scale * (1.0 + float(np.linalg.norm(z))) ** 2
    if abs(float(np.linalg.norm(w)) - 1.0) > RES_TOL:
        out.append("w_not_unit")
    shifted = m.copy()
    shifted[p:, p:] -= lam * np.eye(n)
    residual = shifted @ z + d
    if direction == "minmax":
        residual = residual[p:]
    if np.linalg.norm(residual) > RES_TOL * (scale + abs(lam)) * (1.0 + np.linalg.norm(z)):
        out.append("not_stationary")
    t_mm, t_xm = _thresholds(m, p)
    if lam < (t_mm if direction == "minmax" else t_xm) - RES_TOL * scale:
        out.append("lambda_below_threshold")
    if abs(value - (0.5 * z @ m @ z + d @ z)) > VALUE_TOL * zscale:
        out.append("value_not_objective")
    s_mat, r, c0 = _schur_tr(m, d, p)
    tr_value, lam_tr = tr_max(s_mat, r)
    if direction == "minmax":
        # Within rounding of ||M22|| the two branches agree.
        near = lam_tr >= t_mm - 1e-12 * scale
        ref = tr_value if near else _dual(s_mat, r, t_mm)
        inner, _ = tr_max(m22, m12.T @ u + d[p:])
        at_point = inner + 0.5 * u @ m11 @ u + d[:p] @ u
        if at_point - value > VALUE_TOL * zscale:
            out.append("u_not_minimizer")
    else:
        ref = tr_value
        rhs = m12 @ w + d[:p]
        if p and _outside_range(m11, rhs, scale * (1.0 + float(np.linalg.norm(z)))) > RES_TOL:
            out.append("inner_min_unbounded_at_w")
        else:
            at_point = 0.5 * w @ m22 @ w + d[p:] @ w - 0.5 * _pinv_quad(m11, rhs)
            if abs(at_point - value) > VALUE_TOL * zscale:
                out.append("w_not_maximizer")
    if abs(ref - c0 - value) > VALUE_TOL * zscale:
        out.append(f"value_not_{direction}")
    if ctx.oracle and max(p, n) <= 2:
        qg, base, c = ctx.qg, ctx.base, ctx.scale
        cfg = _oracle_config(ctx)
        tol = (1e-3 if max(p, n) <= 1 else ORACLE_TOL) * scale / c
        grid = qg.grid_minmax(_game(ctx), cfg, qg.Direction(direction))
        if abs(value / c - grid) > tol:
            out.append("oracle_value_disagrees")
        if direction == "minmax":
            # u* does not move when the data is scaled.
            form = qg.QuadraticForm(
                base["M22"],
                base["M12"].T @ u + base["d2"],
                0.5 * u @ base["M11"] @ u + base["d1"] @ u,
            )
            best, _ = qg.sphere_max(form, cfg)
            if best > value / c + tol:
                out.append("oracle_u_not_minimizer")
    return out


def _game_value_ref(m, d, p, lam):
    """lam/2 - 1/2 d' M(lam)^+ d via the Schur complement of M11."""
    s_mat, r, c0 = _schur_tr(m, d, p)
    return _dual(s_mat, r, lam) - c0


def check_game_curve(data, rows) -> list[str]:
    m, d, p = _assembled(data)
    t_mm, t_xm = _thresholds(m, p)
    scale = _fro(m) + _fro(d) + 1e-300
    lams = [row[0] for row in rows]
    out = []
    for lam, mm, xm in rows:
        for value, thresh, name in ((mm, t_mm, "minmax"), (xm, t_xm, "maxmin")):
            if abs(lam - thresh) <= BAND * (scale + abs(lam)):
                if math.isinf(value):
                    continue
            elif lam < thresh:
                if not math.isinf(value):
                    out.append(f"{name}_finite_below_threshold")
                continue
            elif math.isinf(value):
                out.append(f"{name}_infinite_above_threshold")
                continue
            ref = _game_value_ref(m, d, p, lam)
            if abs(value - ref) > VALUE_TOL * (abs(ref) + scale + abs(lam)):
                out.append(f"{name}_value_mismatch")
    if lams != sorted(lams):
        out.append("rows_not_ascending")
    return sorted(set(out))


def check_dual_curve(qg, d_mat, d, rows) -> list[str]:
    s, q = np.linalg.eigh(0.5 * (d_mat + d_mat.T))
    r2 = (q.T @ d) ** 2
    smax = float(s[-1])
    scale = _fro(d_mat) + _fro(d) + 1e-300
    top = np.abs(s - smax) <= 1e-12 * max(scale, 1.0)
    out = []
    for lam, value, deriv in rows:
        band = 1e-8 * (1.0 + abs(smax))
        if lam < smax - band:
            if not math.isinf(value) or deriv is not None:
                out.append("finite_below_norm")
            continue
        if abs(lam - smax) <= band:
            finite_expected = float(np.sum(r2[top])) <= (1e-9 * max(1.0, float(np.linalg.norm(d)))) ** 2
            if math.isinf(value) != (not finite_expected):
                out.append("threshold_branch")
            if math.isinf(value):
                continue
            ref = 0.5 * lam + 0.5 * float(np.sum(r2[~top] / (smax - s[~top])))
            dref = 0.5 * (1.0 - float(np.sum(r2[~top] / (smax - s[~top]) ** 2)))
            if abs(value - ref) > VALUE_TOL * (abs(ref) + scale) or deriv is None or abs(deriv - dref) > 1e-6 * (1 + abs(dref)):
                out.append("threshold_value")
            continue
        if math.isinf(value) or deriv is None:
            out.append("infinite_above_norm")
            continue

        def phi(x, s=s, r2=r2):
            return 0.5 * x[0] + 0.5 * float(np.sum(r2 / (x[0] - s)))

        ref = phi([lam])
        curvature = float(np.sum(r2 / (lam - s) ** 2))
        if abs(value - ref) > VALUE_TOL * (abs(ref) + scale + abs(lam)):
            out.append("value_mismatch")
        if abs(deriv - 0.5 * (1.0 - curvature)) > 1e-7 * (1.0 + curvature):
            out.append("derivative_mismatch")
        fd = float(qg.fd_gradient(phi, np.array([lam]), 1e-4 * (lam - smax))[0])
        if abs(deriv - fd) > 1e-5 * (1.0 + curvature):
            out.append("fd_gradient_disagrees")
    return sorted(set(out))


# ----------------------------------------------------------------------
# entry points


class _Context:
    """What a check needs besides the data and the answer."""

    def __init__(self, qg, kind, data, scale, oracle, rng):
        self.qg = qg
        self.kind = kind
        self.scale = scale
        self.oracle = oracle
        self.rng = rng
        self.base = {k: (v / scale if isinstance(v, np.ndarray) else v) for k, v in data.items()}


def _game(ctx):
    b = ctx.base
    return ctx.qg.PartitionedQuadratic(b["M11"], b["M12"], b["M22"], b["d1"], b["d2"])


def _oracle_config(ctx):
    seed = int(ctx.rng.integers(1 << 31))
    return ctx.qg.OracleConfig(seed=seed, samples=ORACLE_SAMPLES, grid_points=ORACLE_GRID)


_CHECKS = {
    "solve_linear": _check_linear,
    "minimize": _check_minimize,
    "solve_saddle": _check_saddle,
    "duality_report": _check_duality,
    "solve_trust_region": _check_trust_region,
    "solve_homogeneous": _check_sphere_game,
    "minmax": _check_sphere_game,
    "maxmin": _check_sphere_game,
}


def check(qg, kind: str, data: dict, ans, scale: float = 1.0, oracle: bool = False, rng=None):
    """Failure reasons for one normalised answer (empty list: pass).

    ``scale`` is the factor the data was multiplied by; the oracles run
    on data / scale.  ``oracle`` turns on the desk-scale oracles.
    """
    if kind == "curve":
        return check_game_curve(data, ans["game"]) + check_dual_curve(qg, data["S"], data["r"], ans["dual"])
    rng = rng if rng is not None else np.random.default_rng(0)
    return _CHECKS[kind](data, ans, _Context(qg, kind, data, scale, oracle, rng))


def normalize(kind: str, result):
    """The library result as the dict the checks read."""
    if kind == "solve_linear":
        sol = result.solutions
        return {"x": sol.particular, "basis": sol.basis, "residual": result.residual, "consistent": result.consistent}
    if result is None:
        return None
    if kind == "minimize":
        return {"x": result.points.particular, "basis": result.points.basis, "value": result.value}
    if kind == "solve_saddle":
        return {"z": result.solutions.particular, "value": result.value}
    if kind == "duality_report":
        return {"status": result.status, "value": result.value}
    if kind == "solve_trust_region":
        return {
            "w": result.w_star.representative(),
            "lam": result.lambda_p,
            "value": result.value,
            "near_hard": bool(result.near_hard_case),
        }
    if kind in ("solve_homogeneous", "minmax", "maxmin"):
        diag = dict(result.diagnostics)
        return {
            "u": result.u_set.particular,
            "w": result.w_set.representative(),
            "lam": result.lambda0,
            "value": result.value,
            "mode": diag.get("mode"),
            "steps": int(diag.get("iterations", 0)) + int(diag.get("doublings", 0)),
        }
    if kind == "curve":
        game_rows, dual_rows = result
        return {"game": game_rows, "dual": dual_rows}
    raise ValueError(f"no normal form for kind {kind!r}")


def answer_stats(kind: str, ans, stats) -> None:
    """Count multiplier-search modes and steps, and near-hard trust
    regions, from one normalised answer into the Counter ``stats``."""
    if ans is None:
        return
    if kind in ("minmax", "maxmin") and ans["mode"] != "homogeneous":
        stats["searches"] += 1
        stats["search_steps"] += ans["steps"]
        stats[f"mode_{ans['mode']}"] += 1
    if kind == "solve_trust_region":
        stats["trust_regions"] += 1
        stats["near_hard"] += int(ans["near_hard"])


def corrupt(kind: str, ans, data: dict, rng=None) -> list:
    """Wrong variants of a correct answer, each of which a check must
    reject: the value moved by 1e-3 of its scale, and the point moved by
    1e-3 of its norm along a direction the data does not annihilate."""
    if ans is None:
        return []
    rng = rng if rng is not None else np.random.default_rng(0)
    arrays = [v for v in data.values() if isinstance(v, np.ndarray)]
    points = [v for k, v in ans.items() if k in ("w", "z", "x", "u")]
    pnorm = max((float(np.linalg.norm(v)) for v in points), default=0.0)
    scale = _fro(*arrays) * (1.0 + pnorm) ** 2 + 1e-300
    if kind == "curve":
        rows = [list(r) for r in ans["dual"]]
        for row in rows:
            if not math.isinf(row[1]):
                row[1] += 1e-3 * (abs(row[1]) + scale)
                break
        return [{"game": ans["game"], "dual": [tuple(r) for r in rows]}]
    if kind == "duality_report":
        if ans["value"] is None:
            return [{"status": "strong_duality", "value": 0.0}]
        return [{**ans, "value": ans["value"] + 1e-3 * (abs(ans["value"]) + scale)}]
    out = []
    if ans.get("value") is not None:
        out.append({**ans, "value": ans["value"] + 1e-3 * (abs(ans["value"]) + scale)})
    for key in ("w", "z", "x"):
        point = ans.get(key)
        if point is None or not point.size:
            continue
        g = rng.standard_normal(point.size)
        if key == "x":
            mat = data["A"].T @ data["A"] if "A" in data else data["D"]
            g = mat @ g
        elif key == "z":
            g = _assembled(data)[0] @ g
        bump = 1e-3 * (1.0 + float(np.linalg.norm(point))) * g / max(float(np.linalg.norm(g)), 1e-300)
        out.append({**ans, key: point + bump})
        break
    return out


# ----------------------------------------------------------------------
# CLI documents

CLI_KINDS = {
    "linear_solve": "solve_linear",
    "quad_min": "minimize",
    "saddle": "solve_saddle",
    "lagrangian": "duality_report",
    "trust_region": "solve_trust_region",
    "minmax": "minmax",
    "maxmin": "maxmin",
}


def fixture_data(prob: dict) -> tuple[str, dict]:
    """(check kind, data arrays) of a parsed problem file."""
    kind = CLI_KINDS[prob["kind"]]
    arr = {k: np.asarray(v, dtype=float) for k, v in prob.items() if isinstance(v, list)}
    if kind == "minimize":
        arr["c"] = float(prob.get("c", 0.0))
    if "M11" in arr:
        arr.setdefault("d1", np.zeros(arr["M11"].shape[0]))
        arr.setdefault("d2", np.zeros(arr["M22"].shape[0]))
    if kind == "duality_report":
        arr["lam"] = float(prob["lambda"])
    return kind, arr


def cli_answer(kind: str, doc: dict):
    """A ``quadgames solve`` JSON document as the dict the checks read."""
    a = np.asarray
    if kind == "solve_linear":
        sol = doc["solutions"]
        return {
            "x": a(sol["particular"], dtype=float),
            "basis": a(sol["basis"], dtype=float).reshape(len(sol["particular"]), -1),
            "residual": float(doc["residual"]),
            "consistent": doc["status"] == "consistent",
        }
    if doc["status"] in ("unbounded_below", "no_solution"):
        return None
    if kind == "minimize":
        pts = doc["minimizers"]
        return {
            "x": a(pts["particular"], dtype=float),
            "basis": a(pts["basis"], dtype=float).reshape(len(pts["particular"]), -1),
            "value": float(doc["value"]),
        }
    if kind == "solve_saddle":
        return {"z": a(doc["solutions"]["particular"], dtype=float), "value": float(doc["value"])}
    if kind == "duality_report":
        return {"status": doc["status"], "value": doc.get("value")}
    if kind == "solve_trust_region":
        return {
            "w": a(doc["w_star"]["representative"], dtype=float),
            "lam": float(doc["lambda_p"]),
            "value": float(doc["value"]),
            "near_hard": bool(doc["diagnostics"]["near_hard_case"]),
        }
    diag = doc.get("diagnostics", {})
    return {
        "u": a(doc["u_set"]["particular"], dtype=float),
        "w": a(doc["w_set"]["representative"], dtype=float),
        "lam": float(doc["lambda0"]),
        "value": float(doc["value"]),
        "mode": diag.get("mode"),
        "steps": int(diag.get("iterations", 0)) + int(diag.get("doublings", 0)),
    }


def parse_csv(text: str) -> list[tuple]:
    """Rows of a ``quadgames curve`` CSV: floats, inf, or None for empty."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        rows.append(tuple(None if f == "" else float(f) for f in line.split(",")))
    return rows
