"""Command-line interface.

Problem files are JSON documents with a ``kind`` field naming the solver
and arrays named after the solver's inputs (see README for the schema
and one example per kind).  Results are emitted as JSON documents that
round-trip losslessly; curves are emitted as CSV with the literal tokens
``inf`` and ``-inf`` for infinite entries.

``KINDS`` has one entry per kind: it reads the file into the solver's
input once, solves it, checks the result document with an oracle and,
for ``lagrangian`` and ``trust_region``, draws the curve.  Only
``check`` imports ``oracle``, so a cold ``solve`` or ``curve`` loads no
oracle code.  ``check`` is configured by ``--seed`` and ``--samples``
alone; the file holds the problem and, optionally, a claimed
``expected_value``.

Exit codes: 0 solved / check passed, 1 input error (a malformed command
line included), 2 well-posed "no solution / unbounded" outcomes, 3 check
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import game, minmax, quadratic, sphere
from .linalg import (
    BRACKET, ROUNDING, AffineSolutionSet, data_size, norm, row_norms, solve_linear,
    term_size,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_CHECK_FAILED = 3


class ProblemError(Exception):
    """Malformed or inconsistent problem file."""


class _Kind(NamedTuple):
    """One kind: ``read(prob) -> data`` parses the file into the solver's
    input, ``solve(data, prob) -> (doc without kind, exit code)``,
    ``check(data, prob, doc, code, cfg) -> (value, oracle_value, passed)``
    and ``curve(data, lo, hi, steps)`` gives the CSV rows under ``header``.
    ``prob`` is passed on for the fields that only one command reads
    (``lambda``, ``expected_value``)."""

    read: Callable
    solve: Callable
    check: Callable
    curve: Callable | None = None
    header: str = ""


def load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            prob = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(prob, dict):
        raise ProblemError(f"{path}: top level must be an object")
    kind = prob.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ProblemError(
            f"{path}: field 'kind' must be one of {', '.join(KINDS)}; got {kind!r}"
        )
    return prob


def _field(prob: dict, key: str, ndim: int, default=None) -> np.ndarray:
    what = "matrix" if ndim == 2 else "vector"
    if key not in prob:
        if default is not None:
            return default
        raise ProblemError(f"missing required {what} field {key!r}")
    try:
        a = np.asarray(prob[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"field {key!r} is not a numeric array") from exc
    if a.ndim != ndim:
        shape = "a rectangular 2-d array" if ndim == 2 else "a 1-d array"
        raise ProblemError(f"field {key!r} must be {shape}")
    return a


def _scalar(prob: dict, key: str, default=None) -> float:
    if key not in prob and default is None:
        raise ProblemError(f"missing required number field {key!r}")
    try:
        value = float(prob.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"field {key!r} is not a number") from exc
    if key in prob and not math.isfinite(value):
        raise ProblemError(f"field {key!r} must be finite, got {value!r}")
    return value


def _form(prob: dict) -> tuple[np.ndarray, np.ndarray]:
    """``D`` and ``d`` of a ``quad_min`` or ``trust_region`` file."""
    return _field(prob, "D", 2), _field(prob, "d", 1)


def _partitioned(prob: dict) -> game.PartitionedQuadratic:
    m11 = _field(prob, "M11", 2)
    m12 = _field(prob, "M12", 2)
    m22 = _field(prob, "M22", 2)
    d1 = _field(prob, "d1", 1, np.zeros(m11.shape[0]))
    d2 = _field(prob, "d2", 1, np.zeros(m22.shape[0]))
    return game.PartitionedQuadratic(m11, m12, m22, d1, d2)


def _aset_doc(aset: AffineSolutionSet) -> dict:
    return {name: array.tolist() for name, array in aset._asdict().items()}


def _sset_doc(sset: sphere.SphereSolutionSet) -> dict:
    return {
        "particular": sset.particular.tolist(),
        "basis": sset.basis.tolist(),
        "radius_residual": sset.radius_residual,
        "representative": sset.representative().tolist(),
    }


def _bracketed(pq, lower, upper, value, lam=0.0):
    """(passed, delta) of the cut-engine checks, ``lagrangian`` and MINMAX:
    with delta = ``BRACKET`` (``data_size`` of (M, d, lam) + |value|), the
    oracle's bracket is at most delta wide and holds the value to delta."""
    delta = BRACKET * (data_size(pq.assembled(), pq.d, lam) + abs(value))
    return upper - lower <= delta and lower - delta <= value <= upper + delta, delta


class _SphereAnswer(NamedTuple):
    """What ``check`` reads of a sphere document (``trust_region``,
    ``maxmin``, ``minmax``): the value (or ``expected_value``), the
    multiplier (``lambda_p``, ``lambda0``), the particular u (none for a
    trust region), the representative w, delta = ``ROUNDING`` times the
    size of the terms at z = (u, w), and whether the w set holds."""

    value: float
    lam: float
    u: np.ndarray
    w: np.ndarray
    delta: float
    held: bool


def _sphere_set(sset: dict) -> tuple[np.ndarray, bool]:
    """The representative w of a w set document and whether the set holds:
    w is particular + radius_residual basis[:, 0] (the particular point
    when the basis is empty), to ``ROUNDING`` of |particular| +
    radius_residual |basis[:, 0]|, and radius_residual^2 = max(0, 1 -
    ||particular||^2), the rule of ``sphere_intersect``, to ``ROUNDING``
    (radius^2 + ||particular||^2 + 1): squares, as a square root amplifies
    rounding near ||particular|| = 1."""
    w = np.asarray(sset["representative"], dtype=float)
    particular = np.asarray(sset["particular"], dtype=float)
    basis = np.asarray(sset["basis"], dtype=float)
    first = basis[:, 0] if basis.shape[1] else np.zeros_like(particular)
    radius = float(sset["radius_residual"])
    norm2 = float(particular @ particular)
    terms = abs(particular) + radius * abs(first)
    at = np.all(abs(w - (particular + radius * first)) <= ROUNDING * terms)
    on = abs(radius**2 - max(0.0, 1.0 - norm2)) <= ROUNDING * (radius**2 + norm2 + 1.0)
    return w, bool(at and on)


def _sphere_answer(pq, prob, doc) -> _SphereAnswer:
    """Read a sphere document of the game pq (a trust region is the game
    with no u)."""
    trust = prob["kind"] == "trust_region"
    w, held = _sphere_set(doc["w_star" if trust else "w_set"])
    u = np.asarray([] if trust else doc["u_set"]["particular"], dtype=float)
    delta = ROUNDING * term_size(pq.assembled(), pq.d, np.concatenate([u, w]))
    value = _scalar(prob, "expected_value", doc["value"])
    return _SphereAnswer(value, doc["lambda_p" if trust else "lambda0"], u, w, delta, held)


def _sphere_verdict(pq, prob, doc, cfg):
    """(value, searched, passed) of the trust region and MAXMIN: the w set
    holds (``_sphere_set``), w passes ``oracle.sphere_certificate`` at
    the claimed multiplier, g(w) is within delta of the value and the
    MAXMIN search, a lower bound on the maximum, is at most value + delta."""
    from . import oracle

    a = _sphere_answer(pq, prob, doc)
    searched = oracle.grid_minmax(pq, cfg, minmax.Direction.MAXMIN)
    g, ok = oracle.sphere_certificate(pq, a.w, a.lam)
    passed = a.held and ok and abs(g - a.value) <= a.delta
    return a.value, searched, passed and searched <= a.value + a.delta


def _linear_system(prob):
    return _field(prob, "A", 2), _field(prob, "b", 1)


def _solve_linear_system(data, prob):
    result = solve_linear(*data)
    return {
        "status": "consistent" if result.consistent else "least_squares",
        "residual": result.residual,
        "solutions": _aset_doc(result.solutions),
    }, EXIT_OK


def _check_linear_system(data, prob, doc, code, cfg):
    from . import oracle

    a, b = data
    residual = _scalar(prob, "expected_value", doc["residual"])
    x0 = np.asarray(doc["solutions"]["particular"])
    size = norm(a) * norm(x0) + norm(b)
    return oracle.sampled_min(
        lambda x: row_norms(x @ a.T - b), x0, cfg, residual, size
    )


def _quad_form(prob):
    return quadratic.QuadraticForm(*_form(prob), _scalar(prob, "c", 0.0))


def _solve_quad_min(form, prob):
    optimum = quadratic.minimize(form)
    if optimum is None:
        return {"status": "unbounded_below"}, EXIT_NO_SOLUTION
    return {
        "status": "bounded",
        "value": optimum.value,
        "minimizers": _aset_doc(optimum.points),
    }, EXIT_OK


def _check_quad_min(form, prob, doc, code, cfg):
    from . import oracle

    if code == EXIT_NO_SOLUTION:
        return oracle.off_range(form.hessian, form.linear, norm(form.linear))
    value = _scalar(prob, "expected_value", doc["value"])
    x0 = np.asarray(doc["minimizers"]["particular"])
    size = term_size(form.hessian, form.linear, x0) + abs(form.constant)
    return oracle.sampled_min(form._evaluate_rows, x0, cfg, value, size)


def _solve_saddle(pq, prob):
    solution = game.solve_saddle(pq)
    if solution is None:
        return {"status": "no_solution"}, EXIT_NO_SOLUTION
    return {
        "status": "solved",
        "value": solution.value,
        "u_star": solution.u_star.tolist(),
        "w_star": solution.w_star.tolist(),
        "solutions": _aset_doc(solution.solutions),
    }, EXIT_OK


def _check_saddle(pq, prob, doc, code, cfg):
    from . import oracle

    if code == EXIT_NO_SOLUTION:
        return oracle.off_range(pq.assembled(), pq.d, norm(pq.d))
    u_star = np.asarray(doc["u_star"], dtype=float)
    w_star = np.asarray(doc["w_star"], dtype=float)
    value = _scalar(prob, "expected_value", doc["value"])
    at = pq.evaluate(u_star, w_star)
    # ROUNDING of the size of V's terms at z = (u*, w*), as for sampled_min.
    delta = ROUNDING * term_size(pq.assembled(), pq.d, np.concatenate([u_star, w_star]))
    passed = oracle.verify_saddle(pq, u_star, w_star, cfg.samples, cfg.seed)
    return value, at, passed and abs(at - value) <= delta


def _solve_lagrangian(pq, prob):
    # ``lambda`` is read here, not in the entry's ``read``: a curve
    # sweeps lambda and needs no such field.
    lam = _scalar(prob, "lambda")
    report = game.duality_report(pq, lam)
    doc = {"lambda": lam, "status": report.status}
    if report.status == "unbounded_below":
        return doc, EXIT_NO_SOLUTION
    for name, solve in (("minmax", report.minmax), ("maxmin", report.maxmin)):
        entry: dict = {"finite": solve.finite}
        if solve.finite:
            entry["value"] = solve.value
            entry["u_set"] = _aset_doc(solve.u_set)
            entry["w_set"] = _aset_doc(solve.w_set)
        doc[name] = entry
    code = EXIT_OK if report.status == "strong_duality" else EXIT_NO_SOLUTION
    if report.value is not None:
        doc["value"] = report.value
    return doc, code


def _check_lagrangian(pq, prob, doc, code, cfg):
    from . import oracle

    if doc["status"] == "unbounded_below":
        return oracle.off_range(pq.m11, pq.d1, norm(pq.d))
    mm, xm, lam = doc["minmax"], doc["maxmin"], doc["lambda"]
    # A side is finite iff its certificate of +inf fails (minmax >= maxmin),
    # two finite sides are equal (strong duality, cor:conminmax), and the
    # joint value is given iff the status says so, as the maxmin's value.
    _, rise, infinite = oracle.infinite_maxmin(pq, lam)
    infinite_mm = infinite or oracle.infinite_minmax(pq, lam)
    sides = xm["finite"] != infinite and mm["finite"] != infinite_mm
    sides = sides and ("value" in doc) == (doc["status"] == "strong_duality")
    if not xm["finite"]:
        return math.nan, rise, sides
    # The oracle refuses the blocks it cannot take before the file's
    # claimed value is read, so only its path has the dimension caps.
    lower, upper = oracle.lagrangian_bracket(pq, lam)
    value = _scalar(prob, "expected_value", xm["value"])
    passed, delta = _bracketed(pq, lower, upper, value, lam)
    equal = not mm["finite"] or abs(mm["value"] - xm["value"]) <= delta
    equal = equal and abs(doc.get("value", xm["value"]) - xm["value"]) <= delta
    return value, lower, sides and passed and equal


def _solve_sphere_game(pq, prob):
    solution = minmax.solve_linear_term(pq, minmax.Direction(prob["kind"]))
    if solution is None:
        return {"status": "unbounded_below"}, EXIT_NO_SOLUTION
    return {
        "status": "solved",
        "value": solution.value,
        "lambda0": solution.lambda0,
        "u_set": _aset_doc(solution.u_set),
        "w_set": _sset_doc(solution.w_set),
        "diagnostics": solution.diagnostics,
    }, EXIT_OK


def _check_sphere_game(pq, prob, doc, code, cfg):
    from . import oracle

    if code == EXIT_NO_SOLUTION:
        return oracle.off_range(pq.m11, pq.d1, norm(pq.d))
    if prob["kind"] == "maxmin":
        return _sphere_verdict(pq, prob, doc, cfg)
    # MINMAX: V at the claimed point gives the value exactly, the oracle's
    # bracket holds it by the rule of ``lagrangian``, and lambda0 is at
    # least ||M22||, where the inner maximum over w is finite.
    a = _sphere_answer(pq, prob, doc)
    lower, upper = oracle.minmax_bracket(pq, cfg)
    passed = a.held and _bracketed(pq, lower, upper, a.value)[0]
    passed = passed and not oracle.infinite_minmax(pq, a.lam)
    return a.value, upper, passed and abs(pq.evaluate(a.u, a.w) - a.value) <= a.delta


def _solve_trust_region(data, prob):
    solution = sphere.solve_trust_region(*data)
    return {
        "status": "solved",
        "value": solution.value,
        "lambda_p": solution.lambda_p,
        "case": "boundary" if solution.boundary else "interior",
        "w_star": _sset_doc(solution.w_star),
        "diagnostics": {"near_hard_case": solution.near_hard_case},
    }, EXIT_OK


def _check_trust_region(data, prob, doc, code, cfg):
    return _sphere_verdict(game.PartitionedQuadratic.trust_region(*data), prob, doc, cfg)


# The curves look the library functions up at call time, so that a
# wrapper installed on the module (a tracer) sees the call.
KINDS: dict[str, _Kind] = {
    "linear_solve": _Kind(_linear_system, _solve_linear_system, _check_linear_system),
    "quad_min": _Kind(_quad_form, _solve_quad_min, _check_quad_min),
    "saddle": _Kind(_partitioned, _solve_saddle, _check_saddle),
    "lagrangian": _Kind(
        _partitioned,
        _solve_lagrangian,
        _check_lagrangian,
        lambda pq, *grid: game.lambda_curve(pq, *grid),
        "lambda,minmax,maxmin",
    ),
    "trust_region": _Kind(
        _form,
        _solve_trust_region,
        _check_trust_region,
        lambda data, *grid: sphere.dual_curve(*data, *grid),
        "lambda,L,dL",
    ),
    "minmax": _Kind(_partitioned, _solve_sphere_game, _check_sphere_game),
}
KINDS["maxmin"] = KINDS["minmax"]


def solve_document(prob: dict) -> tuple[object, dict, int]:
    """Read a loaded problem into its solver's input and solve it: the
    input, the result document and the exit code."""
    kind = prob["kind"]
    data = KINDS[kind].read(prob)
    doc, code = KINDS[kind].solve(data, prob)
    return data, {"kind": kind, **doc}, code


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _write(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProblemError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def run_solve(args) -> int:
    _, doc, code = solve_document(load_problem(args.input))
    _write(json.dumps(doc, indent=2) + "\n", args.output)
    return code


def run_curve(args) -> int:
    prob = load_problem(args.input)
    entry = KINDS[prob["kind"]]
    if entry.curve is None:
        kinds = " and ".join(repr(k) for k, e in KINDS.items() if e.curve)
        raise ProblemError(f"curve supports kinds {kinds}, not {prob['kind']!r}")
    rows = entry.curve(entry.read(prob), args.lambda_min, args.lambda_max, args.steps)
    lines = [entry.header] + [",".join(_fmt(x) for x in row) for row in rows]
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def run_check(args) -> int:
    from . import oracle

    prob = load_problem(args.input)
    # An option not given keeps OracleConfig's own default.
    options = {"seed": args.seed, "samples": args.samples}
    cfg = oracle.OracleConfig(**{k: v for k, v in options.items() if v is not None})
    data, doc, code = solve_document(prob)
    check = KINDS[prob["kind"]].check
    value, oracle_value, passed = check(data, prob, doc, code, cfg)
    print(f"kind: {prob['kind']}")
    print(f"solver value: {_fmt(value)}")
    print(f"oracle value: {_fmt(oracle_value)}")
    print(f"gap: {_fmt(value - oracle_value)}")
    print(f"result: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """A malformed command line is bad input (exit 1): argparse's exit 2 is
    the code of a well-posed "no solution" answer.  Options are spelled in
    full, so ``_join_curve_ends`` sees every curve end.  Subparsers share
    it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ProblemError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadgames",
        description="Solvers for quadratic games, trust-region problems, "
        "and parametric Lagrangian duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("input")
    p_solve.add_argument("--output", help="write the result JSON to a file")
    p_solve.set_defaults(func=run_solve)

    p_curve = sub.add_parser("curve", help="emit a value-function CSV")
    p_curve.add_argument("input")
    p_curve.add_argument("--lambda-min", type=float, required=True)
    p_curve.add_argument("--lambda-max", type=float, required=True)
    p_curve.add_argument("--steps", type=int, required=True)
    p_curve.add_argument("--output", help="write the CSV to a file")
    p_curve.set_defaults(func=run_curve)

    p_check = sub.add_parser("check", help="cross-check a solve with an oracle")
    p_check.add_argument("input")
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=run_check)

    return parser


# argparse reads a token that starts with "-" as an option name unless it
# looks like -5 or -0.5, so it refuses a curve end written as -1e3 or -inf.
# The token after a curve end is joined to it (--lambda-min=-1e3) before
# parsing: argparse's float judges its syntax, the curve its finiteness.
_CURVE_ENDS = ("--lambda-min", "--lambda-max")


def _join_curve_ends(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _CURVE_ENDS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings():
        # Past about 1e154 the first sum of squares in ``norm`` and
        # ``row_norms`` overflows, and they sum again rescaled: the
        # answer is right, so their numpy warnings are noise here.
        warnings.filterwarnings("ignore", "overflow encountered in (dot|multiply)",
                                RuntimeWarning, r"quadgames\.linalg\Z")
        try:
            args = build_parser().parse_args(_join_curve_ends(argv))
            return args.func(args)
        except (ProblemError, ValueError, RuntimeError) as exc:
            # A ValueError is a solver or oracle refusing the data (not PSD,
            # a wrong length, a block too large): an input error.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
