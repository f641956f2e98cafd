"""quadgames benchmark.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Runs one workload as a closed loop (one caller; the next op starts only
after the previous one returned), checks every answer outside the timed
region, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a separate traced run.
See bench/README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

WORKLOADS = ("cli_cold", "desk_solve", "large_solve", "curve_sweep")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20240621  # for confirming a claimed gain on unseen inputs
SETUP_REPEATS = 5
# One BLAS thread: the caller plus BLAS stay within nproc, and a 400x400
# SVD is no faster with two threads on the reference machine.
BLAS_THREADS = "1"
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed in the report but left out of the result line: on a shared VM
# that alternates between a fast and a ~1.5x slower CPU state, a
# percentile jumps between the two states when the share of slow ops
# crosses it (p50 moved up to 23% and p90 up to 28% between runs of
# curve_sweep), while ops_per_s, a mean, moved at most 18%.
REPORT_ONLY = (("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"))
FAIL_KINDS = (
    "solve_linear",
    "minimize",
    "solve_saddle",
    "duality_report",
    "solve_trust_region",
    "solve_homogeneous",
    "minmax",
    "maxmin",
    "curve",
    "cli_solve",
    "cli_curve",
    "cli_check",
    "scaled",
)
README_CURVES = (
    ("fig_duality_gap.json", "0", "2", "9"),
    ("fig_trust_blue.json", "1", "4", "13"),
)
CLI_WARMUP = ("solve", "fixtures/minmax_linear.json")
CLI_BATCH_SECONDS = 10


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment(seed: int, workload: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def run_child(argv, timeout=CHILD_TIMEOUT):
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def last_json(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# library workloads (bench/worker.py)


def worker_argv(workload, seed, seconds, *extra, importtime=False):
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    return argv + [
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--spawned", repr(time.monotonic()),
        *extra,
    ]


def library_untraced(workload, seed, seconds):
    setups = []
    probe_fail = 0
    for _ in range(SETUP_REPEATS - 1):
        probe = last_json(run_child(worker_argv(workload, seed, seconds, "--probe")))
        setups.append(probe["setup_s"])
        probe_fail += 0 if probe["warmup_ok"] else 1
    out = last_json(run_child(worker_argv(workload, seed, seconds)))
    setups.append(out["setup_s"])
    lat = out["latencies"]
    # The set-up ops are checked and counted, but pass_ratio covers the
    # measured ops only, so it does not depend on how many of them ran.
    attempted = out["attempted"] + SETUP_REPEATS
    failed = out["failed"] + probe_fail + (0 if out["warmup_ok"] else 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "latency_ms_p50": 1e3 * percentile(lat, 50),
        "latency_ms_p90": 1e3 * percentile(lat, 90),
        "pass_ratio": (out["attempted"] - out["failed"]) / out["attempted"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    notes = {
        "latency samples": len(lat),
        "batches": out["batches"],
        "self-test corrupted answers rejected": f"{out['selftest'][0] - out['selftest'][1]}/{out['selftest'][0]}",
        "failures": out["reasons"],
    }
    tried, missed = out["selftest"]
    return metrics, attempted, failed, tried > 0 and missed == 0, notes


def library_traced(workload, seed, seconds):
    proc = run_child(worker_argv(workload, seed, seconds, "--trace", importtime=True))
    out = last_json(proc)
    import spans

    imports = spans.import_profile(proc.stderr, "quadgames")
    metrics = per_layer(
        out["op_spans"],
        out["check_spans"],
        out["ops"],
        out["plain_s"],
        out["traced_s"],
        out["stats"],
        out["fails"],
        out["failed"],
        imports,
        check_ms=None,
    )
    notes = {
        "traced ops": out["ops"],
        "lapack count mismatches between traced passes": out["count_mismatches"],
        "failures": out["reasons"],
        "spans": span_table(out["op_spans"], out["ops"]),
    }
    return metrics, out["ops"], out["failed"], out["count_mismatches"] == 0, notes


# ----------------------------------------------------------------------
# cli_cold: one cold `python -m quadgames.cli` process per command


def cli_batch(seed: int) -> list[tuple]:
    fixtures = sorted(p.name for p in FIXTURES.glob("*.json"))
    cmds = [("solve", f"fixtures/{f}") for f in fixtures]
    cmds += [
        ("curve", f"fixtures/{f}", "--lambda-min", lo, "--lambda-max", hi, "--steps", k)
        for f, lo, hi, k in README_CURVES
    ]
    cmds += [("check", f"fixtures/{f}", "--seed", str(seed)) for f in fixtures]
    random.Random(seed).shuffle(cmds)
    return cmds


def run_cli(cmd, traced=False):
    """(exit code, stdout, stderr, seconds) of one cold CLI process."""
    if traced:
        argv = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"), *cmd]
    else:
        argv = [sys.executable, "-m", "quadgames.cli", *cmd]
    t0 = time.perf_counter()
    proc = run_child(argv)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def check_cli(qg, runs) -> list[tuple]:
    """(cmd, failure reasons, kind) per command of a batch.

    solve: the document passes the answer checks and the exit code is 2
    exactly for a no-solution answer.  curve: every row passes the curve
    checks.  check: exit 3 (FAIL) exactly when the file claims an
    ``expected_value`` that differs from the checked solve's value.
    """
    import checks

    solved = {}
    verdicts = []
    for cmd, (code, out, err, _) in runs:
        if cmd[0] != "solve":
            continue
        prob = json.loads((ROOT / cmd[1]).read_text())
        kind, data = checks.fixture_data(prob)
        try:
            ans = checks.cli_answer(kind, json.loads(out))
            reasons = checks.check(qg, kind, data, ans)
            no_solution = ans is None or (kind == "duality_report" and ans["status"] != "strong_duality")
            if code != (2 if no_solution else 0):
                reasons.append(f"exit_{code}")
        except (ValueError, KeyError, TypeError) as exc:
            ans, reasons = None, [f"unreadable output ({type(exc).__name__}: {exc}) exit {code}: {err[-200:]}"]
        solved[cmd[1]] = (ans, not reasons)
        verdicts.append((cmd, reasons, "cli_solve"))
    for cmd, (code, out, err, _) in runs:
        if cmd[0] == "solve":
            continue
        prob = json.loads((ROOT / cmd[1]).read_text())
        kind, data = checks.fixture_data(prob)
        reasons = []
        if cmd[0] == "curve":
            try:
                rows = checks.parse_csv(out)
                if kind == "duality_report":
                    reasons = checks.check_game_curve(data, rows)
                else:
                    reasons = checks.check_dual_curve(qg, data["D"], data["d"], rows)
            except (ValueError, KeyError, IndexError) as exc:
                reasons = [f"unreadable output ({type(exc).__name__}) exit {code}: {err[-200:]}"]
            if code != 0:
                reasons.append(f"exit_{code}")
            verdicts.append((cmd, reasons, "cli_curve"))
            continue
        ans, ok = solved.get(cmd[1], (None, False))
        expect = 0
        if "expected_value" in prob:
            if not ok or ans is None:
                reasons.append("no_checked_solve_to_compare")
            else:
                claimed = float(prob["expected_value"])
                value = ans.get("value", ans.get("residual"))
                if abs(claimed - value) > checks.ORACLE_TOL * (1.0 + abs(value)):
                    expect = 3
        if code != expect:
            reasons.append(f"exit_{code}_expected_{expect}")
        result = "PASS" if code == 0 else "FAIL"
        if f"result: {result}" not in out:
            reasons.append("result_line")
        verdicts.append((cmd, reasons, "cli_check"))
    return verdicts


def cli_self_test(qg, runs) -> tuple[int, int]:
    """Corrupted solve documents must fail their checks, and the check
    of the corrupted fixture must have exited 3."""
    import checks

    tried = missed = 0
    for cmd, (code, out, _, _) in runs:
        if cmd[0] == "check" and cmd[1].endswith("check_corrupted.json"):
            tried += 1
            missed += int(code != 3)
        if cmd[0] != "solve" or code != 0:
            continue
        prob = json.loads((ROOT / cmd[1]).read_text())
        kind, data = checks.fixture_data(prob)
        ans = checks.cli_answer(kind, json.loads(out))
        for bad in checks.corrupt(kind, ans, data):
            tried += 1
            missed += int(not checks.check(qg, kind, data, bad))
    return tried, missed


def cli_untraced(seed, seconds):
    sys.path.insert(0, str(SRC))
    import quadgames as qg

    setup_runs = [(CLI_WARMUP, run_cli(CLI_WARMUP)) for _ in range(SETUP_REPEATS)]
    runs = []
    lat = []
    # A batch of 30 cold commands takes 20-30 s.  The count follows from
    # --seconds alone, so the mix and the run length do not depend on the
    # machine's speed; two batches spread a run over about a minute.
    batches = max(1, int(seconds // CLI_BATCH_SECONDS))
    for _ in range(batches):
        for cmd in cli_batch(seed):
            result = run_cli(cmd)
            runs.append((cmd, result))
            lat.append(result[3])
    verdicts = check_cli(qg, runs)
    setup_verdicts = check_cli(qg, setup_runs)
    failed = sum(1 for _, r, _ in verdicts if r)
    setup_failed = sum(1 for _, r, _ in setup_verdicts if r)
    tried, missed = cli_self_test(qg, runs)
    metrics = {
        "setup_s": statistics.median(res[3] for _, res in setup_runs),
        "ops_per_s": len(lat) / sum(lat),
        "latency_ms_p50": 1e3 * percentile(lat, 50),
        "latency_ms_p90": 1e3 * percentile(lat, 90),
        "pass_ratio": (len(verdicts) - failed) / len(verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {
        "latency samples": len(lat),
        "batches": batches,
        "self-test corrupted answers rejected": f"{tried - missed}/{tried}",
        "failures": failure_tally(verdicts + setup_verdicts),
    }
    attempted = len(verdicts) + len(setup_verdicts)
    return metrics, attempted, failed + setup_failed, tried > 0 and missed == 0, notes


def cli_traced(seed, seconds):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import quadgames as qg
    import spans
    from cli_child import MARKER

    cmds = cli_batch(seed)
    plain = [run_cli(cmd) for cmd in cmds]
    passes = []
    for _ in range(2):
        runs = []
        for cmd in cmds:
            code, out, err, dt = run_cli(cmd, traced=True)
            marked = [line for line in err.splitlines() if line.startswith(MARKER)]
            if not marked:
                raise BenchError(f"traced child wrote no spans for {cmd}:\n{err[-2000:]}")
            scope = json.loads(marked[-1][len(MARKER):])
            runs.append((cmd, (code, out, err, dt), scope))
        passes.append(runs)
    run_a, run_b = passes
    mismatches = sum(
        spans.lapack_counts(a[2]) != spans.lapack_counts(b[2]) for a, b in zip(run_a, run_b)
    )
    verdicts = check_cli(qg, [(cmd, res) for cmd, res, _ in run_a])
    failed = sum(1 for _, r, _ in verdicts if r)
    op_spans = {}
    check_ms = []
    imports = []
    for cmd, (code, out, err, dt), scope in run_a:
        spans.merge(op_spans, scope)
        imports.append(spans.import_profile(err, "quadgames.cli"))
        if cmd[0] == "check":
            inner = scope.get("cli.solve_document", [0, 0])[spans.TOTAL]
            check_ms.append((scope["cli.run_check"][spans.TOTAL] - inner) / 1e6)
    imports = {k: statistics.median(p[k] for p in imports) for k in imports[0]}
    fails = Counter(kind for _, r, kind in verdicts if r)
    metrics = per_layer(
        op_spans,
        {},
        len(cmds),
        sum(r[3] for r in plain),
        sum(res[3] for _, res, _ in run_a + run_b) / 2.0,
        cli_stats(run_a),
        dict(fails),
        failed,
        imports,
        check_ms=statistics.mean(check_ms),
    )
    notes = {
        "traced commands": len(cmds),
        "lapack count mismatches between traced passes": mismatches,
        "failures": failure_tally(verdicts),
        "spans": span_table(op_spans, len(cmds)),
    }
    return metrics, len(verdicts), failed, mismatches == 0, notes


def cli_stats(runs) -> dict:
    import checks

    stats = Counter()
    for cmd, (code, out, _, _), _ in runs:
        if cmd[0] == "solve" and code == 0:
            kind, _ = checks.fixture_data(json.loads((ROOT / cmd[1]).read_text()))
            checks.answer_stats(kind, checks.cli_answer(kind, json.loads(out)), stats)
    return dict(stats)


def failure_tally(verdicts) -> dict:
    tally = Counter(f"{kind} {' '.join(cmd[:2])}: {', '.join(reasons)}" for cmd, reasons, kind in verdicts if reasons)
    return dict(tally.most_common())


# ----------------------------------------------------------------------
# per-layer metrics


def per_layer(op_spans, check_spans, n_ops, plain_s, traced_s, stats, fails, failed, imports, check_ms):
    """The per-layer metrics of one traced run.  Per-op figures divide by
    the number of ops; times are milliseconds."""
    import spans

    CALLS, TOTAL, SELF, ENTRY, FLOP = spans.CALLS, spans.TOTAL, spans.SELF, spans.ENTRY, spans.FLOP
    both = spans.merge(spans.merge({}, op_spans), check_spans)

    def get(scope, name, slot):
        rec = scope.get(name)
        return rec[slot] if rec else 0

    def per_op_ms(scope, *names, slot=TOTAL):
        return sum(get(scope, n, slot) for n in names) / 1e6 / n_ops

    def share(num, den):
        return num / den if den else 0.0

    lapack_names = [f"lapack.{f}" for f in spans.LAPACK]
    lapack_s = sum(get(op_spans, n, TOTAL) for n in lapack_names) / 1e9
    m = {f"cli.{k}": v for k, v in imports.items()}
    m["cli.main_ms"] = per_op_ms(op_spans, "cli.main")
    m["oracle.sphere_max_ms"] = per_op_ms(both, "oracle.sphere_max")
    m["oracle.grid_minmax_ms"] = per_op_ms(both, "oracle.grid_minmax")
    m["oracle.fd_gradient_ms"] = per_op_ms(both, "oracle.fd_gradient")
    # Time to check one answer, without its solve: a `check` command
    # minus its solve_document, or the benchmark's own answer check.
    m["oracle.check_ms"] = check_ms if check_ms is not None else (
        sum(rec[ENTRY] for rec in check_spans.values()) / 1e6 / n_ops
    )
    for f in spans.LAPACK:
        m[f"linalg.{f}_calls"] = get(op_spans, f"lapack.{f}", CALLS) / n_ops
    m["linalg.factorizations"] = sum(m[f"linalg.{f}_calls"] for f in spans.LAPACK)
    m["linalg.lapack_ms"] = 1e3 * lapack_s / n_ops
    m["linalg.lapack_share"] = share(lapack_s, plain_s)
    m["linalg.computed_mflop"] = sum(get(op_spans, n, FLOP) for n in lapack_names) / 1e6 / n_ops
    m["linalg.is_psd_calls"] = get(op_spans, "linalg.is_psd", CALLS) / n_ops
    m["linalg.is_psd_ms"] = per_op_ms(op_spans, "linalg.is_psd")
    m["linalg.python_ms"] = sum(rec[SELF] for n, rec in op_spans.items() if n.startswith("linalg.")) / 1e6 / n_ops
    m["minmax.solve_ms"] = sum(rec[ENTRY] for n, rec in op_spans.items() if n.startswith("minmax.")) / 1e6 / n_ops
    searches = stats.get("searches", 0)
    m["minmax.search_steps"] = share(stats.get("search_steps", 0), searches)
    m["minmax.golden_share"] = share(stats.get("mode_golden_section", 0), searches)
    m["minmax.boundary_share"] = share(stats.get("mode_boundary", 0), searches)
    at_lambda = ("game.minmax_at_lambda", "game.maxmin_at_lambda")
    m["game.at_lambda_calls"] = sum(get(op_spans, n, CALLS) for n in at_lambda) / n_ops
    m["game.at_lambda_ms"] = per_op_ms(op_spans, *at_lambda)
    m["game.threshold_ms"] = per_op_ms(op_spans, "game.minmax_threshold", "game.maxmin_threshold")
    m["game.lambda_curve_ms"] = per_op_ms(op_spans, "game.lambda_curve")
    m["sphere.trust_region_ms"] = per_op_ms(op_spans, "sphere.solve_trust_region")
    m["sphere.lambda_p_ms"] = per_op_ms(op_spans, "sphere.lambda_p")
    m["sphere.boundary_conditions_ms"] = per_op_ms(op_spans, "sphere.boundary_conditions")
    m["sphere.dual_curve_ms"] = per_op_ms(op_spans, "sphere.dual_curve")
    m["sphere.near_hard_share"] = share(stats.get("near_hard", 0), stats.get("trust_regions", 0))
    m["quadratic.minimize_ms"] = per_op_ms(op_spans, "quadratic.minimize")
    m["fail_ratio"] = failed / n_ops
    for kind in FAIL_KINDS:
        m[f"fail_ratio.{kind}"] = fails.get(kind, 0) / n_ops
    m["trace.overhead_ratio"] = share(traced_s, plain_s)
    return m


PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.import_self_ms": "ms",
    "cli.main_ms": "ms/op",
    "oracle.sphere_max_ms": "ms/op",
    "oracle.grid_minmax_ms": "ms/op",
    "oracle.fd_gradient_ms": "ms/op",
    "oracle.check_ms": "ms/check",
    **{f"linalg.{f}_calls": "calls/op" for f in ("svd", "eigvalsh", "eigvals", "eigh", "solve")},
    "linalg.factorizations": "calls/op",
    "linalg.lapack_ms": "ms/op",
    "linalg.lapack_share": "ratio",
    "linalg.computed_mflop": "Mflop/op",
    "linalg.is_psd_calls": "calls/op",
    "linalg.is_psd_ms": "ms/op",
    "linalg.python_ms": "ms/op",
    "minmax.solve_ms": "ms/op",
    "minmax.search_steps": "steps/search",
    "minmax.golden_share": "ratio",
    "minmax.boundary_share": "ratio",
    "game.at_lambda_calls": "calls/op",
    "game.at_lambda_ms": "ms/op",
    "game.threshold_ms": "ms/op",
    "game.lambda_curve_ms": "ms/op",
    "sphere.trust_region_ms": "ms/op",
    "sphere.lambda_p_ms": "ms/op",
    "sphere.boundary_conditions_ms": "ms/op",
    "sphere.dual_curve_ms": "ms/op",
    "sphere.near_hard_share": "ratio",
    "quadratic.minimize_ms": "ms/op",
    "fail_ratio": "ratio",
    **{f"fail_ratio.{k}": "ratio" for k in FAIL_KINDS},
    "trace.overhead_ratio": "ratio",
}


def span_table(op_spans, n_ops) -> list[str]:
    import spans

    rows = sorted(op_spans.items(), key=lambda kv: -kv[1][spans.TOTAL])
    return [
        f"{name:40s} calls/op {rec[spans.CALLS] / n_ops:10.2f}  incl ms/op {rec[spans.TOTAL] / 1e6 / n_ops:9.3f}"
        f"  self ms/op {rec[spans.SELF] / 1e6 / n_ops:9.3f}"
        for name, rec in rows[:25]
    ]


# ----------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    if workload == "cli_cold":
        return (cli_traced if trace else cli_untraced)(seed, seconds)
    return (library_traced if trace else library_untraced)(workload, seed, seconds)


def report(workload, seed, metrics, units, notes, env):
    print(f"== {workload} (seed {seed})")
    print("env " + json.dumps(env))
    for key, val in notes.items():
        if key == "spans":
            print("spans (traced ops):")
            for line in val:
                print("  " + line)
        else:
            print(f"{key}: {json.dumps(val) if isinstance(val, dict) else val}")
    for name, val in metrics.items():
        extra = f"  (n={notes['latency samples']})" if name.startswith("latency") else ""
        print(f"{name} = {val:.6g} {units[name]}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadgames" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no quadgames sources under {SRC} or no fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    units = dict(END_TO_END) if not args.trace else PER_LAYER_UNITS
    names = list(units)
    shown = {**units, **dict(REPORT_ONLY)} if not args.trace else units
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            metrics, attempted, failed, sound, notes = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, {k: metrics[k] for k in shown}, shown, notes, environment(args.seed, workload))
        result["correct"] = result["correct"] and sound
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name in names:
            result["metrics"][prefix + name] = {"value": metrics[name], "unit": units[name]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
