"""One fresh process that runs a library workload.

The parent passes the moment it spawned this process; the import of
``quadgames`` is the first thing done here, so set-up time covers the
interpreter start, that import and one warm-up op, and nothing the
benchmark itself imports or generates.

Modes (last line of stdout is one JSON object):

- ``--probe``: set up, then exit.  The parent runs several probes and
  reports the median set-up time.
- default: set up, then run whole batches for ``--seconds`` as a closed
  loop: one caller, the next op only after the previous one returned.
  Each batch's answers are checked after the batch, outside the timed
  region.
- ``--trace``: run a fixed number of batches three times: untraced, then
  traced twice.  The traced passes give the per-layer aggregates; their
  per-op LAPACK call counts must agree exactly.
"""

import time

T_START = time.monotonic()

import quadgames as qg  # noqa: E402  (first: set-up time covers this import)

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import Stream, run_op  # noqa: E402

# Fixed number of batches in a traced run, so its counts repeat exactly.
TRACE_BATCHES = {"desk_solve": 8, "large_solve": 1, "curve_sweep": 8}
ROUND_BATCHES = {"desk_solve": 8, "large_solve": 1, "curve_sweep": 1}
SELFTEST_ANSWERS = 24


def timed_batch(ops):
    """Run a batch; (op, result, error, seconds) per op.  Only the
    library call is inside the timed region."""
    out = []
    clock = time.perf_counter
    for op in ops:
        err = None
        res = None
        t0 = clock()
        try:
            res = run_op(qg, op)
        except Exception as exc:  # an op that raises is a failed op
            err = exc
        out.append((op, res, err, clock() - t0))
    return out


def check_batch(results, oracle, rng):
    """Failure reasons per op, and the normalised answers that passed."""
    verdicts = []
    for op, res, err, _ in results:
        if err is not None:
            verdicts.append((op, [f"raised {type(err).__name__}: {err}"], None))
            continue
        try:
            ans = checks.normalize(op.kind, res)
            reasons = checks.check(qg, op.kind, op.data, ans, op.scale, oracle, rng)
        except Exception as exc:  # a malformed answer fails its op
            ans, reasons = None, [f"unreadable answer {type(exc).__name__}: {exc}"]
        verdicts.append((op, reasons, ans))
    return verdicts


def self_test(op, ans):
    """(tried, missed): every corrupted variant of a passing answer must
    fail its check."""
    bad = checks.corrupt(op.kind, ans, op.data)
    missed = sum(1 for b in bad if not checks.check(qg, op.kind, op.data, b, op.scale, False))
    return len(bad), missed


def setup_record():
    stream = Stream(ARGS.workload, ARGS.seed)
    warm = stream.warmup()
    t_inputs = time.monotonic()
    res = run_op(qg, warm)
    t_warm = time.monotonic()
    reasons = checks.check(qg, warm.kind, warm.data, checks.normalize(warm.kind, res), warm.scale)
    setup_s = (T_IMPORTED - ARGS.spawned) + (t_warm - t_inputs)
    return stream, setup_s, reasons


def run_timed(stream, setup_s, warm_reasons):
    rng = np.random.default_rng([ARGS.seed, 7])
    oracle = ARGS.workload == "desk_solve"
    latencies = []
    failed = 0
    reasons_seen = Counter()
    tested = tried = missed = 0
    t0 = time.monotonic()
    batches = 0
    while True:
        # A round of batches runs back to back, then is checked, so the
        # ops run in the steady state of a closed loop, not after a check.
        ops = [op for _ in range(ROUND_BATCHES[ARGS.workload]) for op in stream.next_batch()]
        results = timed_batch(ops)
        batches += ROUND_BATCHES[ARGS.workload]
        latencies.extend(r[3] for r in results)
        for op, reasons, ans in check_batch(results, oracle, rng):
            if reasons:
                failed += 1
                reasons_seen[f"{op.kind}/{op.case}: {', '.join(reasons)}"] += 1
            elif tested < SELFTEST_ANSWERS:
                tested += 1
                t, m = self_test(op, ans)
                tried += t
                missed += m
        if time.monotonic() - t0 >= ARGS.seconds:
            break
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "batches": batches,
        "reasons": dict(reasons_seen.most_common()),
        "selftest": [tried, missed],
        "warmup_ok": not warm_reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(stream):
    """Untraced pass, then two traced passes over the same ops."""
    n_batches = TRACE_BATCHES[ARGS.workload]
    batches = [stream.next_batch() for _ in range(n_batches)]
    ops = [op for batch in batches for op in batch]
    rng = np.random.default_rng([ARGS.seed, 7])
    oracle = ARGS.workload == "desk_solve"

    plain = timed_batch(ops)
    tracer = spans.Tracer()
    spans.install(tracer)

    def traced_pass():
        per_op = []
        results = []
        for op in ops:
            scope = tracer.start()
            results.extend(timed_batch([op]))
            tracer.stop()
            per_op.append(scope)
        return results, per_op

    results_a, per_op_a = traced_pass()
    check_scope = tracer.start()
    verdicts = check_batch(results_a, oracle, rng)
    tracer.stop()
    results_b, per_op_b = traced_pass()

    counts_a = [spans.lapack_counts(s) for s in per_op_a]
    counts_b = [spans.lapack_counts(s) for s in per_op_b]
    mismatches = sum(a != b for a, b in zip(counts_a, counts_b))

    stats = Counter()
    fails = Counter()
    reasons_seen = Counter()
    for op, reasons, ans in verdicts:
        checks.answer_stats(op.kind, ans, stats)
        if reasons:
            fails[op.kind] += 1
            fails["scaled"] += int(op.scale != 1.0)
            reasons_seen[f"{op.kind}/{op.case}: {', '.join(reasons)}"] += 1
    ops_total = {}
    for scope in per_op_a:
        spans.merge(ops_total, scope)
    traced_s = sum(r[3] for r in results_a + results_b) / 2.0
    return {
        "ops": len(ops),
        "failed": sum(1 for _, r, _ in verdicts if r),
        "fails": dict(fails),
        "reasons": dict(reasons_seen.most_common()),
        "stats": dict(stats),
        "plain_s": sum(r[3] for r in plain),
        "traced_s": traced_s,
        "op_spans": ops_total,
        "check_spans": check_scope,
        "count_mismatches": mismatches,
    }


def main():
    stream, setup_s, warm_reasons = setup_record()
    if ARGS.probe:
        out = {"setup_s": setup_s, "warmup_ok": not warm_reasons}
    elif ARGS.trace:
        out = run_traced(stream)
    else:
        out = run_timed(stream, setup_s, warm_reasons)
    print(json.dumps(out))


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned", type=float, default=T_START)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    ARGS = parser.parse_args()
    main()
