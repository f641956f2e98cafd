"""The benchmark's library contract.

``bench/`` reads library names that no other test reads through it:
``near_hard_case``, ``diagnostics["iterations"]``,
``OracleConfig(grid_points=...)``, ``fd_gradient`` and
``solve_homogeneous``.  These tests run the benchmark's own ops and
answer checks in process, so a rename that would break the benchmark
fails here.  They import ``bench/workloads.py`` and ``bench/checks.py``
and change nothing in ``bench/``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import quadgames as qg
from quadgames import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``checks`` modules."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import checks
    import workloads

    return workloads, checks


@pytest.mark.parametrize("workload", ["desk_solve", "large_solve", "curve_sweep"])
def test_a_batch_of_each_library_workload_passes_the_benchmark_checks(bench, workload):
    # As bench/worker.py runs them at seed 1: the warm-up op is checked
    # without the oracles, a batch with them on desk_solve only, and each
    # corrupted answer must fail its check.
    workloads, checks = bench
    stream = workloads.Stream(workload, 1)
    warm = stream.warmup()
    answer = checks.normalize(warm.kind, workloads.run_op(qg, warm))
    assert checks.check(qg, warm.kind, warm.data, answer, warm.scale) == [], warm.kind
    rng = np.random.default_rng([1, 7])
    oracle = workload == "desk_solve"
    for op in stream.next_batch():
        result = workloads.run_op(qg, op)
        if op.kind in ("solve_homogeneous", "minmax", "maxmin"):
            # checks.normalize reads the search steps with a default of 0.
            assert {"mode", "iterations"} <= result.diagnostics.keys()
        answer = checks.normalize(op.kind, result)
        reasons = checks.check(qg, op.kind, op.data, answer, op.scale, oracle, rng)
        assert reasons == [], (op.kind, op.case, reasons)
        for bad in checks.corrupt(op.kind, answer, op.data):
            assert checks.check(qg, op.kind, op.data, bad, op.scale, False), (op.kind, op.case)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "fixtures").glob("*.json")))
def test_solve_documents_pass_the_benchmark_checks(bench, name):
    # As bench/run.py reads a `solve` command: the document, through
    # JSON, passes the checks, the exit code is 2 exactly for no answer,
    # and each corrupted answer fails.
    _, checks = bench
    prob = json.loads((ROOT / "fixtures" / name).read_text())
    kind, data = checks.fixture_data(prob)
    _, doc, code = cli.solve_document(prob)
    answer = checks.cli_answer(kind, json.loads(json.dumps(doc)))
    assert checks.check(qg, kind, data, answer) == []
    no_answer = answer is None or (
        kind == "duality_report" and answer["status"] != "strong_duality"
    )
    assert code == (2 if no_answer else 0)
    for bad in checks.corrupt(kind, answer, data):
        assert checks.check(qg, kind, data, bad)
