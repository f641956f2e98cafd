import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadgames import cli, minmax, oracle, quadratic
from quadgames.cli import main
from quadgames.game import (
    DualityReport,
    LambdaSolve,
    PartitionedQuadratic,
    maxmin_threshold,
    schur_reduction,
)

from util import count_factorizations, rotation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_trust_region_interior(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "trust_region_interior.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(5.0, abs=1e-9)
    assert doc["lambda_p"] == pytest.approx(5.0, abs=1e-8)
    assert doc["case"] == "interior"


def test_solve_trust_region_boundary(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "trust_region_boundary.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.125, abs=1e-9)
    assert doc["case"] == "boundary"
    assert doc["w_star"]["radius_residual"] == pytest.approx(
        math.sqrt(0.75), abs=1e-9
    )


def test_solve_unbounded_quad_min(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "quad_min_unbounded.json"))
    assert code == 2
    assert json.loads(out)["status"] == "unbounded_below"


def test_solve_minmax_homogeneous(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "minmax_homogeneous.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["lambda0"] == pytest.approx(1.0, abs=1e-9)


def test_solve_saddle_fixture(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "saddle_bilinear.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(-15.0, abs=1e-12)
    assert doc["u_star"] == pytest.approx([-5.0])
    assert doc["w_star"] == pytest.approx([-3.0])


def test_solve_lagrangian_gap_exit_2(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "lagrangian_gap.json"))
    doc = json.loads(out)
    assert doc["status"] == "strong_duality"
    assert code == 0
    assert doc["minmax"]["value"] == pytest.approx(0.75, abs=1e-12)


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/problem.json")
    assert code == 1
    assert "error" in err


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "error" in err


def test_solve_missing_field(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "trust_region", "D": [[1.0]]})
    code, _, err = run(capsys, "solve", path)
    assert code == 1
    assert "d" in err


def test_solve_unknown_kind(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "mystery"})
    code, _, err = run(capsys, "solve", path)
    assert code == 1


def test_curve_lagrangian_inf_tokens(capsys):
    code, out, _ = run(
        capsys, "curve", str(FIXTURES / "fig_duality_gap.json"),
        "--lambda-min", "0", "--lambda-max", "2", "--steps", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,minmax,maxmin"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[1] == "inf"
    assert float(first[2]) == pytest.approx(0.0)
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0)
    assert float(last[2]) == pytest.approx(1.0)


def test_curve_trust_region_blue_case(capsys):
    code, out, _ = run(
        capsys, "curve", str(FIXTURES / "fig_trust_blue.json"),
        "--lambda-min", "1", "--lambda-max", "4", "--steps", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,L,dL"
    rows = [line.split(",") for line in lines[1:]]
    by_lam = {float(r[0]): r for r in rows}
    assert by_lam[2.0][1] == "inf"
    assert by_lam[1.5][1] == "inf"
    assert float(by_lam[2.5][1]) > 0.0


def test_curve_two_steps_two_rows(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "curve", str(FIXTURES / "fig_trust_green.json"),
        "--lambda-min", "2", "--lambda-max", "3", "--steps", "2",
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_curve_invalid_range(capsys):
    code, _, err = run(
        capsys, "curve", str(FIXTURES / "fig_trust_green.json"),
        "--lambda-min", "3", "--lambda-max", "1", "--steps", "5",
    )
    assert code == 1
    assert "lambda" in err


def test_curve_rejects_other_kinds(capsys):
    code, _, err = run(
        capsys, "curve", str(FIXTURES / "linear_solve.json"),
        "--lambda-min", "0", "--lambda-max", "1", "--steps", "3",
    )
    assert code == 1


def test_check_trust_region_passes(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "trust_region_interior.json"))
    assert code == 0
    assert "PASS" in out


def test_check_corrupted_fixture_fails(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "check_corrupted.json"))
    assert code == 3
    assert "FAIL" in out


def test_check_minmax_passes(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "minmax_homogeneous.json"))
    assert code == 0
    assert "PASS" in out


def test_solve_round_trip_values_identical(tmp_path, capsys):
    for name in (
        "trust_region_boundary.json",
        "minmax_linear.json",
        "saddle_bilinear.json",
        "quad_min.json",
    ):
        code1, out1, _ = run(capsys, "solve", str(FIXTURES / name))
        doc1 = json.loads(out1)
        # re-solving the same file reproduces the value bit for bit
        code2, out2, _ = run(capsys, "solve", str(FIXTURES / name))
        assert out1 == out2
        # values survive a JSON round trip exactly
        reparsed = json.loads(json.dumps(doc1))
        if "value" in doc1:
            assert reparsed["value"] == doc1["value"]
            assert abs(reparsed["value"] - doc1["value"]) <= 1e-12


def test_curve_round_trip_parse(capsys):
    code, out, _ = run(
        capsys, "curve", str(FIXTURES / "fig_trust_green.json"),
        "--lambda-min", "2", "--lambda-max", "4", "--steps", "9",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        lam, val, der = line.split(",")
        assert math.isfinite(float(lam))
        parsed = float(val)
        # the formatted token parses back to the same float
        assert val == "inf" or repr(parsed) == val


def test_solve_minmax_unbounded_exit_2(tmp_path, capsys):
    doc = {
        "M11": [[1.0, 0.0], [0.0, 0.0]], "M12": [[0.5], [0.0]], "M22": [[1.0]],
        "d1": [0.0, 1.0], "d2": [0.3],
    }
    for kind in ("minmax", "maxmin"):
        path = write_problem(tmp_path, {"kind": kind, **doc})
        code, out, _ = run(capsys, "solve", path)
        assert code == 2
        assert json.loads(out) == {"kind": kind, "status": "unbounded_below"}
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "PASS" in out


def test_lagrangian_unbounded_exit_2_and_neg_inf_tokens(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "kind": "lagrangian", "lambda": 2.0,
        "M11": [[1.0, 0.0], [0.0, 0.0]], "M12": [[0.5], [0.0]], "M22": [[1.0]],
        "d1": [0.0, 1.0], "d2": [0.3],
    })
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    doc = json.loads(out)
    assert doc == {"kind": "lagrangian", "lambda": 2.0, "status": "unbounded_below"}
    code, out, _ = run(
        capsys, "curve", path, "--lambda-min", "0", "--lambda-max", "2", "--steps", "3",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["0.0,inf,-inf", "1.0,-inf,-inf", "2.0,-inf,-inf"]
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "PASS" in out


# M11 = diag(2, 1), M12 = [[0.5, 0.2], [0, 0.3]], M22 = diag(1, 0.5): a
# MINMAX game with a 2-d u, where the oracle searches u by cuts.
WIDE_U_MINMAX = {
    "kind": "minmax", "M11": [[2.0, 0.0], [0.0, 1.0]],
    "M12": [[0.5, 0.2], [0.0, 0.3]], "M22": [[1.0, 0.0], [0.0, 0.5]],
    "d1": [0.3, -0.2], "d2": [0.1, 0.4],
}


def test_check_runs_without_scipy(tmp_path):
    # With every scipy import made to fail, `check` gives each fixture
    # and the 2-d u game its verdict: all pass but check_corrupted.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    files = sorted(str(p) for p in FIXTURES.glob("*.json"))
    files.append(write_problem(tmp_path, WIDE_U_MINMAX))
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from quadgames.cli import main\n"
        "for f in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(main(['check', f, '--seed', '1']), file=sys.stderr)\n"
    )
    codes = subprocess.run(
        [sys.executable, "-c", probe, *files],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stderr.split()
    expected = [3 if f.endswith("check_corrupted.json") else 0 for f in files]
    assert [int(c) for c in codes] == expected


@pytest.mark.parametrize("kind", [
    {"kind": "maxmin"}, {"kind": "lagrangian", "lambda": 2.5},
], ids=["maxmin", "lagrangian"])
def test_check_wide_u_without_a_u_grid(tmp_path, capsys, kind):
    # MAXMIN and the Lagrangian oracle solve the inner minimum over u
    # exactly, so a 3-d u is checked like a 1-d one.
    game = {
        "M11": np.diag([2.0, 1.0, 0.5]).tolist(),
        "M12": [[0.5], [0.2], [0.1]], "M22": [[1.0]],
        "d1": [0.3, -0.2, 0.1], "d2": [0.4],
    }
    code, out, _ = run(capsys, "check", write_problem(tmp_path, {**game, **kind}))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_check_every_fixture(name, capsys, monkeypatch):
    # The SVD is for the rectangular A of a linear_solve alone.
    counts = count_factorizations(monkeypatch)
    code, out, _ = run(capsys, "check", str(FIXTURES / name))
    assert code == (3 if name == "check_corrupted.json" else 0)
    assert out.splitlines()[-1] == ("result: FAIL" if code == 3 else "result: PASS")
    kind = json.loads((FIXTURES / name).read_text())["kind"]
    assert counts["svd"] == (1 if kind == "linear_solve" else 0)


UNBOUNDED_GAME = {
    "M11": [[1.0, 0.0], [0.0, 0.0]], "M12": [[0.5], [0.0]], "M22": [[1.0]],
    "d1": [0.0, 1.0], "d2": [0.3],
}
# The same kind of game with a 3-d w, beyond the grid oracles, which
# the certificates do not use.
WIDE_W_UNBOUNDED = {
    "M11": [[1.0, 0.0], [0.0, 0.0]], "M12": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "M22": np.eye(3).tolist(), "d1": [0.0, 1.0], "d2": [0.1, 0.2, 0.3],
}
# D = R diag(1e14, 0) R' and d = R (0, 1), R the rotation by 0.3 rad: a
# fixed step of 1e6 along the null-space part of -d refuted these, its
# rounding, in ||D||, outgrowing its drop, in ||d||.
SKEWED_D = rotation(0.3) @ np.diag([1e14, 0.0]) @ rotation(0.3).T
SKEWED_d = rotation(0.3) @ [0.0, 1.0]
SKEWED_GAME = {
    "M11": SKEWED_D.tolist(), "M12": [[0.0], [0.0]], "M22": [[1.0]],
    "d1": SKEWED_d.tolist(), "d2": [0.0],
}


def _scaled(doc, c):
    return {
        k: v if k == "kind" else (c * np.asarray(v)).tolist() for k, v in doc.items()
    }


@pytest.mark.parametrize("c", [1e-8, 1e-3, 1.0, 1e8])
def test_check_escape_probe_scales_with_the_data(tmp_path, capsys, c):
    # d (d1) with a null-space part only, and mixed with a range part
    # 1e3 and 1e8 times larger; the solvers call the last unbounded
    # because its null-space part exceeds TOL ||d||.  The dimension caps
    # are the grid oracles', so a game with a 3-d w is checked too, and
    # ||D|| / ||d|| = 1e14 needs no step length.
    docs = []
    for d in ([0.0, 1.0], [1000.0, 1.0], [1.0, 1e-8]):
        game = {**UNBOUNDED_GAME, "d1": d}
        docs += [
            {"kind": "quad_min", "D": [[1.0, 0.0], [0.0, 0.0]], "d": d},
            {"kind": "maxmin", **game},
            {"kind": "minmax", **game},
            {"kind": "lagrangian", "lambda": 2.0, **game},
        ]
    docs += [
        {"kind": "minmax", **WIDE_W_UNBOUNDED},
        {"kind": "lagrangian", "lambda": 2.0, **WIDE_W_UNBOUNDED},
        {"kind": "quad_min", "D": SKEWED_D.tolist(), "d": SKEWED_d.tolist()},
        {"kind": "minmax", **SKEWED_GAME},
        {"kind": "maxmin", **SKEWED_GAME},
        {"kind": "lagrangian", "lambda": 2.0, **SKEWED_GAME},
        {"kind": "saddle", **SKEWED_GAME, "M22": [[-1.0]]},
    ]
    for doc in docs:
        path = write_problem(tmp_path, _scaled(doc, c))
        code, out, _ = run(capsys, "solve", path)
        status = "no_solution" if doc["kind"] == "saddle" else "unbounded_below"
        assert code == 2 and json.loads(out)["status"] == status
        code, out, _ = run(capsys, "check", path)
        assert (code, out.splitlines()[-1]) == (0, "result: PASS"), (doc["kind"], out)


# d1's part off R(M11), 5e-9, is within TOL ||(d1, d2)|| = 1e-8, the
# solvers' range test, so the game is bounded; TOL ||d1|| is 1e-9.
D1_IN_BAND = {"M11": [[1.0, 0.0], [0.0, 0.0]], "M12": [[0.0], [0.0]], "M22": [[1.0]],
              "d1": [1.0, 5e-9], "d2": [10.0]}


@pytest.mark.parametrize("doc", [
    {"kind": "quad_min", "D": [[1.0]], "d": [0.0], "c": -1000.0},
    {"kind": "quad_min", "D": [[1.0]], "d": [1.0]},
    {"kind": "quad_min", "D": [[1.0, 0.0], [0.0, 0.0]], "d": [1.0, 1e-12]},
    {"kind": "minmax", "M11": [[1.0]], "M12": [[0.0]], "M22": [[1.0]],
     "d1": [0.0], "d2": [-1000.0]},
    {"kind": "lagrangian", "lambda": 2.0, **WIDE_W_UNBOUNDED, "d1": [1.0, 0.0]},
    {"kind": "minmax", **D1_IN_BAND},
    {"kind": "maxmin", **D1_IN_BAND},
    {"kind": "lagrangian", "lambda": 2.0, **D1_IN_BAND},
], ids=[
    "quad-min-zero-d", "quad-min-d-in-range", "quad-min-rounding-null-part",
    "minmax-zero-d1", "lagrangian-wide-w-d1-in-range", "minmax-d1-in-band",
    "maxmin-d1-in-band", "lagrangian-d1-in-band",
])
def test_check_refutes_a_wrong_unbounded_answer(tmp_path, capsys, monkeypatch, doc):
    # Each file's right answer passes; called unbounded, it fails.
    path = write_problem(tmp_path, doc)
    code, out, _ = run(capsys, "check", path)
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out
    monkeypatch.setattr(quadratic, "minimize", lambda form: None)
    monkeypatch.setattr(minmax, "solve_linear_term", lambda pq, direction: None)
    monkeypatch.setattr(
        cli.game, "duality_report", lambda pq, lam: DualityReport("unbounded_below")
    )
    code, out, _ = run(capsys, "check", path)
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL")


ONE_BY_ONE = {"M11": [[1.0]], "M12": [[1.0]], "M22": [[1.0]], "d1": [0.0]}


@pytest.mark.parametrize("c", [1e-8, 1e-3, 1.0, 1e8])
@pytest.mark.parametrize("doc", [
    {"kind": "lagrangian", "lambda": -0.5, **ONE_BY_ONE, "d2": [0.0]},
    {"kind": "lagrangian", "lambda": 0.0, **ONE_BY_ONE, "d2": [1.0]},
    {"kind": "lagrangian", "lambda": 0.5, "M11": [[1.0]], "M12": [[0.0, 0.0, 0.0]],
     "M22": np.eye(3).tolist(), "d1": [0.0], "d2": [0.0, 0.0, 0.0]},
    {"kind": "saddle", "M11": [[1.0]], "M12": [[0.0]], "M22": [[0.0]],
     "d1": [0.0], "d2": [1.0]},
], ids=["quadratic-rise", "linear-rise-at-norm-s", "wide-w", "saddle"])
def test_check_probes_infinite_and_unsolvable_answers(tmp_path, capsys, doc, c):
    # Correct both_infinite and no_solution answers pass by a probe that
    # prints a finite value: min over u of L rises along some w
    # (quadratically below ||S||, linearly at lambda = ||S|| = 0 with
    # d2 off R(S)), and V falls along the null space of the saddle's M.
    path = write_problem(tmp_path, _scaled(doc, c))
    code, out, _ = run(capsys, "solve", path)
    assert code == 2
    code, out, _ = run(capsys, "check", path)
    lines = out.splitlines()
    assert (code, lines[-1]) == (0, "result: PASS"), out
    assert math.isfinite(float(lines[2].split(": ")[1])), out


@pytest.mark.parametrize("name", ["fig_duality_gap.json", "saddle_bilinear.json"])
def test_check_refutes_a_wrong_infinite_or_unsolvable_answer(monkeypatch, capsys, name):
    def both_infinite(pq, lam):
        return DualityReport("both_infinite", None, *[LambdaSolve(False)] * 2)

    monkeypatch.setattr(cli.game, "duality_report", both_infinite)
    monkeypatch.setattr(cli.game, "solve_saddle", lambda pq: None)
    code, out, _ = run(capsys, "check", str(FIXTURES / name))
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


@pytest.mark.parametrize("command", [
    ["solve"], ["curve", "--lambda-min", "0", "--lambda-max", "2", "--steps", "3"],
])
def test_output_into_a_missing_directory_is_an_error_line(tmp_path, capsys, command):
    target = str(tmp_path / "missing" / "out")
    name, *options = command
    path = str(FIXTURES / "fig_duality_gap.json")
    code, _, err = run(capsys, name, path, *options, "--output", target)
    assert code == 1
    assert err.startswith("error: cannot write") and "Traceback" not in err


# A 3-d w (the oracles sample w on a circle at most) and a 5-d u (the
# MINMAX cuts take up to 4).
THREE_BY_THREE = {
    "M11": [[1.0]], "M12": [[0.0, 0.0, 0.0]], "M22": np.eye(3).tolist(),
    "d1": [0.0], "d2": [0.0, 0.0, 0.0],
}
FIVE_BY_FIVE = {
    "M11": np.eye(5).tolist(), "M12": [[0.0]] * 5, "M22": [[1.0]],
    "d1": [0.0] * 5, "d2": [0.0],
}
FIVE_W = {
    "M11": [[1.0]], "M12": [[0.0] * 5], "M22": np.eye(5).tolist(),
    "d1": [0.0], "d2": [0.0] * 5,
}
LAGRANGIAN = {"kind": "lagrangian", "M11": [[1.0]], "M12": [[1.0]], "M22": [[1.0]]}
QUAD_MIN = {"kind": "quad_min", "D": [[1.0]], "d": [1.0]}
TRUST_REGION = {"kind": "trust_region", "D": [[2.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.5]}


@pytest.mark.parametrize("command,doc", [
    ("check", {"kind": "minmax", **THREE_BY_THREE}),
    ("check", {"kind": "maxmin", **FIVE_W}),
    ("check", {"kind": "lagrangian", "lambda": 2.0, **FIVE_W}),
    ("check", {"kind": "minmax", **FIVE_BY_FIVE}),
    ("solve", {**LAGRANGIAN, "lambda": None}),
    ("check", {**LAGRANGIAN, "lambda": None}),
    ("solve", {**QUAD_MIN, "c": [1, 2]}),
    ("check", {**QUAD_MIN, "c": [1, 2]}),
    ("check", {**QUAD_MIN, "expected_value": {"value": 1}}),
    ("check", {**QUAD_MIN, "expected_value": "one"}),
    ("check", {**QUAD_MIN, "oracle": 5}),
    ("check", {**QUAD_MIN, "oracle": [["seed", 1]]}),
    ("curve --lambda-min 0 --lambda-max 2 --steps 3",
     {**LAGRANGIAN, "lambda": 1.0, "d1": ["x"]}),
    ("solve", {**LAGRANGIAN, "lambda": 1.0, "d1": ["x"]}),
    ("check", {**LAGRANGIAN, "lambda": 1.0, "d2": [[0.0]]}),
    ("check", {**QUAD_MIN, "oracle": {"samples": 1.5}}),
    ("check", {**QUAD_MIN, "oracle": {"samples": True}}),
    ("check", {**QUAD_MIN, "oracle": {"seed": -1}}),
    ("check --seed -3", QUAD_MIN),
    ("curve --lambda-min 0 --lambda-max 2 --steps 3",
     {**TRUST_REGION, "D": [[-1.0, 0.0], [0.0, 1.0]]}),
    ("curve --lambda-min 0 --lambda-max 2 --steps 3",
     {**TRUST_REGION, "D": [[1.0, 1.0], [0.0, 1.0]]}),
    ("curve --lambda-min 0 --lambda-max 2 --steps 3", {**TRUST_REGION, "d": [0.5]}),
    ("curve --lambda-min 0 --lambda-max 2 --steps 3", {**LAGRANGIAN, "M22": [[-1.0]]}),
    ("curve --lambda-min 1 --lambda-max inf --steps 3", TRUST_REGION),
    ("curve --lambda-min=-inf --lambda-max 2 --steps 3", LAGRANGIAN),
    ("solve", {**LAGRANGIAN, "lambda": math.nan}),
    ("solve", {**LAGRANGIAN, "lambda": "inf"}),
    ("solve", {**QUAD_MIN, "c": math.nan}),
    ("check", {**QUAD_MIN, "expected_value": math.nan}),
    ("check", {**QUAD_MIN, "expected_value": -math.inf}),
    ("check", {**LAGRANGIAN, "lambda": 1.5, "expected_value": math.inf}),
    ("check", {**TRUST_REGION, "D": np.eye(5).tolist(), "d": [0.1] * 5}),
    ("solve", [QUAD_MIN]),
    ("solve", LAGRANGIAN),
], ids=[
    "minmax-3x3", "maxmin-1x5", "lagrangian-1x5", "minmax-5x5",
    "solve-null-lambda", "check-null-lambda", "solve-list-c", "check-list-c",
    "object-expected", "string-expected", "number-oracle", "list-oracle",
    "curve-string-d1", "solve-string-d1", "check-matrix-d2", "float-samples",
    "bool-samples", "negative-seed", "negative-seed-option",
    "curve-non-psd-D", "curve-non-symmetric-D", "curve-short-d",
    "curve-non-psd-lagrangian", "curve-infinite-lambda-max",
    "curve-infinite-lambda-min", "solve-nan-lambda", "solve-string-inf-lambda",
    "solve-nan-c", "check-nan-expected", "check-infinite-expected",
    "check-infinite-expected-lagrangian", "check-trust-region-5x5",
    "solve-top-level-array", "solve-no-lambda",
])
def test_input_errors_are_error_lines(tmp_path, capsys, command, doc):
    name, *options = command.split()
    code, _, err = run(capsys, name, write_problem(tmp_path, doc), *options)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_bad_environment_and_command_lines_are_error_lines(capsys):
    # argparse alone would exit 2, the code of a well-posed "no solution"
    # answer.
    curve = ["curve", str(FIXTURES / "fig_trust_blue.json"), "--lambda-max", "2"]
    for argv in (
        [*curve, "--lambda-min", "0", "--steps", "x"],
        [*curve, "--lambda-min", "-inf", "--steps", "3"],
        ["solve"],
        [],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: quadgames"), argv
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("name", ["fig_duality_gap.json", "fig_trust_blue.json"])
def test_each_command_solves_at_most_once(monkeypatch, capsys, name):
    # `check` verifies the document of one solve, and the benchmark times
    # a check as `run_check` minus that `solve_document`; `curve` solves
    # nothing.
    calls = []
    solve_document = cli.solve_document

    def counted(prob):
        calls.append(prob)
        return solve_document(prob)

    monkeypatch.setattr(cli, "solve_document", counted)
    path = str(FIXTURES / name)
    curve = ["--lambda-min", "0", "--lambda-max", "2", "--steps", "3"]
    for argv, count in (
        (["solve", path], 1), (["check", path], 1), (["curve", path, *curve], 0),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, len(calls)) == (0, count), argv


def test_solve_and_curve_leave_numpy_random_out():
    # Only the oracles draw random numbers; importing numpy.random costs
    # a cold process about 6 MB of memory.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = (
        "import contextlib, io, pathlib, sys\n"
        "from quadgames.cli import main\n"
        "curve = ['--lambda-min', '0', '--lambda-max', '2', '--steps', '5']\n"
        "for f in sorted(pathlib.Path(sys.argv[1]).glob('*.json')):\n"
        "    for argv in (['solve', str(f)], ['curve', str(f), *curve]):\n"
        "        with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(FIXTURES)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_check_leaves_numpy_random_and_hashlib_out():
    # The oracles draw from their own counter-based sampler: a cold
    # `check` imports neither numpy.random nor, through it, hashlib and
    # OpenSSL.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = (
        "import contextlib, io, pathlib, sys\n"
        "from quadgames.cli import main\n"
        "for f in sorted(pathlib.Path(sys.argv[1]).glob('*.json')):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(main(['check', str(f)]), file=sys.stderr)\n"
        "print([m for m in ('numpy.random', 'hashlib') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(FIXTURES)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert len(done.stderr.split()) == len(list(FIXTURES.glob("*.json")))
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", ["18446744073709551615", "1180591620717411303424"])
@pytest.mark.parametrize(
    "name", ["quad_min.json", "saddle_bilinear.json", "fig_trust_blue.json"]
)
def test_check_takes_seeds_of_any_size(capsys, name, seed):
    code, out, _ = run(capsys, "check", str(FIXTURES / name), "--seed", seed)
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("doc", [
    # d lies in null(M) here, so pinv(M) d = 0, but at lambda = 0.5 the
    # maxmin maximizer is w = r/lambda = -4, with value 3.75.
    {"kind": "lagrangian", "lambda": 0.5, "M11": [[1.0]], "M12": [[1.0]],
     "M22": [[1.0]], "d1": [1.0], "d2": [-1.0]},
    # M12 = M11 C and M22 = C'M11 C, so S = 0; r = (0.6, 0.8) puts the
    # maximizer at r/lambda = (2.4, 3.2), ||w*|| = 4, with value 2.11,
    # while pinv(M) d has norm 0.26.
    {"kind": "lagrangian", "lambda": 0.25, "M11": [[2.0, 0.0], [0.0, 1.0]],
     "M12": [[1.0, 0.4], [0.0, 0.3]], "M22": [[0.5, 0.2], [0.2, 0.17]],
     "d1": [0.2, -0.1], "d2": [0.7, 0.81]},
], ids=["1-d-w", "2-d-w"])
def test_check_lagrangian_sizes_its_w_box_at_lambda(tmp_path, capsys, doc):
    # The oracle's w box comes from pinv(M(lambda)) d; sized at lambda =
    # 0 it would leave the maximizer out and refuse the right answer.
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert code == 0, out
    assert "result: PASS" in out


def test_check_lagrangian_box_reads_only_the_w_part(tmp_path, capsys):
    # A 50-d u puts most of pinv(M(lambda)) d (norm 52.3) in u, while the
    # w maximizer has norm 2.08.  A box sized by the whole point had a
    # grid step of 0.53 and refuted the right answer by a gap of 0.0517.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((52, 52))
    m = a @ a.T
    m11, m12, m22 = m[:50, :50], m[:50, 50:], m[50:, 50:]
    d1, d2 = rng.standard_normal(50), rng.standard_normal(2)
    lam = schur_reduction(PartitionedQuadratic(m11, m12, m22, d1, d2)).secular.smax
    doc = {
        "kind": "lagrangian", "lambda": lam + 1.0, "M11": m11.tolist(),
        "M12": m12.tolist(), "M22": m22.tolist(), "d1": d1.tolist(), "d2": d2.tolist(),
    }
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out
    assert abs(float(out.splitlines()[3].split(": ")[1])) <= 1e-3, out


def test_check_samples_option_overrides_the_file(tmp_path, capsys):
    path = write_problem(tmp_path, {**QUAD_MIN, "oracle": {"samples": 1.5}})
    assert run(capsys, "check", path)[0] == 1
    code, out, _ = run(capsys, "check", path, "--samples", "5")
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out
    code, _, err = run(capsys, "check", path, "--samples", "0")
    assert code == 1 and "samples must be at least 1" in err, err



def _rng5_game(c):
    """A 2 x 2 game with M = aa' from ``default_rng(5)``, scaled by c."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    m, d = c * (a @ a.T), c * rng.standard_normal(4)
    return {
        "M11": m[:2, :2].tolist(), "M12": m[:2, 2:].tolist(),
        "M22": m[2:, 2:].tolist(), "d1": d[:2].tolist(), "d2": d[2:].tolist(),
    }


def _check_moved(capsys, tmp_path, doc):
    """Exit codes of `check` on ``doc``, and on ``doc`` with its solver
    value moved by 1e-6 relative down and up."""
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    value = float(out.splitlines()[1].split(": ")[1])
    moved = [
        run(capsys, "check", write_problem(tmp_path, {**doc, "expected_value": v}))[0]
        for v in (value * (1.0 - 1e-6), value * (1.0 + 1e-6))
    ]
    return code, moved


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e2, 1e4, 1e8])
def test_check_lagrangian_bracket_is_relative_to_the_data(tmp_path, capsys, c):
    # At lambda = 2 ||S|| + 0.1 the right answer passes at every scale (a
    # 400-point box grid refuted it from c = 1e4 on, by a gap of 0.123
    # against an absolute 5e-3), and a value off by 1e-6 fails.
    game = _rng5_game(c)
    pq = PartitionedQuadratic(**{k.lower(): np.array(v) for k, v in game.items()})
    doc = {"kind": "lagrangian", "lambda": 2.0 * maxmin_threshold(pq) + 0.1, **game}
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e4, 1e8])
def test_check_sampled_minimum_is_relative_to_the_data(tmp_path, capsys, c):
    # Seeds 3, 4, 8, 9 and 11 were refuted at c = 1e4 or 1e8 by absolute
    # bounds, which at c = 1e-8 passed any value near zero.
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a, d = rng.standard_normal((2, 2)), rng.standard_normal(2)
        doc = {"kind": "quad_min", "D": (c * a @ a.T).tolist(), "d": (c * d).tolist(),
               "oracle": {"samples": 5000}}
        assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), seed
        a, b = rng.standard_normal((3, 2)), rng.standard_normal(3)
        doc = {"kind": "linear_solve", "A": (c * a).tolist(), "b": (c * b).tolist(),
               "oracle": {"samples": 5000}}
        assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), seed
        # A 2 x 2 saddle, M11 = aa' and M22 = -bb': an absolute 1e-9
        # passed a moved value at c = 1e-8 on every seed.
        a, b, m12 = rng.standard_normal((3, 2, 2))
        d = c * rng.standard_normal(4)
        doc = {"kind": "saddle", "M11": (c * a @ a.T).tolist(),
               "M12": (c * m12).tolist(), "M22": (-c * b @ b.T).tolist(),
               "d1": d[:2].tolist(), "d2": d[2:].tolist()}
        assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), seed
    # A bilinear saddle with ||(u*, w*)|| = 6e-6: the draws around it,
    # spread about 1, round by eps ||d||, beyond 1e-12 of V's terms at it.
    doc = {"kind": "saddle", "M11": [[0.0]], "M12": [[c]], "M22": [[0.0]],
           "d1": [3e-6 * c], "d2": [5e-6 * c]}
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])


@pytest.mark.parametrize("c", [1.0, 1e6, 1e8])
def test_check_sphere_games_of_rng5(tmp_path, capsys, c):
    # MAXMIN's polished sphere search holds at c = 1e8 too (gap -6e-8,
    # where a circle grid gave 0.25); MINMAX's there is the xfail below.
    for kind in ("maxmin", "minmax") if c < 1e8 else ("maxmin",):
        doc = {"kind": kind, **_rng5_game(c)}
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
        assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the sphere-game bound 5e-3 is absolute; at c = 1e8 the "
    "MINMAX circle grid's error (gap 0.007) exceeds it"
))
def test_check_sphere_games_of_rng5_at_large_scale(tmp_path, capsys):
    doc = {"kind": "minmax", **_rng5_game(1e8)}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


def _trust_region(seed, c):
    """A trust region of dimension 2 + seed % 3 from ``default_rng(seed)``:
    D = c aa', d = c times a Gaussian draw."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    a = rng.standard_normal((n, n))
    return {
        "kind": "trust_region", "D": (c * a @ a.T).tolist(),
        "d": (c * rng.standard_normal(n)).tolist(), "oracle": {"samples": 20000},
    }


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e4, 1e8])
def test_check_trust_region_lower_bound_is_relative(tmp_path, capsys, c):
    # The oracle, which searches the claimed point too, may beat or miss
    # a right value by rounding only, 1e-12 of ||D||_F + ||d||: seeds 2-5,
    # 9 and 11 were refuted at c = 1e8 by an absolute -1e-9, which at
    # c = 1e-8 let a value lowered by 1e-6 pass, and an absolute upper
    # bound of 5e-3 let a value raised by 1e-6 pass at c = 1.
    for seed in range(12):
        assert _check_moved(capsys, tmp_path, _trust_region(seed, c)) == (0, [3, 3]), seed


# D = diag(1e8, 9.99e7, 2e7, 1.5e7): lambda sits near ||D||, where the
# power polish contracts at about ||D|| / lambda per step and stopped
# 4.63 short of the value 51006817.19099077 (that of `tests/mpref.py`).
NEAR_NORM_D = np.diag([1e8, 9.99e7, 2e7, 1.5e7]).tolist()
NEAR_NORM_d = [1e6, 1e5, 6e5, -1e5]


@pytest.mark.parametrize("doc", [
    {"kind": "trust_region", "D": NEAR_NORM_D, "d": NEAR_NORM_d},
    {"kind": "maxmin", "M11": [[1.0]], "M12": [[0.0] * 4], "M22": NEAR_NORM_D,
     "d1": [0.0], "d2": NEAR_NORM_d},
], ids=["trust_region", "maxmin"])
def test_check_a_polish_that_stops_short_refutes_no_right_answer(tmp_path, capsys, doc):
    # The sphere search weighs the claimed point beside its polished best
    # sample, so a right value passes, and a moved one fails.
    for seed in ("0", "1", "7"):
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc), "--seed", seed)
        assert (code, out.splitlines()[1]) == (0, "solver value: 51006817.19099077"), out
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])


def _one_w_game(c):
    """A game with a 2-d u and a 1-d w, M = aa' from ``default_rng(3)``,
    scaled by c: MINMAX reads its w at +-1, with no circle grid."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    m, d = c * (a @ a.T), c * rng.standard_normal(3)
    return {
        "M11": m[:2, :2].tolist(), "M12": m[:2, 2:].tolist(),
        "M22": m[2:, 2:].tolist(), "d1": d[:2].tolist(), "d2": d[2:].tolist(),
    }


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e4, 1e8])
def test_check_games_are_witnessed_by_their_point(tmp_path, capsys, c):
    # MAXMIN's sphere search reads the claimed w; MINMAX and saddle
    # values are read off V at the claimed point (u, w), 1e-12 of the
    # size of V's terms there.  A right value passes at every scale and
    # one moved by 1e-6 relative fails.
    game = _one_w_game(c)
    saddle = {**game, "M22": (-np.asarray(game["M22"])).tolist()}
    for doc in ({"kind": "maxmin", **_rng5_game(c)}, {"kind": "maxmin", **game},
                {"kind": "minmax", **game}, {"kind": "saddle", **saddle}):
        assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), doc["kind"]


def test_check_refutes_a_saddle_value_off_its_point(monkeypatch, capsys):
    # The claimed value is compared with V(u*, w*), not with itself.
    solve_saddle = cli.game.solve_saddle

    def lie(pq):
        solution = solve_saddle(pq)
        return solution._replace(value=2.0 * solution.value + 1.0)

    monkeypatch.setattr(cli.game, "solve_saddle", lie)
    code, out, _ = run(capsys, "check", str(FIXTURES / "saddle_bilinear.json"))
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


# D = diag(2, 1, 1, 1), d = 1e-5 e1: -e1 is the one non-global local
# maximizer on the sphere, value 1 - 1e-5, against 1 + 1e-5 at e1, and
# above the best of 20000 samples.  It is a fixed point of the power
# step, so a polish started there would keep the wrong value; a solver
# that picks the wrong secular root near the hard case reports it.
LOCAL_MAX_D = np.diag([2.0, 1.0, 1.0, 1.0])
LOCAL_MAX_d = np.array([1e-5, 0.0, 0.0, 0.0])


def test_check_refutes_a_non_global_local_maximizer(tmp_path, monkeypatch, capsys):
    # The claimed point is a candidate, never the polish's start: the
    # answer fails at every seed whose polished best sample finds the
    # global maximum (the search alone, without the claimed point).  At
    # the others the best sample lies in -e1's basin and the search
    # cannot tell the two apart.
    at_local_max = cli.sphere.SphereSolutionSet(-np.eye(4)[0], np.zeros((4, 0)), 0.0)
    solve_trust_region = cli.sphere.solve_trust_region
    solve_linear_term = cli.minmax.solve_linear_term
    monkeypatch.setattr(
        cli.sphere, "solve_trust_region",
        lambda *data: solve_trust_region(*data)._replace(
            value=1.0 - 1e-5, w_star=at_local_max),
    )
    monkeypatch.setattr(
        cli.minmax, "solve_linear_term",
        lambda pq, direction: solve_linear_term(pq, direction)._replace(
            value=1.0 - 1e-5, w_set=at_local_max),
    )
    form = quadratic.QuadraticForm(LOCAL_MAX_D, LOCAL_MAX_d)
    tr = {"kind": "trust_region", "D": LOCAL_MAX_D.tolist(), "d": LOCAL_MAX_d.tolist()}
    game = {"kind": "maxmin", "M11": [[1.0]], "M12": [[0.0] * 4], "d1": [0.0],
            "M22": tr["D"], "d2": tr["d"]}
    refuted = 0
    for seed in range(12):
        cfg = oracle.OracleConfig(seed=seed, samples=20000)
        found = oracle.sphere_max(form, cfg)[0] > 1.0
        refuted += found
        for doc in (tr, game):  # min over u of the game is the form itself
            argv = ["check", write_problem(tmp_path, doc), "--samples", "20000"]
            code, out, _ = run(capsys, *argv, "--seed", str(seed))
            assert code == (3 if found else 0), (seed, doc["kind"], out)
    assert refuted >= 3


def test_check_certifies_an_infinite_minmax(tmp_path, monkeypatch, capsys):
    # Beside a finite maxmin, an infinite minmax value needs the top
    # eigenvalue of M22 above lambda: at lambda = 0.5 < ||M22|| = 1 it is,
    # at lambda = 3 it is not.  Beside an infinite maxmin it needs no more
    # (minmax >= maxmin), as at lambda = ||M22|| with d2 on its top
    # eigenvector, where both rise linearly.
    honest = {"kind": "lagrangian", "M11": [[1.0]], "M12": [[1.0]], "M22": [[1.0]],
              "lambda": 0.5}
    both = {**honest, "M12": [[0.0]], "d1": [0.0], "d2": [1.0], "lambda": 1.0}
    for doc in (honest, both):
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
        assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out
    duality_report = cli.game.duality_report

    def infinite_gap(pq, lam):
        report = duality_report(pq, lam)
        return report._replace(status="infinite_gap", value=None, minmax=LambdaSolve(False))

    monkeypatch.setattr(cli.game, "duality_report", infinite_gap)
    lie = {**honest, "M11": [[2.0]], "d1": [1.0], "d2": [0.5], "lambda": 3.0}
    # The certificate reads the solvers' threshold test: lambda = 2 - 5e-8
    # is below ||M22|| = 2 by more than TOL ||M22||, but not by more than
    # the solvers' tol, TOL (||M22|| + ||M12' pinv(M11) M12|| + ||r||),
    # here 1.03e-7, so they call minmax finite there.
    band = {**honest, "M22": [[2.0]], "d2": [100.0], "lambda": 2.0 - 5e-8}
    for doc in (lie, band):
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
        assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


def test_check_trust_region_upper_bound_at_large_scale(tmp_path, capsys):
    # Near the hard case a polish damped by a curvature bound left seed 7
    # a gap of 1.12 at c = 1e8, beyond the absolute 5e-3; the power step
    # closes it.
    code, out, _ = run(capsys, "check", write_problem(tmp_path, _trust_region(7, 1e8)))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


def _wide_w_game(n):
    """A game with a 2-d u and an n-d w, M = aa' from ``default_rng(n)``."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((2 + n, 2 + n))
    m, d = a @ a.T, rng.standard_normal(2 + n)
    return {
        "M11": m[:2, :2].tolist(), "M12": m[:2, 2:].tolist(),
        "M22": m[2:, 2:].tolist(), "d1": d[:2].tolist(), "d2": d[2:].tolist(),
    }


@pytest.mark.parametrize("n", [3, 4])
def test_check_a_w_of_3_or_4(tmp_path, capsys, n):
    # MAXMIN's sphere search and the lambda family's cuts take a w of up
    # to 4; a lagrangian value moved by 1e-6 relative fails.
    game = _wide_w_game(n)
    code, out, _ = run(capsys, "check", write_problem(tmp_path, {"kind": "maxmin", **game}))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out
    pq = PartitionedQuadratic(**{k.lower(): np.array(v) for k, v in game.items()})
    doc = {"kind": "lagrangian", "lambda": 2.0 * maxmin_threshold(pq) + 0.1, **game}
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])
