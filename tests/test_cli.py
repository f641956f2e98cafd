import json
import math
import os
import subprocess
import sys
import warnings
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
    minmax_threshold,
    schur_reduction,
)

from util import (
    count_factorizations, hard_case_instance, ill_conditioned_maxmin, random_partitioned,
    rotation,
)

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


@pytest.mark.parametrize("name,lo,hi", [
    ("fig_duality_gap.json", "-1e3", "2"), ("fig_duality_gap.json", "-2E3", "-1e3"),
    ("fig_duality_gap.json", "-.5e1", "-1"), ("fig_trust_blue.json", "-1e3", "2"),
], ids=["min", "both", "dot", "trust-region-min"])
def test_curve_takes_negative_ends_written_with_an_exponent(capsys, name, lo, hi):
    # argparse alone reads -1e3 after a space as an option name; the ends
    # read as they do when joined to their options by "=".
    path = str(FIXTURES / name)
    joined = run(capsys, "curve", path, f"--lambda-min={lo}", f"--lambda-max={hi}", "--steps", "3")
    assert joined[0] == 0
    assert run(capsys, "curve", path, "--lambda-min", lo, "--lambda-max", hi, "--steps", "3") == joined


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
    # `solve` exits 2 for the unbounded fixture alone.  The SVD of the
    # check is for the rectangular A of a linear_solve alone.
    solved = run(capsys, "solve", str(FIXTURES / name))[0]
    assert solved == (2 if name == "quad_min_unbounded.json" else 0)
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


LADDER_GAME = {"M11": [[2.0]], "M12": [[1.0, 0.0]], "M22": [[2.0, 0.3], [0.3, 1.5]],
               "d1": [1.0], "d2": [0.5, -1.0]}
LADDER = [
    {"kind": "linear_solve", "A": [[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]],
     "b": [1.0, -2.0, 0.5]},
    {"kind": "quad_min", "D": [[2.0, 0.3], [0.3, 1.0]], "d": [1.0, -0.5]},
    {"kind": "quad_min", "D": [[1.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0]},
    {"kind": "saddle", "M11": [[2.0]], "M12": [[1.0, 0.5]],
     "M22": [[-1.0, 0.0], [0.0, -2.0]], "d1": [1.0], "d2": [0.5, -1.0]},
    {"kind": "trust_region", "D": [[2.0, 0.3], [0.3, 1.0]], "d": [1.0, -0.5]},
    {"kind": "maxmin", **LADDER_GAME},
    {"kind": "minmax", **LADDER_GAME},
    {"kind": "lagrangian", **LADDER_GAME, "lambda": 3.0},
]


def _answers(doc, path=""):
    """Every value, multiplier and residual of a result document."""
    found = {}
    for key, item in doc.items():
        if isinstance(item, dict):
            found |= _answers(item, f"{path}{key}.")
        elif key in ("value", "lambda_p", "lambda0", "residual"):
            found[path + key] = item
    return found


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("c", [2.0**-1000, 1e-300, 1e-170, 1e160, 1e300])
@pytest.mark.parametrize("doc", LADDER, ids=lambda doc: doc["kind"])
def test_answers_scale_to_the_ends_of_the_float_range(tmp_path, capsys, doc, c):
    # Every entry (and lambda) times c: the status and exit code are those
    # at c = 1, every answer is c times its own to 1e-14, and check passes
    # as at c = 1.  Squares of such data leave the float range, so every
    # norm and the secular root take them scaled by a power of two.
    _, one, code = cli.solve_document(doc)
    _, far, far_code = cli.solve_document(_scaled(doc, c))
    assert (far_code, far["status"]) == (code, one["status"])
    answers, far_answers = _answers(one), _answers(far)
    assert far_answers.keys() == answers.keys()
    for key, answer in answers.items():
        assert abs(far_answers[key] - c * answer) <= 1e-14 * abs(c * answer), key
    check = run(capsys, "check", write_problem(tmp_path, doc))[0]
    far_check = run(capsys, "check", write_problem(tmp_path, _scaled(doc, c), "far.json"))
    assert far_check[0] == check == 0, far_check[1]


@pytest.mark.parametrize("doc", LADDER, ids=lambda doc: doc["kind"])
def test_commands_print_no_warning_past_the_overflow_of_a_square(tmp_path, capsys, doc):
    # At c = 1e160 the first sums of squares in linalg.norm and row_norms
    # overflow, and they sum again rescaled.  The library warns of that
    # overflow; a command keeps the warning to itself, answers as at c = 1
    # and leaves the caller's filters as they were.  (capsys cannot see
    # this: pytest captures warnings itself.)
    far = _scaled(doc, 1e160)
    path = write_problem(tmp_path, far)
    commands = [["solve", path], ["check", path]]
    if doc["kind"] in ("lagrangian", "trust_region"):
        commands.append(["curve", path, "--lambda-min", "0", "--lambda-max", "1e161",
                         "--steps", "3"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.solve_document(far)
        assert any("overflow encountered" in str(w.message) for w in caught)
        caught.clear()
        filters = list(warnings.filters)
        codes = [run(capsys, *argv)[0] for argv in commands]
        assert warnings.filters == filters
    assert [str(w.message) for w in caught] == []
    solved = cli.solve_document(doc)[2]
    assert codes == [solved, 0, 0][:len(commands)]


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


# A 3-d w (MINMAX reads w on a circle) and a 5-d u (the MINMAX cuts take
# up to 4), and a 5-d w (the lambda family's cuts take up to 4).
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
    ("solve", [QUAD_MIN]),
    ("solve", LAGRANGIAN),
], ids=[
    "minmax-3x3", "lagrangian-1x5", "minmax-5x5",
    "solve-null-lambda", "check-null-lambda", "solve-list-c", "check-list-c",
    "object-expected", "string-expected", "number-oracle", "list-oracle",
    "curve-string-d1", "solve-string-d1", "check-matrix-d2", "float-samples",
    "bool-samples", "negative-seed", "negative-seed-option",
    "curve-non-psd-D", "curve-non-symmetric-D", "curve-short-d",
    "curve-non-psd-lagrangian", "curve-infinite-lambda-max",
    "curve-infinite-lambda-min", "solve-nan-lambda", "solve-string-inf-lambda",
    "solve-nan-c", "check-nan-expected", "check-infinite-expected",
    "check-infinite-expected-lagrangian",
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
    # answer.  A curve end that parses as a float but is not finite is the
    # curve's to refuse, as it is in the library.
    curve = ["curve", str(FIXTURES / "fig_trust_blue.json"), "--lambda-max", "2"]
    for argv, start in (
        ([*curve, "--lambda-min", "0", "--steps", "x"], "error: quadgames"),
        ([*curve, "--lambda-min", "--steps", "3"], "error: quadgames"),
        *(
            ([*curve, "--lambda-min", end, "--steps", "3"], "error: lambda_min must be finite")
            for end in ("-inf", "-nan", "-1e400")
        ),
        # No option is abbreviated: --lambda-mi is no curve end.
        *(
            ([*curve, "--lambda-mi", end, "--steps", "3"],
             "error: quadgames curve: the following arguments are required: --lambda-min")
            for end in ("-1e3", "0")
        ),
        (["check", str(FIXTURES / "quad_min.json"), "--samp", "5"],
         "error: quadgames: unrecognized arguments: --samp 5"),
        (["solve"], "error: quadgames"),
        ([], "error: quadgames"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(start), argv
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
    code, out, _ = run(capsys, "check", str(FIXTURES / "saddle_bilinear.json"), "--samples", "50")
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out



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
    # where a circle grid gave 0.25), and so does MINMAX's bracket, whose
    # circle-grid error is bounded (an absolute 5e-3 refuted it by 0.007).
    for kind in ("maxmin", "minmax"):
        doc = {"kind": kind, **_rng5_game(c)}
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
        assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


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


# Exact hard cases: lambda = ||D|| = 2, with d on no top eigenvector and
# response norms 0.5, 1 and 0.5 there, so the maximizers form a sphere.
EXACT_HARD = [
    (np.diag([2.0, 1.0]), np.array([0.0, 0.5])),
    (np.diag([2.0, 1.0]), np.array([0.0, 1.0])),
    (np.diag([2.0, 2.0, 1.0]), np.array([0.0, 0.0, 0.5])),
]


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e4, 1e8])
def test_check_trust_region_lower_bound_is_relative(tmp_path, capsys, c):
    # The certificate and g(w) judge a right value by rounding only, 1e-12
    # of its terms: seeds 2-5, 9 and 11 were refuted at c = 1e8 by an
    # absolute -1e-9, which at c = 1e-8 let a value lowered by 1e-6 pass,
    # and an absolute upper bound of 5e-3 let a value raised by 1e-6 pass
    # at c = 1, as it did 5.001 for D = 0, d = (3, 4), whose value is 5.
    # The exact hard cases pass too, as trust regions and as their MAXMIN
    # twins, whose min over u is the trust region's form.
    for seed in range(12):
        assert _check_moved(capsys, tmp_path, _trust_region(seed, c)) == (0, [3, 3]), seed
    linear = {"kind": "trust_region", "D": [[0.0, 0.0], [0.0, 0.0]], "d": [3.0 * c, 4.0 * c]}
    assert _check_moved(capsys, tmp_path, linear) == (0, [3, 3])
    raised = write_problem(tmp_path, {**linear, "expected_value": 5.001 * c})
    assert run(capsys, "check", raised)[0] == 3
    for d_mat, d_vec in EXACT_HARD:
        n = len(d_vec)
        tr = {"kind": "trust_region", "D": (c * d_mat).tolist(), "d": (c * d_vec).tolist()}
        twin = {"kind": "maxmin", "M11": [[c]], "M12": [[0.0] * n], "d1": [0.0],
                "M22": tr["D"], "d2": tr["d"]}
        for doc in (tr, twin):
            assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), doc


@pytest.mark.parametrize("theta", [0.4, 1.0, 2.1, 2.4])
def test_check_maxmin_lambda_bound_holds_an_ill_conditioned_m11(tmp_path, capsys, theta):
    # M11 = R diag(1e10, 1) R', M12 = R (1e5, 1)': S = M22 - 2 = 0.5, but
    # M12' pinv(M11) M12 cancels terms of about 1e5, whose rounding moves
    # the oracle's S from the solver's by about 1e-11: the lambda test is
    # sized by S's terms, as a bound sized by S itself refutes this right
    # hard case.
    r = rotation(theta)
    doc = {"kind": "maxmin", "M11": (r @ np.diag([1e10, 1.0]) @ r.T).tolist(),
           "M12": (r @ [[1e5], [1.0]]).tolist(), "M22": [[2.5]], "d1": [0.0, 0.0],
           "d2": [0.0]}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


@pytest.mark.xfail(
    reason="ROADMAP items 2 and 1: sphere_certificate sizes its gradient test by "
    "the terms |M22||w| + |M12'||u*| + |d2| + |lam||w| alone, while S formed "
    "through pinv(M11) carries rounding that grows with the condition number "
    "of M11 (1e10 here)",
    strict=True,
)
def test_check_passes_a_maxmin_with_an_ill_conditioned_m11(tmp_path, capsys):
    # The solver's answer agrees with tests/mpref.py (test_reference), and
    # the value gap is 1.5e-14.  The claimed w and lambda0 are exact for
    # the S the solver formed, 4.9e-10 relative from the true one, so
    # their gradient residual is 2.0e-9 in 40 digits too (2.1e-9 in
    # float, where u* = pinv(M11)(M12 w + d1) is off by 2.7e-10), against
    # a bound of 2.2e-10.
    pq = ill_conditioned_maxmin()
    doc = {"kind": "maxmin", **{
        key: getattr(pq, key.lower()).tolist() for key in ("M11", "M12", "M22", "d1", "d2")
    }}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


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
    # The search is a lower bound, free to stop short of the value; the
    # certificate and g(w) pass the right value and fail a moved one.
    for seed in ("0", "1", "7"):
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc), "--seed", seed)
        assert (code, out.splitlines()[1]) == (0, "solver value: 51006817.19099077"), out
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])


# D = diag(1, 0.9, 0.9, 0.9, 0.9) and d = (1.5e-9, 0.05, 0, 0, 0): r_top
# lies between TOL (||D||_2 + ||d||) and TOL (||D||_F + ||d||), at the
# edge of the hard case, where the interior multiplier 1.0000000017320507
# is that of tests/mpref.py.
BAND_D = np.diag([1.0, 0.9, 0.9, 0.9, 0.9]).tolist()
BAND_d = [1.5e-9, 0.05, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("d_mat,d_vec", [(NEAR_NORM_D, NEAR_NORM_d), (BAND_D, BAND_d)],
                         ids=["near-norm", "band"])
def test_a_trust_region_and_its_p0_game_answer_and_check_alike(tmp_path, capsys, d_mat, d_vec):
    # The trust region is the MAXMIN game with M11 = [[1]] and M12 = 0,
    # solved and checked by one rule: both pass, every line of `check`
    # after "kind:" is the same, and so are the values and multipliers.
    tr = {"kind": "trust_region", "D": d_mat, "d": d_vec}
    game = {"kind": "maxmin", "M11": [[1.0]], "M12": [[0.0] * len(d_vec)], "d1": [0.0],
            "M22": d_mat, "d2": d_vec}
    paths = [write_problem(tmp_path, doc, f"{doc['kind']}.json") for doc in (tr, game)]
    checked = [run(capsys, "check", path) for path in paths]
    assert [(code, out.splitlines()[-1]) for code, out, _ in checked] == [(0, "result: PASS")] * 2
    assert checked[0][1].splitlines()[1:] == checked[1][1].splitlines()[1:]
    solved = [json.loads(run(capsys, "solve", path)[1]) for path in paths]
    assert (solved[0]["value"], solved[0]["lambda_p"]) == (solved[1]["value"], solved[1]["lambda0"])


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
    # MAXMIN values are read off g(w) at the certified w; MINMAX and saddle
    # values are read off V at the claimed point (u, w), 1e-12 of the
    # size of V's terms there, and a MINMAX value with a 2-d w lies in
    # the oracle's bracket too.  A right value passes at every scale and
    # one moved by 1e-6 relative fails.
    game = _one_w_game(c)
    saddle = {**game, "M22": (-np.asarray(game["M22"])).tolist()}
    for doc in ({"kind": "maxmin", **_rng5_game(c)}, {"kind": "minmax", **_rng5_game(c)},
                {"kind": "maxmin", **game}, {"kind": "minmax", **game},
                {"kind": "saddle", **saddle}):
        assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3]), doc["kind"]


@pytest.mark.parametrize("c", [1.0, 1e8])
def test_check_minmax_needs_the_samples_that_close_its_bracket(tmp_path, capsys, c):
    # The circle's widening falls as 1/N^2 at any scale: 10^4 points
    # leave the bracket wider than delta and the right answer fails.
    path = write_problem(tmp_path, {"kind": "minmax", **_rng5_game(c)})
    for samples, expected in (("10000", 3), ("20000", 0)):
        assert run(capsys, "check", path, "--samples", samples)[0] == expected, samples


def test_check_sizes_a_value_by_its_terms_at_the_point(tmp_path, capsys):
    # u* = 0, so only the w block, 1e-8 of M11, sets V's terms: a size read
    # off ||M||_F, 1, passed values moved by 1e-6 relative.
    doc = {"kind": "maxmin", "M11": [[1.0]], "M12": [[0.0, 0.0]], "d1": [0.0],
           "M22": [[2e-8, 0.0], [0.0, 1e-8]], "d2": [0.3e-8, 0.4e-8]}
    assert _check_moved(capsys, tmp_path, doc) == (0, [3, 3])


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_check_refutes_a_minmax_w_turned_off_the_maximizer(tmp_path, monkeypatch, capsys, c):
    # The lie turns w by 1e-3 rad and claims V there, so the exact check
    # of V at its point holds; the value is low by 9e-7 relative and falls
    # below the bracket, where an absolute 1e-3 passed it at c <= 1.
    turn = np.array([[math.cos(1e-3), -math.sin(1e-3)], [math.sin(1e-3), math.cos(1e-3)]])
    solve_linear_term = cli.minmax.solve_linear_term

    def lie(pq, direction):
        solution = solve_linear_term(pq, direction)
        w = turn @ solution.w_set.representative()
        value = pq.evaluate(solution.u_set.particular, w)
        w_set = cli.sphere.SphereSolutionSet(w, np.zeros((2, 0)), 0.0)
        return solution._replace(value=value, w_set=w_set)

    monkeypatch.setattr(cli.minmax, "solve_linear_term", lie)
    doc = {"kind": "minmax", **_rng5_game(c)}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


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
LOCAL_MAX_TR = {"kind": "trust_region", "D": LOCAL_MAX_D.tolist(), "d": LOCAL_MAX_d.tolist()}
# min over u of this game is the trust region's form itself.
LOCAL_MAX_GAME = {"kind": "maxmin", "M11": [[1.0]], "M12": [[0.0] * 4], "d1": [0.0],
                  "M22": LOCAL_MAX_TR["D"], "d2": LOCAL_MAX_TR["d"]}


def _patch_sphere_answers(monkeypatch, **changes):
    """Make the trust-region and sphere-game solvers report their answer
    with ``changes``: ``lam`` for the multiplier, ``value``, ``w``."""
    solve_trust_region = cli.sphere.solve_trust_region
    solve_linear_term = cli.minmax.solve_linear_term
    names = {"lam": ("lambda_p", "lambda0"), "value": ("value", "value"),
             "w": ("w_star", "w_set")}

    def edited(solution, i):
        return solution._replace(**{names[k][i]: v for k, v in changes.items()})

    monkeypatch.setattr(cli.sphere, "solve_trust_region",
                        lambda *data: edited(solve_trust_region(*data), 0))
    monkeypatch.setattr(cli.minmax, "solve_linear_term",
                        lambda pq, direction: edited(solve_linear_term(pq, direction), 1))


def test_check_refutes_a_non_global_local_maximizer(tmp_path, monkeypatch, capsys):
    # The lie is stationary with its own multiplier w'(Dw + d) = 2 - 1e-5,
    # below lambda_max = 2, so the certificate refutes it at every seed,
    # also where the search's best sample lies in -e1's basin and the
    # polish cannot tell the two apart.
    at_local_max = cli.sphere.SphereSolutionSet(-np.eye(4)[0], np.zeros((4, 0)), 0.0)
    _patch_sphere_answers(monkeypatch, lam=2.0 - 1e-5, value=1.0 - 1e-5, w=at_local_max)
    for seed in [*range(20), 20240621]:
        for doc in (LOCAL_MAX_TR, LOCAL_MAX_GAME):
            argv = ["check", write_problem(tmp_path, doc), "--samples", "20000"]
            code, out, _ = run(capsys, *argv, "--seed", str(seed))
            assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), (seed, out)


@pytest.mark.parametrize("lam", [1e6, -5.0])
@pytest.mark.parametrize(
    "name", ["trust_region_boundary.json", "trust_region_interior.json", "maxmin_homogeneous.json"]
)
def test_check_reads_the_multiplier(monkeypatch, capsys, name, lam):
    # The value and the point are the solver's own, and only the claimed
    # lambda_p or lambda0 is wrong: too large for w to be stationary, or
    # below the top eigenvalue.  The value-only check passed all six.
    _patch_sphere_answers(monkeypatch, lam=lam)
    code, out, _ = run(capsys, "check", str(FIXTURES / name))
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


def test_check_refutes_a_point_off_the_sphere(tmp_path, monkeypatch, capsys):
    # With d = 0, w = 2 e1 is stationary at lambda = 2 = lambda_max, and its
    # value 4 is above every point of the sphere, so only ||w|| = 1 sees it.
    off = cli.sphere.SphereSolutionSet(np.array([2.0, 0.0]), np.zeros((2, 0)), 0.0)
    _patch_sphere_answers(monkeypatch, value=4.0, w=off)
    doc = {"kind": "trust_region", "D": [[2.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (3, "result: FAIL"), out


@pytest.mark.xfail(
    reason="ROADMAP item 1: Secular.of counts r_top = eps as zero against "
    "TOL (||D|| + ||d||) = 3e-9 and reports the boundary lambda = 2",
    strict=True,
)
@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9])
def test_check_passes_a_trust_region_at_the_edge_of_the_hard_case(tmp_path, capsys, eps):
    # D = diag(2, 1), d = (eps, 1): the 40-digit multiplier of
    # tests/mpref.py is 2 + 3.7e-8, 2 + 1.7e-7 and 2 + 7.9e-7, and
    # (D - 2I)w = -d has no solution, so the certificate refutes the
    # solver's lambda = 2 (the value, 1.5, is right to 1e-12).
    doc = {"kind": "trust_region", "D": [[2.0, 0.0], [0.0, 1.0]], "d": [eps, 1.0]}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


@pytest.mark.xfail(
    reason="ROADMAP item 1: Secular.range_tol, TOL times about 2e4 here "
    "(||d2|| + ||M12' pinv(M11) d1||, beside S's terms), counts r = 2e-6 as zero",
    strict=True,
)
def test_check_passes_a_maxmin_with_a_small_vector_term_beside_large_data(tmp_path, capsys):
    # S = 3 - 2 = 1 and r = d2 - M12'd1 = 2e-6, so lambda0 = 1 + 2e-6
    # with w = +1 alone (tests/mpref.py: 1.000002000000677); the solver
    # reports the boundary lambda0 = 1, which leaves the residual 2e-6.
    d1 = [1e4, -2e4]
    doc = {"kind": "maxmin", "M11": [[1.0, 0.0], [0.0, 1.0]], "M12": [[1.0], [1.0]],
           "M22": [[3.0]], "d1": d1, "d2": [sum(d1) + 2e-6]}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


@pytest.mark.xfail(
    reason="ROADMAP item 1: the solvers' threshold tol, about 1e-9 of the "
    "data, calls the maxmin infinite 2e-10 and 2e-9 relative above ||S||",
    strict=True,
)
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_check_passes_the_lagrangian_of_rng5_just_above_its_threshold(tmp_path, capsys, t):
    # At c = 1e8 the solver reports both_infinite at ||S|| + t, where
    # tests/mpref.py gives the finite maxmin 6.858241111241964e16 (t = 0.1)
    # and 6858249156880960.0 (t = 1); the infinite-maxmin certificate,
    # whose bounds are rounding, refutes that answer.
    game = _rng5_game(1e8)
    pq = PartitionedQuadratic(**{k.lower(): np.array(v) for k, v in game.items()})
    doc = {"kind": "lagrangian", "lambda": maxmin_threshold(pq) + t, **game}
    code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


# M11 = diag(1, -1e-11) passes the solvers' PSD test, TOL ||M11||, and
# S = 10001 - 100^2 = 1 once the tolerated -1e-11 is split as a zero.
CLIPPED_M11 = {"M11": [[1.0, 0.0], [0.0, -1e-11]], "M12": [[100.0], [9e-8]],
               "M22": [[10001.0]]}


@pytest.mark.xfail(
    reason="ROADMAP item 1: the solvers split M11's tolerated -1e-11 as a zero "
    "and the oracles invert it, adding (9e-8)^2 / 1e-11 = 8.1e-4 to S; a "
    "rounding-level PSD test refuses the data, or both read one S",
    strict=True,
)
def test_check_agrees_with_solve_on_a_tolerated_negative_eigenvalue(tmp_path, capsys):
    # The solver's maxmin value is 0.8 at lambda0 = 1.3, where the oracle
    # finds 0.800405; the lagrangian's maxmin is finite at lambda = 1.0004,
    # below the oracles' ||S|| = 1.00081.
    for doc in (
        {"kind": "maxmin", **CLIPPED_M11, "d1": [0.0, 0.0], "d2": [0.3]},
        {"kind": "lagrangian", **CLIPPED_M11, "lambda": 1.0004},
    ):
        path = write_problem(tmp_path, doc)
        solved, _, _ = run(capsys, "solve", path)
        checked, out, _ = run(capsys, "check", path)
        assert solved == 1 or checked == 0, (doc["kind"], out)


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
    # The certificate reads M22 itself, to rounding: lambda = 2 - 5e-8 is
    # below ||M22|| = 2, so minmax is infinite there, though the solvers'
    # tol, TOL (||M22|| + ||M12' pinv(M11) M12|| + ||r||) = 1.03e-7, calls
    # it finite; 2 + 5e-8 is above it, where minmax is finite.
    band = {**honest, "M22": [[2.0]], "d2": [100.0], "lambda": 2.0 - 5e-8}
    above = {**band, "lambda": 2.0 + 5e-8}
    for doc, expected in ((lie, 3), (band, 0), (above, 3)):
        code, out, _ = run(capsys, "check", write_problem(tmp_path, doc))
        line = "result: PASS" if expected == 0 else "result: FAIL"
        assert (code, out.splitlines()[-1]) == (expected, line), out


# Both sides are +inf 1e-10 below ||S|| = ||M22|| = 1, where the solvers'
# threshold tol calls them finite, with the value lambda / 2.
LAMBDA_BAND = {"kind": "lagrangian", "M11": [[1.0]], "M12": [[0.0]], "M22": [[1.0]],
               "lambda": 0.9999999999}


def _rng5_lagrangian(at):
    """The lagrangian of ``_rng5_game(1.0)`` at lambda = at(||M22||)."""
    game = _rng5_game(1.0)
    pq = PartitionedQuadratic(**{k.lower(): np.array(v) for k, v in game.items()})
    return {"kind": "lagrangian", "lambda": at(minmax_threshold(pq)), **game}


def _lagrangian_verdict(prob, doc):
    """``check``'s verdict on the result document ``doc`` of ``prob``."""
    entry = cli.KINDS["lagrangian"]
    return entry.check(entry.read(prob), prob, doc, None, cli._oracle_config(prob))[2]


def test_check_reads_the_finiteness_of_both_lambda_sides():
    # Each side's finite flag must be the failure of its infinite
    # certificate, and two finite sides must be equal: finite sides
    # claimed in the band below ||S|| = ||M22||, and a minmax value 1e-6
    # above the maxmin, passed when a finite side needed no certificate.
    infinite, finite = {"finite": False}, {"finite": True, "value": 0.49999999995}
    right = {"lambda": LAMBDA_BAND["lambda"], "status": "both_infinite",
             "minmax": infinite, "maxmin": infinite}
    lie = {**right, "status": "strong_duality", "value": 0.49999999995,
           "minmax": finite, "maxmin": finite}
    assert _lagrangian_verdict(LAMBDA_BAND, right)
    assert not _lagrangian_verdict(LAMBDA_BAND, lie)
    assert not _lagrangian_verdict(LAMBDA_BAND, {**right, "value": 0.5})
    prob = _rng5_lagrangian(lambda norm22: norm22 + 1.0)
    _, right, _ = cli.solve_document(prob)
    assert right["status"] == "strong_duality"
    minmax = right["minmax"]
    lie = {**right, "minmax": {**minmax, "value": minmax["value"] * (1.0 + 1e-6)}}
    assert _lagrangian_verdict(prob, right)
    assert not _lagrangian_verdict(prob, lie)


def _verdict(prob, **edits):
    """``check``'s verdict on the solved document of ``prob`` with its
    top-level fields replaced by ``edits`` (None deletes a field)."""
    data, doc, code = cli.solve_document(prob)
    doc = {k: v for k, v in {**doc, **edits}.items() if v is not None}
    return cli.KINDS[prob["kind"]].check(data, prob, doc, code, cli._oracle_config(prob))[2]


STRONG = {"kind": "lagrangian", "M11": [[2.0]], "M12": [[1.0]], "M22": [[1.0]],
          "d1": [0.5], "d2": [0.3], "lambda": 3.0}


@pytest.mark.parametrize("prob", [
    json.loads((FIXTURES / "fig_duality_gap.json").read_text()),
    json.loads((FIXTURES / "lagrangian_gap.json").read_text()),
    STRONG,
], ids=["fig_duality_gap", "lagrangian_gap", "strong"])
def test_check_reads_the_lagrangian_joint_value(prob):
    # The top-level value is given iff the status is strong_duality, and
    # it is the maxmin side's value: a value of 123, or none, fails.
    assert cli.solve_document(prob)[1]["status"] == "strong_duality"
    assert _verdict(prob)
    assert not _verdict(prob, value=123.0)
    assert not _verdict(prob, value=None)


@pytest.mark.parametrize("name", ["minmax_linear", "minmax_homogeneous"])
def test_check_reads_the_minmax_lambda0(name):
    # lambda0 must be at least ||M22||, where the inner maximum is
    # finite: a lambda0 of -5 fails.
    prob = json.loads((FIXTURES / f"{name}.json").read_text())
    assert _verdict(prob)
    assert not _verdict(prob, lambda0=-5.0)


def test_check_passes_the_lambda0_of_right_minmax_answers():
    # The lambda0 rule refutes no right answer across sizes and scales.
    rng = np.random.default_rng(83)
    for _ in range(100):
        p, n = (int(k) for k in rng.integers(1, 5, size=2))
        c = 10.0 ** rng.uniform(-8.0, 8.0)
        pq = random_partitioned(rng, p, n)
        for game in (pq, pq._replace(d1=np.zeros(p), d2=np.zeros(n))):
            game = PartitionedQuadratic(*(c * np.asarray(x) for x in game))
            solution = minmax.solve_linear_term(game, minmax.Direction.MINMAX)
            assert not oracle.infinite_minmax(game, solution.lambda0), (p, n, c)


@pytest.mark.xfail(
    reason="ROADMAP item 1: the solvers' threshold tol, about 1e-9 of the "
    "data, calls a side finite 1e-10 and 1e-9 relative below its threshold",
    strict=True,
)
@pytest.mark.parametrize("prob", [
    LAMBDA_BAND, _rng5_lagrangian(lambda norm22: norm22 - 1e-9 * (norm22 + 1.0)),
], ids=["band", "rng5"])
def test_check_passes_the_lagrangian_just_below_a_threshold(tmp_path, capsys, prob):
    # tests/mpref.py has both sides of the band game infinite, and the
    # minmax of rng5; the solver reports strong_duality for both, which
    # the infinite certificates refute.
    code, out, _ = run(capsys, "check", write_problem(tmp_path, prob))
    assert (code, out.splitlines()[-1]) == (0, "result: PASS"), out


def test_check_of_a_lagrangian_with_no_w(monkeypatch):
    # With no w the family is lam/2 + min over u of V, finite at every
    # lam: S has no eigenvalue, so the infinite-maxmin certificate passes
    # nothing (it raised IndexError), and check passes the solver.
    pq = PartitionedQuadratic(np.eye(1), np.zeros((1, 0)), np.zeros((0, 0)),
                              np.array([0.5]), np.zeros(0))
    for lam in (-1.0, 0.0, 1.0):
        assert not oracle.infinite_maxmin(pq, lam)[2], lam
        assert not oracle.infinite_minmax(pq, lam), lam
        prob = {"kind": "lagrangian", "lambda": lam}
        doc, code = cli._solve_lagrangian(pq, prob)
        value, _, passed = cli._check_lagrangian(pq, prob, doc, code, cli._oracle_config(prob))
        assert (value, passed) == (lam / 2.0 - 0.125, True), lam


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


def _sphere_docs(n, c):
    """Trust regions of dimension n from ``default_rng(n)``, scaled by c,
    with their MAXMIN twins: D = aa' with a Gaussian d, and an exact hard
    case (``hard_case_instance``, response norm 0.5); and a MAXMIN game
    with a u and a w of n, M >= 0 (``random_partitioned``)."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    for d_mat, d_vec in ((a @ a.T, rng.standard_normal(n)), hard_case_instance(rng, n, 0.5)):
        tr = {"kind": "trust_region", "D": (c * d_mat).tolist(), "d": (c * d_vec).tolist()}
        yield tr
        yield {"kind": "maxmin", "M11": [[c]], "M12": [[0.0] * n], "d1": [0.0],
               "M22": tr["D"], "d2": tr["d"]}
    pq = random_partitioned(rng, n, n)
    yield {"kind": "maxmin", "M11": (c * pq.m11).tolist(), "M12": (c * pq.m12).tolist(),
           "M22": (c * pq.m22).tolist(), "d1": (c * pq.d1).tolist(), "d2": (c * pq.d2).tolist()}


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("n", [5, 20])
def test_check_sphere_answers_above_4_dimensions(n, c):
    # The certificate decides at any n, and the search, a lower bound,
    # runs at every n too: a right answer passes, and its value moved by
    # +-1e-6 or +-1e-9 relative fails (check refused n > 4).
    for doc in _sphere_docs(n, c):
        data, solved, code = cli.solve_document(doc)
        check = cli.KINDS[doc["kind"]].check
        verdicts = []
        for moved in (0.0, -1e-6, 1e-6, -1e-9, 1e-9):
            prob = {**doc, "expected_value": solved["value"] * (1.0 + moved)}
            verdicts.append(check(data, prob, solved, code, cli._oracle_config(prob))[2])
        assert verdicts == [True, False, False, False, False], doc["kind"]


# Fixed files of a w over 2: a MAXMIN game with a w of 3, one with a w of
# 5 and d = 0, and a trust region of 6.
SPHERE_FILES = {
    "maxmin_w3": {"kind": "maxmin", "M11": [[2.0]], "M12": [[1.0, 0.0, 0.0]],
                  "M22": np.diag([1.0, 2.0, 3.0]).tolist(), "d1": [1.0], "d2": [0.5, -0.5, 1.0]},
    "maxmin_w5": {"kind": "maxmin", **FIVE_W},
    "trust_region_6": {
        "kind": "trust_region", "D": np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).tolist(),
        "d": [1.0, -1.0, 0.5, 0.0, 2.0, -0.5],
    },
}


@pytest.mark.parametrize("name", SPHERE_FILES)
def test_check_sphere_files_of_a_w_over_2(tmp_path, capsys, name):
    # The certificate decides at any dimension, and the sphere search is a
    # lower bound: a right value passes, and one moved by 1e-6 relative
    # fails (for trust_region_6, 4.6866087635462685 against 4.686604076942192).
    assert _check_moved(capsys, tmp_path, SPHERE_FILES[name]) == (0, [3, 3])


SPHERE_FIXTURES = [
    "fig_trust_blue", "fig_trust_green", "maxmin_homogeneous", "minmax_homogeneous",
    "minmax_linear", "trust_region_boundary", "trust_region_interior",
]


def _set_key(prob):
    return "w_star" if prob["kind"] == "trust_region" else "w_set"


def _set_edits(sset):
    """A w set document with its particular point moved by 1e3, its radius
    doubled plus 1, every basis entry raised by 1, or its basis dropped;
    the representative stays."""
    particular = sset["particular"]
    yield {**sset, "particular": [particular[0] + 1e3, *particular[1:]]}
    yield {**sset, "radius_residual": 2.0 * sset["radius_residual"] + 1.0}
    yield {**sset, "basis": (np.asarray(sset["basis"]) + 1.0).tolist()}
    yield {**sset, "basis": [[] for _ in particular]}


@pytest.mark.parametrize("name", SPHERE_FIXTURES)
def test_check_reads_the_w_set_it_prints(name):
    # The representative is particular + radius_residual basis[:, 0] and
    # radius_residual^2 = 1 - ||particular||^2, so every edit of the set
    # that changes the document fails, though its representative, value
    # and multiplier are the solver's (the edits that leave an empty
    # basis as it is change nothing).
    prob = json.loads((FIXTURES / f"{name}.json").read_text())
    data, doc, code = cli.solve_document(prob)
    check, key = cli.KINDS[prob["kind"]].check, _set_key(prob)
    cfg = cli._oracle_config(prob)
    assert check(data, prob, doc, code, cfg)[2]
    edited = [sset for sset in _set_edits(doc[key]) if sset != doc[key]]
    assert len(edited) == (4 if np.size(doc[key]["basis"]) else 2)
    for sset in edited:
        assert not check(data, prob, {**doc, key: sset}, code, cfg)[2], sset


def _sphere_problems(rng, n, c):
    """Sphere problems of dimension n scaled by c, as JSON documents:
    trust regions in the interior (D = aa', rank-deficient at random), in
    the hard case (response norm 0.5) and near it (1 - 1e-8), each with
    its MINMAX and MAXMIN twin; and both games with a u of 1-4, with and
    without linear terms."""
    a = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    forms = [(a @ a.T, rng.standard_normal(n))]
    forms += [hard_case_instance(rng, n, norm) for norm in (0.5, 1.0 - 1e-8)]
    docs = []
    for d_mat, d_vec in forms:
        docs.append({"kind": "trust_region", "D": c * d_mat, "d": c * d_vec})
        twin = {"M11": [[c]], "M12": np.zeros((1, n)), "d1": [0.0],
                "M22": c * d_mat, "d2": c * d_vec}
        docs += [{"kind": kind, **twin} for kind in ("minmax", "maxmin")]
    pq = random_partitioned(rng, int(rng.integers(1, 5)), n)
    for scale in (c, 0.0):
        game = {"M11": c * pq.m11, "M12": c * pq.m12, "M22": c * pq.m22,
                "d1": scale * pq.d1, "d2": scale * pq.d2}
        docs += [{"kind": kind, **game} for kind in ("minmax", "maxmin")]
    return [json.loads(json.dumps(doc, default=np.ndarray.tolist)) for doc in docs]


def test_check_holds_the_w_sets_of_right_answers():
    # The set rules refute no right answer, at n = 1..29 and c = 1e-8..1e8.
    rng = np.random.default_rng(33)
    for n in range(1, 30):
        for c in 10.0 ** rng.uniform(-8.0, 8.0, size=2):
            for prob in _sphere_problems(rng, n, c):
                doc = cli.solve_document(prob)[1]
                assert cli._sphere_set(doc[_set_key(prob)])[1], (prob["kind"], n, c)
