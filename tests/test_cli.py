import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadgames.cli import main

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


def test_check_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("QG_TOL_OVERRIDE", "10000")
    code, out, _ = run(capsys, "check", str(FIXTURES / "check_corrupted.json"))
    assert code == 0
    assert "PASS" in out
    monkeypatch.setenv("QG_TOL_OVERRIDE", "not-a-number")
    code, _, err = run(capsys, "check", str(FIXTURES / "check_corrupted.json"))
    assert code == 1


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


def test_import_cli_leaves_scipy_optimize_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = "import sys, quadgames.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
