"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` or rely on captured output on failure).
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from quadgames import (
    Direction,
    OracleConfig,
    PartitionedQuadratic,
    QuadraticForm,
    dual_curve,
    duality_report,
    grid_minmax,
    lambda_p,
    maxmin_threshold,
    minmax_threshold,
    schur_complements,
    solve_linear_term,
    solve_saddle,
    solve_trust_region,
    sphere_max,
)
from quadgames.cli import main as cli_main
from quadgames.linalg import spectral_norm
from quadgames.sphere import Secular

from util import pinv, random_partitioned, random_psd

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


def test_criterion_1_bilinear_saddle_exact():
    with criterion(1, "bilinear saddle solved exactly on 100 random games"):
        rng = np.random.default_rng(2024)
        zero = np.zeros((1, 1))
        start = time.perf_counter()
        for _ in range(100):
            d1, d2 = rng.standard_normal(2) * 3.0
            pq = PartitionedQuadratic(
                zero, np.array([[1.0]]), zero, np.array([d1]), np.array([d2])
            )
            sol = solve_saddle(pq)
            assert sol is not None
            assert abs(sol.u_star[0] - (-d2)) <= 1e-12 * (1.0 + abs(d2))
            assert abs(sol.w_star[0] - (-d1)) <= 1e-12 * (1.0 + abs(d1))
            assert abs(sol.value - (-d1 * d2)) <= 1e-12 * (1.0 + abs(d1 * d2))
        assert time.perf_counter() - start < 1.0


def test_criterion_2_norms_equal_example():
    with criterion(2, "norms-equal example thresholds and Schur complement"):
        pq = PartitionedQuadratic(
            np.diag([1.0, 0.0]), np.eye(2), np.eye(2), np.zeros(2), np.zeros(2)
        )
        assert abs(minmax_threshold(pq) - 1.0) <= 1e-12
        assert abs(maxmin_threshold(pq) - 1.0) <= 1e-12
        pair = schur_complements(pq.m11, pq.m12, pq.m22, lam=0.0)
        np.testing.assert_allclose(pair.schur11, np.diag([0.0, 1.0]), atol=1e-12)


def test_criterion_3_duality_gap_reproduction():
    with criterion(3, "infinite gap below lambda = 1, strong duality above"):
        one = np.array([[1.0]])
        pq = PartitionedQuadratic(one, one, one, np.zeros(1), np.zeros(1))
        for lam in (0.0, 0.25, 0.5, 0.75, 0.99):
            rep = duality_report(pq, lam)
            assert not rep.minmax.finite
            assert rep.maxmin.finite
        for lam in (1.0, 1.5, 2.0):
            rep = duality_report(pq, lam)
            mm, xm = rep.minmax, rep.maxmin
            assert mm.finite and xm.finite
            assert abs(mm.value - xm.value) <= 1e-9


def test_criterion_4_eigenvalue_certificate():
    with criterion(4, "lambda_p certificate on 200 random trust regions"):
        rng = np.random.default_rng(2025)
        start = time.perf_counter()
        interior_seen = boundary_seen = 0
        for i in range(200):
            n = int(rng.integers(1, 5))
            d_mat = random_psd(rng, n)
            norm_d = spectral_norm(d_mat)
            if i % 4 == 0:
                # push d off the top eigenspace and shrink it so the
                # boundary branch is exercised too
                shifted = d_mat - norm_d * np.eye(n)
                d_vec = shifted @ rng.standard_normal(n)
                resp = np.linalg.norm(pinv(shifted) @ d_vec)
                if resp > 0.5:
                    d_vec *= 0.5 / resp
            else:
                d_vec = rng.standard_normal(n)
            sol = solve_trust_region(d_mat, d_vec)
            assert sol.lambda_p >= norm_d - 1e-9
            if sol.boundary:
                boundary_seen += 1
                sec = Secular.of(d_mat, d_vec)
                assert sec.range_holds
                assert np.linalg.norm(sec.response(sec.smax)) <= 1.0
            else:
                interior_seen += 1
                w = np.linalg.solve(d_mat - sol.lambda_p * np.eye(n), d_vec)
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-7
        assert interior_seen > 0 and boundary_seen > 0
        assert time.perf_counter() - start < 30.0


def test_criterion_5_oracle_agreement():
    with criterion(5, "sphere and nested-grid oracles agree with the solvers"):
        rng = np.random.default_rng(2026)
        start = time.perf_counter()
        cfg = OracleConfig(seed=99, samples=100_000)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            d_mat = random_psd(rng, n)
            d_vec = rng.standard_normal(n)
            sol = solve_trust_region(d_mat, d_vec)
            oracle_value, _ = sphere_max(QuadraticForm(d_mat, d_vec), cfg)
            gap = sol.value - oracle_value
            assert gap >= -1e-9
            assert gap <= 5e-3
        grid_cfg = OracleConfig(seed=99, samples=2000, grid_points=2000)
        for _ in range(50):
            pq = random_partitioned(rng, 1, 1, linear_scale=0.5)
            for direction in Direction:
                sol = solve_linear_term(pq, direction)
                oracle_value = grid_minmax(pq, grid_cfg, direction)
                assert abs(sol.value - oracle_value) <= 1e-3
        assert time.perf_counter() - start < 120.0


def test_criterion_6_trust_region_embedding():
    with criterion(6, "empty-u minmax multiplier equals lambda_p"):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            d_mat = random_psd(rng, n)
            d_vec = rng.standard_normal(n)
            pq = PartitionedQuadratic(
                np.zeros((0, 0)), np.zeros((0, n)), d_mat, np.zeros(0), d_vec
            )
            sol = solve_linear_term(pq, Direction.MINMAX)
            lam_ref = lambda_p(d_mat, d_vec)
            assert abs(sol.lambda0 - lam_ref) <= 1e-8 * (1.0 + abs(lam_ref))


def test_criterion_7_derivative_identities():
    with criterion(7, "analytic dL/dlambda matches finite differences"):
        rng = np.random.default_rng(2028)
        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(1, 5))
            d_mat = random_psd(rng, n)
            d_vec = rng.standard_normal(n)
            lam = spectral_norm(d_mat) + float(rng.uniform(0.3, 2.0))
            rows = dual_curve(d_mat, d_vec, lam - h, lam + h, 3)
            fd = (rows[2][1] - rows[0][1]) / (2.0 * h)
            analytic = rows[1][2]
            assert abs(fd - analytic) <= 1e-5 * (1.0 + abs(analytic))
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            pq = random_partitioned(rng, m, n, linear_scale=0.5)
            lam = minmax_threshold(pq) + float(rng.uniform(0.3, 2.0))
            d = pq.d

            def dual(x):
                return float(0.5 * x - 0.5 * d @ pinv(pq.assembled(x)) @ d)

            fd = (dual(lam + h) - dual(lam - h)) / (2.0 * h)
            w_norm = np.linalg.norm((pinv(pq.assembled(lam)) @ d)[m:])
            analytic = 0.5 * (1.0 - w_norm**2)
            assert abs(fd - analytic) <= 1e-5 * (1.0 + abs(analytic))


def test_criterion_8_weak_duality():
    with criterion(8, "maxmin never exceeds minmax where both are finite"):
        rng = np.random.default_rng(2029)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            pq = random_partitioned(rng, m, n, linear_scale=0.5)
            lo = maxmin_threshold(pq)
            hi = minmax_threshold(pq) + 2.0
            for lam in np.linspace(lo, hi, 6):
                rep = duality_report(pq, float(lam))
                mm, xm = rep.minmax, rep.maxmin
                if mm.finite and xm.finite:
                    assert xm.value <= mm.value + 1e-9


def test_criterion_9_figure_fixtures(tmp_path, capsys):
    with criterion(9, "figure fixtures show the documented finite regions"):
        # duality-gap figure: minmax infinite below 1, both lambda/2 at
        # and above 1, maxmin finite from 0
        out = tmp_path / "gap.csv"
        code = cli_main([
            "curve", str(FIXTURES / "fig_duality_gap.json"),
            "--lambda-min", "0", "--lambda-max", "2", "--steps", "9",
            "--output", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for lam_s, mm_s, xm_s in rows:
            lam = float(lam_s)
            if lam < 1.0:
                assert mm_s == "inf"
            else:
                assert abs(float(mm_s) - lam / 2.0) <= 1e-9
            assert abs(float(xm_s) - lam / 2.0) <= 1e-9
        # trust-region figure, green case: finite at lambda = ||D|| and
        # above, infinite below
        out = tmp_path / "green.csv"
        code = cli_main([
            "curve", str(FIXTURES / "fig_trust_green.json"),
            "--lambda-min", "1", "--lambda-max", "4", "--steps", "13",
            "--output", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for lam_s, val_s, _ in rows:
            lam = float(lam_s)
            if lam < 2.0 - 1e-9:
                assert val_s == "inf"
            else:
                assert math.isfinite(float(val_s))
        # blue case: infinite below and exactly at lambda = ||D||
        out = tmp_path / "blue.csv"
        code = cli_main([
            "curve", str(FIXTURES / "fig_trust_blue.json"),
            "--lambda-min", "1", "--lambda-max", "4", "--steps", "13",
            "--output", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for lam_s, val_s, _ in rows:
            lam = float(lam_s)
            if lam <= 2.0 + 1e-9:
                assert val_s == "inf"
            else:
                assert math.isfinite(float(val_s))
