import json

import numpy as np
import pytest

from quadgames import (
    Direction,
    PartitionedQuadratic,
    QuadraticForm,
    duality_report,
    maxmin_threshold,
    minmax_threshold,
    minimize,
    solve_linear_term,
    solve_saddle,
    solve_trust_region,
)
from quadgames import cli
from quadgames.oracle import OracleConfig, grid_minmax, infinite_maxmin, lagrangian_bracket

from util import (
    hard_case_instance, ill_conditioned_maxmin, random_psd, random_saddle_instance
)

pytest.importorskip("mpmath")
import mpref  # noqa: E402


def trust_regions(rng):
    """50 random trust regions of dimension 1-4 at scales 1e-8..1e8, the
    last 10 with d in R(D - ||D|| I) up to rounding and a response norm
    at ||D|| within 1e-8..1e-1 of 1, on either side."""
    for i in range(50):
        c = 10.0 ** rng.uniform(-8.0, 8.0)
        if i < 40:
            n = int(rng.integers(1, 5))
            rank = int(rng.integers(0, n + 1))
            yield c * random_psd(rng, n, rank), c * rng.standard_normal(n)
        else:
            norm = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -1.0)
            d_mat, d_vec = hard_case_instance(rng, int(rng.integers(2, 5)), norm)
            yield c * d_mat, c * d_vec


# Exact hard cases (response norm 0.5 and 1 at ||D|| = 2) and an exact
# easy case with d in R(D - ||D|| I) (norm 3), where r_top is 0 in 40
# digits too.
EXACT = [
    (np.diag([2.0, 1.0]), np.array([0.0, 0.5])),
    (np.diag([2.0, 1.0]), np.array([0.0, 1.0])),
    (np.diag([2.0, 2.0, 1.0]), np.array([0.0, 0.0, 0.5])),
    (np.diag([2.0, 1.0]), np.array([0.0, 3.0])),
]


def test_trust_region_matches_the_40_digit_reference():
    # The reference decides the hard case in 40 digits, where the data's
    # float rounding is not zero; the solver's tolerance must not move
    # the value or the multiplier past rounding.
    exact = [(c * m, c * v) for m, v in EXACT for c in (1e-8, 1.0, 1e8)]
    for d_mat, d_vec in [*trust_regions(np.random.default_rng(101)), *exact]:
        sol = solve_trust_region(d_mat, d_vec)
        value, lam = mpref.trust_region(d_mat, d_vec)
        assert sol.value == pytest.approx(value, rel=1e-10)
        assert sol.lambda_p == pytest.approx(lam, rel=1e-10)


# (rho, eps) rows where TOL's hard-case test reports lambda = 2c: the
# reference's multiplier is above it by 5.8e-10 relative (rho = 0.5, eps
# = 1e-9), and by 8.5e-10, 1.8e-8 and 4.0e-7 (rho = 1, eps = 1e-13, 1e-11
# and 1e-9), as the multiplier moves with the cube root of r_top there.
HARD_EDGE_MISSES = {(0.5, 1e-9), (1.0, 1e-13), (1.0, 1e-11), (1.0, 1e-9)}


def _hard_edge_params():
    for rho in (0.5, 1.0):
        for eps in (0.0, 1e-15, 1e-13, 1e-11, 1e-9):
            marks = pytest.mark.xfail(
                reason="ROADMAP item 1: Secular.of counts r_top = c eps as zero "
                "against TOL (||D|| + ||d||) and reports the boundary lambda = 2c",
                strict=True,
            ) if (rho, eps) in HARD_EDGE_MISSES else ()
            for c in (1e-8, 1.0, 1e8):
                yield pytest.param(rho, eps, c, marks=marks, id=f"rho{rho:g}-eps{eps:g}-c{c:g}")


@pytest.mark.parametrize("rho,eps,c", _hard_edge_params())
def test_trust_region_at_the_edge_of_the_hard_case_matches_the_40_digit_reference(rho, eps, c):
    # D = c diag(2, 1) and d = c (eps, rho): the top part of d is eps, and
    # the response norm at ||D|| = 2c is rho.  The reference decides the
    # branch; the multiplier must match it within 1e-10 relative and the
    # value within 1e-12, at every scale.
    d_mat, d_vec = c * np.diag([2.0, 1.0]), c * np.array([eps, rho])
    sol = solve_trust_region(d_mat, d_vec)
    value, lam = mpref.trust_region(d_mat, d_vec)
    assert abs(sol.lambda_p - lam) <= 1e-10 * abs(lam)
    assert abs(sol.value - value) <= 1e-12 * abs(value)


def _m11(rng, p, zeros):
    """M11 = Q diag(e) Q' with e in [1e-2, 1e2] (condition at most 1e4),
    or, when ``zeros``, diagonal with exact zeros where the mask is set:
    a float matrix singular only to rounding would be full rank in 40
    digits, with another pinv than the solver's."""
    e = 10.0 ** rng.uniform(-2.0, 2.0, p)
    if zeros is not None:
        return np.diag(np.where(zeros, 0.0, e))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    m = q @ np.diag(e) @ q.T
    return 0.5 * (m + m.T)


def games(rng):
    """40 desk games (p, n <= 3) with M >= 0 and d1 in R(M11), at scales
    1e-8..1e8: M22 = M12' pinv(M11) M12 + W with W >= 0 of random rank,
    so S is W to rounding; the first 10 have a diagonal M11 with exact
    zeros (M12 and d1 vanish on them), the last 10 M12 = 0 and (M22, d2)
    from ``hard_case_instance`` with a response norm at ||M22|| within
    1e-8..1 of 1, on either side."""
    for i in range(40):
        c = 10.0 ** rng.uniform(-8.0, 8.0)
        p, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        zeros = rng.uniform(size=p) < 0.5 if i < 10 else None
        m11 = _m11(rng, p, zeros)
        d1 = rng.standard_normal(p)
        if i < 30:
            m12 = rng.standard_normal((p, n))
            if zeros is not None:
                m12[zeros], d1[zeros] = 0.0, 0.0
            w = random_psd(rng, n, int(rng.integers(0, n + 1)))
            m22 = m12.T @ np.linalg.pinv(m11) @ m12 + w
            d2 = rng.standard_normal(n)
        else:
            n = int(rng.integers(2, 4))
            norm = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 0.0)
            m12 = np.zeros((p, n))
            m22, d2 = hard_case_instance(rng, n, norm)
        yield PartitionedQuadratic(c * m11, c * m12, c * (0.5 * (m22 + m22.T)), c * d1, c * d2)


def test_sphere_games_match_the_40_digit_reference():
    # MINMAX sits at ||M22|| where that exceeds the trust-region
    # multiplier of (S, r), and at the multiplier otherwise; both occur.
    above = set()
    for pq in games(np.random.default_rng(103)):
        lams = {}
        for direction in Direction:
            sol = solve_linear_term(pq, direction)
            value, lam = mpref.sphere_game(pq, direction is Direction.MINMAX)
            assert sol.value == pytest.approx(value, rel=1e-10)
            assert sol.lambda0 == pytest.approx(lam, rel=1e-10)
            lams[direction] = lam
        above.add(lams[Direction.MINMAX] > lams[Direction.MAXMIN])
    assert above == {False, True}


def flat_top_game(c):
    """S = diag(1, 1 - 9e-10), whose top eigenvalues lie within tol
    (about 1e-9) of each other, behind M12 = (sqrt(6.75e-10), 0), and
    r = (0, 1.5e-9), off the top range: the trust region on (S, r) is
    interior at 1 + 6e-10, below ||M22|| = 1 + 6.75e-10, where MINMAX
    sticks.  Every block and d2 are scaled by c."""
    return PartitionedQuadratic(
        c * np.eye(1), c * np.array([[np.sqrt(6.75e-10), 0.0]]),
        c * np.diag([1.0 + 6.75e-10, 1.0 - 9e-10]), np.zeros(1),
        c * np.array([0.0, 1.5e-9]),
    )


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_minmax_stuck_just_above_a_flat_top_matches_the_reference(c, tmp_path, capsys):
    # MINMAX takes the stationary point at ||M22|| without asking the
    # lambda family's finiteness rule, which calls ||M22|| infinite here
    # (next test): the solve has already put it at or above ||S||.
    pq = flat_top_game(c)
    value, lam = mpref.sphere_game(pq, minmax=True)
    assert (value, lam) == pytest.approx((0.5000000010517858 * c, 1.000000000675 * c))
    sol = solve_linear_term(pq, Direction.MINMAX)
    assert sol.lambda0 == minmax_threshold(pq)
    assert sol.lambda0 == pytest.approx(lam, rel=1e-12)
    assert sol.value == pytest.approx(value, rel=1e-12)
    path = tmp_path / "flat_top.json"
    path.write_text(json.dumps({
        "kind": "minmax", "M11": pq.m11.tolist(), "M12": pq.m12.tolist(),
        "M22": pq.m22.tolist(), "d1": pq.d1.tolist(), "d2": pq.d2.tolist(),
    }))
    assert cli.main(["solve", str(path)]) == 0
    assert cli.main(["check", str(path)]) == 0
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.xfail(
    reason="ROADMAP item 1: lambda0 = ||M22|| lies 6.75e-10 above ||S||, inside "
    "TOL's band, where Secular.finite wants r in the top range",
    strict=True,
)
@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_lambda_family_of_a_flat_top_at_its_minmax_multiplier(c):
    # The 40-digit maxmin at lambda0 is finite, 0.5000000010517858 c,
    # the sphere game's value (cor:conminmax); duality_report says
    # both_infinite.
    pq = flat_top_game(c)
    value, lam = mpref.sphere_game(pq, minmax=True)
    assert mpref.lambda_family(pq, lam)[1] == pytest.approx(value, rel=1e-15)
    assert duality_report(pq, lam).maxmin.value == pytest.approx(value, rel=1e-12)


def test_maxmin_with_a_small_top_term_beside_a_coupling_matches_the_reference():
    # S = diag(1, 0.9, 0.9, 0.9, 0.9) and r = (1.5e-9, 0.05, 0, 0, 0)
    # behind a u block: r_top is above TOL (||S||_2 + ||M12'X12||_F + ||r||)
    # = 1.05e-9, so it is live, as in the trust region on (S, r).  Sized
    # by ||M22||_F + ||M12'X12||_F + ||r|| (2.1e-9) it would count as zero,
    # with the boundary lambda0 = 1.
    m12 = 0.01 * np.array([[1.0, -1.0, 0.5, 0.0, 2.0]])
    d1 = np.array([0.02])
    m22 = np.diag([1.0, 0.9, 0.9, 0.9, 0.9]) + m12.T @ m12 / 2.0
    d2 = np.array([1.5e-9, 0.05, 0.0, 0.0, 0.0]) + m12[0] * d1[0] / 2.0
    pq = PartitionedQuadratic(np.array([[2.0]]), m12, m22, d1, d2)
    sol = solve_linear_term(pq, Direction.MAXMIN)
    value, lam = mpref.sphere_game(pq, minmax=False)
    assert sol.diagnostics["mode"] == "interior" and sol.w_set.basis.shape[1] == 0
    assert sol.lambda0 == pytest.approx(lam, rel=1e-12)
    assert sol.value == pytest.approx(value, rel=1e-12)


def test_ill_conditioned_maxmin_matches_the_40_digit_reference():
    # The game whose check is a strict xfail in test_cli: kappa(M11) = 1e10
    # leaves 30 of the reference's 40 digits.  The value agrees to 3.7e-12
    # relative; lambda0 = ||S|| to 4.9e-10, the rounding of S, formed
    # through pinv(M11), whose forward error grows with kappa(M11).
    pq = ill_conditioned_maxmin()
    sol = solve_linear_term(pq, Direction.MAXMIN)
    value, lam = mpref.sphere_game(pq, minmax=False)
    assert sol.diagnostics["mode"] == "boundary"
    assert sol.value == pytest.approx(value, rel=1e-10)
    assert sol.lambda0 == pytest.approx(lam, rel=1e-9)


def test_lambda_family_matches_the_40_digit_reference():
    # Below ||S||, between the thresholds, and above ||M22||, at lambdas
    # at least 1e-6 ||M22|| away from either threshold.
    seen = set()
    for pq in games(np.random.default_rng(107)):
        norm_s, norm22 = maxmin_threshold(pq), minmax_threshold(pq)
        grid = [
            norm_s - 0.1 * norm22, norm_s + 1e-3 * norm22, 0.5 * (norm_s + norm22),
            norm22 * (1.0 + 1e-3), 2.0 * norm22,
        ]
        for lam in grid:
            if min(abs(lam - norm_s), abs(lam - norm22)) <= 1e-6 * norm22:
                continue
            report = duality_report(pq, lam)
            expected = mpref.lambda_family(pq, lam)
            for got, value in zip((report.minmax, report.maxmin), expected):
                assert got.finite is (value is not None)
                if value is not None:
                    assert got.value == pytest.approx(value, rel=1e-10)
            seen.add(report.status)
    assert seen == {"both_infinite", "infinite_gap", "strong_duality"}


def test_infinite_maxmin_refutes_a_finite_value_just_above_the_threshold():
    # At lambda = ||S|| + 1e-10 (||S|| + ||M||_F), inside the solvers'
    # threshold band of about 1e-9, the maxmin value is finite wherever
    # ||S|| or ||M|| is nonzero; the certificate, whose bounds are
    # rounding, passes an infinite answer only where the reference is
    # infinite (reading the solvers' tol, it passed 26 finite ones here).
    finite = 0
    for pq in games(np.random.default_rng(107)):
        s = maxmin_threshold(pq)
        lam = s + 1e-10 * (s + np.linalg.norm(pq.assembled()))
        expected = mpref.lambda_family(pq, lam)[1]
        assert infinite_maxmin(pq, lam)[2] == (expected is None), lam
        finite += expected is not None
    assert finite == 39


def _bracket_holds_the_reference(pq):
    """The cut oracle's bracket on the maxmin value is at most 1e-10 wide
    and, at every scale, as narrow as `check` asks (delta); it holds the
    reference within delta."""
    size = np.linalg.norm(pq.assembled()) + np.linalg.norm(pq.d)
    for t in (1e-3, 0.1, 1.0):
        lam = maxmin_threshold(pq) + t * size
        expected = mpref.lambda_family(pq, lam)[1]
        lower, upper = lagrangian_bracket(pq, lam)
        delta = 1e-8 * (size + abs(lam) + abs(expected))
        assert upper - lower <= min(delta, 1e-10 * (1.0 + abs(upper))), (lower, upper)
        assert lower - delta <= expected <= upper + delta, (lower, upper, expected)


def test_lagrangian_bracket_holds_the_40_digit_reference():
    # A w of 1 to 3 dimensions, and of none: each game again with its w
    # block dropped, where the value is lam/2 - 1/2 d1' pinv(M11) d1.
    seen = set()
    for game in games(np.random.default_rng(109)):
        empty = PartitionedQuadratic(
            game.m11, game.m12[:, :0], game.m22[:0, :0], game.d1, game.d2[:0]
        )
        for pq in (game, empty):
            _bracket_holds_the_reference(pq)
            seen.add(pq.w_dim)
    assert seen == {0, 1, 2, 3}


def wide_games(rng, n, count):
    """``count`` unit-scale games with an n-d w and a u of 1 to 3 built as
    the first 30 of ``games``: M >= 0, d1 in R(M11), and every other M11
    diagonal with exact zeros (rank-deficient where the mask is set)."""
    for i in range(count):
        p = int(rng.integers(1, 4))
        zeros = rng.uniform(size=p) < 0.5 if i % 2 else None
        m11 = _m11(rng, p, zeros)
        m12, d1 = rng.standard_normal((p, n)), rng.standard_normal(p)
        if zeros is not None:
            m12[zeros], d1[zeros] = 0.0, 0.0
        m22 = m12.T @ np.linalg.pinv(m11) @ m12
        m22 += random_psd(rng, n, int(rng.integers(0, n + 1)))
        yield PartitionedQuadratic(m11, m12, 0.5 * (m22 + m22.T), d1, rng.standard_normal(n))


def _scaled(pq, c):
    return PartitionedQuadratic(*(c * block for block in pq))


@pytest.mark.parametrize("n", [3, 4])
def test_lagrangian_bracket_holds_the_40_digit_reference_at_a_w_of_3_or_4(n):
    # Six games at scales 1e-4, 1e-2, 1, 1e2, 1e4 and 1e-4.
    for i, game in enumerate(wide_games(np.random.default_rng(110 + n), n, 6)):
        _bracket_holds_the_reference(_scaled(game, 10.0 ** (2 * (i % 5) - 4)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maxmin_oracle_holds_the_40_digit_reference(n):
    # The polished sphere search comes within the check's bound of the
    # MAXMIN value, relative to the data at every scale (5e-3 c, 1e-3 c
    # for 1 x 1 blocks), and never exceeds it by more than rounding: its
    # points lie on the sphere, and the inner minimum is exact.
    for game in wide_games(np.random.default_rng(120 + n), n, 6):
        bound = 1e-3 if max(game.u_dim, n) <= 1 else 5e-3
        for c in (1e-4, 1.0, 1e4):
            pq = _scaled(game, c)
            size = np.linalg.norm(pq.assembled()) + np.linalg.norm(pq.d)
            expected = mpref.sphere_game(pq, minmax=False)[0]
            value = grid_minmax(pq, OracleConfig(samples=20_000), Direction.MAXMIN)
            assert value <= expected + 1e-12 * size, (c, value, expected)
            assert expected - value <= bound * c, (c, value, expected)


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _integer_gram(rng, rows, n):
    """B'B for an integer rows x n matrix B with entries in -3..3: a PSD
    matrix that float arithmetic forms exactly, of rank below n when rows
    is, so it is singular in 40 digits too."""
    b = rng.integers(-3, 4, (rows, n)).astype(float)
    return b.T @ b, b


def convex_forms(rng):
    """40 desk forms (n <= 4): the first 20 rotated, Q diag(e) Q' with e in
    [1e-2, 1e2] at scales 1e-8..1e8; the last 20 exactly rank deficient,
    integer B'B of rank below n at scales 2^-26..2^26 (a power of two
    keeps them exact), half with d = D y in R(D) and half with a random
    d, whose part on null(D) makes the form unbounded below."""
    for i in range(40):
        n = int(rng.integers(1, 5))
        if i < 20:
            c = 10.0 ** rng.uniform(-8.0, 8.0)
            q = _orthogonal(rng, n)
            d_mat = q @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, n)) @ q.T
            d_vec = rng.standard_normal(n)
        else:
            c = 2.0 ** int(rng.integers(-26, 27))
            d_mat, _ = _integer_gram(rng, int(rng.integers(0, n)), n)
            if i % 2:
                d_vec = d_mat @ rng.integers(-3, 4, n).astype(float)
            else:
                d_vec = rng.standard_normal(n)
        yield QuadraticForm(c * (0.5 * (d_mat + d_mat.T)), c * d_vec, c * rng.standard_normal())


def saddle_games(rng):
    """40 desk saddle problems (p, n <= 3, M11 >= 0 >= M22): the first 20
    definite, with both blocks rotated, at scales 1e-8..1e8; the last 20
    from integer blocks M11 = B'B, M12 = B'E, M22 = -C'C, singular when
    B has fewer rows than columns, at scales 2^-26..2^26, half with
    d = M y in R(M) and half with a random d."""
    for i in range(40):
        p, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if i < 20:
            c = 10.0 ** rng.uniform(-8.0, 8.0)
            pq = random_saddle_instance(rng, p, n, definite=True)
            q1, q2 = _orthogonal(rng, p), _orthogonal(rng, n)
            m11, m22 = q1 @ pq.m11 @ q1.T, q2 @ pq.m22 @ q2.T
            blocks = (m11, q1 @ pq.m12 @ q2.T, m22, q1 @ pq.d1, q2 @ pq.d2)
        else:
            c = 2.0 ** int(rng.integers(-26, 27))
            m11, b = _integer_gram(rng, int(rng.integers(0, p + 1)), p)
            m12 = b.T @ rng.integers(-3, 4, (b.shape[0], n)).astype(float)
            m22 = -_integer_gram(rng, int(rng.integers(0, n + 1)), n)[0]
            m = np.block([[m11, m12], [m12.T, m22]])
            if i % 2:
                d = m @ rng.integers(-3, 4, p + n).astype(float)
            else:
                d = rng.standard_normal(p + n)
            blocks = (m11, m12, m22, d[:p], d[p:])
        m11, m12, m22, d1, d2 = (c * x for x in blocks)
        yield PartitionedQuadratic(0.5 * (m11 + m11.T), m12, 0.5 * (m22 + m22.T), d1, d2)


def _matches(points, value, expected):
    """An optimizer set and value against ``mpref.pinv_problem``: value
    and minimum-norm point within 1e-10 relative, and the same null
    space dimension."""
    ref_value, ref_point, null_dim = expected
    gap = np.linalg.norm(points.particular - np.array(ref_point))
    assert gap <= 1e-10 * np.linalg.norm(ref_point)
    assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
    assert points.dim == null_dim


def test_minimize_matches_the_40_digit_reference():
    # Both branches, bounded and unbounded below, are decided in 40
    # digits; the rank-deficient forms are singular there too.
    seen = set()
    for q in convex_forms(np.random.default_rng(109)):
        opt = minimize(q)
        expected = mpref.pinv_problem(q.hessian, q.linear)
        assert (opt is None) == (expected is None)
        if opt is not None:
            value, point, null_dim = expected
            _matches(opt.points, opt.value, (value + q.constant, point, null_dim))
            seen.add(null_dim > 0)
        else:
            seen.add(None)
    assert seen == {None, False, True}


@pytest.mark.parametrize("small", [
    pytest.param(1.5e-12, marks=pytest.mark.xfail(
        reason="ROADMAP items 11 and 12: linalg._split counts the eigenvalue "
        "1.5e-12 as zero against RANK_EPS sigma_max n = 2e-12, so solve calls "
        "a bounded form unbounded_below, and check, splitting D by the same "
        "rule, passes that",
        strict=True,
    )),
    2.1e-12,
], ids=["1.5e-12", "2.1e-12"])
def test_quad_min_with_a_small_eigenvalue_matches_the_40_digit_reference(small):
    # D = diag(1, small) and d = (0, 1) are positive definite in float,
    # with the minimum -1/(2 small) at (0, -1/small), and check passes it.
    prob = {"kind": "quad_min", "D": [[1.0, 0.0], [0.0, small]], "d": [0.0, 1.0]}
    value, point, _ = mpref.pinv_problem(np.array(prob["D"]), np.array(prob["d"]))
    data, doc, code = cli.solve_document(prob)
    assert code == 0, doc
    assert abs(doc["value"] - value) <= 1e-10 * abs(value)
    np.testing.assert_allclose(doc["minimizers"]["particular"], point, rtol=1e-10, atol=0.0)
    assert cli.KINDS["quad_min"].check(data, prob, doc, code, cli._oracle_config(prob))[2]


def test_solve_saddle_matches_the_40_digit_reference():
    seen = set()
    for pq in saddle_games(np.random.default_rng(113)):
        sol = solve_saddle(pq)
        expected = mpref.pinv_problem(pq.assembled(), pq.d)
        assert (sol is None) == (expected is None)
        if sol is not None:
            _matches(sol.solutions, sol.value, expected)
            seen.add(expected[2] > 0)
        else:
            seen.add(None)
    assert seen == {None, False, True}
