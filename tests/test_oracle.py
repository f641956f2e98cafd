import math
import tracemalloc

import numpy as np
import pytest

from quadgames import (
    Direction,
    OracleConfig,
    PartitionedQuadratic,
    QuadraticForm,
    duality_report,
    fd_gradient,
    grid_minmax,
    maxmin_threshold,
    minimize,
    oracle,
    solve_linear_term,
    solve_trust_region,
    sphere_max,
    verify_saddle,
)
from quadgames.game import schur_reduction
from quadgames.oracle import (
    BLOCK,
    _convex_min,
    _w_candidates,
    infinite_maxmin,
    lagrangian_bracket,
    off_range,
    sampled_min,
    unit_samples,
)

from util import count_factorizations, random_partitioned


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(samples=0)
    with pytest.raises(ValueError):
        OracleConfig(grid_points=1)
    with pytest.raises(ValueError):
        OracleConfig(seed=-1)
    for bad in ({"samples": 1.5}, {"samples": 2.0}, {"samples": True},
                {"seed": False}, {"seed": "1"}, {"grid_points": 2.5}):
        with pytest.raises(TypeError):
            OracleConfig(**bad)
    assert OracleConfig(seed=np.int64(3), samples=1, grid_points=2).seed == 3


def test_seeds_of_any_size_and_integer_type_draw():
    # Each integer >= 0 is a seed, whatever its type or size; equal
    # seeds draw alike and distinct seeds draw apart (the sampled
    # minimum of a convex form around a point off its minimizer reads
    # the draws).
    x0 = np.zeros(4)
    oracle_values = {}
    for seed in (0, 1, np.int64(1), np.uint64(2**64 - 1), 2**64 - 1, 2**64, 2**70):
        cfg = OracleConfig(seed=seed, samples=np.int64(50))
        _, oracle_value, _ = sampled_min(CONVEX_FORM._evaluate_rows, x0, cfg, 0.0, 1.0)
        oracle_values.setdefault(int(seed), set()).add(oracle_value)
    assert all(len(v) == 1 for v in oracle_values.values())
    assert len(set.union(*oracle_values.values())) == len(oracle_values) == 5


def test_unit_samples_on_sphere():
    pts = unit_samples(0, 3, 0, 500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_every_unit_sample_has_unit_norm(dim):
    # No Gaussian draw is zero, so no row is 0/0.
    pts = unit_samples(11, dim, 0, 100_000)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_max_examples():
    cfg = OracleConfig(seed=1, samples=5000)
    # pure linear objective: maximum ||d|| at d/||d||
    val, w = sphere_max(QuadraticForm(np.zeros((2, 2)), np.array([3.0, 4.0])), cfg)
    assert val == pytest.approx(5.0, abs=1e-6)
    np.testing.assert_allclose(w, [0.6, 0.8], atol=1e-4)
    # pure quadratic: maximum ||D|| / 2 along the top eigenvector
    val, w = sphere_max(QuadraticForm(np.diag([2.0, 1.0]), np.zeros(2)), cfg)
    assert val == pytest.approx(1.0, abs=1e-4)
    # mixed desk example
    val, _ = sphere_max(
        QuadraticForm(np.diag([2.0, 1.0]), np.array([0.0, 0.5])), cfg
    )
    assert val == pytest.approx(1.125, abs=1e-4)


def test_sphere_max_deterministic():
    cfg = OracleConfig(seed=42, samples=3000)
    q = QuadraticForm(np.diag([1.0, 3.0, 0.5]), np.array([0.1, -0.2, 0.4]))
    v1, w1 = sphere_max(q, cfg)
    v2, w2 = sphere_max(q, cfg)
    assert v1 == v2
    np.testing.assert_array_equal(w1, w2)


def test_sphere_max_never_exceeded_by_samples():
    rng = np.random.default_rng(5)
    cfg = OracleConfig(seed=9, samples=5000)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        b = rng.standard_normal((n, n))
        q = QuadraticForm(b.T @ b, rng.standard_normal(n))
        val, _ = sphere_max(q, cfg)
        fresh = unit_samples(1234, n, 0, 2000)
        sampled = (
            0.5 * np.einsum("ij,ij->i", fresh @ q.hessian, fresh)
            + fresh @ q.linear
        )
        assert val >= sampled.max() - 1e-6


def test_grid_minmax_examples():
    cfg = OracleConfig(seed=3, samples=2000, grid_points=2000)
    one = np.array([[1.0]])
    homogeneous = PartitionedQuadratic(one, one, one, np.zeros(1), np.zeros(1))
    assert grid_minmax(homogeneous, cfg, Direction.MINMAX) == pytest.approx(
        0.5, abs=1e-3
    )
    assert grid_minmax(homogeneous, cfg, Direction.MAXMIN) == pytest.approx(
        0.0, abs=1e-3
    )
    separable = PartitionedQuadratic(
        one, np.zeros((1, 1)), np.zeros((1, 1)),
        np.array([1.0]), np.array([2.0]),
    )
    assert grid_minmax(separable, cfg, Direction.MINMAX) == pytest.approx(
        1.5, abs=1e-3
    )


def test_grid_minmax_maxmin_factors_m11_only(monkeypatch):
    # The search box is an input of the MINMAX branch alone, and the
    # polish takes no step length: MAXMIN makes one eigh, of M11, and no
    # other factorization, for a 1-d w and for a 3-d one.
    one = np.array([[1.0]])
    wide = random_partitioned(np.random.default_rng(3), 2, 3)
    games = [
        PartitionedQuadratic(one, 0.5 * one, one, np.array([1.0]), np.array([2.0])),
        wide._replace(d1=wide.m11 @ np.array([0.5, -1.0])),
    ]
    for pq in games:
        counts = count_factorizations(monkeypatch)
        shapes = []

        def shaped(a, *args, _counted=np.linalg.eigh, **kwargs):
            shapes.append(np.shape(a))
            return _counted(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", shaped)
        grid_minmax(pq, OracleConfig(samples=100), Direction.MAXMIN)
        assert shapes == [pq.m11.shape] and counts == {"eigh": 1}
        monkeypatch.undo()


@pytest.mark.parametrize("dim", [1, 3])
def test_sphere_max_makes_no_factorization(monkeypatch, dim):
    # Neither the sampled start nor the power-step polish needs a
    # spectrum: no curvature bound, no step length.
    b = np.random.default_rng(dim).standard_normal((dim, dim))
    form = QuadraticForm(b @ b.T, np.ones(dim))
    counts = count_factorizations(monkeypatch)
    sphere_max(form, OracleConfig(samples=100))
    assert counts == {}


def test_grid_minmax_deterministic():
    cfg = OracleConfig(seed=11, samples=500, grid_points=300)
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, one, one, np.array([0.2]), np.array([-0.1]))
    a = grid_minmax(pq, cfg, Direction.MINMAX)
    b = grid_minmax(pq, cfg, Direction.MINMAX)
    assert a == b


def test_grid_minmax_dimension_limit():
    # MINMAX searches a u of up to 4 dimensions by cuts and reads a w of
    # up to 2 on a circle; MAXMIN solves the inner minimum over any u
    # exactly and samples a w of up to 4 on its sphere.
    cfg = OracleConfig(samples=100)
    wide_u = PartitionedQuadratic(
        np.eye(5), np.zeros((5, 1)), np.zeros((1, 1)), np.zeros(5), np.zeros(1)
    )
    with pytest.raises(ValueError):
        grid_minmax(wide_u, cfg, Direction.MINMAX)
    assert grid_minmax(wide_u, cfg, Direction.MAXMIN) == 0.0
    wide_w = PartitionedQuadratic(
        np.eye(1), np.zeros((1, 3)), np.diag([3.0, 2.0, 1.0]), np.zeros(1), np.zeros(3)
    )
    with pytest.raises(ValueError, match="w dimensions up to 2"):
        grid_minmax(wide_w, cfg, Direction.MINMAX)
    value = solve_linear_term(wide_w, Direction.MAXMIN).value
    assert grid_minmax(wide_w, cfg, Direction.MAXMIN) == pytest.approx(value, abs=1e-12)
    wider_w = PartitionedQuadratic(
        np.eye(1), np.zeros((1, 5)), np.eye(5), np.zeros(1), np.zeros(5)
    )
    for direction in Direction:
        with pytest.raises(ValueError, match="dimensions up to 4"):
            grid_minmax(wider_w, cfg, direction)


def test_minmax_grid_with_a_zero_u_block():
    # R(M11) = {0} leaves the cuts no u to search: the value is f(0), the
    # best of w = +-1 of w^2/2 + w, as the solver finds.
    z = np.zeros((1, 1))
    pq = PartitionedQuadratic(z, z, np.eye(1), np.zeros(1), np.ones(1))
    assert grid_minmax(pq, OracleConfig(), Direction.MINMAX) == 1.5
    assert solve_linear_term(pq, Direction.MINMAX).value == pytest.approx(1.5)
    # The cuts need the coupling inside R(M11); M12 = 1 is not.
    with pytest.raises(ValueError, match=r"R\(M12\) in R\(M11\)"):
        grid_minmax(pq._replace(m12=np.ones((1, 1))), OracleConfig(), Direction.MINMAX)
    # Only MAXMIN's sphere search reads a claimed w; MINMAX refuses one.
    with pytest.raises(ValueError, match="MINMAX oracle reads no claimed w"):
        grid_minmax(pq, OracleConfig(), Direction.MINMAX, np.ones(1))


def test_fd_gradient_examples():
    grad = fd_gradient(lambda x: float(x @ x), np.array([1.0, -2.0]), 1e-5)
    np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)
    grad = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]), 1e-5)
    np.testing.assert_allclose(grad, [1.0], atol=1e-8)
    grad = fd_gradient(lambda x: 3.0, np.array([0.5, 0.5]), 1e-5)
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)


# One problem per blocked oracle: a 4-d sphere maximum, the sampled
# minimum of ``check`` on a 4-d convex quadratic, a 2 x 2 saddle (a true
# saddle point and a refuted one) and a MAXMIN game with a 2-d w.
SPHERE_FORM = QuadraticForm(
    np.diag([1.0, 3.0, -0.5, 2.0]), np.array([0.1, -0.2, 0.4, 0.3])
)
CONVEX_FORM = QuadraticForm(
    np.diag([1.0, 2.0, 0.5, 4.0]), np.array([1.0, -1.0, 0.0, 2.0])
)
SADDLE_GAME = PartitionedQuadratic(
    np.eye(2), 0.3 * np.ones((2, 2)), -np.eye(2), np.array([0.5, 0.0]), np.zeros(2)
)
MAXMIN_GAME = PartitionedQuadratic(
    np.diag([2.0, 1.0]), np.array([[0.5, 0.2], [0.0, 1.0]]), np.diag([1.0, -0.5]),
    np.array([0.3, -0.1]), np.array([0.2, 0.4]),
)


def _random_data(seed: int):
    """A 5 x 4 least-squares objective with its center, and a 2 x 2
    MAXMIN game."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    x0 = rng.standard_normal(4)
    m = rng.standard_normal((2, 2))
    game = PartitionedQuadratic(
        m @ m.T, rng.standard_normal((2, 2)), np.diag([1.0, -0.5]),
        rng.standard_normal(2), rng.standard_normal(2),
    )
    return (lambda x: np.linalg.norm(x @ a.T - b, axis=1)), x0, game


def _blocked_oracles(samples: int) -> list:
    cfg = OracleConfig(seed=4, samples=samples)
    value, point = sphere_max(SPHERE_FORM, cfg)
    x0 = np.array([-1.0, 0.5, 0.0, -0.5])
    u, w = np.linalg.solve(SADDLE_GAME.assembled(), -SADDLE_GAME.d).reshape(2, 2)
    answers = [
        value,
        point.tolist(),
        sampled_min(CONVEX_FORM._evaluate_rows, x0, cfg, 0.0, 1.0),
        verify_saddle(SADDLE_GAME, u, w, samples=samples, seed=4),
        verify_saddle(SADDLE_GAME, u + 1.0, w, samples=samples, seed=4),
        grid_minmax(MAXMIN_GAME, cfg, Direction.MAXMIN),
    ]
    # On these draws a lone row evaluated by itself rounds differently
    # from the same row inside a taller block (numpy hands one-row
    # products to other BLAS routines), at 8 or 22 samples.
    for seed in (1, 159):
        objective, center, game = _random_data(seed)
        answers.append(sampled_min(objective, center, cfg, 0.0, 1.0))
        answers.append(grid_minmax(game, cfg, Direction.MAXMIN))
    return answers


@pytest.mark.parametrize("samples", [1, 6, 7, 8, 22])
def test_blocks_give_the_one_pass_answers(monkeypatch, samples):
    # Draws and evaluations made in blocks of 7 rows give exactly the
    # answers of the default block size, which holds every row at once.
    whole = _blocked_oracles(samples)
    monkeypatch.setattr("quadgames.oracle.BLOCK", 7)
    assert _blocked_oracles(samples) == whole


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("oracle", [
    lambda n: sphere_max(SPHERE_FORM, OracleConfig(samples=n)),
    lambda n: sampled_min(
        CONVEX_FORM._evaluate_rows, np.zeros(4), OracleConfig(samples=n), 0.0, 1.0
    ),
    lambda n: verify_saddle(SADDLE_GAME, np.zeros(2), np.zeros(2), samples=n),
    lambda n: grid_minmax(MAXMIN_GAME, OracleConfig(samples=n), Direction.MAXMIN),
], ids=["sphere_max", "sampled_min", "verify_saddle", "maxmin_grid"])
def test_blocked_oracle_memory_is_flat_in_samples(oracle):
    few, many = 4 * BLOCK, 40 * BLOCK
    oracle(few)  # first-call imports and caches stay out of the peaks
    assert _traced_peak(lambda: oracle(many)) <= _traced_peak(
        lambda: oracle(few)
    ) + 2**20


@pytest.mark.parametrize("c", [1e-12, 1e-3, 1.0, 1e8])
def test_maxmin_grid_feasibility_is_relative(c):
    # M11 u = -(M12 w + d1) asks u's null-space part to equal c w, so it
    # has no solution at any scale c and every inner minimum is -inf.
    pq = PartitionedQuadratic(
        c * np.diag([1.0, 0.0]), c * np.array([[0.0], [1.0]]), np.zeros((1, 1)),
        np.zeros(2), np.zeros(1),
    )
    assert grid_minmax(pq, OracleConfig(samples=100), Direction.MAXMIN) == -math.inf


def test_maxmin_grid_feasibility_reads_d_as_the_solvers_do():
    # d1 is rounding next to d2, so the solvers call the game bounded
    # (||P_null(M11) d1|| <= TOL ||d||); M12 = 0 leaves d1 alone in the
    # inner right-hand side, which must count as feasible too.
    pq = PartitionedQuadratic(
        np.zeros((1, 1)), np.zeros((1, 2)), np.diag([2.0, 1.0]),
        np.array([5e-16]), np.array([0.3, -0.4]),
    )
    value = solve_linear_term(pq, Direction.MAXMIN).value
    oracle = grid_minmax(pq, OracleConfig(samples=2000), Direction.MAXMIN)
    assert oracle == pytest.approx(value, abs=5e-3)


def _minmax_loop(pq, cfg):
    """Per-point reference for the MINMAX search of ``grid_minmax`` (1-d
    u): a u-grid over a box around the solution, refined by ternary
    search, with one inner maximum over the w candidates per point."""
    if pq.w_dim == 1:
        w_cand = np.array([[-1.0], [1.0]])
    else:
        theta = np.linspace(0.0, 2.0 * math.pi, max(cfg.samples, 4), endpoint=False)
        w_cand = np.column_stack([np.cos(theta), np.sin(theta)])
    quad_w = QuadraticForm(pq.m22, pq.d2)._evaluate_rows(w_cand)

    def outer(u):
        inner = float(np.max(quad_w + w_cand @ (pq.m12.T @ u)))
        return inner + float(0.5 * u @ pq.m11 @ u + u @ pq.d1)

    box = 2.0 * (1.0 + np.linalg.norm(np.linalg.pinv(pq.assembled()) @ pq.d))
    grid = np.linspace(-box, box, cfg.grid_points)
    best = int(np.argmin([outer(np.array([u])) for u in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    for _ in range(80):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if outer(np.array([a])) <= outer(np.array([b])):
            hi = b
        else:
            lo = a
    return outer(np.array([0.5 * (lo + hi)]))


def _bracket(pq, cfg):
    """``_convex_min`` over the w candidates of ``grid_minmax``."""
    n = pq.w_dim
    count = 2 if n == 1 else max(cfg.samples, 4)
    return _convex_min(pq, _w_candidates(n, count, 0, count))


def test_grid_minmax_matches_the_per_point_loop():
    # The cuts and the u-grid with its ternary refinement find the same
    # minimum over the same w candidates; any lower end of the bracket is
    # at most f at the loop's u.
    rng = np.random.default_rng(8)
    cfg = OracleConfig(seed=0, samples=500, grid_points=400)
    for trial in range(40):
        n = 1 + trial % 2
        m22 = rng.standard_normal((n, n))
        pq = PartitionedQuadratic(
            np.array([[abs(rng.standard_normal()) + 0.1]]), rng.standard_normal((1, n)),
            m22 + m22.T, rng.standard_normal(1), rng.standard_normal(n),
        )
        loop = _minmax_loop(pq, cfg)
        lower, upper = _bracket(pq, cfg)
        assert grid_minmax(pq, cfg, Direction.MINMAX) == upper
        assert abs(upper - loop) <= 1e-9 * (1.0 + abs(loop))
        assert lower <= loop + 1e-12 * (1.0 + abs(loop))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_minmax_bracket_holds_the_solver_value(m, n):
    # The candidates are points of the sphere, so the minimum over them
    # is at most the game value v; for a 1-d w the candidates +-1 are the
    # whole sphere, and the bracket closes on v.
    rng = np.random.default_rng(10 * m + n)
    cfg = OracleConfig(samples=2000)
    for k in range(-3, 4):
        pq = random_partitioned(rng, m, n)
        c = 10.0**k
        pq = PartitionedQuadratic(
            c * pq.m11, c * pq.m12, c * pq.m22, c * pq.d1, c * pq.d2
        )
        v = solve_linear_term(pq, Direction.MINMAX).value
        lower, upper = _bracket(pq, cfg)
        assert lower <= upper
        assert lower <= v + 1e-12 * (1.0 + abs(v))
        if n == 1:
            assert abs(upper - v) <= 1e-8 * (1.0 + abs(v))


@pytest.mark.parametrize("null_part", [0.0, 1e-3])
def test_minmax_bracket_with_a_singular_m11(null_part):
    # The cuts run over R(M11): with d1 in it f is constant along
    # null(M11); with a part of d1 off it f is unbounded below.
    pq = PartitionedQuadratic(
        np.diag([1.0, 0.0]), np.array([[0.5], [0.0]]), np.eye(1),
        np.array([0.3, null_part]), np.array([0.2]),
    )
    lower, upper = _bracket(pq, OracleConfig())
    if null_part:
        assert lower == upper == -math.inf
    else:
        v = solve_linear_term(pq, Direction.MINMAX).value
        assert lower <= v + 1e-12 and abs(upper - v) <= 1e-8 * (1.0 + abs(v))
    assert grid_minmax(pq, OracleConfig(), Direction.MINMAX) == upper


def test_lagrangian_bracket_with_an_empty_w_block():
    # R^0 holds one w, the empty one, so both ends of the bracket are
    # min over u of V(u) + lam/2: -0.125 + 0.5 here.
    pq = PartitionedQuadratic(
        np.eye(1), np.zeros((1, 0)), np.zeros((0, 0)), np.array([0.5]), np.zeros(0)
    )
    report = duality_report(pq, 1.0)
    assert report.status == "strong_duality"
    delta = 1e-8 * (1.0 + 0.5 + 1.0 + abs(report.value))
    for end in lagrangian_bracket(pq, 1.0):
        assert abs(end - report.value) <= delta


def test_sphere_oracle_caps_the_dimension():
    form = QuadraticForm(np.eye(5), np.full(5, 0.1))
    with pytest.raises(ValueError, match="sphere oracle supports dimensions up to 4"):
        sphere_max(form, OracleConfig(samples=10))


def test_the_0_sphere_is_not_polished(monkeypatch):
    # +-1 is the whole 0-sphere: a 1-d MAXMIN and a 1-d trust region
    # take the better of the two and call no gradient.
    def no_gradient(*args, **kwargs):
        raise AssertionError("the 0-sphere needs no polish")

    monkeypatch.setattr(oracle, "_inner_gradient", no_gradient)
    monkeypatch.setattr(QuadraticForm, "gradient", no_gradient)
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, 0.5 * one, one, np.array([1.0]), np.array([2.0]))
    value = grid_minmax(pq, OracleConfig(), Direction.MAXMIN)
    assert value == pq.evaluate([-1.5], [1.0])  # u* = -(M12 w + d1) / M11 at w = 1
    value, point = sphere_max(QuadraticForm(-one, np.array([0.5])), OracleConfig())
    assert (value, point.tolist()) == (0.0, [1.0])


def _skewed_unbounded(seed):
    """An unbounded quad_min of dimension 2..4 from ``default_rng(seed)``:
    D = Q diag(s) Q' with 1..n-1 eigenvalues in [1e6, 1e14], the rest 0,
    and a unit d, off R(D)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros(n)
    k = int(rng.integers(1, n))
    s[:k] = 10.0 ** rng.uniform(6, 14, k)
    d = rng.standard_normal(n)
    return (q * s) @ q.T, d / np.linalg.norm(d)


def test_off_range_certifies_skewed_unbounded_answers():
    # ||D|| / ||d|| up to 1e14: a step of 1e6 along -P d refuted 47 of
    # these 200 (seeds 1, 4, 7, ...), its rounding term in ||D|| beating
    # its drop of 1e6 ||P d||.  Reading ||P d|| itself needs no step.
    for seed in range(200):
        h, d = _skewed_unbounded(seed)
        assert minimize(QuadraticForm(h, d)) is None, seed
        assert off_range(h, d, np.linalg.norm(d))[2], seed
        assert not off_range(h, h @ d, np.linalg.norm(h @ d))[2], seed  # d in range


def test_infinite_maxmin_agrees_with_the_solver():
    # The certificate passes exactly where ``duality_report`` calls the
    # maxmin value infinite: below ||S||, at it with r on or off
    # R(S - ||S|| I), 1e-3 on either side, and above it, at scales
    # 1e-6..1e6 and with a rank-deficient M.
    rng = np.random.default_rng(2026)
    statuses = set()
    for k in range(200):
        p, n = (int(x) for x in rng.integers(1, 4, 2))
        a = rng.standard_normal((p + n, int(rng.integers(1, p + n + 1))))
        c = 10.0 ** rng.uniform(-6, 6)
        m = c * (a @ a.T)
        d1 = m[:p, :p] @ rng.standard_normal(p)  # bounded below
        pq = PartitionedQuadratic(m[:p, :p], m[:p, p:], m[p:, p:], d1, np.zeros(n))
        if k % 3 == 0:
            pq = pq._replace(d2=c * rng.standard_normal(n))
        elif k % 3 == 1:
            pq = pq._replace(d1=np.zeros(p))
        else:  # r = d2 - M12' x1 orthogonal to the top eigenvector of S
            red = schur_reduction(pq)
            r, top = c * rng.standard_normal(n), red.secular.q[:, -1]
            pq = pq._replace(d2=r - top * (top @ r) + pq.m12.T @ red.x1)
        s = maxmin_threshold(pq)
        for lam in (-c, s - 0.5 * (s + c), s - 1e-3 * (s + c), s,
                    s + 1e-3 * (s + c), s + 2.0 * (s + c)):
            report = duality_report(pq, lam)
            statuses.add(report.status)
            assert infinite_maxmin(pq, lam)[2] == (not report.maxmin.finite), (k, lam)
    assert statuses == {"both_infinite", "infinite_gap", "strong_duality"}


def _maxmin_games(seed):
    """A MAXMIN game from ``default_rng(seed)`` with a u of 1..3 and a w of
    2..4, M = aa' >= 0 with M11 of rank p - 1 and d1 in R(M11), and its
    hard-case copy: r = d2 - M12' pinv(M11) d1 zeroed on the top
    eigenvector of S, with the response pinv(||S|| I - S) r of norm 0.5."""
    rng = np.random.default_rng(seed)
    p, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    a = rng.standard_normal((p + n, p + n))
    a[:p] = rng.standard_normal((p, p - 1)) @ rng.standard_normal((p - 1, p + n))
    m = a @ a.T
    d = np.concatenate((m[:p, :p] @ rng.standard_normal(p), rng.standard_normal(n)))
    pq = PartitionedQuadratic(m[:p, :p], m[:p, p:], m[p:, p:], d[:p], d[p:])
    red = schur_reduction(pq)
    s, q = red.secular.s, red.secular.q
    c = rng.standard_normal(n)
    c[-1] = 0.0
    c *= 0.5 / np.linalg.norm(c)
    return pq, pq._replace(d2=q @ ((s[-1] - s) * c) + pq.m12.T @ red.x1)


def test_the_polish_converges_at_any_scale():
    # The power step reaches the solvers' values to rounding, near the
    # hard case too, and scaling the data by c scales the oracle value by
    # c.  A step damped by a curvature bound left trust-region gaps of up
    # to 1.5e-7 of ||D||_F + ||d|| (MAXMIN 1.5e-11), and scaling moved
    # its value by up to 1.2e-7 of the data (MAXMIN 1.9e-9).
    cfg = OracleConfig(samples=20000)
    for seed in range(40):  # the trust regions of the CLI tests
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2 + seed % 3, 2 + seed % 3))
        d_mat, d_vec = a @ a.T, rng.standard_normal(a.shape[0])
        size = np.linalg.norm(d_mat) + np.linalg.norm(d_vec)
        value = sphere_max(QuadraticForm(d_mat, d_vec), cfg)[0]
        solver = solve_trust_region(d_mat, d_vec).value
        assert abs(value - solver) <= 1e-10 * size, seed
        for c in (1e-8, 1e8):
            scaled = sphere_max(QuadraticForm(c * d_mat, c * d_vec), cfg)[0] / c
            assert abs(scaled - value) <= 1e-14 * size, (seed, c)
    for seed in range(48):
        for pq in _maxmin_games(seed):
            size = np.linalg.norm(pq.assembled()) + np.linalg.norm(pq.d)
            value = grid_minmax(pq, cfg, Direction.MAXMIN)
            solver = solve_linear_term(pq, Direction.MAXMIN).value
            assert abs(value - solver) <= 1e-12 * size, seed
            for c in (1e-8, 1e8):
                scaled = PartitionedQuadratic(*(c * x for x in pq))
                scaled = grid_minmax(scaled, cfg, Direction.MAXMIN) / c
                assert abs(scaled - value) <= 1e-14 * size, (seed, c)
