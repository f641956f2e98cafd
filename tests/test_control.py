"""One step of robust minmax control of a linear system, the application
the paper derives the sphere games for: min over u of max over ||w|| <= 1
of J = (Ax + Bu + Gw)'P(Ax + Bu + Gw) + u'Ru is a ``minmax`` game."""

import itertools

import numpy as np
import pytest

from quadgames import (
    Direction,
    OracleConfig,
    PartitionedQuadratic,
    QuadraticForm,
    grid_minmax,
    minimize,
    solve_linear_term,
)

A = np.array([[1.0, 0.1], [0.0, 1.0]])
B = np.array([[0.0], [0.1]])
G = 0.05 * np.eye(2)
P = np.diag([2.0, 1.0])
R = np.array([[0.1]])


def control_game(a, b, g, p, r, x) -> PartitionedQuadratic:
    """J/2 = V(u, w) + x'A'PAx/2 with M11 = B'PB + R, M12 = B'PG,
    M22 = G'PG, d1 = B'PAx and d2 = G'PAx.  M >= 0 by construction, and
    a convex V peaks over the ball on the sphere, so the sphere game is
    the ball game."""
    pax = p @ a @ x
    m11, m12, m22 = b.T @ p @ b + r, b.T @ p @ g, g.T @ p @ g
    return PartitionedQuadratic(m11, m12, m22, b.T @ pax, g.T @ pax)


def robust_cost(x):
    """J(x) = min over u of max over ||w|| <= 1 of J, and the solution."""
    sol = solve_linear_term(control_game(A, B, G, P, R, x), Direction.MINMAX)
    return 2.0 * sol.value + x @ A.T @ P @ A @ x, sol


def cost_at(x, w):
    """min over u of J at a fixed w; w = 0 is the nominal cost."""
    pq = control_game(A, B, G, P, R, x)
    inner = QuadraticForm(pq.m11, pq.m12 @ w + pq.d1, 0.5 * w @ pq.m22 @ w + w @ pq.d2)
    return 2.0 * minimize(inner).value + x @ A.T @ P @ A @ x


def test_robust_cost_bounds_the_nominal_and_every_fixed_disturbance():
    rng = np.random.default_rng(113)
    for x in [np.zeros(2), np.array([0.3, -2.0]), *rng.standard_normal((10, 2))]:
        robust, _ = robust_cost(x)
        tol = 1e-12 * (1.0 + robust)
        assert robust >= cost_at(x, np.zeros(2)) - tol
        for w in rng.standard_normal((20, 2)):
            assert robust >= cost_at(x, w / np.linalg.norm(w)) - tol


def test_robust_cost_at_the_origin_is_the_disturbance_gain():
    # No state to steer: u* = 0, and the worst w is a top eigenvector of
    # G'PG, so J(0) = ||G'PG|| = 0.0025 * 2 on the homogeneous branch.
    robust, sol = robust_cost(np.zeros(2))
    assert sol.diagnostics["mode"] == "homogeneous"
    assert robust == pytest.approx(np.linalg.norm(G.T @ P @ G, 2), rel=1e-12)
    assert robust == pytest.approx(0.005, rel=1e-12)
    np.testing.assert_allclose(sol.u_set.particular, [0.0], atol=1e-15)


def test_control_stays_continuous_along_a_ray_through_the_branch_switch():
    # Along x = t (-0.1, 1) the first entry of Ax is 0, so r vanishes on
    # the top eigenspace of S: the multiplier sticks at ||M22|| (boundary
    # branch) until the response norm passes 1, then leaves it (interior).
    ray = np.array([-0.1, 1.0])

    def along(t):
        robust, sol = robust_cost(t * ray)
        return robust, sol.u_set.particular[0], sol.diagnostics["mode"]

    jumps = []
    for k in (201, 401):
        rows = [along(t) for t in np.linspace(0.0, 2.0, k)]
        jumps.append(np.max(np.abs(np.diff([row[:2] for row in rows], axis=0)), axis=0))
        modes = [row[2] for row in rows]
        assert modes[0] == "homogeneous" and modes[-1] == "interior"
        assert "boundary" in modes
    # Halving the step halves the largest step between neighbours; a jump
    # would keep it.
    assert np.all(jumps[1] <= 0.6 * jumps[0])
    lo, hi = 1e-3, 2.0
    assert along(lo)[2] == "boundary"
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if along(mid)[2] == "boundary" else (lo, mid)
    np.testing.assert_allclose(along(lo)[:2], along(hi)[:2], rtol=0.0, atol=1e-9)


def test_robust_cost_agrees_with_the_grid_oracle():
    # The oracle takes the max over w on 2e4 circle points, so it lies
    # below the exact value by the circle's discretization (5.8e-10 here).
    x = np.array([0.3, -2.0])
    pq = control_game(A, B, G, P, R, x)
    sol = solve_linear_term(pq, Direction.MINMAX)
    oracle = grid_minmax(pq, OracleConfig(samples=20_000), Direction.MINMAX)
    assert 0.0 <= sol.value - oracle <= 1e-8


def test_robust_cost_matches_the_40_digit_reference():
    # J(x) = 2 V* + x'A'PAx, with V* the 40-digit MINMAX value of the
    # float game data, on a 5 x 5 grid of x through the origin.
    pytest.importorskip("mpmath")
    import mpref

    for x in itertools.product(np.linspace(-2.0, 2.0, 5), repeat=2):
        x = np.array(x)
        robust, _ = robust_cost(x)
        value, _ = mpref.sphere_game(control_game(A, B, G, P, R, x), minmax=True)
        assert robust == pytest.approx(2.0 * value + x @ A.T @ P @ A @ x, rel=1e-10)
