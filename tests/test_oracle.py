import numpy as np
import pytest

from quadgames import (
    Direction,
    OracleConfig,
    PartitionedQuadratic,
    QuadraticForm,
    fd_gradient,
    grid_minmax,
    sphere_max,
)
from quadgames.oracle import unit_samples


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(samples=0)
    with pytest.raises(ValueError):
        OracleConfig(grid_points=1)


def test_unit_samples_on_sphere():
    rng = np.random.default_rng(0)
    pts = unit_samples(rng, 500, 3)
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
        fresh = unit_samples(np.random.default_rng(1234), 2000, n)
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
    # The search box is an input of the MINMAX branch alone.
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, 0.5 * one, one, np.array([1.0]), np.array([2.0]))
    shapes = []

    def counted(a, *args, _real=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    grid_minmax(pq, OracleConfig(samples=100), Direction.MAXMIN)
    assert shapes == [(1, 1)]


def test_grid_minmax_deterministic():
    cfg = OracleConfig(seed=11, samples=500, grid_points=300)
    one = np.array([[1.0]])
    pq = PartitionedQuadratic(one, one, one, np.array([0.2]), np.array([-0.1]))
    a = grid_minmax(pq, cfg, Direction.MINMAX)
    b = grid_minmax(pq, cfg, Direction.MINMAX)
    assert a == b


def test_grid_minmax_dimension_limit():
    cfg = OracleConfig()
    pq = PartitionedQuadratic(
        np.eye(3), np.zeros((3, 1)), np.zeros((1, 1)), np.zeros(3), np.zeros(1)
    )
    with pytest.raises(ValueError):
        grid_minmax(pq, cfg, Direction.MINMAX)


def test_fd_gradient_examples():
    grad = fd_gradient(lambda x: float(x @ x), np.array([1.0, -2.0]), 1e-5)
    np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)
    grad = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]), 1e-5)
    np.testing.assert_allclose(grad, [1.0], atol=1e-8)
    grad = fd_gradient(lambda x: 3.0, np.array([0.5, 0.5]), 1e-5)
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)
