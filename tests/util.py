"""Shared random-instance generators and probes for the test suite."""

from collections import Counter

import numpy as np

from quadgames import PartitionedQuadratic
from quadgames.linalg import RANK_EPS


def random_psd(rng, n, rank=None, scale=1.0):
    """Random PSD matrix B'B with optional rank deficiency."""
    r = n if rank is None else rank
    b = rng.standard_normal((r, n)) * scale
    m = b.T @ b
    return 0.5 * (m + m.T)


def pinv(a):
    """Reference pseudoinverse with the library's rank rule: singular
    values up to RANK_EPS sigma_max max(rows, cols) count as zero."""
    return np.linalg.pinv(a, rtol=RANK_EPS * max(a.shape))


def rotation(theta):
    """The 2 x 2 rotation by ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def hard_case_instance(rng, n, norm):
    """D with top eigenvalue 2 (repeated when ``rng`` says so) and d in
    R(D - 2I) whose response pinv(D - 2I) d has norm ``norm``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(rng.uniform(0.0, 2.0, n))
    s[-1] = 2.0
    if n > 2 and rng.uniform() < 0.5:
        s[-2] = 2.0
    c = np.where(s < 2.0, rng.standard_normal(n), 0.0)
    if np.any(c):
        c *= norm / np.linalg.norm(c)
    d_mat = q @ np.diag(s) @ q.T
    return 0.5 * (d_mat + d_mat.T), q @ ((2.0 - s) * c)


def random_partitioned(rng, m, n, linear_scale=1.0):
    """PartitionedQuadratic whose assembled block matrix is PSD."""
    big = random_psd(rng, m + n)
    d1 = rng.standard_normal(m) * linear_scale
    d2 = rng.standard_normal(n) * linear_scale
    return PartitionedQuadratic(
        big[:m, :m], big[:m, m:], big[m:, m:], d1, d2
    )


def random_saddle_instance(rng, m, n, definite=False):
    """Instance with M11 >= 0, M22 <= 0, and d in the range of M."""
    eps = 0.1 if definite else 0.0
    m11 = random_psd(rng, m) + eps * np.eye(m)
    m22 = -(random_psd(rng, n) + eps * np.eye(n))
    m12 = rng.standard_normal((m, n))
    big = np.zeros((m + n, m + n))
    big[:m, :m] = m11
    big[:m, m:] = m12
    big[m:, :m] = m12.T
    big[m:, m:] = m22
    d = big @ rng.standard_normal(m + n)
    return PartitionedQuadratic(m11, m12, m22, d[:m], d[m:])


def count_factorizations(monkeypatch) -> Counter:
    """Count the numpy.linalg factorization calls made from here on."""
    counts = Counter()
    for name in ("svd", "eigh", "eigvalsh", "eigvals"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
