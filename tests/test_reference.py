import numpy as np
import pytest

from quadgames import solve_trust_region

from util import hard_case_instance, random_psd

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
