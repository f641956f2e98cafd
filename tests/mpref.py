"""A 40-digit reference for the sphere trust region, in mpmath.

``trust_region(D, d)`` solves max 1/2 w'Dw + d'w over w'w = 1 for PSD D
and takes the float data as exact.  ``mpmath.eigsy`` at ``DIGITS``
digits gives D = Q diag(s) Q' and r = Q'd.  The hard case (r vanishes
on the top eigenspace and the response pinv(s_max I - D) d has norm at
most 1) is decided at that precision, so float rounding never counts
as zero.  Otherwise the multiplier is the root of
sum r_i^2 / (lam - s_i)^2 = 1 above s_max, found by bisection on
(s_max, s_max + ||r||], where the sum falls from above 1 to at most 1.
The value is lam/2 + 1/2 sum r_i^2 / (lam - s_i) over the terms with
s_i < lam.  The tests import it behind ``pytest.importorskip("mpmath")``.
"""

import mpmath

DIGITS = 40
# A 40-digit quantity within this of zero, relative to ||D|| + ||d||,
# is zero: far above the rounding of the 40-digit arithmetic and far
# below float rounding of the data (about 1e-16).
ZERO = mpmath.mpf("1e-30")
# 200 halvings resolve the multiplier to 2^-200 ||r||, past 40 digits.
BISECTIONS = 200


def trust_region(d_mat, d_vec) -> tuple[float, float]:
    """(value, multiplier) of the trust region (D, d), rounded to float."""
    n = len(d_vec)
    with mpmath.workdps(DIGITS):
        e, q = mpmath.eigsy(mpmath.matrix(d_mat.tolist()))
        s = [e[i] for i in range(n)]
        r = [mpmath.fsum(q[j, i] * d_vec[j] for j in range(n)) for i in range(n)]
        zero = ZERO * (max(abs(x) for x in s) + mpmath.norm(r))
        smax = max(s)
        top = [smax - x <= zero for x in s]
        rest = [(ri, si) for ri, si, t in zip(r, s, top) if not t]
        hard = all(abs(ri) <= zero for ri, t in zip(r, top) if t) and (
            mpmath.fsum((ri / (smax - si)) ** 2 for ri, si in rest) <= 1
        )
        if hard:
            lam, terms = smax, rest
        else:
            lo, hi = smax, smax + mpmath.norm(r)
            for _ in range(BISECTIONS):
                mid = (lo + hi) / 2
                if mpmath.fsum((ri / (mid - si)) ** 2 for ri, si in zip(r, s)) > 1:
                    lo = mid
                else:
                    hi = mid
            lam, terms = hi, list(zip(r, s))
        value = lam / 2 + mpmath.fsum(ri**2 / (lam - si) for ri, si in terms) / 2
        return float(value), float(lam)
