"""A 40-digit reference for the sphere trust region and the games built
on it, in mpmath.  The float data are taken as exact.

``trust_region(D, d)`` solves max 1/2 w'Dw + d'w over w'w = 1 for PSD D.
``mpmath.eigsy`` at ``DIGITS`` digits gives D = Q diag(s) Q' and r = Q'd.
The hard case (r vanishes on the top eigenspace and the response
pinv(s_max I - D) d has norm at most 1) is decided at that precision, so
float rounding never counts as zero.  Otherwise the multiplier is the
root of sum r_i^2 / (lam - s_i)^2 = 1 above s_max, found by bisection on
(s_max, s_max + ||r||], where the sum falls from above 1 to at most 1.
The value is lam/2 + 1/2 sum r_i^2 / (lam - s_i) over the terms with
s_i < lam.

The games reduce to that trust region on the Schur complement of a
nonempty M11: with X = pinv(M11) [M12, d1], S = M22 - M12' X12,
r = d2 - M12' x1 and c0 = 1/2 d1' x1, and with
phi(lam) = lam/2 - c0 + 1/2 sum r_i^2 / (lam - s_i) over the
eigenpairs of S,
- ``sphere_game`` gives MAXMIN at the trust-region multiplier lam_TR of
  (S, r), with value phi(lam_TR), and MINMAX at
  lam0 = max(||M22||, lam_TR), with value phi(lam0);
- ``lambda_family`` gives the two values of the lambda family, phi(lam)
  where finite: maxmin above ||S||, minmax above ||M22||.
pinv(M11) drops the eigenvalues of M11 within ``ZERO`` of zero, so M11
must be full rank with a moderate condition number, or exactly singular
(a float matrix that is singular only to rounding is full rank here).

``pinv_problem(M, d)`` is the reference for ``minimize`` (PSD M) and
``solve_saddle`` (M11 >= 0, M22 <= 0): the stationary set
-pinv(M) d + null(M) and the value -1/2 d' pinv(M) d, or None when d
has a part outside R(M); the same rule on ``ZERO`` decides the rank of
M and that range test, so M obeys the same condition as M11.

The tests import this module behind ``pytest.importorskip("mpmath")``.
"""

import mpmath

DIGITS = 40
# A 40-digit quantity within this of zero, relative to ||D|| + ||d||,
# is zero: far above the rounding of the 40-digit arithmetic and far
# below float rounding of the data (about 1e-16).
ZERO = mpmath.mpf("1e-30")
# 200 halvings resolve the multiplier to 2^-200 ||r||, past 40 digits.
BISECTIONS = 200


def _eig(rows):
    """Eigenvalues and eigenvectors of the symmetric matrix ``rows``."""
    e, q = mpmath.eigsy(mpmath.matrix(rows))
    return [e[i] for i in range(len(rows))], q


def _coords(q, v):
    """Q'v for the eigenvector matrix Q."""
    return [mpmath.fsum(q[j, i] * v[j] for j in range(len(v))) for i in range(len(v))]


def _dual(lam, terms):
    """lam/2 + 1/2 sum r_i^2 / (lam - s_i) over the (r_i, s_i) ``terms``."""
    return lam / 2 + mpmath.fsum(ri**2 / (lam - si) for ri, si in terms) / 2


def _trust_region(s, r):
    """(value, multiplier) of the trust region with eigenvalues s and r = Q'd."""
    zero = ZERO * (max(abs(x) for x in s) + mpmath.norm(r))
    smax = max(s)
    top = [smax - x <= zero for x in s]
    rest = [(ri, si) for ri, si, t in zip(r, s, top) if not t]
    hard = all(abs(ri) <= zero for ri, t in zip(r, top) if t) and (
        mpmath.fsum((ri / (smax - si)) ** 2 for ri, si in rest) <= 1
    )
    if hard:
        return _dual(smax, rest), smax
    lo, hi = smax, smax + mpmath.norm(r)
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        if mpmath.fsum((ri / (mid - si)) ** 2 for ri, si in zip(r, s)) > 1:
            lo = mid
        else:
            hi = mid
    return _dual(hi, zip(r, s)), hi


def trust_region(d_mat, d_vec) -> tuple[float, float]:
    """(value, multiplier) of the trust region (D, d), rounded to float."""
    with mpmath.workdps(DIGITS):
        s, q = _eig(d_mat.tolist())
        value, lam = _trust_region(s, _coords(q, d_vec.tolist()))
        return float(value), float(lam)


def _reduce(pq):
    """The Schur reduction of a game with a nonempty M11: the eigenvalues
    s of S, r in S's eigenbasis, c0 and ||M22||."""
    p, n = pq.u_dim, pq.w_dim
    m12, m22 = pq.m12.tolist(), pq.m22.tolist()
    d1, d2 = pq.d1.tolist(), pq.d2.tolist()
    e, q = _eig(pq.m11.tolist())
    zero = ZERO * max(abs(x) for x in e)
    inv = [1 / x if abs(x) > zero else 0 for x in e]
    # X = Q diag(inv) Q' [M12, d1], one column at a time.
    x = []
    for col in [[row[j] for row in m12] for j in range(n)] + [d1]:
        y = [inv[i] * yi for i, yi in enumerate(_coords(q, col))]
        x.append([mpmath.fsum(q[k, i] * y[i] for i in range(p)) for k in range(p)])
    g = [[mpmath.fsum(m12[k][a] * xj[k] for k in range(p)) for xj in x] for a in range(n)]
    schur = [[m22[a][b] - (g[a][b] + g[b][a]) / 2 for b in range(n)] for a in range(n)]
    s, qs = _eig(schur)
    r = _coords(qs, [d2[a] - g[a][n] for a in range(n)])
    c0 = mpmath.fsum(d1[k] * x[n][k] for k in range(p)) / 2
    return s, r, c0, max(_eig(m22)[0])


def pinv_problem(m, d) -> tuple[float, list[float], int] | None:
    """(-1/2 d' pinv(M) d, -pinv(M) d, dim null(M)) for symmetric M,
    rounded to float; None when the part of d on null(M) exceeds
    ``ZERO`` ||d||."""
    with mpmath.workdps(DIGITS):
        e, q = _eig(m.tolist())
        zero = ZERO * max(abs(x) for x in e)
        kept = [abs(x) > zero for x in e]
        y = _coords(q, d.tolist())
        outside = mpmath.norm([yi for yi, k in zip(y, kept) if not k] or [0])
        if outside > ZERO * mpmath.norm(d.tolist()):
            return None
        z = [yi / x if k else 0 for yi, x, k in zip(y, e, kept)]
        x = [mpmath.fsum(q[j, i] * z[i] for i in range(len(z))) for j in range(len(z))]
        value = -mpmath.fsum(di * xi for di, xi in zip(d.tolist(), x)) / 2
        return float(value), [-float(xi) for xi in x], len(e) - sum(kept)


def sphere_game(pq, minmax: bool) -> tuple[float, float]:
    """(value, lambda0) of the MINMAX (``minmax``) or MAXMIN sphere game,
    rounded to float.  d1 must lie in R(M11)."""
    with mpmath.workdps(DIGITS):
        s, r, c0, norm22 = _reduce(pq)
        value, lam = _trust_region(s, r)
        if minmax and norm22 > lam:
            value, lam = _dual(norm22, zip(r, s)), norm22
        return float(value - c0), float(lam)


def lambda_family(pq, lam) -> tuple[float | None, float | None]:
    """(minmax, maxmin) values of the lambda family at ``lam``, rounded to
    float, None where infinite.  d1 must lie in R(M11), and lam must not
    be a threshold (||S|| or ||M22||)."""
    with mpmath.workdps(DIGITS):
        s, r, c0, norm22 = _reduce(pq)
        value = float(_dual(mpmath.mpf(lam), zip(r, s)) - c0) if lam > max(s) else None
        return (value if lam > norm22 else None), value
