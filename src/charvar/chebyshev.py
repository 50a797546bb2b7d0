"""Chebyshev-type polynomials S_k and exact distinct-root counting.

S_0 = 1, S_1 = t, S_{k+1} = t*S_k - S_{k-1} for all integers k, extended
to negative indices by S_{-k} = -S_{k-2}.  These drive both the closed
forms of the link polynomials and the component counts.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomials import NEG_INF, PolyRing, poly_gcd

T_RING = PolyRing(("t",))
T = T_RING.var("t")


@lru_cache(maxsize=None)
def cheb(k):
    """S_k(t) for any integer k, memoized.

    The memo only ever stores the (immutable) result for an index, so
    concurrent callers observe identical values.
    """
    return cheb_at(k, T)


def cheb_at(k, value):
    """S_k evaluated at an arbitrary polynomial, in that polynomial's ring."""
    ring = value.ring
    if k == -1:
        return ring.zero()
    if k < -1:
        return -cheb_at(-k - 2, value)
    s_prev, s = ring.one(), value  # S_0, S_1
    if k == 0:
        return s_prev
    for _ in range(k - 1):
        s_prev, s = s, value * s - s_prev
    return s


def cheb_diff(k):
    """S_k(t) - S_{k-1}(t)."""
    return cheb(k) - cheb(k - 1)


def distinct_root_count(p):
    """Number of distinct complex roots of a univariate polynomial.

    Exact: deg(p) - deg(gcd(p, p')), no floating point.  The zero
    polynomial is rejected; constants have no roots.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    occurring = p.variables()
    if len(occurring) > 1:
        raise ValueError("polynomial is not univariate: %r" % (occurring,))
    if not occurring:
        return 0
    v = occurring[0]
    g = poly_gcd(p, p.derivative(v))
    gd = g.degree_in(v)
    if gd is NEG_INF:
        gd = 0
    return p.degree_in(v) - gd
