"""Chebyshev-type polynomials S_k and exact distinct-root counting.

S_0 = 1, S_1 = t, S_{k+1} = t*S_k - S_{k-1} for all integers k, extended
to negative indices by S_{-k} = -S_{k-2}.  Every closed form of the link
polynomials, and the power identity of the trace engine, is a combination
u S_k(tau) - v S_{k-1}(tau); cheb_comb evaluates one by a single
substitution, so neither S_k(tau) is expanded.  The S_k drive the
component counts too.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomials import NEG_INF, PolyRing, poly_gcd

T_RING = PolyRing(("t",))
T = T_RING.var("t")

_COMB_RING = PolyRing(("t", "u", "v"))


@lru_cache(maxsize=None)
def cheb(k):
    """S_k(t) for any integer k, memoized.

    The memo only ever stores the (immutable) result for an index, so
    concurrent callers observe identical values.
    """
    if k < -1:
        return -cheb(-k - 2)
    s_prev, s = T_RING.zero(), T_RING.one()  # S_{-1}, S_0
    for _ in range(k + 1):
        s_prev, s = s, T * s - s_prev
    return s_prev


def cheb_at(k, value):
    """S_k evaluated at an arbitrary polynomial, in that polynomial's ring."""
    return cheb(k).map_values({"t": value}, value.ring)


@lru_cache(maxsize=None)
def _comb(k):
    """u S_k(t) - v S_{k-1}(t) in Z[t, u, v]."""
    u, v = _COMB_RING.var("u"), _COMB_RING.var("v")
    return u * cheb(k).cast(_COMB_RING) - v * cheb(k - 1).cast(_COMB_RING)


def cheb_comb(k, tau, u, v):
    """u S_k(tau) - v S_{k-1}(tau) in tau's ring; u and v are ints or polynomials there."""
    return _comb(k).map_values({"t": tau, "u": u, "v": v}, tau.ring)


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
