"""Chebyshev-type polynomials S_k and exact distinct-root counting.

S_0 = 1, S_1 = t, S_{k+1} = t*S_k - S_{k-1} for all integers k, extended
to negative indices by S_{-k} = -S_{k-2}.  Every closed form of the link
polynomials, and the power identity of the trace engine, is a combination
C_k = u S_k(tau) - v S_{k-1}(tau), and the C_k satisfy the same
recurrence C_{k+1} = tau C_k - C_{k-1} from (C_0, C_{-1}) = (u, v).
cheb_comb runs it on packed term maps, up or down, and keeps the last
pair it reached, so a call at a neighbouring index of the same
(tau, u, v), such as the r and r - 1 collapses of a relator's two words,
costs at most the steps between them.  The S_k drive the component
counts too.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomials import (
    _WIDE, NEG_INF, Polynomial, PolyRing, _packed_product, _sub_into, _width, poly_gcd,
)

T_RING = PolyRing(("t",))
T = T_RING.var("t")

# the last pair the recurrence reached, (tau, u, v, j, C_j, C_{j-1}); one
# tuple, rebound whole, so a reader sees one consistent pair
_pair = None


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
    return cheb_comb(k, value, 1, 0)


def _steps(k, j):
    """Recurrence steps from the pair (C_j, C_{j-1}) to C_k."""
    return k - j if k > j else max(j - 1 - k, 0)


def _in_ring(c, ring):
    """An int or polynomial coefficient as a polynomial of ring."""
    if isinstance(c, int):
        return ring.const(c)
    if c.ring != ring:
        raise ValueError("coefficient is not in tau's ring")
    return c


def cheb_comb(k, tau, u, v):
    """u S_k(tau) - v S_{k-1}(tau) in tau's ring; u and v are ints or polynomials there.

    Steps from (C_0, C_{-1}) = (u, v), or from the kept pair when its
    (tau, u, v) equals the call's and it is nearer to k, and stops as
    soon as k is a member of the pair, which is then kept.
    """
    global _pair
    ring = tau.ring
    pair = _pair
    if (pair is not None and _steps(k, pair[3]) < _steps(k, 0)
            and (pair[0] is tau or pair[0] == tau)
            and (pair[1] is u or pair[1] == u) and (pair[2] is v or pair[2] == v)):
        j, hi, lo = pair[3:]
    else:
        j, hi, lo = 0, _in_ring(u, ring), _in_ring(v, ring)
    steps = _steps(k, j)
    if not steps:
        return hi if k == j else lo
    # no exponent of any C_i on the way is above this
    top = max(hi._top, lo._top) + steps * tau._top
    if top >= _WIDE:  # as in __mul__: only an exact bound may widen the fields
        top = max(hi._exact_top(), lo._exact_top()) + steps * tau._exact_top()
    w = _width(top)
    t = tau._at(w)
    # going down, C_{i-1} = tau C_i - C_{i+1} is the same step on the swapped pair
    a, b = (hi._at(w), lo._at(w)) if k > j else (lo._at(w), hi._at(w))
    for _ in range(steps):
        # the smaller map is the outer loop, as in __mul__
        small, large = (t, a) if len(t) <= len(a) else (a, t)
        c = _packed_product(small.items(), large.items())
        _sub_into(c, b)
        a, b = c, a
    if k > j:
        hi, lo, j = Polynomial(ring, a, top), Polynomial(ring, b, top), k
    else:
        hi, lo, j = Polynomial(ring, b, top), Polynomial(ring, a, top), k + 1
    _pair = (tau, u, v, j, hi, lo)
    return hi if k == j else lo


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
