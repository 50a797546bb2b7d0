"""Chebyshev-type polynomials S_k and exact distinct-root counting.

S_0 = 1, S_1 = t, S_{k+1} = t*S_k - S_{k-1} for all integers k, extended
to negative indices by S_{-k} = -S_{k-2}.  Every closed form of the link
polynomials, and the power identity of the trace engine, is a combination
C_k = u S_k(tau) - v S_{k-1}(tau), and the C_k satisfy the same
recurrence C_{k+1} = tau C_k - C_{k-1} from (C_0, C_{-1}) = (u, v).
cheb_pair runs it on packed term maps, up or down, and returns the pair
(C_k, C_{k-1}) it ends on, so a caller that wants the neighbour, such as
the trace engine's r - 1 repeat of a collapsed block, gets it with no
product.  The module keeps no state.  The S_k drive the component
counts too.

A long ladder runs on rows in the last variable instead (Kronecker
substitution in that variable alone): tau, C_0 and C_{-1} are packed once
into maps from key >> w, the packed key without its last field, to one
int per row whose signed beta-bit digits are the row's coefficients in
the last variable, so a step multiplies and adds a few ints per row in
place of one dict update per pair of terms.  beta is the fewest bits
that hold +-M, for M_{j+1} = |tau|_1 M_j + M_{j-1} started from the
largest |coefficient| of u and of v, which bounds every coefficient of
every C_j; so reading the final pair's digits back is exact, with no
check and no fallback.  cheb_pair takes rows when steps * len(tau) *
(len(u) + len(v)) reaches ROW_LADDER_MIN, measured so that no ladder of
the benchmark's workloads slows: there the largest gamma ladders of W_8
to W_12 take rows, and the small-m pretzel row steps and the oracle
words' ladders do not.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomials import (
    _WIDE, NEG_INF, Polynomial, PolyRing, _packed_product, _sub_into, _width, poly_gcd,
)

T_RING = PolyRing(("t",))
T = T_RING.var("t")

# cheb_pair steps on rows once steps * len(tau) * (len(u) + len(v)) reaches
# this; below it packing and unpacking cost more than the rows save
ROW_LADDER_MIN = 3500


@lru_cache(maxsize=None)
def cheb(k):
    """S_k(t) for any integer k, memoized.

    The memo only ever stores the (immutable) result for an index, so
    concurrent callers observe identical values.
    """
    return cheb_at(k, T)


def cheb_at(k, value):
    """S_k evaluated at an arbitrary polynomial, in that polynomial's ring."""
    return cheb_comb(k, value, 1, 0)


def _in_ring(c, ring):
    """An int or polynomial coefficient as a polynomial of ring."""
    if isinstance(c, int):
        return ring.const(c)
    if c.ring != ring:
        raise ValueError("coefficient is not in tau's ring")
    return c


def cheb_comb(k, tau, u, v):
    """u S_k(tau) - v S_{k-1}(tau) in tau's ring; u and v are ints or polynomials there.

    |k| steps of the recurrence for k >= 0, |k + 1| for k < 0.
    """
    return cheb_pair(k, tau, u, v)[0] if k >= 0 else cheb_pair(k + 1, tau, u, v)[1]


def cheb_pair(k, tau, u, v):
    """(C_k, C_{k-1}) for C_j = u S_j(tau) - v S_{j-1}(tau), by |k| steps from (u, v)."""
    ring = tau.ring
    hi, lo = _in_ring(u, ring), _in_ring(v, ring)
    steps = abs(k)
    if not steps:
        return hi, lo
    # no exponent of any C_j on the way is above this
    top = max(hi._top, lo._top) + steps * tau._top
    if top >= _WIDE:  # as in __mul__: only an exact bound may widen the fields
        top = max(hi._exact_top(), lo._exact_top()) + steps * tau._exact_top()
    w = _width(top)
    t = tau._at(w)
    # going down, C_{j-1} = tau C_j - C_{j+1} is the same step on the swapped pair
    a, b = (hi._at(w), lo._at(w)) if k > 0 else (lo._at(w), hi._at(w))
    if steps * len(t) * (len(a) + len(b)) >= ROW_LADDER_MIN:
        a, b = _row_steps(steps, t, a, b, w)
    else:
        a, b = _steps(steps, t, a, b)
    a, b = Polynomial(ring, a, top), Polynomial(ring, b, top)
    return (a, b) if k > 0 else (b, a)


def _steps(steps, t, a, b):
    """The pair (a, b) -> (t a - b, a) taken steps times on packed maps (or on rows)."""
    for _ in range(steps):
        # the smaller map is the outer loop, as in __mul__
        small, large = (t, a) if len(t) <= len(a) else (a, t)
        c = _packed_product(small.items(), large.items())
        _sub_into(c, b)
        a, b = c, a
    return a, b


def _row_steps(steps, t, a, b, w):
    """_steps on rows in the last variable, for packed maps with w-bit fields.

    A row is its part of a member at last variable = 2**beta, a ring
    homomorphism, so only the pair the steps end on must fit the digits:
    M_j, from the largest |coefficient| of a and of b, bounds the
    coefficients of the j-th member, and beta bits hold +-M_j.
    """
    norm = sum(map(abs, t.values()))
    ma, mb = (max(map(abs, p.values()), default=0) for p in (a, b))
    for _ in range(steps):
        ma, mb = norm * ma + mb, ma
    beta = max(ma, mb).bit_length() + 1
    a, b = _steps(steps, _rows(t, w, beta), _rows(a, w, beta), _rows(b, w, beta))
    return _unrows(a, w, beta), _unrows(b, w, beta)


def _rows(packed, w, beta):
    """A packed map as rows: key >> w to the int sum of c << beta e, e the last field."""
    field = (1 << w) - 1
    rows = {}
    get = rows.get
    for key, c in packed.items():
        r = key >> w
        rows[r] = get(r, 0) + (c << beta * (key & field))
    return rows


def _unrows(rows, w, beta):
    """The packed map of rows whose digits are in [-2**(beta - 1), 2**(beta - 1)).

    half is added to every digit of a row first, so each digit is read
    with one shift and one mask, from the lowest.
    """
    mask = (1 << beta) - 1
    half = 1 << (beta - 1)
    biases = {}  # the int with half in each of its lowest L digits, by L
    packed = {}
    for r, n in rows.items():
        # no nonzero digit is above the L-th
        L = n.bit_length() // beta + 1
        bias = biases.get(L)
        if bias is None:
            bias = biases[L] = half * (((1 << beta * L) - 1) // mask)
        n += bias
        key = r << w
        for shift in range(0, beta * L, beta):
            d = ((n >> shift) & mask) - half
            if d:
                packed[key] = d
            key += 1
    return packed


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
