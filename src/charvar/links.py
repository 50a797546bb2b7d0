"""Link catalog: presentations and character polynomials.

Each link is presented as <a, b | a W = W a> by one word (relator_word):

  * two-bridge links b(2p, m), with the Riley word
    W = b^e1 a^e2 ... b^e(2p-1), e_j = (-1)^floor(m j / 2p);
  * (-2, 2m+1, 2n)-pretzel links, with pretzel_word(m, n) and the
    closed-form defining polynomial (gamma - 2) * Q(m, n);
  * k-twisted Whitehead links W_k = b(4k+4, 2k+1), with closed-form
    factor lists.

The defining polynomial is, up to sign, P_{a^-1 W a b^-1} - P_{W b^-1};
the trace engine computes a two-bridge link's along a W a^-1 b^-1, the
same polynomial for a palindrome.  The closed forms below are compared
against it in the verification layer.

The pretzel Q(m, n) is one Chebyshev sequence in n,
Q(m, n + 1) = alpha Q(m, n) - Q(m, n - 1) from Q(m, 1) = x1 and
Q(m, 0) = c, so pretzel_q keeps one row per (m, coordinates): alpha and
every Q(m, j) built so far, j over a range that contains 0 and 1.  A
new n costs one product by alpha per step beyond the row's end.  The
rows live as long as the process, and the certificate chains' two
coordinate rings keep their own.  pretzel_char_poly keeps nothing.
Over [-5, 5]^2 the rows raise the peak RSS of
`charvar verify 1 --m=-5..5 --n=-5..5` from 33.2 to 39.4 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .chebyshev import cheb_at, cheb_comb
from .polynomials import Polynomial
from .traces import GAMMA, X, Y, Z, parse_word, trace_poly, word_concat

REDUCIBLE_SURFACE = GAMMA - 2  # x^2 + y^2 + z^2 - xyz - 4


# -- link specifications -------------------------------------------------------


@dataclass(frozen=True)
class TwoBridge:
    p: int
    m: int

    def validate(self):
        if not (self.p > self.m > 0):
            raise ValueError("need p > m > 0, got (%d, %d)" % (self.p, self.m))
        if self.m % 2 == 0:
            raise ValueError("m must be odd, got %d" % self.m)
        if math.gcd(self.p, self.m) != 1:
            raise ValueError("p and m must be coprime, got (%d, %d)" % (self.p, self.m))

    def __str__(self):
        return "twobridge:%d,%d" % (self.p, self.m)


@dataclass(frozen=True)
class Pretzel:
    m: int
    n: int

    def __str__(self):
        return "pretzel:%d,%d" % (self.m, self.n)


@dataclass(frozen=True)
class TwistedWhitehead:
    k: int

    def validate(self):
        if self.k < 0:
            raise ValueError("twist count must be nonnegative, got %d" % self.k)

    def as_two_bridge(self):
        self.validate()
        return TwoBridge(2 * self.k + 2, 2 * self.k + 1)

    def __str__(self):
        return "whitehead:%d" % self.k


def parse_link(text):
    """Parse "twobridge:p,m", "pretzel:m,n" or "whitehead:k"."""
    try:
        kind, _, args = text.partition(":")
        parts = [int(s) for s in args.split(",")] if args else []
        if kind == "twobridge" and len(parts) == 2:
            spec = TwoBridge(*parts)
            spec.validate()
            return spec
        if kind == "pretzel" and len(parts) == 2:
            return Pretzel(*parts)
        if kind == "whitehead" and len(parts) == 1:
            spec = TwistedWhitehead(parts[0])
            spec.validate()
            return spec
    except ValueError as exc:
        raise ValueError("bad link %r: %s" % (text, exc)) from None
    raise ValueError("bad link %r" % text)


def as_two_bridge(link):
    if isinstance(link, TwoBridge):
        link.validate()
        return link
    if isinstance(link, TwistedWhitehead):
        return link.as_two_bridge()
    raise ValueError("not a two-bridge link: %r" % (link,))


# -- two-bridge words and polynomials -------------------------------------------


@lru_cache(maxsize=None)
def riley_word(p, m):
    """b^e1 a^e2 ... b^e(2p-1) with e_j = (-1)^floor(m j / 2p)."""
    TwoBridge(p, m).validate()
    out = []
    gen = "b"
    for j in range(1, 2 * p):
        eps = -1 if (m * j // (2 * p)) % 2 else 1
        out.append((gen, eps))
        gen = "a" if gen == "b" else "b"
    return tuple(out)


@dataclass(frozen=True)
class CharPoly:
    """A defining polynomial, with the nonabelian cofactor when known.

    full = (reducible surface factor) * nonabelian whenever the closed
    form provides the split; word-derived polynomials carry only `full`.
    """

    full: Polynomial
    nonabelian: Polynomial | None = None


@lru_cache(maxsize=None)
def char_poly_twobridge(p, m):
    """Word-derived defining polynomial P_{a w a^-1 b^-1} - P_{w b^-1}."""
    w = riley_word(p, m)
    full = _relator_difference(w, conjugate_by_inverse=False)
    return CharPoly(full=full)


def char_poly_variants(p, m):
    """Both conjugate variants of the word-derived polynomial.

    Returns (P_{a w a^-1 b^-1} - P_{w b^-1}, P_{a^-1 w a b^-1} - P_{w b^-1}),
    the first the memoised char_poly_twobridge(p, m).full.  A Riley word
    is a palindrome, so the second left word is a rotation of the reverse
    of the first, and the two are the same polynomial; the trace memo
    keys the two left words apart, so the second is computed.  Verification
    does not call this; it checks full itself by an exact fingerprint
    along the second pair of words (varieties.relator_fingerprint).
    """
    full = char_poly_twobridge(p, m).full
    return full, _relator_difference(riley_word(p, m), conjugate_by_inverse=True)


def relator_words(w, conjugate_by_inverse=False):
    """(a w a^-1 b^-1, w b^-1), or (a^-1 w a b^-1, w b^-1) for the conjugate variant."""
    if conjugate_by_inverse:
        left = word_concat((("a", -1),), w, (("a", 1), ("b", -1)))
    else:
        left = word_concat((("a", 1),), w, (("a", -1), ("b", -1)))
    return left, word_concat(w, (("b", -1),))


def _relator_difference(w, conjugate_by_inverse):
    left, right = relator_words(w, conjugate_by_inverse)
    return trace_poly(left) - trace_poly(right)


def pretzel_word(m, n):
    """W = b a w^(n-1) a b, w = (a b a b^-1)^(-m) a b a, the pretzel link's relator word.

    Found by a search on traces, not derived from a diagram; the tests check
    P_{a^-1 W a b^-1} - P_{W b^-1} = pretzel_char_poly(m, n).full on [-5, 5]^2.
    """
    return parse_word("ba ((abaB)^%d aba)^%d ab" % (-m, n - 1))


def relator_word(link):
    """W of the link's presentation <a, b | a W = W a>: Riley's word, or pretzel_word."""
    if isinstance(link, Pretzel):
        return pretzel_word(link.m, link.n)
    tb = as_two_bridge(link)
    return riley_word(tb.p, tb.m)


# -- pretzel closed form ---------------------------------------------------------


# the pretzel link's own coordinates (x1, y, beta) for the builders below
PRETZEL_COORDS = (X * Z - Y, Y, X * Y * Z + 2 - Y**2 - Z**2)


# one row per (m, x1, y, beta): (alpha, {j: Q(m, j)}), the j of each map a
# contiguous range that contains 0 and 1; filled only by pretzel_q
_q_rows = {}


def pretzel_q(m, n, x1, y, beta):
    """Q(m, n) in the coordinates (x1, y, beta), in the ring of its arguments.

    With alpha = y S_{m-1}(beta) - x1 S_{m-2}(beta) and
    c = S_m(beta) - S_{m-1}(beta), Q = x1 S_{n-1}(alpha) - c S_{n-2}(alpha),
    read from the row of (m, x1, y, beta) or extended to n along it.  The
    pretzel link's own coordinates are PRETZEL_COORDS.
    """
    key = (m, x1, y, beta)
    row = _q_rows.get(key)
    if row is None:
        alpha = cheb_comb(m - 1, beta, y, x1)
        row = _q_rows.setdefault(key, (alpha, {1: x1, 0: cheb_comb(m, beta, 1, 1)}))
    q = row[1].get(n)
    return q if q is not None else _extend_row(*row, n)


def _extend_row(alpha, qs, n):
    """Q(m, n) for n outside the row's range, storing every Q on the way.

    Going down, Q(m, j - 1) = alpha Q(m, j) - Q(m, j + 1) is the same
    step on the swapped pair.  Each value is stored only after the one
    before it, so the range stays contiguous, and a thread that finds a
    value stored keeps that one: concurrent extensions store equal values.
    It never calls pretzel_q, so a wrapper set over that name sees every
    Q once and none of its values enters a row.
    """
    step = 1 if n > 1 else -1
    j = n - step
    while j not in qs:
        j -= step
    a, b = qs[j], qs[j - step]
    # cheb_comb(1, alpha, a, b) = alpha a - b, one product in the packed kernel
    for j in range(j + step, n + step, step):
        a, b = qs.setdefault(j, cheb_comb(1, alpha, a, b)), a
    return a


def pretzel_r(m, x1, y, beta):
    """The n = -1 cofactor R(m) in the coordinates (x1, y, beta).

    R = y (S_m - S_{m-1}) - x1 (S_{m-1} - S_{m-2}) of beta, which
    S_{m-2} = beta S_{m-1} - S_m turns into one combination.
    """
    return cheb_comb(m, beta, y - x1, y + x1 - x1 * beta)


def pretzel_nonabelian(m, n):
    """Q with (gamma - 2) * Q the defining polynomial of the pretzel link."""
    return pretzel_q(m, n, *PRETZEL_COORDS)


def pretzel_char_poly(m, n):
    """Defining polynomial of the (-2, 2m+1, 2n)-pretzel link.

    Total in (m, n).  The (0, -1) case is the two-component unlink whose
    character variety is all of C^3; the formula then evaluates to the
    zero polynomial.
    """
    q = pretzel_nonabelian(m, n)
    return CharPoly(full=REDUCIBLE_SURFACE * q, nonabelian=q)


# -- closed forms for the two-bridge families ------------------------------------


def twobridge3_nonabelian(p):
    """Closed-form nonabelian factor Q_p for b(2p, 3).

    Requires p > 3 with p not divisible by 3, so p = 3n+1 or 3n+2.
    """
    if p <= 3:
        raise ValueError("need p > 3, got %d" % p)
    if p % 3 == 0:
        raise ValueError("p must not be divisible by 3, got %d" % p)
    n, r = divmod(p, 3)
    sn, sn1 = cheb_at(n, Z), cheb_at(n - 1, Z)
    # with s = S_{n-1}(z) for p = 3n+1 and s = S_n(z) for p = 3n+2:
    # Q_p = (x^2 + y^2) S_n S_{n-1} s - x y s (S_n^2 + S_{n-1}^2) + S_{p-1}(z)
    s = sn1 if r == 1 else sn
    return ((X * X + Y * Y) * (sn * sn1 * s) - X * Y * (s * (sn * sn + sn1 * sn1))
            + cheb_at(p - 1, Z))


def twisted_whitehead_factors(k):
    """(reducible factor, Chebyshev factor at gamma, nonabelian factor Q) for W_k.

    For k = 2n-1 the Chebyshev factor is S_{n-1} composed at gamma and
    Q = (xy - gamma z) S_{n-1}(gamma) - (xy - 2z) S_{n-2}(gamma); for
    k = 2n it is (S_n - S_{n-1}) composed at gamma and
    Q = z S_n(gamma) - (xy - z) S_{n-1}(gamma).
    """
    if k < 0:
        raise ValueError("twist count must be nonnegative, got %d" % k)
    g = GAMMA
    if k % 2:
        n = (k + 1) // 2
        cheb_factor = cheb_at(n - 1, g)
        q = cheb_comb(n - 1, g, X * Y - g * Z, X * Y - 2 * Z)
    else:
        n = k // 2
        cheb_factor = cheb_comb(n, g, 1, 1)
        q = cheb_comb(n, g, Z, X * Y - Z)
    return REDUCIBLE_SURFACE, cheb_factor, q


# -- block forms of the Whitehead-family Riley words (used by tests) -------------


def whitehead_block_word(k):
    """The Riley word of W_k written with repeated commutator blocks.

    k = 2n-1: (b a b^-1 a^-1)^n a (a^-1 b^-1 a b)^n
    k = 2n:   (b a b^-1 a^-1)^n b a b (a^-1 b^-1 a b)^n
    """
    blk = (("b", 1), ("a", 1), ("b", -1), ("a", -1))
    inv = (("a", -1), ("b", -1), ("a", 1), ("b", 1))
    if k % 2:
        n = (k + 1) // 2
        mid = (("a", 1),)
    else:
        n = k // 2
        mid = (("b", 1), ("a", 1), ("b", 1))
    return word_concat(blk * n, mid, inv * n)
