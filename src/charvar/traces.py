"""Trace polynomials of words in the rank-2 free group.

For a word u in generators a, b there is a unique polynomial P_u with
tr(rho(u)) = P_u(x, y, z) for every representation rho into SL2(C),
where x = tr rho(a), y = tr rho(b), z = tr rho(ab).  trace_poly first
collapses the longest-saving repeated block by the power identity

    tr(P B^r Q) = S_r(tr B) tr(PQ) - S_{r-1}(tr B) tr(P B^{-1} Q),

one chebyshev.cheb_pair, when that removes at least a quarter of the
word's weight, so that words like (ba)^n (b^-1 a^-1)^n ... reduce to a
handful of shorter words.  Every other nonempty word, single syllables
included, is walked once, left to right, in
Z[x, y, z]<1, a, b, ab>, the rank-4 algebra the Cayley-Hamilton
relations g^2 = tr(g) g - 1 and

    ab + ba = tr(a) b + tr(b) a + (tr(ab) - tr(a) tr(b))

make of the group ring (Horowitz, CPAM 1972; Goldman 2009): each
syllable g^e is S_{e-1}(tr g) g - S_{e-2}(tr g), one step by the 4x4
rows of that element, cached per (generator, exponent, field width).
The trace of p0 + p1 a + p2 b + p3 ab is 2 p0 + x p1 + y p2 + z p3, so
the walk, rotated to end on the heaviest syllable, takes that syllable
in one row, this trace row times its rows, and forms only the trace.

The memo holds one polynomial per symmetry class.  Its key,
canonical_form, covers rotations (conjugation) and the inverse.  A
word with every exponent negated has the same polynomial too, since
A^-1, B^-1 and A^-1 B^-1 = (BA)^-1 have traces x, y and z, so a computed
value is stored under that twin key as well; a lookup reads the word's
own key only.  The reverse of a word is the inverse of its negation, so
it is served from the memo: for a palindrome w, such as a Riley word,
a^-1 w a b^-1 is a rotation of the reverse of a w a^-1 b^-1.  A
collapse also stores the word with one repeat fewer, under its own key
only: cheb_pair ends on (tr(P B^r Q), tr(P B^(r-1) Q)), so a twisted
Whitehead link's second relator word w b^-1 is served with no block
search and no product.

Keys and the block search work on one-byte syllable codes: (g, e) with
0 < |e| < 64 is the byte 64 + e for a and 192 + e for b, so byte order
is the syllables' tuple order and negating every exponent is one
bytes.translate.  canonical_form compares the rotations that start at
the least byte as slices of the doubled code, and reduces a word as
syllables only when its generator bytes do not alternate around the
cycle, so the twin key (one translate of the key's code) and a kept
neighbour (reduced as it is built) are never reduced again.
_find_block takes the agreement of the doubled code with itself
shifted by L syllables from one int XOR.  A word with a syllable
|e| >= 64 takes the same steps on syllable tuples and small int codes.

trace_poly_oracle recomputes the same polynomial by multiplying explicit
SL2 matrices, with every b-letter scaled by c so that all entries are
polynomials in x, y, c, and rewriting the trace in z = c + 1/c.  It works
on term maps under packed-int exponent keys, one column pass per term of
each syllable's matrix power, which it multiplies from its own letter
matrices and caches per (generator, exponent, field width).  It too
ends on the heaviest syllable and forms only the diagonal sum of that
last product, then builds a single Polynomial; it shares only PolyRing,
Polynomial and free_reduce with the engine.

Words are tuples of (generator, exponent) syllables with generators in
{"a", "b"}, nonzero exponents, and distinct adjacent generators.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import eq, lshift

from .chebyshev import cheb, cheb_pair
from .polynomials import Polynomial, PolyRing, _packed_product, _width

RING = PolyRing(("x", "y", "z"))
X = RING.var("x")
Y = RING.var("y")
Z = RING.var("z")

GAMMA = X**2 + Y**2 + Z**2 - X * Y * Z - 2


# -- words -------------------------------------------------------------------


def free_reduce(syllables):
    """Merge adjacent same-generator syllables and drop zero exponents."""
    out = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if gen not in ("a", "b"):
            raise ValueError("unknown generator %r" % (gen,))
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def word_concat(*parts):
    combined = []
    for part in parts:
        combined.extend(part)
    return free_reduce(combined)


def word_inverse(word):
    return tuple([(gen, -exp) for gen, exp in reversed(word)])


def word_to_string(word):
    chunks = []
    for gen, exp in word:
        if exp == 1:
            chunks.append(gen)
        elif exp == -1:
            chunks.append(gen.upper())
        else:
            chunks.append("%s^%d" % (gen, exp))
    return " ".join(chunks)


def parse_word(text, max_weight=None):
    """Parse a word: lowercase = generator, uppercase = inverse.

    Supports optional ^k exponents (k a possibly negative integer) and
    parenthesized blocks like "(ba)^3".  Whitespace may separate
    syllables and blocks, but not an exponent from its generator or ")",
    and it may not split an exponent: "a ^2", "a^ 2", "(ab) ^2" and
    "a^- 2" raise ValueError.  The result is freely reduced.

    With max_weight set, a word whose weight (sum of |exponent|) is above
    it raises ValueError, and so does any parenthesized power whose own
    weight is.  A block is checked before it is repeated: for a nonempty
    reduced block w, both k and the weight of w are at most the weight of
    w^k, so a large k is refused without building the k copies.  Blocks
    nested deeper than the interpreter's recursion limit raise ValueError.
    """
    try:
        syllables, _ = _parse_chunk(text, 0, toplevel=True, max_weight=max_weight)
    except RecursionError:
        raise ValueError("parentheses nested too deeply") from None
    word = free_reduce(syllables)
    _check_weight(word, max_weight, "word")
    return word


def _check_weight(word, max_weight, what):
    if max_weight is not None:
        weight = sum(abs(e) for _, e in word)
        if weight > max_weight:
            raise ValueError("%s weight %d is above the limit of %d" % (what, weight, max_weight))


def _parse_chunk(text, i, toplevel, max_weight):
    out = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if toplevel:
                raise ValueError("unbalanced ')' at position %d" % i)
            return out, i
        if ch == "(":
            inner, j = _parse_chunk(text, i + 1, toplevel=False, max_weight=max_weight)
            if j >= n or text[j] != ")":
                raise ValueError("unbalanced '(' at position %d" % i)
            exp, i = _parse_exponent(text, j + 1)
            block = free_reduce(inner)
            if exp < 0:
                block, exp = word_inverse(block), -exp
            if max_weight is not None and block and exp:
                if exp > max_weight:
                    raise ValueError(
                        "block power ^%d is above the weight limit of %d" % (exp, max_weight)
                    )
                _check_weight(block, max_weight, "block")
                block = free_reduce(block * exp)
                _check_weight(block, max_weight, "block power")
                exp = 1
            out.extend(block * exp)
            continue
        if ch in "abAB":
            gen = ch.lower()
            sign = 1 if ch.islower() else -1
            exp, i = _parse_exponent(text, i + 1)
            out.append((gen, sign * exp))
            continue
        raise ValueError("unknown character %r at position %d" % (ch, i))
    if not toplevel:
        raise ValueError("unbalanced '('")
    return out, i


def _parse_exponent(text, i):
    if i >= len(text) or text[i] != "^":
        return 1, i
    i += 1
    j = i
    if j < len(text) and text[j] in "+-":
        j += 1
    start_digits = j
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == start_digits:
        raise ValueError("malformed exponent at position %d" % i)
    return int(text[i:j]), j


# -- canonical forms ----------------------------------------------------------


def cyclic_reduce(word):
    w = list(word)
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        gen = w[0][0]
        exp = w[0][1] + w[-1][1]
        w = w[1:-1]
        if exp:
            w.insert(0, (gen, exp))
    return tuple(w)


# One fixed byte per syllable (g, e) with 0 < |e| < 64: 64 + e for a and
# 192 + e for b, so byte order is the tuple order of the syllables.
_SYLLABLE = tuple(("ab"[c >> 7], c % 128 - 64) if c % 64 else None for c in range(256))
_CODE = {syllable: c for c, syllable in enumerate(_SYLLABLE) if syllable}
_NEGATE = bytes((c & 128) + 128 - (c & 127) if c % 64 else c for c in range(256))
_GENERATOR = bytes(c >> 7 for c in range(256))  # 0 for a, 1 for b
_AGREE = bytes([1] + [0] * 255)  # an XOR byte of 0 is an agreement


def _encode(word):
    """The word's one-byte code, or None if a syllable has none.

    A syllable given as a list, which free_reduce accepts, has none.
    """
    try:
        return bytes(map(_CODE.__getitem__, word))
    except (KeyError, TypeError):
        return None


def _least(w, inverse):
    """The least rotation of a cyclically reduced word and of its inverse.

    Both are one-byte codes or both are syllable tuples; the rotations
    compared are those that start at an occurrence of the least element.
    """
    if not w:
        return w
    n = len(w)
    best = None
    for c in (w, inverse):
        cc = c + c
        first = min(c)
        i = -1
        for _ in range(c.count(first)):
            i = c.index(first, i + 1)
            rot = cc[i : i + n]
            if best is None or rot < best:
                best = rot
    return best


def canonical_form(word):
    """Least representative among all rotations of the word and its inverse.

    Trace polynomials are invariant under conjugation (hence cyclic
    rotation) and inversion, so this is the right cache key.  The least
    rotation starts at the least syllable, so only those rotations are
    compared, as slices of the doubled one-byte code, whose byte order
    is the syllables' tuple order (of the doubled syllable tuple where a
    syllable has no code).
    """
    return _canonical(word)[0]


def _canonical(word):
    """(canonical_form(word), its one-byte code), the code None outside the table.

    A word whose syllables all have codes and whose generator bytes
    alternate around the cycle is cyclically reduced as it stands; any
    other word is reduced as syllables first.  A reduced word with a
    syllable outside the table takes the least rotation as tuples.
    """
    word = tuple(word)
    code = _encode(word)
    if code is not None:
        gens = code.translate(_GENERATOR)
        if b"\0\0" in gens or b"\1\1" in gens or len(gens) > 1 and gens[0] == gens[-1]:
            code = None
    if code is None:
        word = cyclic_reduce(free_reduce(word))
        code = _encode(word)
        if code is None:
            return _least(word, word_inverse(word)), None
    code = _least(code, code[::-1].translate(_NEGATE))
    return tuple(map(_SYLLABLE.__getitem__, code)), code


# -- the engine: block collapse, then the walk ------------------------------

_memo = {}


def trace_poly(word):
    """The unique trace polynomial P_word in x, y, z.

    A computed value is stored under its key and under the twin key, the
    canonical form of the word with every exponent negated.
    """
    key, code = _canonical(word)
    value = _memo.get(key)
    if value is None:
        # the negated key is cyclically reduced, and its inverse is the key reversed
        if code is None:
            twin = _least(tuple([(gen, -exp) for gen, exp in key]), key[::-1])
        else:
            twin = tuple(map(_SYLLABLE.__getitem__, _least(code.translate(_NEGATE), code[::-1])))
        value = _memo[key] = _memo[twin] = _compute(key)
    return value


def _compute(u):
    blk = _find_block(u)
    if blk is not None:
        prefix, block, reps, suffix = blk
        # collapse only when it removes at least a quarter of the weight:
        # each collapse traces two words of nearly the full length, so a
        # small saving costs more than the walk
        if 4 * (reps - 1) * sum(abs(e) for _, e in block) >= sum(abs(e) for _, e in u):
            value, lower = cheb_pair(
                reps,
                trace_poly(block),
                # a repeated block has an even syllable count, so prefix +
                # suffix is reduced; trace_poly reduces the other word
                trace_poly(prefix + suffix),
                trace_poly(prefix + word_inverse(block) + suffix),
            )
            # lower is the trace of the word with one repeat fewer, stored
            # under its own key only
            _memo.setdefault(canonical_form(prefix + block * (reps - 1) + suffix), lower)
            return value
    return _walk(u)


def _find_block(u):
    """Best repeated contiguous block over all rotations, or None.

    Returns (prefix, block, repeats, suffix): a rotation w = u[r:] + u[:r]
    equals prefix + block * repeats + suffix, the block has L >= 2
    syllables and starts at position i of w, and repeats >= 2 is as large
    as w allows.  The choice maximizes (repeats - 1) * weight(block), the
    weight one application of the power identity removes.  Ties go to the
    smallest r, then the smallest L, then the smallest i.

    The block of length L at cyclic position s repeats k times iff the
    syllables from s agree with those L further on for (k - 1) L
    positions.  One bytes scan of u + u per L, whose stretches of
    agreement give that run for every s, makes the search O(n^2) in the
    syllable count n.  The agreement bytes come from one XOR of the
    doubled one-byte code read as an int, its top 2n - L bytes against
    its low ones, with each zero byte read as 1 and any other as 0; a
    word with a syllable outside the table compares small int codes
    instead.  Rotation r = s (i = 0) leaves the most room, and k copies
    fit in rotation r iff i = s - r is at most n - k L, so each (s, L)
    with the largest saving first appears in rotation max(0, s - (n - k L)).
    """
    n = len(u)
    code = _encode(u)
    if code is None:
        codes = {}
        uu = [codes.setdefault(syllable, len(codes)) for syllable in u] * 2
    else:
        big = int.from_bytes(code * 2, "big")
    cum = [0, *accumulate([abs(e) for _, e in u] * 2)]
    best_saved = 0
    best = None  # (r, L, i, reps)
    for L in range(2, n // 2 + 1):
        # the copies after the first weigh at most the word's weight less
        # the first copy's, which is at least L
        if cum[n] - L < best_saved:
            break
        cap = n - L  # agreement beyond this cannot fit in one rotation
        agree = bytes(map(eq, uu, uu[L:])) if code is None else _agreement(big, n, L)
        run = b"\x01" * L  # a stretch of agreement shorter than L gives no block
        a = agree.find(run)
        while 0 <= a < n:
            b = agree.find(0, a + L)
            if b < 0:
                b = len(agree)
            # each s in [a, b) starts b - s agreements, and the copies of
            # its block after the first lie in [s + L, b + L): once that
            # stretch weighs less than the best saving, no later s can win
            for s in range(a, min(b - L, n - 1) + 1):
                if cum[b + L] - cum[s + L] < best_saved:
                    break
                reps = 1 + min(b - s, cap) // L
                saved = (reps - 1) * (cum[s + L] - cum[s])
                if saved < best_saved:
                    continue
                r = max(0, s - (n - reps * L))
                key = (r, L, s - r, reps)
                if saved > best_saved or key < best:
                    best_saved = saved
                    best = key
            a = agree.find(run, b)
    if best is None:
        return None
    r, L, i, reps = best
    w = u[r:] + u[:r]
    j = i + reps * L
    return w[:i], w[i : i + L], reps, w[j:]


def _agreement(big, n, L):
    """bytes(map(eq, uu, uu[L:])) for uu a doubled code of n syllables, read as the int big."""
    m = 2 * n - L
    return ((big >> 8 * L) ^ (big & ((1 << 8 * m) - 1))).to_bytes(m, "big").translate(_AGREE)


# Right multiplication by a and by b on the coordinates (p0, p1, p2, p3)
# of p0 + p1 a + p2 b + p3 ab, from a^2 = x a - 1, b^2 = y b - 1 and
# ba = y a + x b + (z - xy) - ab: row i holds the coefficients of M's
# coordinates in coordinate i of M g.  _TRACE_ROW is tr on the same basis.
_RIGHT = {
    "a": ((0, -1, Z - X * Y, -Y), (1, X, Y, Z), (0, 0, X, 1), (0, 0, -1, 0)),
    "b": ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, Y, 0), (0, 1, 0, Y)),
}
_TRACE_ROW = (2, X, Y, Z)


def _walk(u):
    """tr u by one left-to-right pass in Z[x, y, z]<1, a, b, ab>.

    The word is rotated to end on its heaviest syllable, the first with
    the largest |e|; a rotation is a conjugate, with the same trace.  The
    running product is p0 + p1 a + p2 b + p3 ab, four term maps under
    (x, y, z) exponents packed into one int.  Each syllable but the last,
    g^e, right-multiplies it in one step, by the rows of
    g^e = S_{e-1}(t) g - S_{e-2}(t), t = tr g (Cayley-Hamilton, either
    sign of e), from _syllable_rows.  The last one forms only the trace,
    sum_j p_j F_j with F_j = sum_i T_i R_ij, _TRACE_ROW T times that
    syllable's rows R (_end_row), so the heaviest step builds one map
    instead of four.

    No key carries.  Weight x and y by 1, z by 2, and the basis elements
    1, a, b, ab by 0, 1, 1, 2; every term of both relations has weight at
    most 2, so a prefix of weight k has p_j of degree at most k - wt(j).
    Entry j of _RIGHT's row i has degree at most 1 + wt(j) - wt(i), and
    S_{e-1} and S_{e-2} have degree at most |e| - 1 and |e|, the latter
    only on the diagonal, so every term of entry j of row i of g^e has
    degree at most |e| + wt(j) - wt(i).  Each product a row's step forms
    then has degree at most k + |e| - wt(i), and so has every term of
    the partial sums within that row.  T_i has degree wt(i), so F_j has
    degree at most |e| + wt(j), and each product of the end step, with
    k = weight - |e|, has degree at most the weight; an F_j whose
    degree is above it meets p_j = 0 and forms no term.  No exponent
    passes the word's weight, the bound the fields' width and the
    result take.
    """
    if not u:
        return Polynomial(RING, {0: 2}, 0)
    sizes = [abs(e) for _, e in u]
    weight = sum(sizes)
    w = _width(weight)
    i = sizes.index(max(sizes)) + 1
    *head, last = u[i:] + u[:i]
    elem = [{0: 1}, {}, {}, {}]
    for gen, exp in head:
        elem = [_apply(r, elem) for r in _syllable_rows(gen, exp, w)]
    return Polynomial(RING, _apply(_end_row(*last, w), elem), weight)


def _apply(row, elem):
    """One coordinate of a step: the sum of the row's coefficients times elem's maps."""
    acc = {}
    for j, coeff in row:
        acc = _packed_product(coeff, elem[j].items(), acc)
    return acc


@lru_cache(maxsize=None)
def _walk_rows(w):
    """_RIGHT and _TRACE_ROW as [(j, packed coefficient)] rows, fields w bits wide."""

    def row(coeffs):
        polys = [RING.zero() + p for p in coeffs]
        return [(j, list(p._at(w).items())) for j, p in enumerate(polys) if p._packed]

    return {g: [row(r) for r in m] for g, m in _RIGHT.items()}, row(_TRACE_ROW)


@lru_cache(maxsize=None)
def _syllable_rows(gen, exp, w):
    """Right multiplication by gen^exp as [(j, packed coefficient)] rows, fields w bits wide.

    Row i, entry j is S_{e-1}(t) times _RIGHT's entry, less S_{e-2}(t) on
    the diagonal, t = tr gen, formed on packed keys from the per-letter
    rows and the memoized S_k: for e = 1 these are the per-letter rows,
    for e = -1 their negation plus t on the diagonal.
    """
    letter = _walk_rows(w)[0][gen]
    shift = RING._shifts(w)[0 if gen == "a" else 1]
    # a key of a polynomial in t alone is its exponent
    s1 = [(d << shift, c) for d, c in cheb(exp - 1)._packed.items()]
    s2 = [(d << shift, -c) for d, c in cheb(exp - 2)._packed.items()]
    rows = []
    for i, row in enumerate(letter):
        entries = {j: _packed_product(s1, coeff) for j, coeff in row}
        entries[i] = _packed_product(s2, [(0, 1)], entries.get(i))
        rows.append([(j, list(p.items())) for j, p in sorted(entries.items()) if p])
    return rows


def _end_row(gen, exp, w):
    """_TRACE_ROW times the rows of gen^exp: tr(M gen^exp) as one row on M's coordinates.

    Built on each call from _syllable_rows; each _TRACE_ROW entry is a
    single term, so this shifts and scales at most 16 entries.
    """
    rows = _syllable_rows(gen, exp, w)
    fused = {}
    for i, t in _walk_rows(w)[1]:
        for j, coeff in rows[i]:
            fused[j] = _packed_product(t, coeff, fused.get(j))
    return [(j, list(p.items())) for j, p in sorted(fused.items()) if p]


# -- the matrix oracle ---------------------------------------------------------

_ORACLE_RING = PolyRing(("x", "y", "c"))
_OX = _ORACLE_RING.var("x")
_OY = _ORACLE_RING.var("y")
_OC = _ORACLE_RING.var("c")


# A = [[x, -1], [1, 0]] and B = [[0, c], [-1/c, y]] have determinant 1,
# tr A = x, tr B = y and tr AB = c + 1/c.  Every b-letter enters scaled by
# c, as c B = [[0, c^2], [-1, c y]] or c B^-1 = [[c y, -c^2], [1, 0]], so
# all entries stay in Z[x, y, c].
_MAT = {
    ("a", 1): ((_OX, -1), (1, 0)),
    ("a", -1): ((0, 1), (-1, _OX)),
    ("b", 1): ((0, _OC**2), (-1, _OC * _OY)),
    ("b", -1): ((_OC * _OY, -(_OC**2)), (1, 0)),
}


def _letter_degree():
    """The largest exponent in any _MAT entry.

    A product of n letters has no entry of a degree above n times this,
    so fields _width(n times it) bits wide, as a RING polynomial with that
    bound has, never carry.
    """
    return max(
        max(map(max, p.terms)) for m in _MAT.values() for row in m for p in row
        if isinstance(p, Polynomial)
    )


@lru_cache(maxsize=None)
def _power(gen, exp, w):
    """The matrix of gen^exp, |exp| copies of its letter's _MAT entry multiplied.

    Entries are [(key, coeff)] lists under (x, y, c) keys packed with
    fields w bits wide; a zero entry is empty.  The product is taken with
    _column, one letter at a time from the identity.
    """
    shifts = (2 * w, w, 0)
    (l00, l01), (l10, l11) = [
        [
            [(sum(map(lshift, e, shifts)), c) for e, c in (_ORACLE_RING.zero() + p).terms.items()]
            for p in row
        ]
        for row in _MAT[(gen, 1 if exp > 0 else -1)]
    ]
    rows = [({0: 1}, {}), ({}, {0: 1})]
    for _ in range(abs(exp)):
        rows = [(_column(m0, m1, l00, l10), _column(m0, m1, l01, l11)) for m0, m1 in rows]
    return [[list(m.items()) for m in row] for row in rows]


def _column(m0, m1, e0, e1, out=None):
    """m0 * e0 + m1 * e1: one shifted pass per term of each entry.

    With out given, the sum is added into that map in place; use the
    returned map.
    """
    out = {} if out is None else out
    for src, entry in ((m0, e0), (m1, e1)):
        for ke, ce in entry:
            if not out:  # a shift into an empty map never merges two terms
                out = {k + ke: c * ce for k, c in src.items()}
                continue
            get = out.get
            for k, c in src.items():
                k += ke
                s = get(k, 0) + c * ce
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def trace_poly_oracle(word):
    """P_word recomputed from explicit matrices; independent of trace_poly.

    The rows of the running product are term maps keyed by (x, y, c)
    exponents packed into one int, each field wide enough for the
    largest degree the word's letters can reach.  Each syllable g^e
    right-multiplies the rows in one step, by _power's matrix of g^e, as
    column operations: one shifted pass per term of a nonzero entry.  No
    field carries, since every term a step forms, partial sums included,
    is a term of a product of at most the word's letters.  The word is
    first rotated to end on its heaviest syllable, the first with the
    largest |e|, which leaves the trace as it is, and that syllable's step
    forms only the trace: m00 p00 + m01 p10 + m10 p01 + m11 p11 in one
    map, for rows m and the power's matrix p.  With n b-letters the
    c-scaled product has trace c^n tr, which _peel rewrites in
    z = c + 1/c.
    """
    word = free_reduce(word)
    if not word:
        return Polynomial(RING, {0: 2}, 0)
    n = sum(abs(e) for g, e in word if g == "b")
    sizes = [abs(e) for _, e in word]
    bound = sum(sizes) * _letter_degree()
    w = _width(bound)
    i = sizes.index(max(sizes)) + 1
    *head, last = word[i:] + word[:i]
    rows = [({0: 1}, {}), ({}, {0: 1})]
    for gen, exp in head:
        (p00, p01), (p10, p11) = _power(gen, exp, w)
        rows = [(_column(m0, m1, p00, p10), _column(m0, m1, p01, p11)) for m0, m1 in rows]
    (p00, p01), (p10, p11) = _power(*last, w)
    (m00, m01), (m10, m11) = rows
    return _peel(_column(m10, m11, p01, p11, _column(m00, m01, p00, p10)), n, bound)


def _peel(num, n, bound):
    """tr in x, y, z from num = c^n tr, under (x, y, c) keys of _width(bound) bits.

    tr is symmetric in c <-> 1/c.  It is rewritten in z = c + 1/c by
    peeling the top power: with k = deg_c(num) - n, the coefficient lead
    of c^(k+n) goes out with z^k, and lead c^n z^k = lead (c^2 + 1)^k c^(n-k)
    leaves num as binomial(k, j) lead at c-degree n - k + 2j.  A residue
    with k outside [0, n] is not symmetric, which would signal an
    arithmetic bug, and raises ArithmeticError.  The (x, y) fields are
    laid out as in a RING polynomial of that bound, so z^k takes the
    place of the c field and the result needs no repacking.
    """
    mask = (1 << _width(bound)) - 1
    by_c = {}  # c-degree -> {packed (x, y) part: coefficient}
    for k, c in num.items():
        by_c.setdefault(k & mask, {})[k & ~mask] = c
    terms = {}
    while by_c:
        d = max(by_c)
        lead = by_c.pop(d)
        k = d - n
        if not 0 <= k <= n:
            raise ArithmeticError("asymmetric residue in c: degree %d over c^%d" % (d, n))
        for key, c in lead.items():
            terms[key | k] = c
        for j in range(k):
            b = comb(k, j)
            dj = n - k + 2 * j
            row = by_c.setdefault(dj, {})
            get = row.get
            for key, c in lead.items():
                s = get(key, 0) - b * c
                if s:
                    row[key] = s
                else:
                    del row[key]
            if not row:
                del by_c[dj]
    return Polynomial(RING, terms, bound)


# -- identity suite -------------------------------------------------------------


def trace_identity_suite():
    """Exact checks of the commutator-flavored difference identities.

    Returns {name: bool}; every value should be True.  Covers the six
    differences used to simplify the two-bridge reduction and the three
    longer explicit trace polynomials.
    """
    g = GAMMA
    two_minus_g = 2 - g
    w = parse_word
    checks = {
        "AB(ab)^-1 style: P[ABaB] - P[BB]": (
            trace_poly(w("ABaB")) - trace_poly(w("B^2")),
            two_minus_g,
        ),
        "P[A^2B^2aB] - P[B^2AB]": (
            trace_poly(w("A^2 B^2 a B")) - trace_poly(w("B^2 A B")),
            two_minus_g * X * Y,
        ),
        "P[A^2Ba^2B] - P[ABaB]": (
            trace_poly(w("A^2 B a^2 B")) - trace_poly(w("A B a B")),
            two_minus_g * (X**2 - 1),
        ),
        "P[A^2B^4] - P[AB^3AB]": (
            trace_poly(w("A^2 B^4")) - trace_poly(w("A B^3 A B")),
            two_minus_g * (Y**2 - 1),
        ),
        "P[B^2] - P[aBAB]": (
            trace_poly(w("B^2")) - trace_poly(w("a B A B")),
            g - 2,
        ),
        "P[A^2BaB^2] - P[ABaBAB]": (
            trace_poly(w("A^2 B a B^2")) - trace_poly(w("A B a B A B")),
            two_minus_g * (X * Y - Z),
        ),
        "P[abaBAB]": (
            trace_poly(w("abaBAB")),
            X * Y - (X**2 + Y**2 - 3) * Z + X * Y * Z**2 - Z**3,
        ),
        "P[aBabAB]": (
            trace_poly(w("aBabAB")),
            X * Y * (X**2 + Y**2 - 3)
            - (X**2 * Y**2 + X**2 + Y**2 - 3) * Z
            + 2 * X * Y * Z**2
            - Z**3,
        ),
        "P[abaBABabAB]": (
            trace_poly(w("abaBABabAB")),
            X * Y * (X**2 + Y**2 - 3)
            - (X**4 + Y**4 + 3 * X**2 * Y**2 - 5 * X**2 - 5 * Y**2 + 5) * Z
            + 2 * X * Y * (X**2 + Y**2 - 2) * Z**2
            - (X**2 * Y**2 + 2 * X**2 + 2 * Y**2 - 5) * Z**3
            + 2 * X * Y * Z**4
            - Z**5,
        ),
    }
    return {name: lhs == rhs for name, (lhs, rhs) in checks.items()}
