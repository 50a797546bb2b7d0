"""Exact multivariate polynomial arithmetic over the integers.

Polynomials live in a PolyRing with a fixed, ordered tuple of variable
names.  The monomial order is graded lexicographic, with earlier names
more significant.  Coefficients are plain Python ints, so arithmetic is
exact at any size.

A Polynomial keeps one term map under packed int keys: the exponents
are fields of one int, most significant variable first, each
max(10, bit_length(top)) bits wide for an exact upper bound top on the
polynomial's exponents, so three exponents below 1024 fit in one 30-bit
digit.  Adding two keys adds the exponent vectors field by field, and
every result takes its width from a bound on its own exponents, so no
key carries (Monagan & Pearce, ISSAC 2009).  `terms`, the same map under
exponent tuples, is built on first read and cached.  Values are
immutable after construction and each cache is written once with an
equal value, so they are safe to share between threads.  `evaluate` is
the one point evaluator, exact mod a modulus or in the values' arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add, itemgetter, lshift, or_

NEG_INF = float("-inf")

MIN_WIDTH = 10  # bits per exponent field; three fields fill one 30-bit digit
_WIDE = 1 << MIN_WIDTH  # the least exponent bound that needs wider fields


def _width(top):
    """Field width of packed keys whose exponents are at most top."""
    return top.bit_length() if top >= _WIDE else MIN_WIDTH


class PolyRing:
    """A polynomial ring ZZ[n0 > n1 > ...] with a fixed variable order."""

    __slots__ = ("names", "index", "_zero_exp", "_vars", "_shift_tables", "_zero", "_one")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        self._vars = {}
        self._shift_tables = {}
        self._zero = Polynomial(self, {}, 0)
        self._one = Polynomial(self, {0: 1}, 0)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def const(self, c):
        c = int(c)
        if c == 0:
            return self._zero
        return Polynomial(self, {0: c}, 0)

    def var(self, name):
        try:
            return self._vars[name]
        except KeyError:
            pass
        return self._vars.setdefault(name, self.monomial(name, 1))

    def monomial(self, name, e):
        """The monomial name**e."""
        if e < 0:
            raise ValueError("negative exponent")
        i = self.index[name]  # KeyError for unknown names
        return Polynomial(self, {e << self._shifts(_width(e))[i]: 1}, e)

    def from_terms(self, terms):
        """Build a polynomial from {exponent tuple: coefficient}, cleaning zeros."""
        clean = {}
        for exp, c in terms.items():
            c = int(c)
            if c:
                exp = tuple(map(int, exp))
                clean[exp] = clean.get(exp, 0) + c
        return self._from_exponents(clean)

    def _from_exponents(self, terms):
        """The polynomial of {tuple of ints: int}; every key is checked, zero values dropped."""
        n = len(self.names)
        if terms and (set(map(len, terms)) != {n} or min(map(min, zip(*terms)), default=0) < 0):
            bad = next(e for e in terms if len(e) != n or any(x < 0 for x in e))
            raise ValueError("bad exponent vector %r" % (bad,))
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        top = max(map(max, zip(*terms)), default=0)
        shifts = self._shifts(_width(top))
        return Polynomial(self, {sum(map(lshift, e, shifts)): c for e, c in terms.items()}, top)

    def _shifts(self, w):
        """Bit offsets of the fields of a packed key, most significant variable first."""
        shifts = self._shift_tables.get(w)
        if shifts is None:
            shifts = tuple(range(w * (len(self.names) - 1), -1, -w))
            self._shift_tables[w] = shifts
        return shifts

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)


def _packed_product(pa, pb, acc=None):
    """Packed term map of the product of two packed (key, coefficient) sequences.

    pa is the outer loop and pb is read once per term of pa; a cancelled
    key is deleted.  With a nonempty acc given, the product is added into
    that map in place.  An empty accumulator is filled from pa's first term
    by one comprehension, since one shift never merges two terms.  Use the
    returned map.
    """
    pa = iter(pa)
    if not acc:
        for ka, ca in pa:
            acc = {ka + kb: ca * cb for kb, cb in pb}
            break
        else:
            return {}
    get = acc.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            s = get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _add_into(acc, terms):
    """Add a term map into acc in place, dropping cancelled keys."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]


def _sub_into(acc, terms):
    """Subtract a term map from acc in place, dropping cancelled keys."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) - c
        if s:
            acc[e] = s
        else:
            del acc[e]


def _difference(p, q):
    """p - q, subtracting q's terms from a copy of p's."""
    a, b, top = p._common(q)
    acc = dict(a)
    _sub_into(acc, b)
    return Polynomial(p.ring, acc, top)


def _variable_index(p):
    """Index of the variable p is (one term, coefficient 1, degree 1), or None."""
    if len(p._packed) == 1:
        ((k, c),) = p._packed.items()
        bit = k.bit_length() - 1
        if c == 1 and k > 0 and k == 1 << bit and bit % p._w == 0:
            return len(p.ring.names) - 1 - bit // p._w
    return None


def _horner(groups, values, mask):
    """Packed terms of the sum of part * prod(value ** exponent) over groups.

    groups maps keys to packed term maps; a key holds the exponent of each
    value in a field mask wide at the value's shift.  values are (shift,
    re-iterable packed (key, coefficient) sequence) pairs.  Nested Horner:
    in the first value, with each coefficient the same sum over the
    remaining values, so the running sum is multiplied once per degree
    step and never copied.
    """
    if not groups:
        return {}
    if not values:
        return groups[0]
    (s, value), rest = values[0], values[1:]
    by_deg = {}
    for key, part in groups.items():
        d = (key >> s) & mask
        by_deg.setdefault(d, {})[key - (d << s)] = part
    acc = {}
    for d in range(max(by_deg), -1, -1):
        if acc:
            acc = _packed_product(value, acc.items())
        if d in by_deg:
            _add_into(acc, _horner(by_deg[d], rest, mask))
    return acc


class Polynomial:
    """An element of a PolyRing: nonzero int coefficients under packed exponent keys.

    top is an upper bound on every exponent, and the keys' fields are
    _width(top) bits wide.
    """

    __slots__ = ("ring", "_packed", "_top", "_w", "_terms", "_hash")

    def __init__(self, ring, packed, top):
        self.ring = ring
        self._packed = packed
        self._top = top
        self._w = _width(top)
        self._terms = None
        self._hash = None

    @property
    def terms(self):
        """The term map under exponent tuples, built on first read and cached; read only."""
        terms = self._terms
        if terms is None:
            mask = (1 << self._w) - 1
            shifts = self.ring._shifts(self._w)
            terms = {tuple([(k >> s) & mask for s in shifts]): c for k, c in self._packed.items()}
            self._terms = terms
        return terms

    def _at(self, w):
        """The packed term map with fields w bits wide; w must hold every exponent."""
        if w == self._w:
            return self._packed
        shifts = self.ring._shifts(w)
        return {sum(map(lshift, e, shifts)): c for e, c in self.terms.items()}

    def _exact_top(self):
        """The largest exponent that occurs (0 for a constant)."""
        return max(map(max, zip(*self.terms)), default=0)

    def _common(self, q):
        """self's and q's packed maps at one width, and the larger exponent bound."""
        top = max(self._top, q._top)
        if self._w == q._w:
            return self._packed, q._packed, top
        w = _width(top)
        return self._at(w), q._at(w), top

    def _field(self, name):
        """(shift, mask) of a variable's field in the packed keys."""
        w = self._w
        return self.ring._shifts(w)[self.ring.index[name]], (1 << w) - 1

    # -- basic predicates ------------------------------------------------

    def is_zero(self):
        return not self._packed

    def is_constant(self):
        packed = self._packed
        return not packed or (len(packed) == 1 and 0 in packed)

    def is_one(self):
        return self._packed == {0: 1}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._packed.get(0, 0)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b, top = self._common(q)
        if len(a) < len(b):
            a, b = b, a
        acc = dict(a)
        _add_into(acc, b)
        return Polynomial(self.ring, acc, top)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {k: -c for k, c in self._packed.items()}, self._top)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _difference(self, q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _difference(q, self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self._packed, q._packed
        if not a or not b:
            return self.ring._zero
        top = self._top + q._top
        if top >= _WIDE:
            # a bound that would widen the fields is replaced by the exact
            # one: the largest exponent of a product in a variable is the
            # sum of the factors' largest
            top = max(map(add, map(max, zip(*self.terms)), map(max, zip(*q.terms))))
        w = _width(top)
        if w != self._w:
            a = self._at(w)
        if w != q._w:
            b = q._at(w)
        # multiply the smaller term map into the larger one
        if len(a) > len(b):
            a, b = b, a
        return Polynomial(self.ring, _packed_product(a.items(), b.items()), top)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring._one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant() and self._packed.get(0, 0) == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring != other.ring:
            return False
        a, b, _ = self._common(other)
        return a == b

    def __hash__(self):
        h = self._hash
        if h is None:
            # equal polynomials are hashed at the narrowest width their
            # exponents allow
            packed = self._packed
            if self._w != MIN_WIDTH:
                packed = self._at(_width(self._exact_top()))
            h = hash((self.ring.names, frozenset(packed.items())))
            self._hash = h
        return h

    # -- structure --------------------------------------------------------

    def total_degree(self):
        if not self._packed:
            return NEG_INF
        return max(map(sum, self.terms))

    def degree_in(self, name):
        """Degree in one variable; -inf sentinel for the zero polynomial."""
        if not self._packed:
            return NEG_INF
        s, mask = self._field(name)
        return max([(k >> s) & mask for k in self._packed])

    def coeff_in(self, name, d):
        """Coefficient of name**d, as a polynomial in the remaining variables."""
        s, mask = self._field(name)
        return Polynomial(
            self.ring,
            {k - (d << s): c for k, c in self._packed.items() if (k >> s) & mask == d},
            self._top,
        )

    def coeffs_in(self, name):
        """[coeff_in(name, d) for d = 0 .. degree_in(name)], split in one pass."""
        if not self._packed:
            return []
        s, mask = self._field(name)
        parts = [{} for _ in range(self.degree_in(name) + 1)]
        for k, c in self._packed.items():
            e = (k >> s) & mask
            parts[e][k - (e << s)] = c
        return [Polynomial(self.ring, part, self._top) for part in parts]

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        packed = self._packed
        if not packed:
            raise ValueError("zero polynomial has no leading term")
        mask = (1 << self._w) - 1
        shifts = self.ring._shifts(self._w)
        keys = list(packed)
        degrees = [0] * len(keys)
        for s in shifts:
            degrees = list(map(add, degrees, [(k >> s) & mask for k in keys]))
        # fields run most significant variable first, so at equal total
        # degree the larger key is the lex-larger exponent
        _, key = max(zip(degrees, keys))
        return tuple([(key >> s) & mask for s in shifts]), packed[key]

    def leading_coefficient(self):
        return self.leading()[1]

    def variables(self):
        """Names that actually occur."""
        occurring = reduce(or_, self._packed, 0)
        mask = (1 << self._w) - 1
        shifts = self.ring._shifts(self._w)
        return tuple(n for n, s in zip(self.ring.names, shifts) if (occurring >> s) & mask)

    def derivative(self, name):
        s, mask = self._field(name)
        one = 1 << s
        # distinct keys stay distinct when one exponent drops by one
        return Polynomial(
            self.ring,
            {k - one: c * ((k >> s) & mask) for k, c in self._packed.items() if (k >> s) & mask},
            self._top,
        )

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, name, value):
        """Replace every occurrence of one variable by an int or a polynomial (same ring)."""
        ring = self.ring
        if name not in ring.index:
            raise KeyError("unknown variable %r" % name)
        mapping = {n: ring.var(n) for n in ring.names}
        mapping[name] = value
        return self.map_values(mapping, ring)

    def map_values(self, mapping, ring):
        """Simultaneous substitution into a target ring.

        mapping sends variable names to ints or Polynomials of `ring`;
        every variable that occurs in self must be mapped (KeyError
        otherwise), and other keys are ignored.  A variable sent to a
        variable of `ring` is renamed by moving its exponent (two sent to
        one target add theirs), an int or constant value is folded into
        the coefficient, and the variables left are grouped out and
        expanded by nested Horner.  All of it reads self's packed keys and
        writes the result's, with fields wide enough for the result.
        """
        src = self._packed
        mask = (1 << self._w) - 1
        occurring = reduce(or_, src, 0)
        moves = []  # (source shift, target index, largest exponent)
        folds = []  # (source shift, int value)
        expand = []  # (source shift, value, largest exponent)
        for name, s in zip(self.ring.names, self.ring._shifts(self._w)):
            if not (occurring >> s) & mask:
                continue
            if name not in mapping:
                raise KeyError("no value for variable %r" % name)
            v = mapping[name]
            if isinstance(v, int):
                folds.append((s, v))
            elif not isinstance(v, Polynomial):
                raise TypeError("value for %r is neither an int nor a Polynomial" % name)
            elif v.ring != ring:
                raise ValueError("value for %r is not in the target ring" % name)
            elif v.is_constant():
                folds.append((s, v.constant_value()))
            else:
                top = max([(k >> s) & mask for k in src])
                j = _variable_index(v)
                if j is None:
                    expand.append((s, v, top))
                else:
                    moves.append((s, j, top))
        # no exponent of the result is above this
        bound = sum(t for _, _, t in moves) + sum(t * v._top for _, v, t in expand)
        if bound >= _WIDE:  # as in __mul__: only an exact bound may widen the fields
            bound = sum(t for _, _, t in moves) + sum(t * v._exact_top() for _, v, t in expand)
        w = _width(bound)
        shifts = ring._shifts(w)
        moves = [(s, shifts[j]) for s, j, _ in moves]
        # a field that stays where it is is kept by one mask
        keep = sum(mask << s for s, t in moves if s == t) if w == self._w else 0
        moves = [(s, t) for s, t in moves if not (keep >> s) & 1]
        values = [(s, v._at(w).items()) for s, v, _ in expand]
        grouped = sum(mask << s for s, _, _ in expand)  # the expanded variables' fields
        groups = {}
        for k, c in src.items():
            for s, v in folds:
                e = (k >> s) & mask
                if e:
                    c *= v**e
            if not c:
                continue
            key = k & keep
            for s, t in moves:
                key += ((k >> s) & mask) << t
            part = groups.setdefault(k & grouped, {})
            c += part.get(key, 0)
            if c:
                part[key] = c
            else:
                del part[key]
        return Polynomial(ring, _horner(groups, values, mask), bound)

    def cast(self, ring):
        """Inject into another ring containing all occurring variables."""
        mapping = {n: ring.var(n) for n in self.variables()}
        return self.map_values(mapping, ring)

    def evaluate(self, assignment, modulus=None):
        """The value at a point {name: value}; names that do not occur are ignored.

        Each occurring variable gets one table of powers, built by repeated
        multiplication and read through the packed keys.  Values are never
        converted, so the result keeps the inputs' own arithmetic (int stays
        exact, Fraction stays Fraction, numpy extended precision stays
        extended, a Polynomial gives a Polynomial).  Terms are summed in
        descending key order, lex order of the exponents, so a float result
        does not depend on how the term map was built or on its width.  With
        modulus, the powers are reduced and the sum once, at the end.  The
        zero polynomial gives int 0; an occurring variable with no value, KeyError.
        """
        packed = self._packed
        mask = (1 << self._w) - 1
        occurring = reduce(or_, packed, 0)
        fields = []
        for name, s in zip(self.ring.names, self.ring._shifts(self._w)):
            seen = (occurring >> s) & mask  # the OR of its exponents, below twice the largest
            if seen:
                v = assignment[name]
                powers = [1]
                for _ in range(min(self._top, (1 << seen.bit_length()) - 1)):
                    powers.append(powers[-1] * v % modulus if modulus else powers[-1] * v)
                fields.append((s, powers))
        # an exact sum mod modulus does not depend on the order of its terms
        items = packed.items() if modulus else sorted(packed.items(), key=itemgetter(0))[::-1]
        total = 0
        for k, c in items:
            for s, powers in fields:
                c = c * powers[(k >> s) & mask]
            total = total + c
        return total % modulus if modulus else total

    # -- divisibility -------------------------------------------------------

    def div_exact(self, q):
        """Exact quotient self/q, or None when q does not divide self.

        Division by leading terms in the graded-lex order, on keys with
        one more field above the exponents that holds the total degree, so
        the largest key is the leading term.  No remainder term has a
        degree above self's, which sets the width.
        """
        q = self._coerce(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.ring._zero
        top = self.total_degree()
        if q.total_degree() > top:
            return None
        n = len(self.ring.names)
        w = _width(top)
        shifts = (n * w,) + self.ring._shifts(w)

        def graded(p):
            return {sum(map(lshift, (sum(e),) + e, shifts)): c for e, c in p.terms.items()}

        rem = graded(self)
        divisor = graded(q)
        kq = max(divisor)
        cq = divisor[kq]
        divisor = list(divisor.items())
        mask = (1 << w) - 1
        low = (1 << n * w) - 1
        quot = {}
        while rem:
            kr = max(rem)
            if any((kr >> s) & mask < (kq >> s) & mask for s in shifts):
                return None
            c, r = divmod(rem[kr], cq)
            if r:
                return None
            k = kr - kq
            quot[k & low] = c
            get = rem.get
            for kb, cb in divisor:
                kb += k
                s = get(kb, 0) - c * cb
                if s:
                    rem[kb] = s
                else:
                    del rem[kb]
        if top >= _WIDE:
            # as in __mul__, a bound that would widen the fields is replaced
            # by the exact one: the quotient's largest exponent
            quotient = Polynomial(self.ring, quot, top)
            top = quotient._exact_top()
            quot = quotient._at(_width(top))
        return Polynomial(self.ring, quot, top)

    def content(self):
        """gcd of the integer coefficients (nonnegative)."""
        g = 0
        for c in self._packed.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def primitive_part(self):
        c = self.content()
        if c <= 1:
            return self
        return Polynomial(self.ring, {k: v // c for k, v in self._packed.items()}, self._top)

    def normalized(self):
        """Sign-normalized: leading coefficient positive (zero stays zero)."""
        if self.is_zero():
            return self
        if self.leading_coefficient() < 0:
            return -self
        return self

    # -- rendering and serialization -----------------------------------------

    def sorted_terms(self):
        """(exponent, coefficient) pairs, descending in the graded-lex order."""
        terms = self.terms
        # exponents are distinct, so no two coefficients are compared
        return [item for _, item in sorted(zip(map(sum, terms), terms.items()), reverse=True)]

    def __str__(self):
        if not self._packed:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "<Polynomial %s>" % self

    def to_json(self):
        """Interchange form: variables plus grlex-descending term list."""
        return {
            "vars": list(self.ring.names),
            "terms": [
                {"exp": list(exp), "coeff": str(c)} for exp, c in self.sorted_terms()
            ],
        }


def from_json(data, ring=None):
    """Rebuild a Polynomial from its interchange form.

    The types are checked once over all terms (a bool is not an int here),
    one pass converts and sums the terms, and the exponent vectors of the
    nonzero sums are then checked once, as they are packed.
    """
    names = data["vars"]
    exps = [t["exp"] for t in data["terms"]]
    coeffs = [t["coeff"] for t in data["terms"]]
    if type(names) is not list or not set(map(type, exps)) <= {list}:
        raise ValueError("the variable list and each exponent vector must be lists")
    if not set(map(type, chain(*exps))) <= {int} or not set(map(type, coeffs)) <= {int, str}:
        raise ValueError("each exponent must be an int, each coefficient an int or its string")
    names = tuple(names)
    if ring is None:
        ring = PolyRing(names)
    elif ring.names != names:
        raise ValueError("variable list %r does not match ring %r" % (names, ring.names))
    terms = {}
    for exp, c in zip(map(tuple, exps), map(int, coeffs)):
        terms[exp] = terms.get(exp, 0) + c
    return ring._from_exponents({e: c for e, c in terms.items() if c})


# -- gcd ----------------------------------------------------------------------


def _prem(f, g, v):
    """Pseudo-remainder of f by g in the variable v (cross multiplication)."""
    ring = f.ring
    dg = g.degree_in(v)
    lc_g = g.coeff_in(v, dg)
    r = f
    while True:
        dr = r.degree_in(v)
        if r.is_zero() or dr < dg:
            return r
        lc_r = r.coeff_in(v, dr)
        r = r * lc_g - g * lc_r * ring.monomial(v, dr - dg)


def _content_pp(p, v):
    """Content and primitive part of p seen as univariate in v."""
    cont = p.ring.zero()
    for c in p.coeffs_in(v):
        if not c.is_zero():
            cont = _gcd(cont, c)
            if cont.is_one():
                return p.ring.one(), p
    pp = p.div_exact(cont)
    assert pp is not None
    return cont, pp


def _monomial_gcd(mono, q):
    """gcd(c*x^a, q) = gcd(c, content(q)) * x^min(a, least exponents of q).

    The normalized gcd is unique, so this is the remainder sequence's
    answer, read off q's packed keys field by field.
    """
    a, b, top = mono._common(q)
    ((key, g),) = a.items()
    w = _width(top)
    mask = (1 << w) - 1
    low = 0
    for s in mono.ring._shifts(w):
        e = (key >> s) & mask
        if e:
            low |= min(e, min([(k >> s) & mask for k in b])) << s
    return Polynomial(mono.ring, {low: math.gcd(g, *b.values())}, top)


def _dense_prem(a, b):
    """A pseudo-remainder of a by b, as coefficient lists lowest degree first.

    Each step scales the remainder by lc(b) / g and subtracts lc(r) / g
    times a shift of b, g = gcd(lc(r), lc(b)), so the top term cancels;
    the result has no trailing zero.
    """
    r = list(a)
    top = len(b) - 1
    lb = b[-1]
    low = b[:-1]
    while len(r) > top:
        lr = r.pop()
        g = math.gcd(lr, lb)
        mr, mb = lb // g, lr // g
        if mr != 1:
            r = [c * mr for c in r]
        shift = len(r) - top
        for i, c in enumerate(low, shift):
            r[i] -= mb * c
        while r and not r[-1]:
            r.pop()
    return r


def _dense_gcd(p, q, v):
    """gcd of two polynomials in the one variable v, positive leading coefficient.

    The primitive remainder sequence on dense int coefficient lists
    (Brown, J. ACM 1971): the gcd is gcd(contents) times the primitive
    part of the last nonzero remainder.
    """
    ring = p.ring

    def dense(f):
        s = ring._shifts(f._w)[ring.index[v]]
        co = [0] * ((max(f._packed) >> s) + 1)
        for k, c in f._packed.items():
            co[k >> s] = c
        g = math.gcd(*co)
        return g, [c // g for c in co]

    ca, a = dense(p)
    cb, b = dense(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _dense_prem(a, b)
        if r:
            g = math.gcd(*r)
            r = [c // g for c in r]
        a, b = b, r
    g = math.gcd(ca, cb)
    if a[-1] < 0:
        g = -g
    top = len(a) - 1
    s = ring._shifts(_width(top))[ring.index[v]]
    return Polynomial(ring, {e << s: g * c for e, c in enumerate(a) if c}, top)


def _univariate_content_gcd(u, f, v):
    """gcd(u, f) for u in Z[v] alone, positive leading coefficient (see _gcd)."""
    s, mask = f._field(v)
    parts = {}
    for k, c in f._packed.items():
        e = (k >> s) & mask
        parts.setdefault(k - (e << s), {})[e << s] = c
    g = u
    for part in sorted(parts.values(), key=max):
        g = _dense_gcd(g, Polynomial(u.ring, part, f._top), v)
        if g.is_constant():
            return u.ring.const(math.gcd(g.constant_value(), f.content()))
    return g


def _gcd(p, q):
    """A gcd of p and q with positive leading coefficient.

    Univariate-content rule: when one operand u lies in Z[v] for one
    variable v, the other's packed terms are grouped in one pass into its
    coefficients over the remaining variables, each in Z[v], and the gcd
    is the running _dense_gcd of u with them, lowest degree first.  It is
    exact: a common factor of u lies in Z[v], and a polynomial in Z[v]
    divides the other operand exactly when it divides each of those
    coefficients.  Once the running gcd is a constant c, it divides the
    contents of the coefficients taken so far, so the gcd is c's gcd with
    the other operand's integer content.  A primitive part in one variable
    after the content split on the main variable takes the same route.
    """
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() and q.is_constant():
        return p.ring.const(math.gcd(p.constant_value(), q.constant_value()))
    if len(q._packed) == 1:
        p, q = q, p
    if len(p._packed) == 1:
        return _monomial_gcd(p, q)
    pv, qv = p.variables(), q.variables()
    if len(qv) == 1:
        p, q, pv, qv = q, p, qv, pv
    if len(pv) == 1:
        return _univariate_content_gcd(p, q, pv[0])
    v = min(pv + qv, key=p.ring.index.__getitem__)  # the most significant occurring
    cp, fp = _content_pp(p, v)
    cq, fq = _content_pp(q, v)
    cont = _gcd(cp, cq)
    if len(fp.variables()) < 2 or len(fq.variables()) < 2:
        # a primitive part in at most one variable: the gcd of the
        # primitive parts is the univariate route's
        return (cont * _gcd(fp, fq)).normalized()
    f, g = fp, fq
    if f.degree_in(v) < g.degree_in(v):
        f, g = g, f
    # primitive remainder sequence in v: strip the full coefficient-ring
    # content after every pseudo-remainder to keep coefficients small
    while not g.is_zero():
        r = _prem(f, g, v)
        if not r.is_zero():
            r = _content_pp(r, v)[1]
        f, g = g, r
    if f.degree_in(v) == 0:
        # primitive parts coprime in v; only the contents are shared
        return cont.normalized()
    return (cont * _content_pp(f, v)[1]).normalized()


def poly_gcd(p, q):
    """A greatest common divisor, normalized to positive leading coefficient.

    Every route of _gcd already returns it so normalized.
    """
    if p.ring != q.ring:
        raise ValueError("polynomials from different rings")
    return _gcd(p, q)


# -- perfect squares ------------------------------------------------------------


def is_perfect_square(p):
    """A square root of p in the integer-coefficient ring, or None.

    Works down the most significant occurring variable by coefficient
    matching from the leading term; constants use exact integer square
    roots.  Total function: never raises on valid polynomials.
    """
    if p.is_zero():
        return p.ring.zero()
    if p.is_constant():
        c = p.constant_value()
        if c < 0:
            return None
        r = math.isqrt(c)
        return p.ring.const(r) if r * r == c else None
    v = p.variables()[0]
    d = p.degree_in(v)
    if d % 2:
        return None
    e = d // 2
    coeffs = p.coeffs_in(v)
    top = is_perfect_square(coeffs[d])
    if top is None or top.is_zero():
        return None
    ring = p.ring
    b = {e: top}
    two_top = 2 * top
    for i in range(e - 1, -1, -1):
        # coefficient of v^(e+i) in root^2 is 2*b_e*b_i plus cross terms
        # b_j*b_k with j+k = e+i and i < j,k < e
        cross = ring.zero()
        for j in range(i + 1, e):
            k = e + i - j
            if k < j or k >= e:
                continue
            prod = b[j] * b[k]
            cross = cross + (prod if j == k else 2 * prod)
        bi = (coeffs[e + i] - cross).div_exact(two_top)
        if bi is None:
            return None
        b[i] = bi
    root = ring.zero()
    for i, bi in b.items():
        root = root + bi * ring.monomial(v, i)
    if (root * root) != p:
        return None
    return root.normalized()
