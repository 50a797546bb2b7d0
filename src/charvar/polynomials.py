"""Exact multivariate polynomial arithmetic over the integers.

Polynomials live in a PolyRing with a fixed, ordered tuple of variable
names.  The monomial order is graded lexicographic, with earlier names
more significant.  Coefficients are plain Python ints, so arithmetic is
exact at any size.  Values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import math
from operator import add, lshift

NEG_INF = float("-inf")


class PolyRing:
    """A polynomial ring ZZ[n0 > n1 > ...] with a fixed variable order."""

    __slots__ = ("names", "index", "_zero_exp", "_vars", "_zero", "_one")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        self._vars = {}
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {self._zero_exp: 1})

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def const(self, c):
        c = int(c)
        if c == 0:
            return self._zero
        return Polynomial(self, {self._zero_exp: c})

    def var(self, name):
        try:
            return self._vars[name]
        except KeyError:
            pass
        i = self.index[name]  # KeyError for unknown names
        exp = tuple(1 if j == i else 0 for j in range(len(self.names)))
        v = Polynomial(self, {exp: 1})
        self._vars[name] = v
        return v

    def monomial(self, name, e):
        """The monomial name**e."""
        if e < 0:
            raise ValueError("negative exponent")
        i = self.index[name]
        exp = tuple(e if j == i else 0 for j in range(len(self.names)))
        return Polynomial(self, {exp: 1})

    def from_terms(self, terms):
        """Build a polynomial from {exponent tuple: coefficient}, cleaning zeros."""
        clean = {}
        for exp, c in terms.items():
            c = int(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(self.names) or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            clean[exp] = clean.get(exp, 0) + c
        return Polynomial(self, {e: c for e, c in clean.items() if c != 0})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)


def _grlex_key(item):
    exp = item[0]
    return (sum(exp), exp)


def _shift(mono, b):
    """Terms of the one-term map mono times b: a shift never merges two terms."""
    ((e, c),) = mono.items()
    if not any(e):  # a constant factor leaves every exponent as it is
        return {eb: c * cb for eb, cb in b.items()}
    return {tuple(map(add, e, eb)): c * cb for eb, cb in b.items()}


def _shifts(width, nvars):
    """Bit offsets of the fields of a packed exponent key, most significant first."""
    return range(width * (nvars - 1), -1, -width)


def _pack(terms, shifts):
    """(packed key, coefficient) list of a tuple-keyed term map."""
    return [(sum(map(lshift, e, shifts)), c) for e, c in terms.items()]


def _unpack(packed, width, shifts):
    """The tuple-keyed term map of a packed one."""
    mask = (1 << width) - 1
    return {tuple([(k >> s) & mask for s in shifts]): c for k, c in packed.items()}


def _packed_product(pa, pb, acc=None):
    """Packed term map of the product of two packed (key, coefficient) sequences.

    pa is the outer loop; a cancelled key is deleted.  With acc given, the
    product is added into that map in place and it is returned.
    """
    if acc is None:
        acc = {}
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


def _mul_packed(a, b):
    """Terms of a*b, accumulated under exponent vectors packed into one int.

    One field per variable, each wide enough for the largest exponent sum
    any variable can reach, so adding two packed keys adds the vectors
    field by field and never carries (Monagan & Pearce, ISSAC 2009).
    """
    top = max(map(add, map(max, zip(*a)), map(max, zip(*b))))
    w = top.bit_length()
    shifts = _shifts(w, len(next(iter(a))))
    return _unpack(_packed_product(_pack(a, shifts), _pack(b, shifts)), w, shifts)


def _add_into(acc, terms):
    """Add a term map into acc in place, dropping cancelled keys."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) + c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


def _variable_index(terms):
    """Index of the variable a term map is (one term, coefficient 1, degree 1), or None."""
    if len(terms) == 1:
        ((e, c),) = terms.items()
        if c == 1 and sum(e) == 1:
            return e.index(1)
    return None


def _horner(groups, values):
    """Packed terms of the sum of part * prod(values[i] ** key[i]) over groups.

    groups maps exponent keys to packed term maps, and values are packed
    (key, coefficient) lists.  Nested Horner: in the first value, with
    each coefficient the same sum over the remaining values, so the
    running sum is multiplied once per degree step and never copied.
    """
    if not groups:
        return {}
    if not values:
        return groups[()]
    by_deg = {}
    for key, part in groups.items():
        by_deg.setdefault(key[0], {})[key[1:]] = part
    acc = {}
    for d in range(max(by_deg), -1, -1):
        if acc:
            acc = _packed_product(values[0], acc.items())
        if d in by_deg:
            _add_into(acc, _horner(by_deg[d], values[1:]))
    return acc


class Polynomial:
    """An element of a PolyRing; term map from exponent tuple to nonzero int."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic predicates ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_exp in self.terms)

    def is_one(self):
        return self.terms == {self.ring._zero_exp: 1}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(self.ring._zero_exp, 0)

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
        terms = dict(self.terms)
        _add_into(terms, q.terms)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self.terms or not q.terms:
            return self.ring._zero
        # multiply the smaller term map into the larger one
        a, b = self.terms, q.terms
        if len(a) > len(b):
            a, b = b, a
        terms = _shift(a, b) if len(a) == 1 else _mul_packed(a, b)
        return Polynomial(self.ring, terms)

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
            return self.is_constant() and self.terms.get(self.ring._zero_exp, 0) == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring.names, frozenset(self.terms.items())))
            self._hash = h
        return h

    # -- structure --------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        """Degree in one variable; -inf sentinel for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        i = self.ring.index[name]
        return max(e[i] for e in self.terms)

    def coeff_in(self, name, d):
        """Coefficient of name**d, as a polynomial in the remaining variables."""
        i = self.ring.index[name]
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == d:
                e = list(exp)
                e[i] = 0
                terms[tuple(e)] = c
        return Polynomial(self.ring, terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, self.terms[exp]

    def leading_coefficient(self):
        return self.leading()[1]

    def variables(self):
        """Names that actually occur."""
        present = [False] * len(self.ring.names)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    present[i] = True
        return tuple(n for n, p in zip(self.ring.names, present) if p)

    def derivative(self, name):
        i = self.ring.index[name]
        terms = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            new = tuple(new)
            s = terms.get(new, 0) + c * e
            if s:
                terms[new] = s
            else:
                del terms[new]
        return Polynomial(self.ring, terms)

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
        expanded by nested Horner.  All of it runs on exponents packed as
        in _mul_packed, with fields wide enough for the result.
        """
        terms = self.terms
        moves = []  # (source index, target index)
        folds = []  # (source index, int value)
        expand = []  # (source index, term map of the value)
        bound = 0  # no exponent of the result is above this
        for i, (name, top) in enumerate(zip(self.ring.names, map(max, zip(*terms)))):
            if not top:
                continue
            if name not in mapping:
                raise KeyError("no value for variable %r" % name)
            v = mapping[name]
            if isinstance(v, int):
                folds.append((i, v))
            elif not isinstance(v, Polynomial):
                raise TypeError("value for %r is neither an int nor a Polynomial" % name)
            elif v.ring != ring:
                raise ValueError("value for %r is not in the target ring" % name)
            elif v.is_constant():
                folds.append((i, v.constant_value()))
            else:
                j = _variable_index(v.terms)
                if j is None:
                    expand.append((i, v.terms))
                    bound += top * max(map(max, v.terms))
                else:
                    moves.append((i, j))
                    bound += top
        w = bound.bit_length() or 1
        shifts = _shifts(w, len(ring.names))
        moves = [(i, shifts[j]) for i, j in moves]
        values = [_pack(v, shifts) for _, v in expand]
        groups = {}
        for exp, c in terms.items():
            for i, v in folds:
                if exp[i]:
                    c *= v ** exp[i]
            if not c:
                continue
            k = 0
            for i, shift in moves:
                k += exp[i] << shift
            part = groups.setdefault(tuple([exp[i] for i, _ in expand]), {})
            s = part.get(k, 0) + c
            if s:
                part[k] = s
            else:
                del part[k]
        return Polynomial(ring, _unpack(_horner(groups, values), w, shifts))

    def cast(self, ring):
        """Inject into another ring containing all occurring variables."""
        mapping = {n: ring.var(n) for n in self.variables()}
        return self.map_values(mapping, ring)

    def evaluate(self, assignment):
        """Evaluate at a point: a term-by-term sum with cached powers.

        Values are never converted: each term is the integer coefficient
        times powers of the assigned values, so the result keeps the
        inputs' own arithmetic (int stays exact, Fraction stays Fraction,
        a numpy extended-precision scalar stays extended, a Polynomial
        gives a Polynomial).  Terms are summed in sorted_terms() order, so
        a floating-point result does not depend on how the term map was
        built.  The zero polynomial evaluates to int 0.  Raises KeyError
        if a variable with positive degree is missing.
        """
        for n in self.variables():
            if n not in assignment:
                raise KeyError("no value for variable %r" % n)
        powers = {}
        total = 0
        names = self.ring.names
        for exp, c in self.sorted_terms():
            term = c
            for name, e in zip(names, exp):
                if e:
                    v = powers.get((name, e))
                    if v is None:
                        v = powers[(name, e)] = assignment[name] ** e
                    term = term * v
            total = total + term
        return total

    # -- divisibility -------------------------------------------------------

    def div_exact(self, q):
        """Exact quotient self/q, or None when q does not divide self."""
        q = self._coerce(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.ring._zero
        qexp, qc = q.leading()
        rem = self
        quot = {}
        while not rem.is_zero():
            rexp, rc = rem.leading()
            exp = tuple(i - j for i, j in zip(rexp, qexp))
            if any(e < 0 for e in exp):
                return None
            c, r = divmod(rc, qc)
            if r:
                return None
            quot[exp] = quot.get(exp, 0) + c
            rem = rem - Polynomial(self.ring, {exp: c}) * q
        return Polynomial(self.ring, {e: c for e, c in quot.items() if c})

    def content(self):
        """gcd of the integer coefficients (nonnegative)."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def primitive_part(self):
        c = self.content()
        if c <= 1:
            return self
        return Polynomial(self.ring, {e: v // c for e, v in self.terms.items()})

    def normalized(self):
        """Sign-normalized: leading coefficient positive (zero stays zero)."""
        if self.is_zero():
            return self
        if self.leading_coefficient() < 0:
            return -self
        return self

    # -- rendering and serialization -----------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_grlex_key, reverse=True)

    def __str__(self):
        if not self.terms:
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
    """Rebuild a Polynomial from its interchange form."""
    names = tuple(data["vars"])
    if ring is None:
        ring = PolyRing(names)
    elif ring.names != names:
        raise ValueError("variable list %r does not match ring %r" % (names, ring.names))
    terms = {}
    for t in data["terms"]:
        exp = tuple(int(e) for e in t["exp"])
        terms[exp] = terms.get(exp, 0) + int(t["coeff"])
    return ring.from_terms(terms)


# -- gcd ----------------------------------------------------------------------


def _main_variable(p, q):
    """Most significant variable occurring in p or q, or None."""
    best = None
    for poly in (p, q):
        for exp in poly.terms:
            for i, e in enumerate(exp):
                if e and (best is None or i < best):
                    best = i
    if best is None:
        return None
    return p.ring.names[best]


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
    d = p.degree_in(v)
    coeffs = [p.coeff_in(v, e) for e in range(d + 1)]
    cont = p.ring.zero()
    for c in coeffs:
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
    answer in one pass over q's terms.
    """
    ((low, g),) = mono.terms.items()
    for e, c in q.terms.items():
        g = math.gcd(g, c)
        low = tuple(map(min, low, e))
        if g == 1 and not any(low):
            break
    return Polynomial(mono.ring, {low: g})


def _gcd(p, q):
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() and q.is_constant():
        return p.ring.const(math.gcd(p.constant_value(), q.constant_value()))
    if len(q.terms) == 1:
        p, q = q, p
    if len(p.terms) == 1:
        return _monomial_gcd(p, q)
    v = _main_variable(p, q)
    cp, fp = _content_pp(p, v)
    cq, fq = _content_pp(q, v)
    cont = _gcd(cp, cq)
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
    """A greatest common divisor, normalized to positive leading coefficient."""
    if p.ring != q.ring:
        raise ValueError("polynomials from different rings")
    g = _gcd(p, q)
    return g.normalized()


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
    coeffs = [p.coeff_in(v, i) for i in range(d + 1)]
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
