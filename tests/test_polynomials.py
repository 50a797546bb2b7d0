import json
import math

import pytest

from charvar.polynomials import (
    NEG_INF,
    PolyRing,
    Polynomial,
    _width,
    from_json,
    is_perfect_square,
    poly_gcd,
)

from conftest import random_poly

R = PolyRing(("x", "y", "z"))
X, Y, Z = R.var("x"), R.var("y"), R.var("z")
T_RING = PolyRing(("t",))
T = T_RING.var("t")
# four-variable rings whose names are not in the xyz order
R_WITNESS = PolyRing(("x", "y", "z", "x1"))
R_TRIANGULAR = PolyRing(("x1", "y", "w", "b2"))


def test_basic_examples():
    assert (X + (-X)).is_zero()
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (T**3 - T * T**2).is_zero()


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X ** (-1)


def test_ring_axioms_on_random_triples(rng):
    for _ in range(1000):
        p = random_poly(rng, R)
        q = random_poly(rng, R)
        r = random_poly(rng, R)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_substitute_examples():
    assert (T**2 - 1).substitute("t", T) == T**2 - 1
    s2 = T**2 - 1
    composed = s2.map_values({"t": X * Z - Y}, R)
    assert composed == X**2 * Z**2 - 2 * X * Y * Z + Y**2 - 1
    gamma = X**2 + Y**2 + Z**2 - X * Y * Z - 2
    assert R.var("z").substitute("z", gamma) == gamma


def test_substitute_round_trip_with_fresh_variable(rng):
    big = PolyRing(("x", "y", "z", "u"))
    for _ in range(50):
        p = random_poly(rng, R).cast(big)
        moved = p.substitute("x", big.var("u"))
        assert moved.substitute("u", big.var("x")) == p


def test_degree_and_coeff():
    p = Z * X**4 + Y
    assert p.degree_in("x") == 4
    assert p.coeff_in("x", 4) == Z
    assert R.zero().degree_in("z") == NEG_INF
    assert (X**2 * Z**2 + Y).degree_in("x") == 2


def test_gcd_examples():
    from charvar.chebyshev import cheb

    assert poly_gcd(cheb(5), cheb(4)).is_one()
    assert poly_gcd(X**2 - Y**2, X**2 + 2 * X * Y + Y**2) == X + Y
    assert poly_gcd(T**2 - 1, T**3 - 2 * T).is_one()
    # gcd with zero normalizes
    assert poly_gcd(-2 * X, R.zero()) == 2 * X
    assert poly_gcd(R.zero(), R.zero()).is_zero()


def test_gcd_divides_random_products(rng):
    for _ in range(120):
        g = random_poly(rng, R, max_terms=3, max_deg=2, max_coeff=4)
        u = random_poly(rng, R, max_terms=3, max_deg=2, max_coeff=4)
        v = random_poly(rng, R, max_terms=3, max_deg=2, max_coeff=4)
        p, q = g * u, g * v
        d = poly_gcd(p, q)
        if p.is_zero() and q.is_zero():
            assert d.is_zero()
            continue
        assert p.div_exact(d) is not None
        assert q.div_exact(d) is not None
        if not g.is_zero():
            assert d.div_exact(g) is not None or d.div_exact(-g) is not None


def test_perfect_square_examples():
    assert is_perfect_square(X**2 + 2 * X * Y + Y**2) == X + Y
    assert is_perfect_square(Y) is None
    assert is_perfect_square(X**2 * (Z - 1) ** 2 - (Z**3 - 2 * Z)) is None
    assert is_perfect_square(R.const(49)) == 7
    assert is_perfect_square(R.const(-1)) is None
    assert is_perfect_square(R.zero()) == R.zero()


def test_perfect_square_random_round_trip(rng):
    for _ in range(150):
        p = random_poly(rng, R, max_terms=3, max_deg=2, max_coeff=5)
        r = is_perfect_square(p * p)
        assert r is not None and r * r == p * p
        if not p.is_constant():
            assert is_perfect_square(p * p + 1) is None


def test_eval():
    gamma = X**2 + Y**2 + Z**2 - X * Y * Z - 2
    assert gamma.evaluate({"x": 2, "y": 2, "z": 2}) == 2
    assert R.zero().evaluate({}) == 0
    from charvar.chebyshev import cheb

    assert cheb(3).evaluate({"t": 2}) == 4
    with pytest.raises(KeyError):
        (X + Y).evaluate({"x": 1.0})


def test_evaluate_keeps_input_arithmetic():
    from fractions import Fraction

    from charvar.chebyshev import cheb

    value = cheb(60).evaluate({"t": 3})
    assert type(value) is int and value == 14028366653498915298923761
    half = (X**2 - 3 * Y).evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)})
    assert type(half) is Fraction and half == Fraction(-3, 4)


def test_evaluate_mod_matches_exact_evaluation(rng):
    p = (1 << 61) - 1
    for ring in (R, T_RING):
        for _ in range(100):
            poly = random_poly(rng, ring, max_terms=6, max_deg=8, max_coeff=10**30)
            point = {n: rng.randrange(-p, p) for n in ring.names}
            assert poly.evaluate(point, p) == poly.evaluate(point) % p
    # exponents past 1023 widen the packed fields
    wide = X**2000 * Y - 7 * Z**1500 + 3
    assert wide.evaluate({"x": 2, "y": 3, "z": 5}, 101) == (2**2000 * 3 - 7 * 5**1500 + 3) % 101
    with pytest.raises(KeyError):
        (X + Y).evaluate({"x": 1}, p)


def test_evaluate_ignores_term_order_and_field_width(rng):
    np = pytest.importorskip("numpy")
    terms = {}
    for _ in range(60):
        exp = tuple(rng.randrange(9) for _ in range(3))
        terms[exp] = rng.randrange(-10**6, 10**6) or 1
    forward = R.from_terms(terms)
    backward = R.from_terms(dict(reversed(list(terms.items()))))
    shift = X**1100
    wide = forward + shift - shift  # the looser bound keeps 11-bit fields
    assert list(forward._packed) != list(backward._packed)
    assert (forward._w, wide._w) == (10, 11) and wide == forward
    for point in (
        {"x": 1.1 + 0.3j, "y": -0.7 + 0.9j, "z": 1.3 - 0.2j},
        {"x": np.clongdouble(0.9 - 1.2j), "y": np.clongdouble(1.7j), "z": np.clongdouble(-1.1)},
    ):
        values = [p.evaluate(point) for p in (forward, backward, wide)]
        assert {type(v) for v in values} == {type(point["x"])}
        assert len({repr(v) for v in values}) == 1, values


def test_evaluate_mod_reduces_values_and_constants():
    assert R.zero().evaluate({}, 7) == 0
    assert R.const(-10).evaluate({}, 7) == 4
    assert R.const(30).evaluate({"x": 5}, 7) == 2
    poly = X**2 * Y - 5 * Z + 3
    reduced = poly.evaluate({"x": 6, "y": 2, "z": 4}, 7)
    assert reduced == (36 * 2 - 20 + 3) % 7
    # negative values and values past the modulus, with keys that do not occur
    for point in ({"x": -1, "y": 9, "z": -3}, {"x": 10**30 * 7 + 6, "y": -5, "z": 11, "w": 2}):
        assert poly.evaluate(point, 7) == reduced
    assert (X * Y).evaluate({"x": 3, "y": 2, "t": 1}) == 6


def test_evaluate_needs_every_occurring_variable():
    for modulus in (None, 7):
        with pytest.raises(KeyError):
            (X * Z + Y).evaluate({"x": 1, "y": 2}, modulus)
        assert (X + Y).evaluate({"x": 1, "y": 2}, modulus) == 3


def test_evaluate_at_a_polynomial_gives_a_polynomial():
    from charvar.chebyshev import cheb, cheb_at

    value = cheb(4).evaluate({"t": X})
    assert type(value) is type(X) and value == cheb_at(4, X)


def test_json_round_trip(rng):
    gamma = X**2 + Y**2 + Z**2 - X * Y * Z - 2
    blob = json.dumps(gamma.to_json())
    assert from_json(json.loads(blob)) == gamma
    for _ in range(50):
        p = random_poly(rng, R)
        assert from_json(p.to_json()) == p
    # terms come out sorted descending in the graded-lex order
    data = gamma.to_json()
    keys = [(sum(t["exp"]), tuple(t["exp"])) for t in data["terms"]]
    assert keys == sorted(keys, reverse=True)


def test_big_coefficients_stay_exact():
    p = (X + 10**30) * (X - 10**30)
    assert p == X**2 - 10**60
    assert poly_gcd(p, X + 10**30) == X + 10**30


# -- the packed multiply and the monomial gcd rule ------------------------------


def naive_mul(p, q):
    """Tuple-by-tuple product, the smaller term map looped outside.

    A cancelled coefficient is deleted and a later one is appended, so
    the term order is also the one the product must keep.
    """
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(i + j for i, j in zip(ea, eb))
            s = terms.get(exp, 0) + ca * cb
            if s:
                terms[exp] = s
            else:
                del terms[exp]
    return terms


def assert_product(p, q):
    for left, right in ((p, q), (q, p)):
        prod = left * right
        assert list(prod.terms.items()) == list(naive_mul(left, right).items())
        assert all(prod.terms.values())


@pytest.mark.parametrize("top", [254, 255, 256, 65534, 65535, 65536])
def test_mul_across_field_width_boundaries(top):
    # x^top * x: a one-term operand shifts the other
    x = T_RING.var("t")
    assert (x**top * x).terms == {(top + 1,): 1}
    # many-term products whose exponent sums reach top, top + 1 and top + 2
    # in every field, next to fields that stay small
    p = R.from_terms({(top, 0, 1): 3, (0, top, 0): -2, (1, 1, top): 5, (0, 0, 0): 7})
    q = R.from_terms({(1, 0, 0): 1, (0, 2, 1): -4, (0, 0, 1): 6, (0, 0, 0): -1})
    assert_product(p, q)
    assert_product(p, p)
    big = T_RING.from_terms({(top,): 1, (1,): -1, (0,): 2})
    assert_product(big, big + 1)


@pytest.mark.parametrize(
    "ring", [T_RING, PolyRing(("u", "v")), R, R_WITNESS, R_TRIANGULAR], ids=lambda r: repr(r)
)
def test_mul_matches_naive_reference(rng, ring):
    for _ in range(200):
        p = random_poly(rng, ring, max_terms=6, max_deg=5)
        q = random_poly(rng, ring, max_terms=6, max_deg=5)
        assert_product(p, q)


def test_mul_cancellation():
    # the xy terms cancel to zero on the way
    assert_product(X + Y, X - Y)
    assert (X + Y) * (X - Y) == X**2 - Y**2
    # the constant term cancels, then comes back
    p = R.from_terms({(1, 0, 0): 1, (0, 0, 0): 1, (0, 1, 0): 1})
    q = R.from_terms({(1, 0, 0): -1, (0, 0, 0): 1, (0, 1, 0): -1})
    assert_product(p, q)
    assert (p * q).terms.get((0, 0, 0)) == 1
    # products with zero are zero, from both sides
    assert (p * R.zero()).is_zero() and (R.zero() * p).is_zero() and (p * 0).is_zero()
    assert (X - X) * p == 0


def test_mul_coefficients_of_200_bits(rng):
    for _ in range(50):
        p = random_poly(rng, R, max_terms=5, max_deg=4)
        q = random_poly(rng, R, max_terms=5, max_deg=4)
        p = R.from_terms({e: c * rng.getrandbits(256) for e, c in p.terms.items()})
        q = R.from_terms({e: c * (1 << 200) + rng.getrandbits(64) for e, c in q.terms.items()})
        assert_product(p, q)
        if p.terms and q.terms:
            assert max(abs(c).bit_length() for c in (p * q).terms.values()) >= 400


def test_mul_monomial_times_polynomial_both_sides(rng):
    for _ in range(100):
        p = random_poly(rng, R_WITNESS, max_terms=6, max_deg=4)
        e = tuple(rng.randint(0, 3) for _ in R_WITNESS.names)
        mono = R_WITNESS.from_terms({e: rng.choice([-7, -1, 1, 2, 9])})
        assert_product(mono, p)
        assert_product(R_WITNESS.const(-3), p)
        assert 5 * p == p * 5 == R_WITNESS.const(5) * p
        assert (mono * p).div_exact(mono) == p


def test_div_exact_quotient_takes_its_exact_bound():
    base = X**3 * Y + 2 * Z**5 - 7
    shift = X**1100
    dividend = base * shift
    assert (dividend._top, dividend._w) == (1103, 11)
    quot = dividend.div_exact(shift)
    assert quot == base and (quot._top, quot._w) == (5, 10)
    # a quotient that keeps wide exponents keeps wide fields
    quot = (dividend * Y).div_exact(X**3 * Y)
    assert quot == (base * X**1097) and (quot._top, quot._w) == (1100, 11)


def test_leading_matches_the_decoded_graded_lex_max(rng):
    def decoded(p):
        exp = max(p.terms, key=lambda e: (sum(e), e))
        return exp, p.terms[exp]

    for ring in (R, R_WITNESS, T_RING):
        for _ in range(200):
            p = random_poly(rng, ring, max_terms=8, max_deg=6)
            if p.is_zero():
                continue
            assert p.leading() == decoded(p)
            # the same polynomial under 11-bit fields, and one whose
            # exponents need them
            shift = ring.monomial(ring.names[-1], 1100)
            wide = p + shift - shift
            assert wide._w == 11 and wide.leading() == decoded(p)
            big = p * ring.monomial(ring.names[0], 1030) + p
            assert big._w == 11 and big.leading() == decoded(big)
            # normalizing decodes no term view
            neg = -p
            assert neg.normalized() == p.normalized() and neg._terms is None


def test_gcd_with_a_monomial():
    assert poly_gcd(6 * X * Z, 4 * X**2 * Z + 2 * X * Z**2) == 2 * X * Z
    assert poly_gcd(4 * X**2 * Z + 2 * X * Z**2, 6 * X * Z) == 2 * X * Z
    assert poly_gcd(-6 * X * Z, -4 * X**2 * Z - 2 * X * Z**2) == 2 * X * Z
    # z | q and z does not divide q
    assert poly_gcd(Z, X * Z - Y**3 * Z**2) == Z
    assert poly_gcd(Z, X * Z - Y**3).is_one()
    assert poly_gcd(Z**3, 6 * X * Z**2 + 9 * Z**5) == Z**2
    # a constant q
    assert poly_gcd(6 * X * Z, R.const(-4)) == 2
    assert poly_gcd(R.const(-4), 6 * X * Z) == 2
    assert poly_gcd(R.const(9), 6 * X + 3 * Y) == 3
    assert poly_gcd(5 * X, R.const(7)).is_one()
    # a zero q keeps the monomial, normalized
    assert poly_gcd(-3 * Y**2, R.zero()) == 3 * Y**2


def to_sympy(sympy, p):
    """p as a sympy expression in its ring's variable names."""
    syms = sympy.symbols(p.ring.names)
    return sum(
        (c * sympy.Mul(*(v**k for v, k in zip(syms, e))) for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def test_gcd_with_a_monomial_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for _ in range(50):
        e = tuple(rng.randint(0, 3) for _ in R.names)
        mono = R.from_terms({e: rng.choice([-12, -6, -1, 1, 2, 4, 15, 30])})
        q = random_poly(rng, R, max_terms=5, max_deg=4, max_coeff=12)
        if rng.random() < 0.5:
            # share a monomial factor often enough to make the gcd nontrivial
            shared = tuple(rng.randint(0, 2) for _ in R.names)
            q = q * R.from_terms({shared: rng.choice([2, 3, 6])})
        ours = poly_gcd(mono, q)
        theirs = sympy.gcd(to_sympy(sympy, mono), to_sympy(sympy, q))
        assert sympy.expand(to_sympy(sympy, ours) - theirs) == 0
        assert poly_gcd(q, mono) == ours


# -- the substitution kernel against frozen references ------------------------


def reference_map_values(p, mapping, ring):
    """map_values as a term-by-term sum of products of powers, kept as the reference."""
    total = 0
    for exp, c in p.terms.items():
        term = c
        for name, e in zip(p.ring.names, exp):
            if e:
                term = term * mapping[name] ** e
        total = total + term
    return ring.zero() + total


def reference_substitute(p, name, value):
    """substitute as univariate Horner over Polynomial operations, kept as the reference."""
    value = p._coerce(value)
    d = p.degree_in(name)
    if d is NEG_INF or d == 0:
        return p
    parts = {}
    i = p.ring.index[name]
    for exp, c in p.terms.items():
        e = list(exp)
        k = e[i]
        e[i] = 0
        part = parts.setdefault(k, {})
        part[tuple(e)] = part.get(tuple(e), 0) + c
    acc = p.ring.from_terms(parts.get(d, {}))
    for k in range(d - 1, -1, -1):
        acc = acc * value + p.ring.from_terms(parts.get(k, {}))
    return acc


def reference_compose(univ, inner):
    """A univariate polynomial in t composed with inner, by Horner on its coefficients."""
    d = univ.degree_in("t")
    if univ.is_zero():
        return inner.ring.zero()
    acc = inner.ring.const(univ.coeff_in("t", d).constant_value())
    for e in range(d - 1, -1, -1):
        acc = acc * inner + univ.coeff_in("t", e).constant_value()
    return acc


def assert_same(got, want):
    assert got.ring == want.ring and got.terms == want.terms
    assert all(got.terms.values())


def test_map_values_named_cases(rng):
    r2 = PolyRing(("x", "y"))
    x2, y2 = r2.var("x"), r2.var("y")
    r4 = PolyRing(("w", "z", "y", "x"))
    r_x1 = PolyRing(("x1", "y", "z"))
    cases = [
        (r2, {"x": y2, "y": x2}, r2),  # a swap
        (R, {"x": Z, "y": Z, "z": X}, R),  # two sources on one target
        (R, {"x": 3, "y": R.const(-2), "z": Z}, R),  # int and constant values
        (R, {"x": 0, "y": Y, "z": R.zero()}, R),  # zero values
        (R, {"x": X + Y, "y": X - Y, "z": Z}, R),  # two expanded values at once
        (R, {"x": X + Y, "y": X - Y, "z": R.const(2)}, R),
        (r_x1, {"x1": X * Z - Y, "y": Y, "z": Z}, R),  # other size and order
        (r4, {"w": X * Z - Y, "z": Z, "y": Y, "x": X}, R),
        (R, {"x": r2.var("y"), "y": -x2, "z": 5}, r2),  # onto a smaller ring
        (T_RING, {"t": X**2 + Y**2 + Z**2 - X * Y * Z - 2}, R),
    ]
    for source, mapping, target in cases:
        for _ in range(40):
            p = random_poly(rng, source, max_terms=8, max_deg=5)
            unused = dict(mapping, unused=1.5)  # keys for no variable are ignored
            assert_same(p.map_values(unused, target), reference_map_values(p, mapping, target))
        assert_same(source.zero().map_values(mapping, target), target.zero())


def test_map_values_cancellation(rng):
    # renamed terms cancel (x - y with both sent to z), and so do expanded values
    assert_same((X - Y).map_values({"x": Z, "y": Z}, R), R.zero())
    for _ in range(40):
        p = random_poly(rng, R, max_terms=6, max_deg=4) * (X + Y)
        mapping = {"x": Y - Z, "y": Z - Y, "z": Z}
        assert_same(p.map_values(mapping, R), R.zero())
        q = p + random_poly(rng, R)
        assert_same(q.map_values(mapping, R), reference_map_values(q, mapping, R))


def test_map_values_random_mappings(rng):
    for names in (("t",), ("b", "a"), ("z", "x", "y"), ("a", "b", "c", "d")):
        source = PolyRing(names)
        for _ in range(60):
            mapping = {}
            for name in source.names:
                kind = rng.randrange(5)
                if kind == 0:
                    mapping[name] = R.var(rng.choice(R.names))
                elif kind == 1:
                    mapping[name] = rng.randint(-3, 3)
                elif kind == 2:
                    mapping[name] = R.const(rng.randint(-3, 3))
                else:
                    mapping[name] = random_poly(rng, R, max_terms=3, max_deg=2, max_coeff=4)
            p = random_poly(rng, source, max_terms=6, max_deg=4)
            assert_same(p.map_values(mapping, R), reference_map_values(p, mapping, R))


def test_map_values_needs_every_occurring_variable():
    with pytest.raises(KeyError):
        (X + Y).map_values({"x": X}, R)
    # a variable that does not occur needs no value
    assert_same((X + 1).map_values({"x": Y}, R), Y + 1)


def test_substitution_paths_agree_with_their_old_bodies(rng):
    from charvar.chebyshev import cheb

    gamma = X**2 + Y**2 + Z**2 - X * Y * Z - 2
    big = PolyRing(("x", "y", "z", "u"))
    for _ in range(60):
        p = random_poly(rng, R, max_terms=8, max_deg=5)
        name = rng.choice(R.names)
        for value in (random_poly(rng, R), X, rng.randint(-3, 3), R.zero()):
            assert_same(p.substitute(name, value), reference_substitute(p, name, value))
        cast = {n: big.var(n) for n in p.variables()}
        assert_same(p.cast(big), reference_map_values(p, cast, big))
    for k in range(13):
        assert_same(cheb(k).map_values({"t": gamma}, R), reference_compose(cheb(k), gamma))


def test_map_values_never_evaluates(monkeypatch):
    from charvar.polynomials import Polynomial

    def refuse(self, assignment):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    p = X**3 * Y - 2 * Z + 7
    assert p.map_values({"x": X + Y, "y": 2, "z": Y}, R) == (X + Y) ** 3 * 2 - 2 * Y + 7
    assert p.substitute("x", Z) == Z**3 * Y - 2 * Z + 7
    assert p.cast(PolyRing(("z", "y", "x"))).variables() == ("z", "y", "x")


# -- the dense univariate gcd against the recursive route ------------------------


def reference_gcd(p, q):
    """The recursive primitive remainder sequence, as _gcd ran it before the dense route."""
    ring = p.ring
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() and q.is_constant():
        return ring.const(math.gcd(p.constant_value(), q.constant_value()))
    v = min(p.variables() + q.variables(), key=ring.index.__getitem__)

    def content_pp(f):
        cont = ring.zero()
        for d in range(f.degree_in(v) + 1):
            c = f.coeff_in(v, d)
            if not c.is_zero():
                cont = reference_gcd(cont, c)
        return cont, f.div_exact(cont)

    def prem(f, g):
        dg = g.degree_in(v)
        lc_g = g.coeff_in(v, dg)
        r = f
        while not r.is_zero() and r.degree_in(v) >= dg:
            dr = r.degree_in(v)
            r = r * lc_g - g * r.coeff_in(v, dr) * ring.monomial(v, dr - dg)
        return r

    cp, f = content_pp(p)
    cq, g = content_pp(q)
    cont = reference_gcd(cp, cq)
    if f.degree_in(v) < g.degree_in(v):
        f, g = g, f
    while not g.is_zero():
        r = prem(f, g)
        if not r.is_zero():
            r = content_pp(r)[1]
        f, g = g, r
    if f.degree_in(v) == 0:
        return cont.normalized()
    return (cont * content_pp(f)[1]).normalized()


def test_dense_gcd_matches_the_recursive_route(rng, monkeypatch):
    from charvar import polynomials

    dense_calls = []
    dense = polynomials._dense_gcd
    monkeypatch.setattr(
        polynomials, "_dense_gcd", lambda p, q, v: dense_calls.append(v) or dense(p, q, v)
    )
    for ring, name in ((T_RING, "t"), (R, "y"), (R_WITNESS, "x1")):
        v = ring.var(name)

        def univariate(max_deg, max_coeff=6):
            terms = {}
            for e in range(rng.randint(0, max_deg) + 1):
                c = rng.randint(-max_coeff, max_coeff)
                if c:
                    terms[e] = c
            return sum((c * v**e for e, c in terms.items()), ring.zero())

        for _ in range(150):
            shared = univariate(3) if rng.random() < 0.7 else ring.one()
            p = rng.choice([1, -1, 2, -6, 12]) * shared * univariate(4)
            q = rng.choice([1, -1, 3, -4, 18]) * shared * univariate(4)
            if rng.random() < 0.1:
                q = ring.const(rng.choice([-12, -1, 0, 5, 18]))
            got = poly_gcd(p, q)
            assert got == reference_gcd(p, q), (p, q)
            assert poly_gcd(q, p) == got
            assert got.is_zero() or got.leading_coefficient() > 0
            if not p.is_zero() and not q.is_zero():
                assert p.div_exact(got) is not None and q.div_exact(got) is not None
    assert len(dense_calls) > 200
    # named cases: a shared factor with content, negative leads, coprime pairs
    assert poly_gcd(-6 * (T + 1) ** 2 * (T - 2), 4 * (T + 1) * (T + 3)) == 2 * (T + 1)
    assert poly_gcd(-(T**5) + T, -(T**3) + T) == T**3 - T
    assert poly_gcd(3 * T**2 + 3, 6 * T - 6) == 3
    assert poly_gcd(T**2 - 2, T**2 + T).is_one()


def test_univariate_content_gcd_matches_the_recursive_route_and_sympy(rng, monkeypatch):
    from charvar import polynomials

    sympy = pytest.importorskip("sympy")
    calls = []
    route = polynomials._univariate_content_gcd
    monkeypatch.setattr(
        polynomials, "_univariate_content_gcd", lambda u, f, v: calls.append(v) or route(u, f, v)
    )

    def univariate(name, max_deg=3):
        v = R.var(name)
        p = R.zero()
        while len(p.terms) < 2:  # two terms at least, so not the monomial route
            p = sum((rng.randint(-5, 5) * v**e for e in range(max_deg + 1)), R.zero())
        return p

    def general(names=R.names):
        p = R.zero()
        while len(p.variables()) < 2 or len(p.terms) < 2:  # nor a monomial
            p = random_poly(rng, R, max_terms=5, max_deg=3, max_coeff=6)
            p = p.map_values({n: R.var(n) if n in names else 1 for n in R.names}, R)
        return p

    def shared_factor():
        s = univariate("z", 2)
        return s * univariate("z"), s * general()

    kinds = {
        # an operand univariate in a variable the other also has
        "shared variable": ("y", lambda: (univariate("y"), general())),
        # an operand whose only variable the other lacks
        "missing variable": ("z", lambda: (univariate("z"), general(("x", "y")))),
        # a primitive part in x alone after the content split on x
        "univariate primitive part": ("x", lambda: (
            general(("y", "z")) * univariate("x"), general() * (X + Y + 1))),
        # a shared nontrivial factor
        "shared factor": ("z", shared_factor),
        # integer contents on both sides
        "integer contents": ("x", lambda: (
            rng.choice([2, -6, 12]) * univariate("x"), rng.choice([3, -4, 18]) * general())),
    }
    for kind, (var, draw) in kinds.items():
        calls.clear()
        for _ in range(25):
            p, q = draw()
            got = poly_gcd(p, q)
            assert got == reference_gcd(p, q), (kind, p, q)
            assert poly_gcd(q, p) == got
            assert got.leading_coefficient() > 0
            # sympy's sign convention may differ from the graded-lex lead's
            ours, theirs = to_sympy(sympy, got), sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q))
            assert sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0, (kind, p, q)
        # the route ran on every pair, in the univariate operand's variable
        assert calls.count(var) >= 50, kind
    # named cases: the shared factor and the integer contents both survive
    assert poly_gcd(6 * (Y + 1) * (Y - 2), 4 * (Y + 1) * X * Z + 8 * Y + 8) == 2 * (Y + 1)
    assert poly_gcd(3 * Z**2 - 3, 6 * X**2 * Y + 9 * X) == 3
    assert poly_gcd(Z**2 + 1, X * Z**2 + X + Y * Z**2 + Y) == Z**2 + 1


def test_every_gcd_route_returns_a_positive_lead(rng, monkeypatch):
    from charvar import polynomials

    seen = set()
    for name in ("_monomial_gcd", "_univariate_content_gcd", "_dense_gcd", "_prem"):
        route = getattr(polynomials, name)
        monkeypatch.setattr(
            polynomials, name, lambda *args, _name=name, _route=route: seen.add(_name) or _route(*args)
        )

    def general():  # two variables and two terms at least
        p = R.zero()
        while len(p.variables()) < 2 or len(p.terms) < 2:
            p = random_poly(rng, R, max_terms=5, max_deg=3, max_coeff=6)
        return p

    def univariate():
        p = R.zero()
        while len(p.terms) < 2:
            p = sum((rng.randint(-5, 5) * Y**e for e in range(4)), R.zero())
        return p

    def sign():
        return rng.choice([1, -1, 2, -3, -6])

    shared = X * Y - Z + 1
    draws = {
        "zero": lambda: (R.zero(), sign() * general()),
        "constants": lambda: (R.const(rng.randint(-9, 9)), R.const(sign())),
        "monomial": lambda: (sign() * X**2 * Z, sign() * general()),
        "univariate content": lambda: (sign() * univariate(), sign() * general()),
        "univariate content, shared factor": lambda: (
            sign() * (2 - Y) * univariate(), sign() * (Y - 2) * general()),
        "univariate primitive part": lambda: (
            general() * (Y**2 - 2), sign() * general() * (Y**2 - 2)),
        "remainder sequence, shared factor": lambda: (
            sign() * shared * general(), sign() * shared * general()),
        "remainder sequence": lambda: (sign() * general(), sign() * general()),
    }
    constant = 0
    for kind, draw in draws.items():
        for _ in range(40):
            p, q = draw()
            for a, b in ((p, q), (q, p)):
                got = polynomials._gcd(a, b)
                assert poly_gcd(a, b) == got, (kind, a, b)
                assert got.is_zero() or got.leading_coefficient() > 0, (kind, a, b)
            constant += got.is_constant()
    assert seen == {"_monomial_gcd", "_univariate_content_gcd", "_dense_gcd", "_prem"}
    assert 0 < constant < 320


# -- packed terms -----------------------------------------------------------------


def tuple_mul(a, b):
    """Product of two tuple-keyed term maps, kept as an independent reference."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(i + j for i, j in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_packed_equal_values_compare_and_hash_alike(rng):
    for _ in range(100):
        p = random_poly(rng, R, max_terms=5, max_deg=4)
        q = random_poly(rng, R, max_terms=5, max_deg=4)
        built = [
            p * q,
            q * p,
            R.from_terms(tuple_mul(p.terms, q.terms)),
            (p * q).map_values({"x": X, "y": Y, "z": Z}, R),
            (p * q).cast(PolyRing(("z", "y", "x"))).cast(R),
            p * q + X**1500 - X**1500,  # a wider field width from a looser bound
        ]
        for a in built:
            for b in built:
                assert a == b and hash(a) == hash(b)
        table = {built[0]: "found"}
        assert all(table[b] == "found" for b in built)
    wide = X**1030 + Y - X**1030
    assert wide == Y and hash(wide) == hash(Y) and {Y: 1}[wide] == 1
    assert wide != Y + 1 and wide - Y == 0


def test_packed_products_and_substitutions_past_ten_bits(rng):
    for top in (1023, 1024, 1500, 5000):
        for _ in range(20):
            p = random_poly(rng, R, max_terms=5, max_deg=3)
            q = random_poly(rng, R, max_terms=5, max_deg=3)
            big = R.from_terms({(top, 0, 1): 3, (0, top // 2, 0): -2, (1, 1, 1): 5})
            for a, b in ((p * big, q), (big, big + q), (big * X**top, p)):
                assert (a * b).terms == tuple_mul(a.terms, b.terms)
            # z -> y^2 + x: a substitution whose result has exponents near 2 top
            value = Y**2 + X
            got = (big + p).substitute("z", value)
            want = {}
            for (i, j, k), c in (big + p).terms.items():
                term = {(i, j, 0): c}
                for _ in range(k):
                    term = tuple_mul(term, value.terms)
                for e, d in term.items():
                    want[e] = want.get(e, 0) + d
            assert got.terms == {e: c for e, c in want.items() if c}
            assert (big * big).div_exact(big) == big


def test_terms_view_is_tuple_keyed_for_every_kernel_result(rng):
    from charvar.chebyshev import cheb_comb
    from charvar.traces import parse_word, trace_poly

    p = random_poly(rng, R, max_terms=6, max_deg=4) + X * Y + 3
    q = random_poly(rng, R, max_terms=6, max_deg=4) + Z
    results = [
        p + q,
        p - q,
        3 - p,
        -p,
        p * q,
        p**3,
        (p * q).div_exact(q),
        p.map_values({"x": Y + Z, "y": 2, "z": X}, R),
        p.cast(R_WITNESS),
        p.coeff_in("x", 1),
        p.derivative("y"),
        (6 * p).primitive_part(),
        poly_gcd(p * q, q * (X + 1)),
        cheb_comb(5, Z, p, q),
        trace_poly(parse_word("abAB a^3 b^-2")),
        from_json((p * q).to_json(), R),
        R.monomial("z", 1200) * p,
    ] + p.coeffs_in("z")
    for r in results:
        terms = r.terms
        assert type(terms) is dict
        for exp, c in terms.items():
            assert type(exp) is tuple and len(exp) == len(r.ring.names)
            assert all(type(e) is int and e >= 0 for e in exp)
            assert type(c) is int and c != 0
        assert r.terms is terms  # built once, then cached
        assert r == r.ring.from_terms(terms)


def test_from_json_checks_each_term_once():
    def poly(*terms):
        return {"vars": ["x", "y", "z"], "terms": [{"exp": e, "coeff": c} for e, c in terms]}

    # repeated exponents are summed; a sum of zero leaves no term
    assert from_json(poly(([1, 0, 2], "3"), ([1, 0, 2], "-1"), ([0, 0, 0], "7")), R) == (
        2 * X * Z**2 + 7
    )
    assert from_json(poly(([2, 0, 0], "5"), ([2, 0, 0], "-5")), R).is_zero()
    for exp in ([1, 0], [1, 0, 2, 0], [0, -1, 0], ["a", 0, 0]):
        with pytest.raises(ValueError):
            from_json(poly(([0, 0, 0], "1"), (exp, "2")), R)
    for coeff in ("x", "1.5", ""):
        with pytest.raises(ValueError):
            from_json(poly(([0, 0, 1], coeff)), R)
    # exponents past ten bits widen the fields and read back unchanged
    wide = X**1500 * Y - 3 * Z**70000 + 2
    assert from_json(wide.to_json(), R) == wide
    assert from_json(json.loads(json.dumps(wide.to_json()))).terms == wide.terms


def _to_json_reference(p):
    # to_json as first written: the exponent-tuple terms, sorted by
    # (degree, exponent), descending
    terms = p.terms
    ordered = [item for _, item in sorted(zip(map(sum, terms), terms.items()), reverse=True)]
    terms = [{"exp": list(e), "coeff": str(c)} for e, c in ordered]
    return {"vars": list(p.ring.names), "terms": terms}


def test_to_json_matches_the_terms_reference(rng):
    polys = [R.zero(), R.const(7), R.const(-3), T_RING.const(5), T_RING.zero(), T**1100 - 4 * T]
    # degrees past 2**10 - 1 in 10-bit fields, exponents past ten bits, and
    # loose exponent bounds, in and past the 10-bit width
    polys += [
        X**400 * Y**400 * Z**400 - X**1000 + Y**999 * Z,
        X**1500 * Y - 3 * Z**70000 + 2,
        (X**600 + Y * Z) - X**600,
        (X**2000 - 5 * Y**2 * Z) - X**2000,
    ]
    for ring in (R, T_RING, R_WITNESS):
        for max_deg, scale in ((6, 1), (6, 10**40), (1500, 1)):
            for _ in range(60):
                polys.append(random_poly(rng, ring, 8, max_deg, 9 * scale))
    assert sum(p._w > 10 for p in polys) > 20 and sum(p.is_constant() for p in polys) > 10
    for p in polys:
        fresh = Polynomial(p.ring, dict(p._packed), p._top)  # no terms cache yet
        expected = _to_json_reference(p)
        assert fresh.to_json() == expected, p
        assert fresh._terms is None
        assert json.dumps(fresh.to_json()) == json.dumps(expected)
        ordered = [(tuple(t["exp"]), int(t["coeff"])) for t in expected["terms"]]
        assert fresh.sorted_terms() == ordered
        assert str(fresh) == str(p.ring.from_terms(p.terms))
        if not p.is_zero():
            assert fresh.leading() == fresh.sorted_terms()[0]


def _blob(*terms, names=("x", "y", "z")):
    return {"vars": list(names), "terms": [{"exp": e, "coeff": c} for e, c in terms]}


def test_from_json_refuses_every_mistyped_short_long_or_negative_term():
    good = ([1, 0, 2], "3")
    bad = [
        (("1", 0, 0), "2"),
        ([1.0, 0, 0], "2"),
        ([True, 0, 0], "2"),
        (["1", 0, 0], "2"),
        ([None, 0, 0], "2"),
        ({"x": 1}, "2"),
        ([1, 0, 0], 1.5),
        ([1, 0, 0], True),
        ([1, 0, 0], None),
        ([1, 0, 0], ["2"]),
        ([1, 0, 0], "x"),
        ([1, 0, 0], "1.5"),
        ([1, 0, 0], ""),
        ([], "2"),
        ([1, 0], "2"),
        ([1, 0, 2, 0], "2"),
        ([0, -1, 0], "2"),
        ([-5, 0, 0], "-2"),
        ([0, 0, -1], 7),
    ]
    for term in bad:
        # alone, beside a good term on either side, and beside a repeated term
        for terms in ((term,), (good, term), (term, good), (good, good, term)):
            with pytest.raises(ValueError):
                from_json(_blob(*terms), R)
            with pytest.raises(ValueError):
                from_json(_blob(*terms))
    with pytest.raises(ValueError):
        from_json({"vars": ("x", "y", "z"), "terms": [{"exp": [1, 0, 2], "coeff": "3"}]})
    with pytest.raises(ValueError):
        from_json(_blob(good, names=("x", "z", "y")), R)


def test_from_json_drops_zero_sums_and_keeps_the_exact_top(rng):
    # a repeated vector whose sum is 0 leaves no term and no trace in the top
    p = from_json(_blob(([2000, 0, 0], "5"), ([0, 3, 1], "2"), ([2000, 0, 0], "-5")), R)
    assert p == 2 * Y**3 * Z and p._top == 3 and p._w == 10
    p = from_json(_blob(([0, 0, 1100], 0), ([5, 0, 1], "1")), R)
    assert p == X**5 * Z and p._top == 5 and p._w == 10
    assert from_json(_blob(([0, 1, 0], "4"), ([0, 1, 0], "-4")), R).is_zero()
    assert from_json(_blob(([0, 1, 0], "4"), ([0, 1, 0], "-1"), ([1, 1, 1], 1)), R) == (
        3 * Y + X * Y * Z
    )
    # without repeats the top is the largest exponent given, whatever the order
    for p in [R.zero(), 7 * X**1500 * Y - Z**3, (X**2000 - Y) - X**2000]:
        for _ in range(20):
            p = p + random_poly(rng, R, max_terms=6, max_deg=40)
            data = p.to_json()
            rng.shuffle(data["terms"])
            q = from_json(json.loads(json.dumps(data)), R)
            assert q == p and q._top == q._exact_top() == p._exact_top()
            assert q._w == _width(q._top)
