import json
import math

import pytest

from charvar.polynomials import (
    NEG_INF,
    PolyRing,
    from_json,
    is_perfect_square,
    poly_gcd,
)

from conftest import random_poly

R = PolyRing(("x", "y", "z"))
X, Y, Z = R.var("x"), R.var("y"), R.var("z")
T_RING = PolyRing(("t",))
T = T_RING.var("t")


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
