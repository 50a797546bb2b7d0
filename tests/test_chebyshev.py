import cmath
import random

import pytest

from charvar.chebyshev import T, cheb, cheb_at, cheb_comb, cheb_diff, distinct_root_count
from charvar.polynomials import PolyRing, poly_gcd


def test_base_values():
    assert cheb(0) == 1
    assert cheb(1) == T
    assert cheb(2) == T**2 - 1
    assert cheb(-1).is_zero()
    assert cheb(-3) == -T


def test_recursion_all_signs():
    for k in range(-12, 12):
        assert cheb(k + 1) == T * cheb(k) - cheb(k - 1)


def test_value_at_plus_minus_two():
    for k in range(-10, 11):
        assert cheb(k).evaluate({"t": 2}) == k + 1
        assert cheb(k).evaluate({"t": -2}) == (-1) ** k * (k + 1)


def test_negative_index_fold():
    for k in range(-10, 11):
        assert cheb(-k) == -cheb(k - 2)


def test_pell_identity():
    for k in range(-10, 11):
        assert cheb(k) ** 2 + cheb(k - 1) ** 2 - T * cheb(k) * cheb(k - 1) == 1


def test_triple_index_identity():
    for k in range(-6, 7):
        lhs = cheb(k) ** 3 - 3 * cheb(k) * cheb(k - 1) ** 2 + T * cheb(k - 1) ** 3
        assert lhs == cheb(3 * k)


def test_quotient_of_powers():
    rng = random.Random(5)
    for _ in range(20):
        q = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.5, 1.5))
        if abs(abs(q) - 1) < 0.05:
            q *= 1.5
        t = q + 1 / q
        for k in range(-8, 9):
            want = (q ** (k + 1) - q ** (-k - 1)) / (q - 1 / q)
            got = cheb(k).evaluate({"t": t})
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_consecutive_coprime():
    for k in range(1, 16):
        assert poly_gcd(cheb(k), cheb(k - 1)).is_one()


def test_cheb_diff():
    assert cheb_diff(1) == T - 1
    assert cheb_diff(2) == T**2 - T - 1
    assert cheb_diff(0) == 1


def test_distinct_root_count():
    assert distinct_root_count(cheb(4)) == 4
    assert distinct_root_count((T - 1) ** 2) == 1
    assert distinct_root_count(cheb_diff(3)) == 3
    for k in range(1, 14):
        assert distinct_root_count(cheb(k)) == k
        assert distinct_root_count(cheb_diff(k)) == k
    with pytest.raises(ValueError):
        distinct_root_count(T.ring.zero())
    R = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        distinct_root_count(R.var("x") + R.var("y"))


def test_cheb_at_matches_substitution():
    R = PolyRing(("x", "y", "z"))
    inner = R.var("x") * R.var("z") - R.var("y")
    for k in range(-6, 7):
        assert cheb_at(k, inner) == cheb(k).map_values({"t": inner}, R)


def _s_table(tau, lo, hi):
    # S_k(tau) for lo <= k <= hi from S_0 = 1, S_1 = tau and the recurrence
    # S_{k+1} = tau S_k - S_{k-1}, run upwards and, solved for S_{k-1},
    # downwards, in tau's ring
    s = {0: tau.ring.one(), 1: tau}
    for k in range(1, hi):
        s[k + 1] = tau * s[k] - s[k - 1]
    for k in range(0, lo, -1):
        s[k - 1] = tau * s[k] - s[k + 1]
    return s


def test_cheb_comb_matches_recurrence():
    R1 = PolyRing(("x",))
    x = R1.var("x")
    R3 = PolyRing(("x", "y", "z"))
    X, Y, Z = R3.var("x"), R3.var("y"), R3.var("z")
    cases = [
        (R1.const(3), 2, -1),  # constant tau
        (R1.const(-2), x, 0),
        (x, 2, x),  # t -> x and v -> x: two sources into one target
        (x, 0, x + 1),
        (x, 0, 0),
        (x**2 - 2, x + 1, 3),
        (Z, 2, Z),
        (X, Y, X),
        (X * Y - Z, X * Z - Y, X * Y - 2 * Z),
        (X * Y * Z + 2 - Y**2 - Z**2, Y, 0),
        (X**2 + Y**2 + Z**2 - X * Y * Z - 2, Z, X * Y - Z),
    ]
    for tau, u, v in cases:
        s = _s_table(tau, -7, 12)
        for k in range(-6, 13):
            got = cheb_comb(k, tau, u, v)
            assert got.ring == tau.ring
            assert got == u * s[k] - v * s[k - 1], (tau, u, v, k)
