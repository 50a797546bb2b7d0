import random
import sys
import threading

import pytest

from charvar import links, varieties
from charvar.chebyshev import cheb_at, cheb_comb
from charvar.links import (
    REDUCIBLE_SURFACE,
    Pretzel,
    TwistedWhitehead,
    TwoBridge,
    char_poly_twobridge,
    char_poly_variants,
    parse_link,
    pretzel_char_poly,
    riley_word,
    twisted_whitehead_factors,
    twobridge3_nonabelian,
    whitehead_block_word,
)
from charvar.traces import GAMMA, X, Y, Z, parse_word, trace_poly


def test_link_parsing_and_validation():
    assert parse_link("twobridge:4,3") == TwoBridge(4, 3)
    assert parse_link("pretzel:2,-1") == Pretzel(2, -1)
    assert parse_link("whitehead:3") == TwistedWhitehead(3)
    assert TwistedWhitehead(3).as_two_bridge() == TwoBridge(8, 7)
    for bad in ("twobridge:3,4", "twobridge:4,2", "twobridge:6,3", "whitehead:-1", "nope:1"):
        with pytest.raises(ValueError):
            parse_link(bad)


def test_riley_words():
    assert riley_word(4, 3) == parse_word("b a B A B a b")
    assert riley_word(2, 1) == parse_word("b a b")
    # epsilon signs come from the floor sequence
    w = riley_word(5, 3)
    assert len(w) == 9
    assert all(abs(e) == 1 for _, e in w)


def test_riley_word_matches_block_form():
    for k in range(0, 11):
        assert riley_word(2 * k + 2, 2 * k + 1) == whitehead_block_word(k)


def test_whitehead_link_char_poly():
    # b(8,3) is the k = 1 twisted Whitehead link
    full = char_poly_twobridge(4, 3).full
    q = X * Y - GAMMA * Z
    assert full == -(REDUCIBLE_SURFACE * q) or full == REDUCIBLE_SURFACE * q


def test_torus_link_four_one():
    # b(4,1) is the (2,4)-torus link W_0: nonabelian factor z
    full = char_poly_twobridge(2, 1).full
    assert full.div_exact(REDUCIBLE_SURFACE) in (Z, -Z)


def test_char_poly_variants_agree_up_to_sign():
    for p, m in [(4, 3), (5, 3), (4, 1), (6, 5)]:
        f1, f2 = char_poly_variants(p, m)
        assert f1 == f2 or f1 == -f2


def test_pretzel_examples():
    q = pretzel_char_poly(2, 2).nonabelian
    assert q == (
        -(X**2) * Z**2 + X * Y * Z**3 + X * Y * Z - Y**2 * Z**2 - Z**4 + 3 * Z**2 - 1
    )
    assert pretzel_char_poly(0, 3).nonabelian == cheb_at(3, X * Z - Y)
    assert pretzel_char_poly(1, 2).nonabelian == (Z - 1) * (Z + 1)
    assert pretzel_char_poly(1, 3).nonabelian == Z * (Y * Z - X)
    cp = pretzel_char_poly(0, -1)
    assert cp.full.is_zero()
    assert not pretzel_char_poly(1, 2).full.is_zero()


def test_pretzel_word_gives_the_closed_form():
    # the difference the fingerprint takes, along a^-1 W a b^-1 and W b^-1,
    # is the closed form exactly, with sign +; both are 0 on the unlink (0, -1)
    for m in range(-5, 6):
        for n in range(-5, 6):
            left, right = links.relator_words(links.pretzel_word(m, n), conjugate_by_inverse=True)
            assert trace_poly(left) - trace_poly(right) == pretzel_char_poly(m, n).full, (m, n)
    assert links.relator_word(Pretzel(2, 3)) == links.pretzel_word(2, 3)
    assert links.relator_word(TwistedWhitehead(3)) == riley_word(8, 7)
    assert links.relator_word(TwoBridge(5, 3)) == riley_word(5, 3)


def test_pretzel_full_splits_off_reducible_surface():
    for m, n in [(2, 2), (0, 3), (-1, 2), (3, -2)]:
        cp = pretzel_char_poly(m, n)
        assert cp.full == REDUCIBLE_SURFACE * cp.nonabelian


def test_pretzel_m1_reduction_formula():
    # (xz - y) S_{n-1}(y) - (xyz + 1 - y^2 - z^2) S_{n-2}(y)
    # collapses to -x z S_{n-3}(y) + z^2 S_{n-2}(y) + S_{n-4}(y)
    for n in range(-4, 7):
        q = pretzel_char_poly(1, n).nonabelian
        expected = (
            -X * Z * cheb_at(n - 3, Y) + Z**2 * cheb_at(n - 2, Y) + cheb_at(n - 4, Y)
        )
        assert q == expected, n


# the coordinate triples (x1, y, beta) pretzel_q runs in: the link's own,
# and the two of the certificate chains
PRETZEL_Q_COORDS = {
    "RING": links.PRETZEL_COORDS,
    "R_X1": varieties._X1_COORDS,
    "R_B2": varieties._B2_COORDS,
}


@pytest.mark.parametrize("ring", list(PRETZEL_Q_COORDS))
def test_pretzel_q_rows_give_the_closed_form_in_any_order(ring):
    # each pass starts from an emptied memo, so every order builds its rows
    # up, down or both ways from (Q(m, 0), Q(m, 1))
    x1, y, beta = coords = PRETZEL_Q_COORDS[ring]
    points = [(m, n) for m in range(-5, 6) for n in range(-5, 6)]
    expected = {
        (m, n): cheb_comb(n - 1, cheb_comb(m - 1, beta, y, x1), x1, cheb_comb(m, beta, 1, 1))
        for m, n in points
    }

    def visit(order):
        return [(m, n) for m, n in order if links.pretzel_q(m, n, *coords) != expected[m, n]]

    shuffled = random.Random(31).sample(points, len(points))
    for order in (points, points[::-1], shuffled):
        links._q_rows.clear()
        assert visit(order) == []
    # four threads extend the same rows at once, each in its own order
    links._q_rows.clear()
    start = threading.Barrier(4, timeout=60)
    wrong = []  # one list per thread that finished

    def worker(seed):
        order = random.Random(seed).sample(points, len(points))
        start.wait()
        wrong.append(visit(order))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside a row's extension
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [[]] * 4


def test_twobridge3_closed_form_values():
    q4 = twobridge3_nonabelian(4)
    assert q4 == (X**2 + Y**2) * Z - X * Y * (Z**2 + 1) + Z**3 - 2 * Z
    q5 = twobridge3_nonabelian(5)
    assert q5 == (X**2 + Y**2) * Z**2 - X * Y * Z**3 - X * Y * Z + Z**4 - 3 * Z**2 + 1
    with pytest.raises(ValueError):
        twobridge3_nonabelian(6)
    with pytest.raises(ValueError):
        twobridge3_nonabelian(3)


def test_twobridge3_rotated_shape():
    # Q_4 rotated by x -> x+y, y -> x-y
    q4 = twobridge3_nonabelian(4)
    from charvar.traces import RING

    rotated = q4.map_values({"x": X + Y, "y": X - Y, "z": Z}, RING)
    assert rotated == Y**2 * (Z + 1) ** 2 - X**2 * (Z - 1) ** 2 + Z**3 - 2 * Z


def test_twobridge3_matches_word_derived_with_constant_sign():
    signs = {1: set(), 2: set()}
    for p in (4, 5, 7, 8, 10, 11):
        full = char_poly_twobridge(p, 3).full
        prod = REDUCIBLE_SURFACE * twobridge3_nonabelian(p)
        assert full == prod or full == -prod
        signs[p % 3].add(1 if full == prod else -1)
    # one sign per residue family
    assert len(signs[1]) == 1 and len(signs[2]) == 1


def test_whitehead_factor_triples():
    r, c, q = twisted_whitehead_factors(1)
    assert r == REDUCIBLE_SURFACE and c == 1 and q == X * Y - GAMMA * Z
    r, c, q = twisted_whitehead_factors(0)
    assert c == 1 and q == Z
    r, c, q = twisted_whitehead_factors(2)
    assert c == GAMMA - 1 and q == Z * GAMMA - X * Y + Z
    with pytest.raises(ValueError):
        twisted_whitehead_factors(-1)


def test_whitehead_cross_family_consistency():
    # b(8,3) is also W_1, so the two closed forms agree up to sign
    _, _, q_white = twisted_whitehead_factors(1)
    assert twobridge3_nonabelian(4) == -q_white


def test_whitehead_products_match_word_derived():
    for k in (0, 1, 2, 3):
        r, c, q = twisted_whitehead_factors(k)
        full = char_poly_twobridge(2 * k + 2, 2 * k + 1).full
        prod = r * c * q
        assert full == prod or full == -prod


def test_twobridge3_word_derived_far_beyond_the_verify_range():
    # Riley words of 199 to 399 syllables, with the sign of p = 4 or 5,
    # whichever shares the residue of p mod 3
    def product(p):
        return REDUCIBLE_SURFACE * twobridge3_nonabelian(p)

    for p in (100, 101, 200):
        base = 4 if p % 3 == 1 else 5
        sign = 1 if char_poly_twobridge(base, 3).full == product(base) else -1
        assert char_poly_twobridge(p, 3).full == sign * product(p), p
