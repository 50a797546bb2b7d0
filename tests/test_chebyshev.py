import json
import random

import pytest

from charvar import chebyshev, links, traces, varieties
from charvar.chebyshev import (
    T, T_RING, cheb, cheb_at, cheb_comb, cheb_comb_sign, cheb_pair, distinct_root_count,
)
from charvar.links import relator_words, riley_word
from charvar.polynomials import _WIDE, PolyRing, Polynomial, _width, poly_gcd
from charvar.traces import GAMMA, trace_poly
from charvar.varieties import _match_sign


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
    assert cheb(1) - cheb(0) == T - 1
    assert cheb(2) - cheb(1) == T**2 - T - 1
    assert cheb(0) - cheb(-1) == 1


def test_distinct_root_count():
    assert distinct_root_count(cheb(4)) == 4
    assert distinct_root_count((T - 1) ** 2) == 1
    assert distinct_root_count(cheb(3) - cheb(2)) == 3
    for k in range(1, 14):
        assert distinct_root_count(cheb(k)) == k
        assert distinct_root_count(cheb(k) - cheb(k - 1)) == k
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


def _comb_cases():
    # (tau, u, v) triples of the recurrence tests
    R1 = PolyRing(("x",))
    x = R1.var("x")
    R3 = PolyRing(("x", "y", "z"))
    X, Y, Z = R3.var("x"), R3.var("y"), R3.var("z")
    return [
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
        (X**200 * Y - Z, Y**3, X),  # exponents past ten bits widen the fields
    ]


def _want(case, s, k):
    _, u, v = case
    return u * s[k] - v * s[k - 1]


def test_cheb_comb_matches_recurrence():
    # cheb_comb and both members of cheb_pair's (C_k, C_{k-1})
    for tau, u, v in _comb_cases():
        s = _s_table(tau, -8, 12)
        for k in range(-6, 13):
            got = cheb_comb(k, tau, u, v)
            hi, lo = cheb_pair(k, tau, u, v)
            assert got.ring == hi.ring == lo.ring == tau.ring
            assert got == hi == u * s[k] - v * s[k - 1], (tau, u, v, k)
            assert lo == u * s[k - 1] - v * s[k - 2], (tau, u, v, k)


def test_cheb_comb_in_any_order_from_a_reset_or_warm_pair():
    # no call leaves state behind: every order of indices, and two triples
    # interleaved, give the values of the recurrence
    rng = random.Random(13)
    cases = _comb_cases()
    tables = [_s_table(tau, -7, 12) for tau, _, _ in cases]
    shuffled = list(range(-6, 13))
    rng.shuffle(shuffled)
    orders = [list(range(-6, 13)), list(range(12, -7, -1)), shuffled]
    for order in orders:
        for case, s in zip(cases, tables):
            for k in order:
                assert cheb_comb(k, *case) == _want(case, s, k), (case, k, order)
    for i in range(len(cases) - 1):
        first, second = cases[i], cases[i + 1]
        for k, j in zip(orders[0], orders[2]):
            assert cheb_comb(k, *first) == _want(first, tables[i], k)
            assert cheb_comb(j, *second) == _want(second, tables[i + 1], j)


def _multipliers(ring):
    # a constant, a polynomial in one variable and, in three variables, one in all three
    first = ring.var(ring.names[0])
    out = [ring.const(-3), first**2 - 2 * first + 5]
    if len(ring.names) == 3:
        X, Y, Z = (ring.var(n) for n in ring.names)
        out.append(X * Y**2 - 3 * Z + X * Z + 1)
    return out


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "warm"])
def test_cheb_comb_is_linear_in_u_and_v(reset):
    # cheb_comb(k, tau, u R, v R) = R cheb_comb(k, tau, u, v): a component
    # report forms a family factor's product with the other factors R so.
    # reset: C_k by its own call from (u, v); warm: C_k as the lower member
    # of the pair one step on, the value a block collapse keeps
    def comb(k, tau, u, v):
        return cheb_comb(k, tau, u, v) if reset else cheb_pair(k + 1, tau, u, v)[1]

    for tau, u, v in _comb_cases():
        for r in _multipliers(tau.ring):
            sides = [[comb(k, tau, *uv) for k in range(-6, 13)] for uv in ((u * r, v * r), (u, v))]
            for k, lhs, rhs in zip(range(-6, 13), *sides):
                assert lhs == r * rhs, (tau, u, v, r, k)


def test_whitehead_relator_traces_with_cold_and_warm_memos(monkeypatch):
    # W_k = b(4k + 4, 2k + 1): the two relator words collapse one block on
    # one (tau, u, v) with repeat counts r and r - 1; the collapse of
    # a w a^-1 b^-1 keeps the trace of w b^-1
    for k in range(13):
        words = relator_words(riley_word(2 * k + 2, 2 * k + 1))
        cold = []
        for u in words:
            monkeypatch.setattr(traces, "_memo", {})
            cold.append(json.dumps(trace_poly(u).to_json()))
        for order in (words, words[::-1]):
            monkeypatch.setattr(traces, "_memo", {})
            warm = [json.dumps(trace_poly(u).to_json()) for u in order]
            assert warm == (cold if order is words else cold[::-1]), k


def _ladder(k, tau, u, v):
    # the operands cheb_pair hands its loops: steps, then tau and the start
    # pair, going down the swapped one, at a width that holds every exponent
    u, v = (tau.ring.const(c) if isinstance(c, int) else c for c in (u, v))
    steps = abs(k)
    w = _width(max(u._exact_top(), v._exact_top()) + steps * tau._exact_top())
    a, b = (u._at(w), v._at(w)) if k > 0 else (v._at(w), u._at(w))
    return steps, tau._at(w), a, b, w


def _random_poly(rng, ring, terms, degree, coeff):
    return ring.from_terms({
        tuple(rng.randint(0, degree) for _ in ring.names): rng.choice((-1, 1)) * rng.randint(1, coeff)
        for _ in range(terms)
    })


def _row_cases():
    rng = random.Random(32)
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(n) for n in R3.names)
    t = T_RING.var("t")
    cases = [
        (R3.const(-3), 2, -1),  # constant tau, int u and v
        (R3.const(5), x * z - 4, 0),  # zero v
        (x * z - y, 0, z**2 + 7),  # zero u
        (x**2 + y**2 + z**2 - x * y * z - 2, z, x * y - z),  # gamma
        (3 * z**2 - 7 * x * z + 2, -5 * y + z, 11),  # negative and non-unit coefficients
        (t**2 - 2, t + 1, -3),  # one variable: one row
        (t**100 - 2 * t + 1, 1, t),  # top reaches 1024: fields of 11 bits
        (x * z**95 - 3 * y, z**5, x + z),  # top reaches 1024 in three variables
    ]
    for ring, degree in ((R3, 3), (T_RING, 4)):
        for _ in range(6):
            tau = _random_poly(rng, ring, rng.randint(1, 5), degree, 9)
            u = _random_poly(rng, ring, rng.randint(1, 6), degree, 1000)
            v = rng.choice([0, rng.randint(-50, 50), _random_poly(rng, ring, 4, degree, 10**12)])
            cases.append((tau, u, v))
    return cases


def test_row_loop_gives_the_term_loop_pair():
    for tau, u, v in _row_cases():
        for k in (-11, -4, -1, 0, 1, 2, 5, 11):
            steps, t, a, b, w = _ladder(k, tau, u, v)
            want = chebyshev._steps(steps, t, a, b)
            assert chebyshev._row_steps(steps, t, a, b, w) == want, (tau, u, v, k)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_row_digits_hold_the_bound(k):
    # tau = c z from (1, -1): C_k's top coefficient c^k has the bit length
    # of the coefficient bound, so a digit one bit narrower misreads it
    c = 1 << 20
    z = PolyRing(("x", "y", "z")).var("z")
    steps, t, a, b, w = _ladder(k, c * z, 1, -1)
    hi, lo = chebyshev._row_steps(steps, t, a, b, w)
    assert (hi, lo) == chebyshev._steps(steps, t, a, b)
    assert hi[k] == c**k


def test_long_ladders_take_rows_and_small_pretzel_row_steps_do_not(monkeypatch):
    loops = []  # (loop, region) per call of either loop
    region = [None]  # the wrapped caller running, if any
    for name in ("_steps", "_row_start"):
        def recorded(*args, _loop=getattr(chebyshev, name), _name=name):
            loops.append((_name, region[0]))
            return _loop(*args)
        monkeypatch.setattr(chebyshev, name, recorded)

    def within(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            region[0] = name
            try:
                return fn(*args)
            finally:
                region[0] = None
        monkeypatch.setattr(module, name, wrapped)

    within(varieties, "_report")
    within(links, "_extend_row")
    varieties.verify_twisted_whitehead(12)
    # the W_12 report ladder is (S_6 - S_5)(gamma) times the other factors;
    # its operands are packed into rows, then _steps runs on the rows
    assert [loop for loop, where in loops if where == "_report"] == ["_row_start", "_steps"]
    loops.clear()
    monkeypatch.setattr(links, "_q_rows", {})
    for n in range(-5, 6):
        links.pretzel_q(2, n, *links.PRETZEL_COORDS)
    stepped = [loop for loop, where in loops if where == "_extend_row"]
    assert stepped and set(stepped) == {"_steps"}


def _w12_report_ladder():
    # (k, tau, u, v) of W_12's report: (S_6 - S_5)(gamma) times R, the
    # product of the other two factors, is C_6 from (R, R)
    _, _, q = links.twisted_whitehead_factors(12)
    prod = q * links.REDUCIBLE_SURFACE
    return 6, GAMMA, prod, prod


def _sign_cases():
    # seeded ladders on either side of ROW_LADDER_MIN, with u = v and
    # v = 0 among them, and W_12's report ladder
    rng = random.Random(34)
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = (R3.var(n) for n in R3.names)
    gamma = x**2 + y**2 + z**2 - x * y * z - 2
    cases = []
    for terms in (3, 150):
        u, v = (_random_poly(rng, R3, terms, 8, 1000) for _ in range(2))
        for k in (0, 1, 2, 6):
            cases += [(k, gamma, u, v), (k, gamma, u, u), (k, gamma, u, 0)]
    t = T_RING.var("t")
    cases.append((40, t**3 - 2 * t, _random_poly(rng, T_RING, 30, 40, 50), 7))
    return cases + [_w12_report_ladder()]


def test_comb_sign_is_the_sign_of_cheb_comb():
    kinds = set()
    for k, tau, u, v in _sign_cases():
        ring, last = tau.ring, tau.ring.names[-1]
        _, top, w, steps, t, a, b, rows = chebyshev._ladder(k, tau, u, v)
        kinds.add((rows, "u = v" if u is v else "v = 0" if isinstance(v, int) and not v else ""))
        c = cheb_comb(k, tau, u, v)
        other = PolyRing(ring.names + ("w",))
        targets = [
            c, -c, c + 1, ring.zero(),
            other.from_terms({e + (0,): n for e, n in c.terms.items()}),
            Polynomial(ring, c._at(_width(_WIDE)), _WIDE),  # wider fields
            c + ring.monomial(last, top + 1),
        ]
        if rows:
            # 2**beta m - m z has the rows of 0 for m one of C's terms: only
            # the bound on the target's coefficients tells it from C
            beta = chebyshev._row_start(steps, t, a, b, w)[0]
            m = ring.from_terms(dict([next(iter(c.terms.items()))]))
            alias = c + (1 << beta) * m - m * ring.var(last)
            assert alias._w == w
            assert chebyshev._rows(alias._packed, w, beta) == chebyshev._rows(c._at(w), w, beta)
            targets.append(alias)
        for target in targets:
            assert cheb_comb_sign(k, tau, u, v, target) == _match_sign(target, c), (k, tau, target)
    assert kinds >= {(True, "u = v"), (True, "v = 0"), (True, ""), (False, "u = v"), (False, "")}
    assert chebyshev._ladder(*_w12_report_ladder())[-1]


def test_only_the_members_read_are_unpacked(monkeypatch):
    unrows = []  # the wrapped caller running at each _unrows call
    region = [None]
    report = varieties._report

    def counted(*args, _unrows=chebyshev._unrows):
        unrows.append(region[0])
        return _unrows(*args)

    def within_report(*args):
        region[0] = "_report"
        try:
            return report(*args)
        finally:
            region[0] = None
    monkeypatch.setattr(chebyshev, "_unrows", counted)
    monkeypatch.setattr(varieties, "_report", within_report)
    monkeypatch.setattr(traces, "_memo", {})
    monkeypatch.setattr(links, "char_poly_twobridge", links.char_poly_twobridge.__wrapped__)
    varieties.verify_twisted_whitehead(12)
    # the relator words' collapse reads its value and its kept r - 1
    # neighbour; the report compares rows and unpacks nothing
    assert unrows == [None, None]
    unrows.clear()
    cheb_comb(*_w12_report_ladder())
    assert unrows == [None]
