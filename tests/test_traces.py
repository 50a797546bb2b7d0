import random
import time
from functools import lru_cache
from operator import eq, lshift

import pytest

from charvar import cli, traces
from charvar.links import relator_words, riley_word
from charvar.numeric import random_rep, trace_agreement, traces_of, word_matrix
from charvar.polynomials import _width
from charvar.traces import (
    GAMMA,
    X,
    Y,
    Z,
    canonical_form,
    cyclic_reduce,
    free_reduce,
    parse_word,
    trace_identity_suite,
    trace_poly,
    trace_poly_oracle,
    word_concat,
    word_inverse,
)

from conftest import random_word


def test_parse_word():
    assert parse_word("abAB") == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert parse_word("a a^-1") == ()
    assert parse_word("(ba)^1(BA)^1Bab") == parse_word("baBABab")
    assert parse_word("a^-2 b^3") == (("a", -2), ("b", 3))
    assert parse_word("a^0") == ()
    with pytest.raises(ValueError):
        parse_word("abq")
    with pytest.raises(ValueError):
        parse_word("a^")
    with pytest.raises(ValueError):
        parse_word("(ab")


def test_parse_word_whitespace_separates_syllables_and_blocks(capsys):
    assert parse_word(" a  b^2\tA \n(ab)^2 ( B a ) ") == parse_word("ab^2A(ab)^2(Ba)")
    # an exponent stays joined to its generator or ')', and is not split
    for text in ("a ^2", "a^ 2", "(ab) ^2", "a^- 2"):
        with pytest.raises(ValueError):
            parse_word(text)
        assert cli.main(["trace", text]) == 2
        assert capsys.readouterr().out == ""


def test_base_cases():
    assert trace_poly(()) == 2
    assert traces._walk(()) == 2
    assert trace_poly_oracle(()) == 2
    assert trace_poly(parse_word("a")) == X
    assert trace_poly(parse_word("b")) == Y
    assert trace_poly(parse_word("ab")) == Z
    assert trace_poly(parse_word("aB")) == X * Y - Z
    assert trace_poly(parse_word("a^3")) == X**3 - 3 * X


def test_commutator_and_short_words():
    assert trace_poly(parse_word("abAB")) == GAMMA
    assert trace_poly(parse_word("ab^2")) == Y * Z - X
    assert trace_poly(parse_word("B^2")) == Y**2 - 2


def test_longer_explicit_traces():
    assert trace_poly(parse_word("abaBAB")) == (
        X * Y - (X**2 + Y**2 - 3) * Z + X * Y * Z**2 - Z**3
    )
    assert trace_poly(parse_word("aBabAB")) == (
        X * Y * (X**2 + Y**2 - 3)
        - (X**2 * Y**2 + X**2 + Y**2 - 3) * Z
        + 2 * X * Y * Z**2
        - Z**3
    )


def test_identity_suite_all_pass():
    suite = trace_identity_suite()
    assert len(suite) == 9
    assert all(suite.values()), suite


def test_oracle_simple_cases():
    assert trace_poly_oracle(parse_word("ab")) == Z
    assert trace_poly_oracle(parse_word("abAB")) == GAMMA
    assert trace_poly_oracle(parse_word("B^2")) == Y**2 - 2
    # the empty word, single syllables, two-letter words and (ab)^k
    words = ["", "ab", "aB", "Ab", "AB"]
    words += ["%s^%d" % (g, e) for g in "ab" for e in range(-12, 13) if e]
    words += ["(%s)^%d" % (blk, k) for blk in ("ab", "AB") for k in range(2, 13)]
    for text in words:
        w = parse_word(text)
        assert trace_poly(w) == trace_poly_oracle(w), text


def test_oracle_equivalence_random(rng):
    for _ in range(60):
        w = random_word(rng, max_syllables=10, max_exp=4)
        assert trace_poly(w) == trace_poly_oracle(w), w


def test_cyclic_and_inversion_invariance(rng):
    for _ in range(80):
        u = random_word(rng, max_syllables=5, max_exp=3)
        v = random_word(rng, max_syllables=5, max_exp=3)
        assert trace_poly(word_concat(u, v)) == trace_poly(word_concat(v, u))
        assert trace_poly(u) == trace_poly(word_inverse(u))


def test_fundamental_identity(rng):
    for _ in range(60):
        u = random_word(rng, max_syllables=5, max_exp=3)
        v = random_word(rng, max_syllables=5, max_exp=3)
        lhs = trace_poly(word_concat(u, v)) + trace_poly(word_concat(u, word_inverse(v)))
        assert lhs == trace_poly(u) * trace_poly(v)


def test_canonical_form_is_class_invariant(rng):
    for _ in range(50):
        u = random_word(rng, max_syllables=6, max_exp=3)
        v = random_word(rng, max_syllables=3, max_exp=2)
        conj = word_concat(v, u, word_inverse(v))
        assert canonical_form(conj) == canonical_form(u)
        assert canonical_form(word_inverse(u)) == canonical_form(u)


def test_canonical_form_matches_brute_force(rng):
    # exponents +-1 repeat the least syllable often; +-1..+-12 rarely
    for max_exp in (1, 12):
        for _ in range(300):
            word = random_word(rng, max_syllables=14, max_exp=max_exp)
            w = cyclic_reduce(word)
            rotations = [u[i:] + u[:i] for u in (w, word_inverse(w)) for i in range(len(u))]
            assert canonical_form(word) == min(rotations, default=()), word


def test_numeric_agreement(rng):
    words = [random_word(rng, max_syllables=8, max_exp=3) for _ in range(25)]
    for seed in range(100):
        pair = random_rep(seed)
        for w in words[: 5 if seed >= 10 else 25]:
            direct = word_matrix(w, *pair)
            import numpy as np

            tr = complex(np.trace(direct))
            err = trace_agreement(w, pair)
            assert err < 1e-8 * (1 + abs(tr)), (w, seed, err)


def test_block_words_match_oracle():
    for n in (1, 2):
        w = parse_word("(ba)^%d(BA)^%dB(ab)^%d" % (n, n, n))
        full = word_concat(parse_word("a"), w, parse_word("A B"))
        assert trace_poly(full) == trace_poly_oracle(full)


def test_collapse_where_the_inverse_block_merges_matches_oracle(monkeypatch):
    # the collapse traces prefix + inverse(block) + suffix as it stands: at
    # a junction, cyclically, its syllables merge, cancel, or merge past
    # |e| = 63, where no one-byte code exists
    cases = (
        ("a^2 (b a)^3 b^3", lambda e: e not in (0, 1, -1)),
        ("a^2 (b a^2)^3 b^3", lambda e: e == 0),
        ("a^40 (b a^-30)^3 b^5", lambda e: abs(e) > 63),
    )
    for text, junction in cases:
        monkeypatch.setattr(traces, "_memo", {})
        w = parse_word(text)
        u = canonical_form(w)
        prefix, block, reps, suffix = traces._find_block(u)
        weight = sum(abs(e) for _, e in u)
        assert 4 * (reps - 1) * sum(abs(e) for _, e in block) >= weight, text
        inverse, rest = word_inverse(block), suffix + prefix
        meets = ((prefix[-1], inverse[0]), (inverse[-1], rest[0]))
        assert all(s[0] == t[0] for s, t in meets), text
        assert any(junction(s[1] + t[1]) for s, t in meets), text
        assert trace_poly(w) == trace_poly_oracle(w), text
        other = prefix + inverse + suffix
        assert trace_poly(other) == trace_poly_oracle(free_reduce(other)), text


def test_oracle_matches_engine_on_relator_words():
    # both relator words of b(2p, 3) for p <= 22 and of W_k = b(4k+4, 2k+1)
    # for k <= 6: up to 46 syllables, beyond the random words' 12
    specs = [(p, 3) for p in range(4, 23) if p % 3]
    specs += [(2 * k + 2, 2 * k + 1) for k in range(7)]
    for p, m in specs:
        for u in relator_words(riley_word(p, m)):
            assert trace_poly(u) == trace_poly_oracle(u), (p, m, u)


def test_oracle_matches_engine_across_field_widths():
    # the packed (x, y, c) fields are sized from the letter bound, twice
    # the letter count: b^511 (bound 1022) runs at 10 bits, all of which
    # the c^512 of its power needs; b^512 and b^511 a (bound 1024) run at
    # 11, one more than their c^513 needs
    for text in ("b^511", "b^512", "b^511 a"):
        w = parse_word(text)
        assert trace_poly_oracle(w) == trace_poly(w), text


def test_oracle_matches_engine_on_long_relator_words():
    # both relator words of b(2p, 3) for 22 < p <= cli.MAX_TWOBRIDGE_P, of
    # W_k for 7 <= k <= 12, past the range of the test above, and of three
    # irregular Riley words whose small repeated blocks the engine walks
    specs = [(p, 3) for p in range(23, cli.MAX_TWOBRIDGE_P + 1) if p % 3]
    specs += [(2 * k + 2, 2 * k + 1) for k in range(7, 13)]
    specs += [(38, 21), (44, 19), (50, 27)]
    for p, m in specs:
        for u in relator_words(riley_word(p, m)):
            assert trace_poly(u) == trace_poly_oracle(u), (p, m, u)


def _int_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _int_sl2(rng):
    # a product of elementary matrices [[1, k], [0, 1]] and [[1, 0], [k, 1]]
    m = ((1, 0), (0, 1))
    for i in range(4):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        m = _int_mul(m, ((1, k), (0, 1)) if i % 2 else ((1, 0), (k, 1)))
    return m


def test_oracle_exact_at_integer_matrices():
    # tr of the word's exact SL2(Z) product = the oracle's polynomial at the
    # integer traces, with neither the engine nor c-scaling involved; the
    # words are the relator words of links the engine is slow on
    rng = random.Random(38)
    pairs = [(_int_sl2(rng), _int_sl2(rng)) for _ in range(3)]
    for p, m in ((38, 21), (44, 19), (50, 27)):
        for u in relator_words(riley_word(p, m)):
            poly = trace_poly_oracle(u)
            for a, b in pairs:
                gens = {
                    ("a", 1): a,
                    ("a", -1): ((a[1][1], -a[0][1]), (-a[1][0], a[0][0])),
                    ("b", 1): b,
                    ("b", -1): ((b[1][1], -b[0][1]), (-b[1][0], b[0][0])),
                }
                prod = ((1, 0), (0, 1))
                for gen, exp in u:
                    for _ in range(abs(exp)):
                        prod = _int_mul(prod, gens[(gen, 1 if exp > 0 else -1)])
                ab = _int_mul(a, b)
                point = {"x": a[0][0] + a[1][1], "y": b[0][0] + b[1][1], "z": ab[0][0] + ab[1][1]}
                assert poly.evaluate(point) == prod[0][0] + prod[1][1], (p, m, a, b)


def test_oracle_raises_on_asymmetric_residue(monkeypatch):
    # c^2 / c = c has no c^-1 partner, so it is no polynomial in c + 1/c
    c = traces._ORACLE_RING.var("c")
    monkeypatch.setitem(traces._MAT, ("b", 1), ((c**2, 0), (0, 0)))
    monkeypatch.setattr(traces, "_power", lru_cache(maxsize=None)(traces._power.__wrapped__))
    with pytest.raises(ArithmeticError):
        trace_poly_oracle(parse_word("b"))


def _oracle_reference(word):
    # the oracle as first written, kept to pin traces.trace_poly_oracle:
    # the rows are right-multiplied by one letter's matrix at a time
    word = traces.free_reduce(word)
    n = sum(abs(e) for g, e in word if g == "b")
    bound = sum(abs(e) for _, e in word) * traces._letter_degree()
    w = _width(bound)
    shifts = (2 * w, w, 0)
    ring = traces._ORACLE_RING

    def entry(p):
        return [(sum(map(lshift, e, shifts)), c) for e, c in (ring.zero() + p).terms.items()]

    letters = {key: [[entry(p) for p in row] for row in m] for key, m in traces._MAT.items()}
    column = traces._column
    rows = [({0: 1}, {}), ({}, {0: 1})]
    for gen, exp in word:
        (l00, l01), (l10, l11) = letters[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            rows = [(column(m0, m1, l00, l10), column(m0, m1, l01, l11)) for m0, m1 in rows]
    num = column(rows[0][0], rows[1][1], [(0, 1)], [(0, 1)])
    return traces._peel(num, n, bound)


def test_oracle_matches_reference():
    rng = random.Random(1024)
    words = [random_word(rng, max_syllables=8, max_exp=16) for _ in range(200)]
    for p in range(4, 23):
        if p % 3:
            words.extend(relator_words(riley_word(p, 3)))
    for w in words:
        assert trace_poly_oracle(w) == _oracle_reference(w), w


def _plant(monkeypatch, name, key, row, extra):
    # one extra term in the first entry of one row of one cached table
    table = getattr(traces, name)

    def planted(gen, exp, w):
        rows = table(gen, exp, w)
        if (gen, exp) != key:
            return rows
        first, *rest = rows[row]
        return rows[:row] + [[extra(first, w)] + rest] + rows[row + 1 :]

    monkeypatch.setattr(traces, name, planted)
    monkeypatch.setattr(traces, "_memo", {})


def test_planted_walk_row_fault_fails_the_oracle(monkeypatch, capsys):
    # an extra y in row 0 of the rows of a^-2; the engine walks a rotation
    # of the word or of its inverse, and meets a^-2 in each of these, so
    # "a^2 b" is walked as a^-2 B
    monkeypatch.setattr(traces, "_memo", {})
    assert cli.main(["trace", "a^2 b"]) == 0
    clean = capsys.readouterr().out
    def extra(entry, w):
        j, coeff = entry
        return j, coeff + [(1 << traces.RING._shifts(w)[1], 1)]

    _plant(monkeypatch, "_syllable_rows", ("a", -2), 0, extra)
    for text in ("a^2 b", "a^2 b a^-2 B^2", "a^-2 b^3 a^2 b", "b a^2 B^3 a^-2 b A"):
        w = parse_word(text)
        assert trace_poly(w) != trace_poly_oracle(w), text
    monkeypatch.setattr(traces, "_memo", {})
    assert cli.main(["trace", "a^2 b"]) == 0
    assert capsys.readouterr().out != clean


def test_planted_oracle_power_fault_fails_the_engine(monkeypatch):
    # an extra y in entry (0, 0) of the matrix of a^2; on these words the
    # oracle returns a polynomial, and it is not the engine's
    _plant(monkeypatch, "_power", ("a", 2), 0, lambda e, w: e + [(1 << w, 1)])
    for text in ("a^2 b^2", "b^2 a^3 B a^2 b^-3"):
        w = parse_word(text)
        assert trace_poly(w) != trace_poly_oracle(w), text
    # on most words such a fault leaves the trace asymmetric in c, and the
    # peel refuses it
    with pytest.raises(ArithmeticError):
        trace_poly_oracle(parse_word("a^2 b a^-2 B^2"))


# both sides end on the heaviest syllable, the first with the largest |e|:
# here it is first, in the middle, last, tied with later ones, and tied
# across the ends of a word that is not cyclically reduced
END_STEP_WORDS = (
    "a^5 b A^2 B^3",
    "a b^2 A^6 B^3 a^2 b",
    "a B^2 a^3 b^-7",
    "a^4 b^2 A^4 B^4 a b^4",
    "b^3 a B^2 A b^-3",
)


def _heaviest(word):
    return max(word, key=lambda syllable: abs(syllable[1]))


def test_end_step_matches_oracle_wherever_the_heaviest_syllable_is():
    for text in END_STEP_WORDS:
        w = parse_word(text)
        reference = _oracle_reference(w)
        assert traces._walk(w) == reference, text
        assert trace_poly(w) == reference, text
        assert trace_poly_oracle(w) == reference, text


def test_end_step_matches_oracle_on_single_syllables():
    # the whole walk and the whole oracle are their end step; a^1023 and
    # b^1023 fill the 10-bit fields, and the end row's y^1024 term of b^1023
    # meets p2 = 0, so it forms no term
    words = [((gen, sign * e),) for gen in "ab" for sign in (1, -1) for e in range(1, 17)]
    for w in words:
        reference = _oracle_reference(w)
        assert traces._walk(w) == reference, w
        assert trace_poly_oracle(w) == reference, w
    for text in ("a^1023", "b^1023"):
        w = parse_word(text)
        assert traces._walk(w) == trace_poly_oracle(w), text


def test_planted_end_row_fault_fails_the_oracle(monkeypatch):
    # an extra y in row 0 of the rows of the syllable the walk ends on, the
    # heaviest of the canonical word, which occurs once in each word
    def extra(entry, w):
        j, coeff = entry
        return j, coeff + [(1 << traces.RING._shifts(w)[1], 1)]

    for text in END_STEP_WORDS[:3]:
        w = parse_word(text)
        _plant(monkeypatch, "_syllable_rows", _heaviest(canonical_form(w)), 0, extra)
        assert trace_poly(w) != trace_poly_oracle(w), text
        monkeypatch.undo()


def test_planted_end_power_fault_fails_the_engine(monkeypatch):
    # an extra y in entry (0, 0) of the matrix of the syllable the oracle
    # ends on: the oracle differs from the engine or refuses the residue
    for text in END_STEP_WORDS[:3]:
        w = parse_word(text)
        _plant(monkeypatch, "_power", _heaviest(w), 0, lambda e, width: e + [(1 << width, 1)])
        try:
            assert trace_poly_oracle(w) != trace_poly(w), text
        except ArithmeticError:
            pass
        monkeypatch.undo()


def test_parse_word_weight_limit():
    assert parse_word("(abA)^5", max_weight=7) == (("a", 1), ("b", 5), ("a", -1))
    assert parse_word("(ab)^3 (BA)^3", max_weight=6) == ()
    assert parse_word("(ab)^0 ()^100", max_weight=7) == ()
    # a power is held to the limit even where its neighbours cancel it
    for text in ("a^8", "(ab)^-4", "((ab)^2)^2", "(ab)^4 (BA)^4", "(a^8 b) B A^8"):
        with pytest.raises(ValueError):
            parse_word(text, max_weight=7)
    # the same words parse unchanged without a limit
    assert parse_word("((ab)^2)^2") == parse_word("(ab)^4")


def _find_block_reference(u):
    # the block search as first written, kept to pin traces._find_block:
    # every rotation r, block length L and start i, in that order, with
    # the first strictly largest saving kept
    n = len(u)
    best = None
    best_saved = 0
    for r in range(n):
        w = u[r:] + u[:r]
        for L in range(2, n // 2 + 1):
            limit = n - 2 * L
            for i in range(limit + 1):
                block = w[i : i + L]
                reps = 1
                j = i + L
                while j + L <= n and w[j : j + L] == block:
                    reps += 1
                    j += L
                if reps >= 2:
                    saved = (reps - 1) * sum(abs(e) for _, e in block)
                    if saved > best_saved:
                        best_saved = saved
                        best = (w[:i], block, reps, w[j:])
    return best


def test_find_block_matches_reference(rng):
    words = []
    for max_exp in (1, 4):
        for _ in range(150):
            words.append(cyclic_reduce(random_word(rng, max_syllables=40, max_exp=max_exp)))
    for text in ("ab", "aB", "ab^2", "a^2B^3", "abAB", "abaB", "aBAb^2", "abA^3B^2"):
        for k in range(1, 12):
            for tail in ("", "a^5", "b^-3a"):
                words.append(cyclic_reduce(parse_word("(%s)^%d %s" % (text, k, tail))))
    specs = [(p, 3) for p in range(4, 36) if p % 3]
    specs += [(2 * k + 2, 2 * k + 1) for k in range(13)]
    for p, m in specs:
        words.extend(canonical_form(u) for u in relator_words(riley_word(p, m)))
    found = 0
    for u in words:
        expected = _find_block_reference(u)
        assert traces._find_block(u) == expected, u
        found += expected is not None
    assert found > len(words) // 2


def test_find_block_none_without_repeats():
    # fewer than 4 syllables leave no room for two copies of a block
    for text in ("", "a", "a^3", "ab", "aB^2", "abA", "a^2bA^-3"):
        u = parse_word(text)
        assert traces._find_block(u) is None and _find_block_reference(u) is None
    # every syllable distinct: no block repeats in any rotation
    for n in (4, 9, 20):
        u = tuple(("ab"[j % 2], j + 1) for j in range(n))
        assert traces._find_block(u) is None and _find_block_reference(u) is None


def test_walk_matches_oracle_on_random_words():
    # the walk alone, on words the block collapse would otherwise take
    rng = random.Random(1972)
    for _ in range(300):
        w = random_word(rng, max_syllables=12, max_exp=6)
        assert traces._walk(w) == trace_poly_oracle(w), w


def test_walk_matches_oracle_across_field_widths():
    # the walk's packed fields are 10 bits wide up to weight 1023 and the
    # bit length of the weight above: a^1022 b (weight 1023) runs at 10
    # bits and its x^1021 needs all of them; a^1023 b (1024) runs at 11,
    # and a^1024 B and b^1024 A (1025) need the 11th bit for x^1024 and
    # y^1024, which at 10 bits would carry into the neighbouring field
    for text in ("a^1022 b", "a^1023 b", "a^1024 B", "b^1024 A"):
        w = parse_word(text)
        assert traces._walk(w) == trace_poly_oracle(w), text


def _word_of_weight(rng, weight, max_exp):
    # alternating syllables with exponents in +-1..+-max_exp, redrawn until
    # the weight is exact and the syllable count even, so the word is
    # cyclically reduced
    while True:
        out, total, gen = [], 0, "a"
        while total < weight:
            e = rng.randint(1, max_exp)
            out.append((gen, rng.choice((-1, 1)) * e))
            total += e
            gen = "b" if gen == "a" else "a"
        if total == weight and len(out) % 2 == 0:
            return tuple(out)


def test_irregular_words_of_weight_100_are_time_bounded(monkeypatch):
    # each took 0.3-0.5 s on a 2-CPU VM; the +-1..+-3 words ran past 40 s
    # with the recursive fallbacks the walk replaced, and the +-1 words past
    # 45 s while every repeated block was collapsed, however little it saved.
    # Each result is checked against the exact trace at one integer SL2 pair
    monkeypatch.setattr(traces, "_memo", {})
    rng = random.Random(100)
    for seed, max_exp in [(seed, 3) for seed in range(6)] + [(seed, 1) for seed in range(4)]:
        w = _word_of_weight(random.Random(seed), 100, max_exp)
        t0 = time.perf_counter()
        poly = trace_poly(w)
        elapsed = time.perf_counter() - t0
        assert elapsed < 35, (seed, max_exp, elapsed)
        a, b = _int_sl2(rng), _int_sl2(rng)
        prod = ((1, 0), (0, 1))
        for gen, exp in w:
            m = a if gen == "a" else b
            if exp < 0:
                m = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
            for _ in range(abs(exp)):
                prod = _int_mul(prod, m)
        ab = _int_mul(a, b)
        point = {"x": a[0][0] + a[1][1], "y": b[0][0] + b[1][1], "z": ab[0][0] + ab[1][1]}
        assert poly.evaluate(point) == prod[0][0] + prod[1][1], (seed, max_exp)


def _negated(word):
    return tuple((gen, -exp) for gen, exp in word)


def test_negated_and_reversed_words_share_one_polynomial(monkeypatch):
    # tr u(A^-1, B^-1) = tr u(A, B) at every pair, and the reverse of u is
    # the inverse of its negation; the oracle sees three different words,
    # and the engine, with a fresh memo each time, computes each one
    rng = random.Random(901)
    for _ in range(100):
        w = random_word(rng)
        words = (w, _negated(w), tuple(reversed(w)))
        oracle = trace_poly_oracle(w)
        for u in words:
            assert trace_poly_oracle(u) == oracle, u
            monkeypatch.setattr(traces, "_memo", {})
            assert trace_poly(u) == oracle, u


def test_reverse_and_negation_are_served_from_the_memo(monkeypatch):
    computed = []
    compute = traces._compute
    monkeypatch.setattr(traces, "_compute", lambda u: computed.append(u) or compute(u))
    for w in [parse_word("a b^2 A^3 B")] + list(relator_words(riley_word(11, 3))):
        monkeypatch.setattr(traces, "_memo", {})
        computed.clear()
        value = trace_poly(w)
        top = len(computed)
        assert trace_poly(tuple(reversed(w))) is value
        assert trace_poly(_negated(w)) is value
        assert len(computed) == top, w
    # a Riley word is a palindrome, so the conjugate variant's left word
    # a^-1 w a b^-1 is a rotation of the reverse of a w a^-1 b^-1
    w = riley_word(11, 3)
    assert w == tuple(reversed(w))
    left, _ = relator_words(w)
    variant_left, _ = relator_words(w, conjugate_by_inverse=True)
    assert canonical_form(variant_left) == canonical_form(tuple(reversed(left)))


def test_whitehead_second_relator_word_is_a_memo_hit(monkeypatch):
    # W_k = b(4k + 4, 2k + 1): a w a^-1 b^-1 collapses a block with r
    # repeats, and w b^-1 is the same word with r - 1
    computed = []
    compute = traces._compute
    monkeypatch.setattr(traces, "_compute", lambda u: computed.append(u) or compute(u))
    for k in range(13):
        left, right = relator_words(riley_word(2 * k + 2, 2 * k + 1))
        monkeypatch.setattr(traces, "_memo", {})
        trace_poly(left)
        computed.clear()
        assert trace_poly(right) == trace_poly_oracle(right), k
        assert not computed, k


class _KeptNeighbours(dict):
    """A memo that records what a collapse stores through setdefault."""

    def __init__(self):
        super().__init__()
        self.kept = []

    def setdefault(self, key, value):
        self.kept.append((key, value))
        return super().setdefault(key, value)


def test_every_kept_neighbour_matches_the_oracle(monkeypatch):
    specs = [(2 * k + 2, 2 * k + 1) for k in range(13)]
    specs += [(p, 3) for p in range(4, 23) if p % 3]
    kept = 0
    for p, m in specs:
        for u in relator_words(riley_word(p, m)):
            memo = _KeptNeighbours()
            monkeypatch.setattr(traces, "_memo", memo)
            trace_poly(u)
            for key, value in memo.kept:
                assert value == trace_poly_oracle(key), (p, m, key)
            kept += len(memo.kept)
    assert kept


# -- one-byte syllable codes ------------------------------------------------------


def test_syllable_code_tables():
    table = {s: c for c, s in enumerate(traces._SYLLABLE) if s is not None}
    assert set(table) == {(g, e) for g in "ab" for e in range(-63, 64) if e}
    # decoding inverts encoding, and negation maps each code to that of (g, -e)
    assert traces._CODE == table
    for (g, e), c in table.items():
        assert type(e) is int and traces._SYLLABLE[c] == (g, e)
        assert traces._NEGATE[c] == table[(g, -e)]
    # byte order is tuple order
    for s, c in table.items():
        for t, d in table.items():
            assert (c < d) == (s < t), (s, t)
    word = tuple(table)
    assert tuple(traces._SYLLABLE[c] for c in traces._encode(word)) == word
    for outside in (("a", 64), ("b", -64), ("a", 0), ("c", 1)):
        assert traces._encode((("a", 1), outside)) is None


def _mixed_word(rng, max_syllables, exps):
    # a list, not always reduced: a generator repeats one time in ten
    out = []
    gen = rng.choice("ab")
    for _ in range(rng.randint(0, max_syllables)):
        out.append((gen, rng.choice(exps)))
        if rng.random() < 0.9:
            gen = "b" if gen == "a" else "a"
    return out


def test_canonical_form_brute_force_beyond_the_code_table(rng):
    small = [e for e in range(-3, 4) if e]
    large = [e for e in range(-70, 71) if abs(e) >= 60]
    for exps in (small + [0], small + large, large + [0, 1, -1]):
        for _ in range(300):
            word = _mixed_word(rng, 12, exps)
            w = cyclic_reduce(free_reduce(word))
            rotations = [u[i:] + u[:i] for u in (w, word_inverse(w)) for i in range(len(u))]
            expected = min(rotations, default=())
            assert canonical_form(word) == expected, word
            assert canonical_form(tuple(word)) == expected, word
    # a merge can leave the table and a cancellation can come back to it
    assert canonical_form([("a", 60), ("b", 1), ("a", 10)]) == (("a", -70), ("b", -1))
    assert canonical_form([("b", 1), ("a", 70), ("a", -10)]) == (("a", -60), ("b", -1))
    assert canonical_form([("a", 0), ("b", 0)]) == ()
    assert canonical_form([["b", 2], ["a", -1]]) == (("a", -1), ("b", 2))
    for word in ([("c", 1)], [("a", 1), ("c", 70)], [("a", 70), ("b", 2), ("c", 1)]):
        with pytest.raises(ValueError):
            canonical_form(word)


def test_trace_poly_beyond_the_code_table_serves_reverse_and_negation(monkeypatch):
    monkeypatch.setattr(traces, "_memo", {})
    word = parse_word("a^70 b^2 A^3 B")
    expected = trace_poly_oracle(word)
    assert trace_poly(word) == expected
    computed = len(traces._memo)
    assert trace_poly(parse_word("B A^3 b^2 a^70")) == expected
    assert trace_poly(parse_word("A^70 b^-2 a^3 b")) == expected
    assert len(traces._memo) == computed


def test_find_block_matches_reference_beyond_the_code_table(rng):
    words = []
    for _ in range(150):
        word = _mixed_word(rng, 30, [1, -1, 64, -65, 70])
        words.append(cyclic_reduce(free_reduce(word)))
    for text in ("a^64 b", "a^70 B^2", "a b^-64", "a^2 B a^-70 b"):
        for k in range(1, 8):
            for tail in ("", "a^5", "b^-66 a"):
                words.append(cyclic_reduce(parse_word("(%s)^%d %s" % (text, k, tail))))
    beyond = found = 0
    for u in words:
        expected = _find_block_reference(u)
        assert traces._find_block(u) == expected, u
        beyond += traces._encode(u) is None
        found += expected is not None
    assert beyond > len(words) * 3 // 4 and found > len(words) // 3


def test_xor_agreement_equals_syllable_comparison(rng):
    for max_exp in (1, 2, 63):
        for _ in range(100):
            u = random_word(rng, max_syllables=30, max_exp=max_exp)
            uu = list(u) * 2
            big = int.from_bytes(traces._encode(u) * 2, "big")
            for L in range(2 * len(u)):
                assert traces._agreement(big, len(u), L) == bytes(map(eq, uu, uu[L:])), (u, L)


def test_memo_keys_are_canonical_syllable_tuples(monkeypatch):
    monkeypatch.setattr(traces, "_memo", {})
    for p in range(4, 36):
        if p % 3:
            for u in relator_words(riley_word(p, 3)):
                trace_poly(u)
    assert len(traces._memo) > 100
    for key in traces._memo:
        assert type(key) is tuple
        for syllable in key:
            assert type(syllable) is tuple and len(syllable) == 2, key
            assert type(syllable[0]) is str and type(syllable[1]) is int, key
        assert canonical_form(key) == key
