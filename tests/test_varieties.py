import pytest

from charvar import links, varieties
from charvar.chebyshev import cheb, cheb_at
from charvar.links import REDUCIBLE_SURFACE
from charvar.polynomials import PolyRing, Polynomial
from charvar.traces import GAMMA, RING, X, Y, Z, parse_word, trace_poly, word_concat
from charvar.varieties import (
    certify_pretzel_extra_twist,
    certify_pretzel_generic,
    check_linear,
    check_square_obstruction,
    count_components_pretzel,
    pretzel_table_count,
    reducible_surface_check,
    relator_fingerprint,
    verify_twisted_whitehead,
    verify_twobridge3,
)
from charvar.varieties import (
    _B2_COORDS,
    _X1_COORDS,
    R_B2,
    R_X1,
    _even_descend,
    _move_to_x2,
    _slice_is_square_up_to_constant,
    _surface_factor,
    _triangular_descent,
)

from conftest import FACTOR_FAULTS, PLANTED_FAULTS, plant_full_fault, random_poly


def test_certificate_linear_pass():
    r2 = links.pretzel_r(3, *_B2_COORDS)
    res = check_linear("y", r2)
    assert res.ok, res.details


def test_certificate_linear_fail_degree():
    res = check_linear("x", X**2 - 1)
    assert not res.ok


def test_certificate_linear_fail_common_factor():
    res = check_linear("x", X * Z - Z * Y)
    assert not res.ok


def test_certificate_square_obstruction_pass():
    res = check_square_obstruction("z", Y**2 * Z**2 - X)
    assert res.ok, res.details


def test_certificate_square_obstruction_fails_on_odd_power():
    res = check_square_obstruction("z", Y * Z - X)
    assert not res.ok


def test_certificate_square_obstruction_fails_on_square_slice():
    # (yz + x)(-yz + x) = x^2 - y^2 z^2 has slice x^2: a square, so the
    # obstruction must refuse to certify
    res = check_square_obstruction("z", X**2 - Y**2 * Z**2)
    assert not res.ok


def test_certificate_square_obstruction_with_w_in_ring():
    # descent picks a fresh name even when the ring already uses w
    R = PolyRing(("x", "w", "z"))
    poly = R.var("w") ** 2 * R.var("z") ** 2 - R.var("x")
    res = check_square_obstruction("z", poly)
    assert res.ok, res.details


def test_even_descend_halves_the_packed_field(rng):
    for ring in (RING, R_X1, R_B2, PolyRing(("w", "x", "w1"))):
        for var in ring.names:
            i = ring.index[var]
            fresh = next(n for n in ("w", "w1", "w2") if n not in ring.names)
            image_ring = PolyRing(fresh if n == var else n for n in ring.names)
            for _ in range(40):
                p = random_poly(rng, ring, max_terms=6, max_deg=6)
                even = ring.from_terms(
                    {e[:i] + (2 * e[i],) + e[i + 1:]: c for e, c in p.terms.items()})
                image = _even_descend(even, var)
                assert image.ring.names == image_ring.names
                # the image built term by term from the exponent tuples
                want = {e[:i] + (e[i] // 2,) + e[i + 1:]: c for e, c in even.terms.items()}
                assert image == image_ring.from_terms(want) and image.terms == want
                with pytest.raises(ValueError):
                    _even_descend(even + ring.var(var) ** rng.choice([1, 3, 5]), var)
    # w is taken, so the new variable is w1
    r = PolyRing(("x", "w", "z"))
    assert _even_descend(r.var("z") ** 4 - r.var("w"), "z").ring.names == ("x", "w", "w1")
    assert _even_descend(X**2 * Z**6 + 3, "z").ring.names == ("x", "y", "w")


def test_square_obstruction_refuses_a_single_odd_term():
    for odd in (X * Z, Z**3 * Y**2, -7 * Z):
        res = check_square_obstruction("z", Y**2 * Z**2 - X + X**2 * Z**4 + odd)
        assert not res.ok and res.details == ["not a polynomial in z^2"]


def test_slice_square_up_to_constant_tests_the_positive_sign():
    # -sp is the square: the primitive part -(x + y)^2 has a negative lead
    assert _slice_is_square_up_to_constant(-3 * (X + Y) ** 2)
    assert _slice_is_square_up_to_constant(-(Y * Z - 2) ** 2)
    assert _slice_is_square_up_to_constant(5 * (X - Z) ** 2)
    assert not _slice_is_square_up_to_constant(-3 * (X + Y) ** 2 + 1)
    assert not _slice_is_square_up_to_constant(X**2 - Y**2)


def test_reducible_surface():
    assert REDUCIBLE_SURFACE == GAMMA - 2
    assert reducible_surface_check()


def test_reducible_surface_check_needs_a_point_off_the_surface(monkeypatch):
    # an evaluator that reads 0 everywhere passes every sample on the
    # surface; the non-commuting pair with traces (2, 2, 3) must catch it
    monkeypatch.setattr(Polynomial, "evaluate", lambda self, assignment, modulus=None: 0)
    assert not reducible_surface_check()


Q1_FAILED = "witness identity q1[x1 -> xz - y] = q failed"


def test_pretzel_chains_certify_only_the_polynomial_handed_in():
    q = links.pretzel_nonabelian(2, 2)
    assert certify_pretzel_generic(2, 2, q).ok
    res = certify_pretzel_generic(2, 2, q + Z)
    assert not res.ok and res.details[-1] == Q1_FAILED
    r = links.pretzel_r(3, *links.PRETZEL_COORDS)
    assert certify_pretzel_extra_twist(3, r).ok
    res = certify_pretzel_extra_twist(3, 2 * r)
    assert not res.ok and res.details[-1] == Q1_FAILED


@pytest.mark.parametrize("m,n", [(2, 2), (3, -2), (-2, 3)])
def test_triangular_descent_witness(m, n):
    q1 = links.pretzel_q(m, n, *_X1_COORDS)
    q2 = links.pretzel_q(m, n, *_B2_COORDS)
    details = []
    image = _triangular_descent(q1, q2, details)
    assert image is not None and image.ring.names == ("x1", "y", "w")
    assert details == ["triangular move b2 = x1 y + 2 - z^2 verified exactly"]
    for wrong in (q2 + 1, q2 * _B2_COORDS[2], -q2):
        details = []
        assert _triangular_descent(q1, wrong, details) is None
        assert details == ["witness identity q2[b2 -> x1 y + 2 - w] = image failed"]


@pytest.mark.parametrize("m,n", [(2, 2), (3, -2), (-2, 3)])
def test_move_to_x2_witness(m, n):
    q2 = links.pretzel_q(m, n, *_B2_COORDS)
    details = []
    assert _move_to_x2(m, n, q2, details)
    assert details[1] == "x1 -> (y S_{m-1}(b2) - x2)/S_{m-2}(b2) move verified exactly"
    for wrong in (q2 + 1, -q2):
        details = []
        assert not _move_to_x2(m, n, wrong, details)
        assert details == [
            "gcd(S_{m-2}(b2), q2) = 1",
            "witness identity q3[x2 -> alpha2] = S_{m-2}(b2) q2 failed",
        ]


def test_pell_rearrangement_identity():
    # 1 + (S_m - S_{m-1}) S_{m-2} = S_{m-1} (S_{m-1} - S_{m-2})
    for m in range(-5, 6):
        lhs = 1 + (cheb(m) - cheb(m - 1)) * cheb(m - 2)
        rhs = cheb(m - 1) * (cheb(m - 1) - cheb(m - 2))
        assert lhs == rhs


def test_extra_twist_cofactor_anchor():
    # R at y = +-2, z = 0 is the constant +-4 (-1)^m
    for m in range(-5, 6):
        r = links.pretzel_r(m, *links.PRETZEL_COORDS)
        plus = r.substitute("y", RING.const(2)).substitute("z", RING.zero())
        minus = r.substitute("y", RING.const(-2)).substitute("z", RING.zero())
        assert plus == RING.const(4 * (-1) ** m)
        assert minus == RING.const(-4 * (-1) ** m)


def test_relator_difference_block_reconstruction_twobridge3():
    # the relator difference for b(6n+2, 3) decomposes over twelve short
    # words with Chebyshev coefficient weights
    w = parse_word
    for n in range(1, 6):
        sn = cheb_at(n, Z)
        sn1 = cheb_at(n - 1, Z)
        lhs = (
            (trace_poly(w("ABaB")) - trace_poly(w("B^2"))) * sn**3
            - (trace_poly(w("A^2B^2aB")) - trace_poly(w("B^2AB"))) * sn**2 * sn1
            + (
                trace_poly(w("A^2Ba^2B"))
                + trace_poly(w("A^2B^4"))
                + trace_poly(w("B^2"))
                - trace_poly(w("ABaB"))
                - trace_poly(w("AB^3AB"))
                - trace_poly(w("aBAB"))
            )
            * sn
            * sn1**2
            - (trace_poly(w("A^2BaB^2")) - trace_poly(w("ABaBAB"))) * sn1**3
        )
        word = parse_word("(ba)^%d(BA)^%dB(ab)^%d" % (n, n, n))
        direct = trace_poly(
            word_concat(w("A"), word, w("a"), w("B"))
        ) - trace_poly(word_concat(word, w("B")))
        assert lhs == direct, n


def test_relator_difference_block_reconstruction_whitehead():
    # same decomposition for the odd twisted Whitehead words
    w = parse_word
    for n in range(1, 6):
        s1 = cheb_at(n - 1, GAMMA)
        s2 = cheb_at(n - 2, GAMMA)
        lhs = s1 * s1 * (
            trace_poly(w("abaBABabAB")) - trace_poly(w("baBABa"))
        ) - s1 * s2 * (
            trace_poly(w("abaBAB"))
            + trace_poly(w("aBabAB"))
            - trace_poly(w("baB^2"))
            - trace_poly(w("Ba"))
        )
        word = links.whitehead_block_word(2 * n - 1)
        direct = trace_poly(
            word_concat(w("a"), word, w("A"), w("B"))
        ) - trace_poly(word_concat(word, w("B")))
        assert lhs == direct, n


def test_whitehead_difference_identities():
    # signs fixed by the reduction engine, the matrix oracle and direct
    # float sampling, which all agree
    w = parse_word
    assert trace_poly(w("abaBABabAB")) - trace_poly(w("baBABa")) == (GAMMA - 2) * (
        X * Y - GAMMA * Z
    )
    assert (
        trace_poly(w("abaBAB"))
        + trace_poly(w("aBabAB"))
        - trace_poly(w("baB^2"))
        - trace_poly(w("Ba"))
    ) == (GAMMA - 2) * (X * Y - 2 * Z)


@pytest.mark.parametrize(
    "m,n,count",
    [
        (1, 2, 3),
        (1, 3, 3),
        (1, 4, 2),
        (2, 2, 2),
        (0, 3, 4),
        (0, -3, 2),
        (3, -1, 4),
        (-3, -1, 4),
        (0, -1, 1),
        (-2, 0, 2),
        (2, 0, 3),
        (-2, -2, 2),
    ],
)
def test_component_counts_samples(m, n, count):
    rep = count_components_pretzel(m, n)
    assert rep.component_count == count
    assert rep.component_count == pretzel_table_count(m, n)
    assert rep.product_check, (m, n)
    assert rep.certificates_ok(), [
        (f.kind, f.details) for f in rep.factors if not f.cert_ok
    ]


def test_unlink_flag():
    rep = count_components_pretzel(0, -1)
    assert rep.unlink and rep.component_count == 1 and rep.product_check


def test_table_overlap_consistency():
    # overlapping rows must agree wherever they both apply
    assert pretzel_table_count(0, 0) == 1
    assert pretzel_table_count(1, 0) == 2
    assert pretzel_table_count(1, -1) == 2


def test_nonabelian_plus_surface_consistency():
    # the nonabelian count plus the reducible surface reproduces the table
    for m, n in [(0, 2), (2, 0), (-1, 0), (4, -1), (2, 3)]:
        rep = count_components_pretzel(m, n)
        nonabelian = sum(f.components for f in rep.factors if f.kind != "reducible_surface")
        assert nonabelian + 1 == rep.component_count


def test_verify_twobridge3_reports():
    for p in (4, 5, 7):
        rep = verify_twobridge3(p)
        assert rep.component_count == 2
        assert rep.product_check and rep.certificates_ok()
        assert rep.sign == -1


def test_verify_twisted_whitehead_reports():
    for k, count in [(0, 2), (1, 2), (2, 3), (3, 3), (4, 4)]:
        rep = verify_twisted_whitehead(k)
        assert rep.component_count == count
        assert rep.product_check and rep.certificates_ok()


def test_whitehead_slice_shape():
    # the n = 1 slice polynomial after rotation is x^2 - (9 y^2 + 4)
    q = links.twisted_whitehead_factors(1)[2]
    rotated = q.map_values({"x": X + Y, "y": X - Y, "z": RING.const(2)}, RING)
    assert rotated == X**2 - 9 * Y**2 - 4


def test_report_json_shape():
    rep = count_components_pretzel(2, 2)
    data = rep.to_json()
    assert data["link"] == "pretzel:2,2"
    assert data["component_count"] == 2
    assert data["product_check"] is True
    assert {f["kind"] for f in data["factors"]} == {
        "reducible_surface",
        "explicit_irreducible",
    }
    from charvar.polynomials import from_json

    for f in data["factors"]:
        from_json(f["poly"])
    # a family factor keeps every JSON key, with multiplicity 1
    family_keys = {"kind", "poly", "multiplicity", "components", "certificate_ok", "details",
                   "univariate", "inner"}
    for spec in ("pretzel:0,3", "whitehead:2"):
        rep = _report_of(spec)
        data = rep.to_json()
        assert data["unlink"] is False, spec
        (family,) = [f for f in rep.factors if f.kind == "cheb_linear_family"]
        (out,) = [f for f in data["factors"] if f["kind"] == "cheb_linear_family"]
        assert set(out) == family_keys and out["multiplicity"] == 1, spec
        k, u, v = family.comb
        assert from_json(out["univariate"]) == u * cheb(k) - v * cheb(k - 1), spec
    assert count_components_pretzel(0, -1).to_json()["unlink"] is True


@pytest.mark.parametrize("surface", [
    2 * X**2 + Y**2 + Z**2 - X * Y * Z - 4,  # not monic
    Y * X**2 + Z,  # leading coefficient not a constant
    X**2 - Y**2 * Z**2,  # discriminant 4 y^2 z^2, a square
    X**2 + 2 * X * Y + Y**2 - Z**2,  # discriminant 4 z^2, a square
    X * Y + Z,  # degree 1 in x
    X**3 - Y,  # degree 3 in x
])
def test_surface_certificate_checks_the_planted_quadric(monkeypatch, surface):
    varieties._surface_discriminant.cache_clear()
    monkeypatch.setattr(varieties, "REDUCIBLE_SURFACE", surface)
    try:
        assert not _surface_factor().cert_ok
    finally:
        varieties._surface_discriminant.cache_clear()


def test_surface_factor_is_fresh_each_time():
    # the discriminant check runs once per process; each report still gets
    # its own certificate and details list
    a, b = _surface_factor(), _surface_factor()
    assert a is not b and a.details is not b.details
    assert a.cert_ok and b.cert_ok and a.details == b.details
    a.details.append("changed")
    assert _surface_factor().details == b.details


@pytest.mark.parametrize("fault", PLANTED_FAULTS.values(), ids=list(PLANTED_FAULTS))
def test_planted_variant_faults_fail_the_fingerprint(monkeypatch, fault):
    # the fault is planted in the word polynomial the report holds
    plant_full_fault(monkeypatch, fault)
    for rep in (verify_twobridge3(5), verify_twisted_whitehead(2)):
        assert not rep.product_check and not rep.ok()
        assert FULL_FINGERPRINT_NOTE in rep.notes and PRODUCT_NOTE in rep.notes


FAMILY_NOTE = "Chebyshev family factor fails its mod-P fingerprint"
FULL_FINGERPRINT_NOTE = "defining polynomial fails its mod-P fingerprint"
PRODUCT_NOTE = "defining polynomial does not match the product of the factors"


def _report_of(spec):
    link = links.parse_link(spec)
    if isinstance(link, links.Pretzel):
        return count_components_pretzel(link.m, link.n)
    return verify_twisted_whitehead(link.k)


@pytest.mark.parametrize("name", list(FACTOR_FAULTS))
def test_planted_factor_faults_fail_the_product_check(monkeypatch, name):
    plant, specs = FACTOR_FAULTS[name]
    plant(monkeypatch)
    for spec in specs:
        rep = _report_of(spec)
        assert not rep.product_check and not rep.ok(), spec
        if name == "whitehead Q":
            # Q is a multiplicand: the exact product comparison catches it
            assert PRODUCT_NOTE in rep.notes, spec
            assert FAMILY_NOTE not in rep.notes, spec
        else:
            # the family factor is not a multiplicand, and the exact
            # product still matches: its mod-P fingerprint alone catches it
            assert rep.notes[-1] == FAMILY_NOTE, (spec, rep.notes)
            assert PRODUCT_NOTE not in rep.notes, spec


def test_family_factors_enter_the_product_by_their_combination():
    # the cheb_linear_family factor's poly is u S_k(inner) - v S_{k-1}(inner)
    # for its (k, u, v), and the report passes its fingerprint
    specs = ["pretzel:0,%d" % n for n in (-5, -3, -2, 0, 1, 4)]
    specs += ["pretzel:%d,0" % m for m in (-4, -1, 0, 3)]
    specs += ["pretzel:%d,-1" % m for m in (-3, -1, 1, 2, 5)]
    specs += ["whitehead:%d" % k for k in range(7)]
    for spec in specs:
        rep = _report_of(spec)
        assert rep.ok() and FAMILY_NOTE not in rep.notes, spec
        (family,) = [f for f in rep.factors if f.kind == "cheb_linear_family"]
        k, u, v = family.comb
        assert family.univariate == u * cheb(k) - v * cheb(k - 1), spec
        assert family.poly == family.univariate.map_values({"t": family.inner}, RING), spec


def test_correct_variants_pass_the_fingerprint():
    # every b(2p, 3) and W_k the CLI accepts, both variants, with either
    # sign; each planted fault fails, with either sign
    specs = [(p, 3) for p in range(4, 38) if p % 3]
    specs += [(2 * k + 2, 2 * k + 1) for k in range(25)]
    for p, m in specs:
        full, variant = links.char_poly_variants(p, m)
        w = links.riley_word(p, m)
        assert relator_fingerprint(w, variant)
        for poly in (full, -full):
            assert relator_fingerprint(w, poly), (p, m)
            for fault in PLANTED_FAULTS.values():
                assert not relator_fingerprint(w, fault(poly)), (p, m)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_seeded_fingerprint_fails_every_planted_fault(seed):
    for p in (10, 22, 37):
        w = links.riley_word(p, 3)
        full = links.char_poly_twobridge(p, 3).full
        assert relator_fingerprint(w, full, seed) and relator_fingerprint(w, -full, seed)
        for name, fault in PLANTED_FAULTS.items():
            assert not relator_fingerprint(w, fault(full), seed), (p, name)


def test_fingerprint_pair_is_drawn_from_its_seed():
    prime = varieties.FINGERPRINT_PRIME
    default, other = varieties._fingerprint_pair(), varieties._fingerprint_pair(3)
    assert other != default and other is varieties._fingerprint_pair(3)
    letters, _ = other
    for gen in "ab":
        a, b, c, d = letters[(gen, 1)]
        assert (a * d - b * c) % prime == 1, gen


def test_default_fingerprint_pair_is_drawn_once():
    # the family and relator fingerprints share one default pair
    varieties._fingerprint_pair.cache_clear()
    verify_twisted_whitehead(3)
    assert varieties._fingerprint_pair.cache_info().currsize == 1


def test_certified_irreducible_factors_are_irreducible_over_q():
    # an independent check of the certificates on a fixed sample: every
    # factor certified as one component is irreducible over Q for sympy
    sympy = pytest.importorskip("sympy")
    reports = [
        count_components_pretzel(m, n)
        for m, n in ((2, 2), (-2, 3), (3, -3), (-3, -2), (2, -1), (-3, -1), (1, 4))
    ]
    reports += [verify_twisted_whitehead(k) for k in range(7)]
    reports += [verify_twobridge3(p) for p in (4, 5, 7, 8, 10, 11)]
    checked = 0
    for report in reports:
        for f in report.factors:
            if f.kind == "cheb_linear_family":
                continue  # parallel level sets, one per root: reducible over Q
            assert f.cert_ok and f.components == 1, (report.link, f.kind)
            syms = sympy.symbols(f.poly.ring.names)
            expr = sympy.Add(
                *(c * sympy.Mul(*(v**k for v, k in zip(syms, e))) for e, c in f.poly.terms.items())
            )
            _, factors = sympy.factor_list(expr, *syms)
            assert [m for _, m in factors] == [1], (report.link, f.poly, factors)
            checked += 1
    assert checked == 2 * len(reports)  # the surface and one more factor per link
