"""Component counts of character varieties, with irreducibility certificates.

Counting works through constructed factor lists.  Each non-obvious factor
carries the outcome and the steps (cert_ok, details) of a machine-checkable
certificate built from these two checks, each of which returns a CertResult
for a polynomial given to it:

  * check_linear(v, poly): degree 1 in v with coprime coefficient pair,
    which forces irreducibility over C;
  * check_square_obstruction(v, poly): the polynomial only involves v^2,
    its image under v^2 -> w is certified irreducible, and the v = 0 slice
    is not a perfect square up to a constant, which rules out the one
    remaining factorization shape (f v + g)(-f v + g);

Certificates that need a change of variables (x restricted to x z - y,
triangular moves, the x <-> x +- y rotation) construct the transformed
polynomial explicitly, verify the defining substitution identity, check
the gcd precondition that makes the chain valid, and record every step
in the diagnostic.

A two-bridge report also checks its word polynomial, served by the trace
memo, against its relator word's matrix mod 2^61 - 1 at a seeded pair
(relator_fingerprint); `verify --seed S` reruns it on every row at S's pair.
Every point check here evaluates mod P, and none uses floating point.

A Chebyshev family factor u S_k(inner) - v S_{k-1}(inner) enters the
exact product as the same combination of u R and v R, R the product of
the other factors, so its own polynomial is not a multiplicand; that
polynomial is checked instead mod P at the same pair, against the
univariate u S_k - v S_{k-1} at inner's value (_family_fingerprint).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, partial

from . import links
from .chebyshev import T, cheb_at, cheb_comb, distinct_root_count
from .links import REDUCIBLE_SURFACE
from .polynomials import PolyRing, Polynomial, is_perfect_square, poly_gcd
from .traces import GAMMA, RING, X, Y, Z


# -- the two checks ------------------------------------------------------------


@dataclass
class CertResult:
    ok: bool
    details: list


def check_linear(var, poly):
    """Whether poly has degree 1 in var with coprime coefficients, so is irreducible."""
    details = []
    d = poly.degree_in(var)
    if d != 1:
        return CertResult(False, ["degree in %s is %s, need exactly 1" % (var, d)])
    f = poly.coeff_in(var, 1)
    g = poly.coeff_in(var, 0)
    details.append("degree 1 in %s with nonzero coefficient %s" % (var, f))
    gc = poly_gcd(f, g)
    if not gc.is_one():
        return CertResult(False, details + ["coefficient gcd is %s, need 1" % gc])
    details.append("coefficient pair is coprime (gcd 1), so no nonunit factor splits off")
    return CertResult(True, details)


@cache
def _descent_ring(names, var):
    """The ring of names with var renamed w (w1, w2, ... if taken), built once per (names, var)."""
    fresh = "w"
    k = 0
    while fresh in names:
        k += 1
        fresh = "w%d" % k
    return PolyRing(tuple(fresh if n == var else n for n in names))


def _odd_in(poly, var):
    """Whether some term has an odd power of var: the lowest bit of var's packed field is set."""
    bit = 1 << poly._field(var)[0]
    return any(k & bit for k in poly._packed)


def _even_descend(poly, var):
    """Image of an even polynomial under var^2 -> w (ValueError on an odd power of var).

    var's field is halved on the packed keys themselves, into the ring
    _descent_ring gives.  It is exact: that ring keeps the order and the
    number of variables, so the width and every field's offset carry over,
    and halving an even field never borrows from a neighbour; distinct
    keys stay distinct and the exponent bound still holds.
    """
    if _odd_in(poly, var):
        raise ValueError("odd power of %s" % var)
    s, mask = poly._field(var)
    halved = {k - ((k >> s & mask) >> 1 << s): c for k, c in poly._packed.items()}
    return Polynomial(_descent_ring(poly.ring.names, var), halved, poly._top)


def _slice_is_square_up_to_constant(s):
    """Whether a nonzero slice is c * (square) for some constant c.

    A square r^2 has leading coefficient lc(r)^2 > 0, so of the primitive
    part and its negative only the one with a positive leading coefficient
    can be a square.
    """
    return is_perfect_square(s.primitive_part().normalized()) is not None


def check_square_obstruction(var, poly, image_result=None):
    """Whether poly is even in var, its var = 0 slice no square, its image certified."""
    details = []
    if _odd_in(poly, var):
        return CertResult(False, ["not a polynomial in %s^2" % var])
    details.append("polynomial in %s^2 only" % var)
    s = poly.coeff_in(var, 0)
    if s.is_zero():
        return CertResult(False, details + ["divisible by %s^2" % var])
    if _slice_is_square_up_to_constant(s):
        return CertResult(
            False, details + ["%s = 0 slice is a square up to a constant" % var]
        )
    details.append(
        "%s = 0 slice is not a perfect square (either sign, content stripped), "
        "ruling out the (f%s+g)(-f%s+g) shape" % (var, var, var)
    )
    if image_result is None:
        image = _even_descend(poly, var)
        image_result = _auto_linear(image)
        details.append("image under %s^2 -> w certified independently:" % var)
    else:
        details.append("image under %s^2 -> w certified by the recorded chain:" % var)
    details.extend("  " + line for line in image_result.details)
    if not image_result.ok:
        return CertResult(False, details + ["image certificate failed"])
    return CertResult(True, details)


def _auto_linear(poly):
    """Try the degree-1 certificate over each occurring variable."""
    attempts = []
    for v in poly.variables():
        res = check_linear(v, poly)
        if res.ok:
            return CertResult(True, ["linear in %s: " % v] + res.details)
        attempts.append("in %s: %s" % (v, res.details[-1]))
    return CertResult(False, ["no variable admits the degree-1 certificate"] + attempts)


# -- factor lists and reports ----------------------------------------------------


@dataclass
class FactorCertificate:
    kind: str  # reducible_surface | cheb_linear_family | explicit_irreducible
    poly: object  # integer-coefficient contribution to the product
    components: int
    cert_ok: bool = True
    details: list = field(default_factory=list)
    univariate: object = None  # cheb_linear_family only
    inner: object = None
    comb: tuple = None  # cheb_linear_family: (k, u, v), univariate = u S_k - v S_{k-1}

    def to_json(self):
        out = {
            "kind": self.kind,
            "poly": self.poly.to_json(),
            "multiplicity": 1,
            "components": self.components,
            "certificate_ok": self.cert_ok,
            "details": list(self.details),
        }
        if self.univariate is not None:
            out["univariate"] = self.univariate.to_json()
            out["inner"] = self.inner.to_json()
        return out


@dataclass
class ComponentReport:
    link: object
    factors: list
    component_count: int
    product_check: bool
    sign: int
    notes: list = field(default_factory=list)
    full: object = None  # the defining polynomial checked; not in to_json

    @property
    def unlink(self):
        return not self.factors  # only the unlink's report has no factor

    def certificates_ok(self):
        return all(f.cert_ok for f in self.factors)

    def ok(self):
        return self.product_check and self.certificates_ok()

    def to_json(self):
        return {
            "link": str(self.link),
            "sign": self.sign,
            "factors": [f.to_json() for f in self.factors],
            "component_count": self.component_count,
            "product_check": self.product_check,
            "certificates_ok": self.certificates_ok(),
            "unlink": self.unlink,
            "notes": list(self.notes),
        }


_SHIFT_FAMILIES = (
    (X * Z - Y, "x z - y: degree 1 in x; coefficient z never divides y + constant"),
    (
        X * Y * Z - Y**2 - Z**2,
        "x y z - y^2 - z^2: degree 1 in x; coefficient y z never divides the rest",
    ),
    (
        X**2 + Y**2 + Z**2 - X * Y * Z,
        "x^2 + y^2 + z^2 - x y z: every constant shift is irreducible",
    ),
)


def _shift_family_note(inner):
    ct = inner.terms.get(inner.ring._zero_exp, 0)
    stripped = inner - ct
    for pattern, note in _SHIFT_FAMILIES:
        if stripped == pattern:
            return note
    return None


@cache
def _surface_discriminant():
    """Whether gamma - 2 is monic quadratic in x, discriminant no square; its detail (run once)."""
    c2, c1, c0 = (REDUCIBLE_SURFACE.coeff_in("x", i) for i in (2, 1, 0))
    if REDUCIBLE_SURFACE.degree_in("x") != 2 or not c2.is_one():
        return False, "%s is not a monic quadratic in x" % REDUCIBLE_SURFACE
    disc = c1**2 - 4 * c0
    return (not _slice_is_square_up_to_constant(disc),
            "monic quadratic in x with non-square discriminant %s" % disc)


def _surface_factor():
    # gamma - 2 is the delta = -4 member of the quadric family; certify the
    # instance as a monic quadratic in x whose discriminant is not a square
    ok, detail = _surface_discriminant()
    return FactorCertificate(
        kind="reducible_surface",
        poly=REDUCIBLE_SURFACE,
        components=1,
        cert_ok=ok,
        details=[detail],
    )


def _cheb_family_factor(k, u, v, inner, poly=None):
    """A Chebyshev-indexed family of parallel irreducible level sets.

    The family polynomial is univ(inner) with univ = u S_k - v S_{k-1};
    poly, when the caller has built it, is that polynomial.
    """
    note = _shift_family_note(inner)
    if note is None:
        raise ValueError("inner polynomial %s is not a recognized family" % inner)
    univ = cheb_comb(k, T, u, v)
    occurring = univ.variables()
    count = distinct_root_count(univ) if occurring else 0
    deg = univ.degree_in(occurring[0]) if occurring else 0
    if count != deg:
        raise ArithmeticError(
            "family polynomial %s is not squarefree (%d distinct roots, degree %d)"
            % (univ, count, deg)
        )
    return FactorCertificate(
        kind="cheb_linear_family",
        poly=cheb_comb(k, inner, u, v) if poly is None else poly,
        components=count,
        cert_ok=True,
        details=[
            "%d distinct roots r, one component inner - r each" % count,
            "shift-invariant family: " + note,
        ],
        univariate=univ,
        inner=inner,
        comb=(k, u, v),
    )


def _explicit_factor(poly, result):
    return FactorCertificate(
        kind="explicit_irreducible",
        poly=poly,
        components=1,
        cert_ok=result.ok,
        details=result.details,
    )


def _linear_factor(poly, var):
    return _explicit_factor(poly, check_linear(var, poly))


def _match_sign(full, prod):
    if full == prod:
        return 1
    if full == -prod:
        return -1
    return 0


# -- the exact fingerprint -----------------------------------------------------

FINGERPRINT_PRIME = (1 << 61) - 1
FINGERPRINT_SEED = 2014


def _mul_mod(m, n):
    """The product of two 2x2 matrices (a, b, c, d) = [[a, b], [c, d]] mod the prime."""
    a, b, c, d = m
    e, f, g, h = n
    p = FINGERPRINT_PRIME
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


@cache
def _fingerprint_pair(seed=FINGERPRINT_SEED):
    """A seeded pair in SL2(F_P) as {letter: matrix}, and its {"x": tr A, "y": tr B, "z": tr AB}.

    Built on first use, once per seed.  Each matrix draws a != 0, b and
    c, and solves a d - b c = 1 for d.
    """
    rng = random.Random(seed)
    p = FINGERPRINT_PRIME

    def draw():
        a, b, c = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
        return a, b, c, (1 + b * c) * pow(a, -1, p) % p

    a, b = draw(), draw()
    letters = {("a", 1): a, ("b", 1): b}
    for gen, (m00, m01, m10, m11) in (("a", a), ("b", b)):
        letters[(gen, -1)] = (m11, -m01 % p, -m10 % p, m00)
    ab = _mul_mod(a, b)
    return letters, {"x": (a[0] + a[3]) % p, "y": (b[0] + b[3]) % p, "z": (ab[0] + ab[3]) % p}


def _word_mod(word, letters):
    m = (1, 0, 0, 1)
    for gen, exp in word:
        g = letters[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            m = _mul_mod(m, g)
    return m


def _family_fingerprint(f):
    """Whether a family factor's poly is its univariate at its inner, mod P at the seeded pair.

    The univariate is built in t alone and evaluated at inner's value, so
    neither side touches the poly's cheb_comb or closed form.
    """
    _, point = _fingerprint_pair(FINGERPRINT_SEED)
    at_inner = f.inner.evaluate(point, FINGERPRINT_PRIME)
    return (f.poly.evaluate(point, FINGERPRINT_PRIME)
            == f.univariate.evaluate({"t": at_inner}, FINGERPRINT_PRIME))


def relator_fingerprint(w, poly, seed=FINGERPRINT_SEED):
    """Whether poly = +-(P_{a^-1 w a b^-1} - P_{w b^-1}) mod P at the pair seed draws, exactly.

    The matrix W of the relator word w (links.relator_word) is formed once
    from 2x2 integer products mod the prime P = 2^61 - 1, and poly is
    evaluated mod P at (tr A, tr B, tr AB), either sign accepted.  Neither
    side touches the trace engine, so this checks a polynomial the memo
    served.  A wrong poly agrees at a random pair with probability of order
    2 deg(poly) / P (Schwartz-Zippel).
    """
    letters, point = _fingerprint_pair(seed)
    m = _word_mod(w, letters)
    # tr(A^-1 W A B^-1) - tr(W B^-1) = tr(W D), D = A B^-1 A^-1 - B^-1
    d = [x - y for x, y in zip(_word_mod((("a", 1), ("b", -1), ("a", -1)), letters),
                               letters[("b", -1)])]
    difference = (m[0] * d[0] + m[1] * d[2] + m[2] * d[1] + m[3] * d[3]) % FINGERPRINT_PRIME
    value = poly.evaluate(point, FINGERPRINT_PRIME)
    return value in (difference, -difference % FINGERPRINT_PRIME)


def _report(link, factors, full, word=None, notes=()):
    """Product and sign check of a factor list against full, as a report.

    The exact product multiplies the factor polynomials, except that each
    Chebyshev family factor u S_k(inner) - v S_{k-1}(inner) enters as
    cheb_comb(k, inner, u R, v R), R the product so far: products by
    the small inner instead of by the factor.  The factor's own
    polynomial is checked instead, by _family_fingerprint.

    With word, the link's relator word, full must also pass relator_fingerprint.
    """
    prod = RING.one()
    # the surface factor, first and smallest, is multiplied in last: it
    # then meets one large operand instead of two
    for f in reversed(factors):
        if f.comb is None:
            prod = prod * f.poly
    for f in factors:
        if f.comb is not None:
            k, u, v = f.comb
            prod = cheb_comb(k, f.inner, prod if u else 0, prod if v else 0)
    sign = _match_sign(full, prod)
    notes = list(notes)
    if sign == 0:
        notes.append("defining polynomial does not match the product of the factors")
    if not all(_family_fingerprint(f) for f in factors if f.comb is not None):
        notes.append("Chebyshev family factor fails its mod-P fingerprint")
        sign = 0
    if word is not None and not relator_fingerprint(word, full):
        notes.append("defining polynomial fails its mod-P fingerprint")
        sign = 0
    return ComponentReport(
        link=link,
        factors=factors,
        component_count=sum(f.components for f in factors),
        product_check=sign != 0,
        sign=sign if sign else 1,
        notes=notes,
        full=full,
    )


# -- transformation chains --------------------------------------------------------

R_X1 = PolyRing(("x1", "y", "z"))
R_B2 = PolyRing(("x1", "y", "b2"))
R_Q3 = PolyRing(("x2", "y", "b2"))


def _witness(new, mapping, target, details, identity, verified):
    """Whether new[mapping] = target exactly, in target's ring; records the outcome."""
    if new.map_values(mapping, target.ring) != target:
        details.append("witness identity %s failed" % identity)
        return False
    details.append(verified)
    return True


def _restrict_to_x1(q, q1, details):
    """Validity of trading x for x1 = x z - y (away from z = 0).

    Checks gcd(z, q) = 1, gcd(z, q1) = 1 and the exact witness identity
    q1[x1 -> x z - y] = q; under those, irreducibility of q1 implies
    irreducibility of q.
    """
    if not poly_gcd(Z, q).is_one():
        details.append("gcd(z, polynomial) != 1; chain invalid")
        return False
    if not poly_gcd(R_X1.var("z"), q1).is_one():
        details.append("gcd(z, transformed polynomial) != 1; chain invalid")
        return False
    return _witness(q1, {"x1": X * Z - Y, "y": Y, "z": Z}, q, details, "q1[x1 -> xz - y] = q",
                    "x -> (x1 + y)/z change is valid: gcd(z, .) = 1 both sides and "
                    "q1[x1 -> x z - y] = q exactly")


def _triangular_descent(q1, q2, details):
    """z^2 -> w followed by the triangular move b2 = x1 y + 2 - w.

    Both are invertible changes of variables on the even part, so
    irreducibility of q2 lifts back to q1 viewed in z^2.
    """
    try:
        image = _even_descend(q1, "z")
    except ValueError:
        details.append("polynomial is not even in z")
        return None
    x1, y, w = (image.ring.var(v) for v in image.ring.names)
    ok = _witness(q2, {"x1": x1, "y": y, "b2": x1 * y + 2 - w}, image, details,
                  "q2[b2 -> x1 y + 2 - w] = image",
                  "triangular move b2 = x1 y + 2 - z^2 verified exactly")
    return image if ok else None


# the coordinate triples (x1, y, beta) the pretzel chains run in, after
# links.PRETZEL_COORDS: (x1, y, x1 y + 2 - z^2) and (x1, y, b2)
_x1, _y1, _z1 = (R_X1.var(v) for v in R_X1.names)
_X1_COORDS = (_x1, _y1, _x1 * _y1 + 2 - _z1**2)
_B2_COORDS = tuple(R_B2.var(v) for v in R_B2.names)


def _pretzel_chain(name, q, build, final):
    """The certificate chain both pretzel certificates share.

    q is the polynomial being certified, called name, in RING.
    build(x1, y, beta) gives name1 in R_X1 and name2 in R_B2, each tied
    to the one before by an exact witness identity.  The chain restricts
    x to x1, descends through z^2 and the triangular move to name2, runs
    final(name2, details), which must certify name2 irreducible, and
    lifts the result back through the z-square obstruction on name1.
    """
    details = []
    q1 = build(*_X1_COORDS)
    if not _restrict_to_x1(q, q1, details):
        return CertResult(False, details)
    q2 = build(*_B2_COORDS)
    if _triangular_descent(q1, q2, details) is None or not final(q2, details):
        return CertResult(False, details)
    chain = CertResult(True, ["chain above certifies the z^2 -> w image"])
    sq = check_square_obstruction("z", q1, image_result=chain)
    details.append(
        "square obstruction in z on %s1: %s" % (name, "passed" if sq.ok else "failed")
    )
    if not sq.ok:
        details.extend("  " + line for line in sq.details)
        return CertResult(False, details)
    return CertResult(True, details)


def _linear_in_y(name, poly, details):
    lin = check_linear("y", poly)
    details.append("%s degree-1 certificate in y:" % name)
    details.extend("  " + line for line in lin.details)
    return lin.ok


def _pretzel_q3(m, n):
    x2, y, b2 = R_Q3.var("x2"), R_Q3.var("y"), R_Q3.var("b2")
    s_m2 = cheb_at(m - 2, b2)
    return cheb_comb(n - 1, x2, y * cheb_at(m - 1, b2) - x2, s_m2 * cheb_comb(m, b2, 1, 1))


def _move_to_x2(m, n, q2, details):
    """Trade x1 for x2 = alpha2 = y S_{m-1}(b2) - x1 S_{m-2}(b2); q3 linear in y."""
    x1, y, b2 = _B2_COORDS
    s_m2 = cheb_at(m - 2, b2)
    if not poly_gcd(s_m2, q2).is_one():
        details.append("gcd(S_{m-2}(b2), q2) != 1; x1 -> alpha2 move invalid")
        return False
    details.append("gcd(S_{m-2}(b2), q2) = 1")
    q3 = _pretzel_q3(m, n)
    alpha2 = cheb_comb(m - 1, b2, y, x1)
    ok = _witness(q3, {"x2": alpha2, "y": y, "b2": b2}, s_m2 * q2, details,
                  "q3[x2 -> alpha2] = S_{m-2}(b2) q2",
                  "x1 -> (y S_{m-1}(b2) - x2)/S_{m-2}(b2) move verified exactly")
    return ok and _linear_in_y("q3", q3, details)


def certify_pretzel_generic(m, n, q):
    """Irreducibility chain for the caller's q, which must be Q(m, n) in RING.

    Needs m not in {0, 1} and n not in {-1, 0}.
    """
    return _pretzel_chain("q", q, partial(links.pretzel_q, m, n), partial(_move_to_x2, m, n))


def certify_pretzel_extra_twist(m, r):
    """Irreducibility chain for the caller's r, which must be the n = -1 cofactor R(m), m != 0."""
    return _pretzel_chain("r", r, partial(links.pretzel_r, m), partial(_linear_in_y, "r2"))


def certify_rotated_even(q, slice_z=None):
    """Rotation x -> x+y, y -> x-y (a C-automorphism), then even descent.

    With slice_z set, the polynomial is first restricted to z = slice_z;
    that restriction is only conclusive alongside a leading-coefficient
    argument supplied by the caller.
    """
    details = []
    mapping = {"x": X + Y, "y": X - Y, "z": Z if slice_z is None else RING.const(slice_z)}
    rotated = q.map_values(mapping, RING)
    details.append(
        "rotated by x -> x+y, y -> x-y%s"
        % ("" if slice_z is None else " and restricted to z = %d" % slice_z)
    )
    content = rotated.content()
    if content > 1:
        rotated = rotated.primitive_part()
        details.append("integer content %d stripped (a unit over C)" % content)
    # find the even variable to descend on: y for the full rotation,
    # x for the z-slice shape
    var = "y" if slice_z is None else "x"
    res = check_square_obstruction(var, rotated)
    details.append("square obstruction in %s:" % var)
    details.extend("  " + line for line in res.details)
    return CertResult(res.ok, details)


# -- public verification operations ------------------------------------------------


def reducible_surface_check(samples=100, seed=0):
    """The abelian factor: symbolic identity plus exact samples over F_P."""
    if REDUCIBLE_SURFACE != X**2 + Y**2 + Z**2 - X * Y * Z - 4:
        return False
    if REDUCIBLE_SURFACE != GAMMA - 2:
        return False
    rng = random.Random(seed)
    p = FINGERPRINT_PRIME
    for _ in range(samples):
        # the traces of diag(u, 1/u) and diag(v, 1/v), where gamma - 2 is exactly 0
        u, v = rng.randrange(1, p), rng.randrange(1, p)
        point = {"x": u + pow(u, -1, p), "y": v + pow(v, -1, p), "z": u * v + pow(u * v, -1, p)}
        if REDUCIBLE_SURFACE.evaluate(point, p) != 0:
            return False
    # a visibly non-commuting pair should leave the surface:
    # A = [[1, 1], [0, 1]] and B = [[1, 0], [1, 1]] have traces 2, 2 and tr AB = 3
    return REDUCIBLE_SURFACE.evaluate({"x": 2, "y": 2, "z": 3}) == 1


def count_components_pretzel(m, n):
    """Factor list, certificates and component count for a pretzel link."""
    link = links.Pretzel(m, n)
    cp = links.pretzel_char_poly(m, n)
    if (m, n) == (0, -1):
        return ComponentReport(
            link=link,
            factors=[],
            component_count=1,
            product_check=cp.full.is_zero(),
            sign=1,
            notes=["two-component unlink: the character variety is C^3"],
            full=cp.full,
        )
    x1, _, beta = links.PRETZEL_COORDS
    factors = [_surface_factor()]
    notes = []
    if m == 0:
        factors.append(_cheb_family_factor(n if n >= 0 else -(n + 2), 1, 0, x1))
        notes.append("nonabelian part splits into Chebyshev level sets of x z - y")
    elif n == 0:
        factors.append(_cheb_family_factor(m if m >= 0 else -m - 1, 1, 1, beta))
        notes.append("nonabelian part splits into level sets of x y z + 2 - y^2 - z^2")
    elif n == -1:
        factors.append(_cheb_family_factor(m - 1 if m >= 1 else -m - 1, 1, 0, beta))
        r = links.pretzel_r(m, *links.PRETZEL_COORDS)
        res = certify_pretzel_extra_twist(m, r)
        factors.append(_explicit_factor(r, res))
    elif m == 1:
        if n == 2:
            factors += [_linear_factor(Z - 1, "z"), _linear_factor(Z + 1, "z")]
        elif n == 3:
            factors += [_linear_factor(Z, "z"), _linear_factor(Y * Z - X, "x")]
        else:
            factors.append(_linear_factor(cp.nonabelian, "x"))
    else:
        res = certify_pretzel_generic(m, n, cp.nonabelian)
        factors.append(_explicit_factor(cp.nonabelian, res))
    return _report(link, factors, cp.full, notes=notes)


def pretzel_table_count(m, n):
    """The published component count; overlapping rows must agree."""
    if (m, n) == (0, -1):
        return 1  # unlink, C^3
    rows = []
    if m == 0 and n != -1:
        rows.append(abs(n + 1))
    if m >= 0 and n == 0:
        rows.append(m + 1)
    if m <= -1 and n == 0:
        rows.append(-m)
    if m == 1 and n not in (2, 3):
        rows.append(2)
    if m == 1 and n in (2, 3):
        rows.append(3)
    if n == -1:
        rows.append(abs(m) + 1)
    if m not in (0, 1) and n not in (-1, 0):
        rows.append(2)
    if not rows:
        raise ValueError("no table row applies to (%d, %d)" % (m, n))
    if len(set(rows)) != 1:
        raise ArithmeticError(
            "table rows disagree at (%d, %d): %r" % (m, n, rows)
        )
    return rows[0]


def verify_twobridge3(p):
    """Full verification for b(2p, 3): closed form, sign, certificates, count."""
    link = links.TwoBridge(p, 3)
    q = links.twobridge3_nonabelian(p)
    factors = [_surface_factor()]
    res = certify_rotated_even(q)
    details = ["irreducible in x, y^2 after rotation"] + res.details
    factors.append(_explicit_factor(q, CertResult(res.ok, details)))
    return _report(link, factors, links.char_poly_twobridge(p, 3).full, links.relator_word(link))


def verify_twisted_whitehead(k):
    """Full verification for W_k = b(4k+4, 2k+1)."""
    link = links.TwistedWhitehead(k)
    surface, cheb_factor, q = links.twisted_whitehead_factors(k)
    factors = [_surface_factor()]
    # the Chebyshev factor is S_{n-1}(gamma) for k = 2n - 1, (S_n - S_{n-1})(gamma) for k = 2n
    n = (k + 1) // 2
    comb = (n - 1, 1, 0) if k % 2 else (n, 1, 1)
    factors.append(_cheb_family_factor(*comb, GAMMA, cheb_factor))
    factors.append(_certified_whitehead_q(k, n, q))
    full = links.char_poly_twobridge(2 * k + 2, 2 * k + 1).full
    return _report(link, factors, full, links.relator_word(link))


def _certified_whitehead_q(k, n, q):
    """Leading-coefficient route: top x-coefficient z, then a z = 2 slice."""
    if k == 0:
        return _linear_factor(q, "z")
    return _explicit_factor(q, _whitehead_q_chain(n, q))


def _whitehead_q_chain(n, q):
    dx = q.degree_in("x")
    if dx != 2 * n:
        return CertResult(False, ["x-degree %s, expected %d" % (dx, 2 * n)])
    lead = q.coeff_in("x", dx)
    if lead != Z and lead != -Z:
        return CertResult(False, ["leading x-coefficient %s is not +-z" % lead])
    details = ["leading x-coefficient is +-z, so any factor free of x would divide z"]
    if not poly_gcd(Z, q).is_one():
        return CertResult(False, details + ["z divides q"])
    details.append("gcd(z, q) = 1: factors keep positive x-degree on the z = 2 slice")
    res = certify_rotated_even(q, slice_z=2)
    return CertResult(res.ok, details + res.details)
