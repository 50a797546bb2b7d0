"""Exact SL2(C) character variety computations for link families.

A small computer-algebra stack: exact big-integer multivariate
polynomials, Chebyshev-type recursion polynomials, trace polynomials of
free-group words with an independent matrix oracle, closed-form defining
polynomials for two-bridge and pretzel links, and component counting
with machine-checkable irreducibility certificates.
"""

from .chebyshev import cheb, cheb_at, distinct_root_count
from .links import (
    CharPoly,
    Pretzel,
    REDUCIBLE_SURFACE,
    TwistedWhitehead,
    TwoBridge,
    char_poly_twobridge,
    char_poly_variants,
    parse_link,
    pretzel_char_poly,
    riley_word,
    twisted_whitehead_factors,
    twobridge3_nonabelian,
)
from .numeric import commutator_trace_check, random_rep, relator_residual
from .polynomials import (
    NEG_INF,
    PolyRing,
    Polynomial,
    from_json,
    is_perfect_square,
    poly_gcd,
)
from .traces import (
    GAMMA,
    RING,
    X,
    Y,
    Z,
    canonical_form,
    parse_word,
    trace_identity_suite,
    trace_poly,
    trace_poly_oracle,
    word_concat,
    word_inverse,
)
from .varieties import (
    ComponentReport,
    FactorCertificate,
    check_linear,
    check_square_obstruction,
    count_components_pretzel,
    pretzel_table_count,
    reducible_surface_check,
    verify_twisted_whitehead,
    verify_twobridge3,
)

__version__ = "0.1.0"
