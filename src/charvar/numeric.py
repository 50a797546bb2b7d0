"""Floating-point SL2(C) sampling checks behind the symbolic engine.

Pure functions of (seed, inputs): the same seed always produces the same
matrix pair, so any failure is reproducible.
"""

from __future__ import annotations

import numpy as np

from . import links
from .traces import GAMMA, trace_poly

_DET_FLOOR = 1e-6


def random_rep(seed):
    """A deterministic pair of SL2(C) matrices for the given seed.

    Entries are sampled uniformly from the square [-1, 1] x [-1, 1]i,
    then scaled by a square root of the inverse determinant; samples with
    |det| < 1e-6 are rejected and redrawn.
    """
    rng = np.random.default_rng(seed)

    def draw():
        while True:
            m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det) >= _DET_FLOOR:
                return m / np.sqrt(det)

    return draw(), draw()


def _inv(m):
    # adjugate; exact for determinant-1 matrices and numerically gentler
    # than a generic solve
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def word_matrix(word, a, b):
    """The product matrix of a word at concrete generator images."""
    mats = {("a", 1): a, ("b", 1): b, ("a", -1): _inv(a), ("b", -1): _inv(b)}
    out = np.eye(2, dtype=complex)
    for gen, exp in word:
        step = mats[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            out = out @ step
    return out


def traces_of(pair):
    a, b = pair
    return {
        "x": complex(np.trace(a)),
        "y": complex(np.trace(b)),
        "z": complex(np.trace(a @ b)),
    }


def commutator_trace_check(pair):
    """tr(ABA^-1B^-1) minus the commutator trace polynomial at the pair.

    Should vanish to rounding for every pair of SL2(C) matrices.
    """
    a, b = pair
    comm = a @ b @ _inv(a) @ _inv(b)
    return complex(np.trace(comm)) - GAMMA.evaluate(traces_of(pair))


def relator_residual(link, pair):
    """|tr(a w a^-1 b^-1) - tr(w b^-1) - charpoly(traces)| at a sample pair.

    The defining polynomial of a two-bridge link is an identity in the
    matrix entries, so this must be rounding-small even at points that
    are not representations of the link group.  The long cancelling sums
    are taken in extended precision so the residual stays well under the
    stated tolerance through p = 10.
    """
    spec = links.as_two_bridge(link)
    a = pair[0].astype(np.clongdouble)
    b = pair[1].astype(np.clongdouble)
    left, right = (word_matrix(u, a, b)
                   for u in links.relator_words(links.riley_word(spec.p, spec.m)))
    full = links.char_poly_twobridge(spec.p, spec.m).full
    point = {
        "x": np.trace(a),
        "y": np.trace(b),
        "z": np.trace(a @ b),
    }
    value = full.evaluate(point)
    return float(abs(np.trace(left) - np.trace(right) - value))


def trace_agreement(word, pair):
    """|eval(P_word) - tr(product)| for one word at one sample pair."""
    value = trace_poly(word).evaluate(traces_of(pair))
    direct = complex(np.trace(word_matrix(word, *pair)))
    return abs(value - direct)
