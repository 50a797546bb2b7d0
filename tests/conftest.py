import random
from contextlib import contextmanager
from functools import partial

import pytest

from charvar import links, varieties
from charvar.polynomials import PolyRing
from charvar.traces import RING, X, Y, free_reduce


@pytest.fixture
def rng():
    return random.Random(20240814)


def random_poly(rng, ring, max_terms=4, max_deg=3, max_coeff=9):
    terms = {}
    nvars = len(ring.names)
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exp[rng.randrange(nvars)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-max_coeff, max_coeff)
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + c
    return ring.from_terms(terms)


def random_word(rng, max_syllables=12, max_exp=4):
    out = []
    gen = rng.choice("ab")
    for _ in range(rng.randint(0, max_syllables)):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp)
        out.append((gen, e))
        gen = "b" if gen == "a" else "a"
    return free_reduce(tuple(out))


# planted faults in a two-bridge word polynomial: each is caught by the
# fingerprint on its own, whatever the product comparison says
PLANTED_FAULTS = {
    "plus one": lambda v: v + 1,
    "times x": lambda v: v * X,
    "one coefficient": lambda v: v + RING.from_terms({max(v.terms): 1}),
}


def plant_full_fault(monkeypatch, fault):
    char_poly = links.char_poly_twobridge

    def planted(p, m):
        return links.CharPoly(full=fault(char_poly(p, m).full))

    monkeypatch.setattr(links, "char_poly_twobridge", planted)


@contextmanager
def plant_pretzel_fault():
    """The planted_pretzel_fault fixture's fault, for part of a test."""
    pretzel_q = links.pretzel_q

    def planted(m, n, x1, y, beta):
        return pretzel_q(m, n, x1, y, beta) + x1 * y**2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(links, "pretzel_q", planted)
        yield


@pytest.fixture
def planted_pretzel_fault():
    """Q(m, n) + x1 y^2 from links.pretzel_q, so full gains (gamma - 2) x1 y^2.

    The Q rows of links.pretzel_q are kept, warm or cold: the planted
    wrapper sits outside them, so every Q still passes through it once
    and no row ever holds a planted value.
    """
    with plant_pretzel_fault():
        yield


def _plant_whitehead_fault(monkeypatch, which):
    factors = links.twisted_whitehead_factors

    def planted(k):
        out = list(factors(k))
        out[which] = out[which] + X * Y
        return tuple(out)

    monkeypatch.setattr(links, "twisted_whitehead_factors", planted)


def _plant_family_fault(monkeypatch):
    build = varieties._cheb_family_factor

    def planted(*args):
        f = build(*args)
        f.poly = f.poly + X * Y
        return f

    monkeypatch.setattr(varieties, "_cheb_family_factor", planted)


# one term added to one factor of a factor list, with the links whose
# reports it reaches: W_k's Chebyshev factor, W_k's Q, and the family
# factor of the pretzel rows m = 0, n = 0 and n = -1
FACTOR_FAULTS = {
    "whitehead chebyshev factor": (
        partial(_plant_whitehead_fault, which=1), ["whitehead:0", "whitehead:5", "whitehead:6"]
    ),
    "whitehead Q": (
        partial(_plant_whitehead_fault, which=2), ["whitehead:0", "whitehead:5", "whitehead:6"]
    ),
    "pretzel family factor": (
        _plant_family_fault,
        ["pretzel:0,3", "pretzel:0,-3", "pretzel:2,0", "pretzel:-3,0", "pretzel:2,-1",
         "pretzel:-2,-1"],
    ),
}
