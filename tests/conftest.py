import random

import pytest

from charvar import links
from charvar.polynomials import PolyRing
from charvar.traces import RING, X, free_reduce


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


# planted faults in the conjugate variant: each is caught by the
# fingerprint on its own, whatever the product comparison says
PLANTED_FAULTS = {
    "plus one": lambda v: v + 1,
    "times x": lambda v: v * X,
    "one coefficient": lambda v: v + RING.from_terms({max(v.terms): 1}),
}


def plant_variant_fault(monkeypatch, fault):
    variants = links.char_poly_variants

    def planted(p, m):
        full, variant = variants(p, m)
        return full, fault(variant)

    monkeypatch.setattr(links, "char_poly_variants", planted)
