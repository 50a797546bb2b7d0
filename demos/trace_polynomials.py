#!/usr/bin/env python3
"""Trace polynomials of words in the free group on a, b.

For any representation into SL2(C), the trace of a word is a fixed
polynomial in x = tr(a), y = tr(b), z = tr(ab).  The reduction engine
computes it exactly; a separate model that multiplies explicit matrices
with entries in Z[x, y, c] recomputes it with no shared code, and a
float sampler cross-checks both against literal matrix products.
"""

import numpy as np

from charvar import parse_word, trace_poly, trace_poly_oracle
from charvar.numeric import random_rep, traces_of, word_matrix

# The basics: capital letters are inverses, ^k gives exponents,
# parenthesized blocks expand.
for text in ("a", "ab", "aB", "abAB", "ab^2", "a^3", "(ba)^2"):
    print("P[%8s] = %s" % (text, trace_poly(parse_word(text))))

# The commutator trace gamma and the reducible locus gamma = 2:
gamma = trace_poly(parse_word("abAB"))
print("\ncommutator trace:", gamma)

# Independent recomputation from explicit matrices
# A = [[x, -1], [1, 0]], B = [[0, c], [-1/c, y]]:
word = parse_word("a^2 B a b^3 A")
engine = trace_poly(word)
oracle = trace_poly_oracle(word)
print("\nengine == oracle on a longer word:", engine == oracle)

# Spot-check against a random SL2(C) pair.
pair = random_rep(2024)
direct = complex(np.trace(word_matrix(word, *pair)))
from_poly = engine.evaluate(traces_of(pair))
print("float agreement: |%.3g|" % abs(direct - from_poly))

# Words that differ by rotation or inversion have the same trace:
u = parse_word("ab^2AB")
v = parse_word("b^2ABa")  # rotation
w = parse_word("baB^2A")  # inverse
assert trace_poly(u) == trace_poly(v) == trace_poly(w)
print("\nconjugation and inversion invariance hold")

# The fundamental trace identity tr(UV) + tr(UV^-1) = tr(U) tr(V):
from charvar import word_concat, word_inverse

U, V = parse_word("ab^2"), parse_word("Ba^2b")
lhs = trace_poly(word_concat(U, V)) + trace_poly(word_concat(U, word_inverse(V)))
assert lhs == trace_poly(U) * trace_poly(V)
print("fundamental identity holds")

# Structured words with repeated blocks stay cheap: the engine peels
# (block)^n powers with Chebyshev coefficients instead of expanding.
big = parse_word("(ba)^7(BA)^7B(ab)^7")
print("\n43-syllable relator word, trace has %d terms" % len(trace_poly(big).terms))
