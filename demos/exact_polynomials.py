#!/usr/bin/env python3
"""A tour of the exact polynomial layer.

Everything below is integer arithmetic: no floats, no external computer
algebra system.  Polynomials live in a ring with a fixed variable order
(graded lexicographic), coefficients are arbitrary-precision ints.
"""

from charvar import PolyRing, is_perfect_square, poly_gcd
from charvar.chebyshev import T, cheb, distinct_root_count

R = PolyRing(("x", "y", "z"))
x, y, z = R.var("x"), R.var("y"), R.var("z")

# The commutator trace polynomial shows up everywhere in this package.
gamma = x**2 + y**2 + z**2 - x * y * z - 2
print("gamma =", gamma)
print("gamma at x=y=z=2:", gamma.evaluate({"x": 2, "y": 2, "z": 2}))

# Exact gcd over Z, normalized to a positive leading coefficient.
print("\ngcd(x^2 - y^2, (x + y)^2) =", poly_gcd(x**2 - y**2, (x + y) ** 2))

# Multivariate perfect squares are decided by coefficient matching.
square = (x * y - z + 3) ** 2
root = is_perfect_square(square)
print("sqrt of", square, "is", root)
assert root * root == square
print("is y a square?", is_perfect_square(y))

# Chebyshev-type polynomials S_k: S_0 = 1, S_1 = t, S_{k+1} = t S_k - S_{k-1},
# extended to negative k by S_{-k} = -S_{k-2}.
for k in (-3, -1, 0, 1, 4):
    print("S_%d =" % k, cheb(k))

# Consecutive ones are coprime, and all roots are simple:
print("gcd(S_7, S_6) =", poly_gcd(cheb(7), cheb(6)))
print("distinct roots of S_9:", distinct_root_count(cheb(9)))
print("distinct roots of S_5 - S_4:", distinct_root_count(cheb(5) - cheb(4)))

# The triple-index identity, exactly:
k = 5
assert cheb(k) ** 3 - 3 * cheb(k) * cheb(k - 1) ** 2 + T * cheb(k - 1) ** 3 == cheb(3 * k)
print("\nS_k^3 - 3 S_k S_{k-1}^2 + t S_{k-1}^3 = S_{3k} holds at k =", k)

# Serialization round trip (the CLI uses the same JSON shape).
import json

blob = json.dumps(gamma.to_json())
from charvar import from_json

assert from_json(json.loads(blob)) == gamma
print("JSON round trip OK:", blob[:60], "...")
