"""Tour of the exact prime-field toolkit underneath the sharing schemes.

Everything runs on plain Python ints, so the default 61-bit Mersenne
modulus never loses precision.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mss import (
    DEFAULT_PRIME,
    PrimeField,
    binom_mod,
    lagrange_at_zero,
    poly_eval,
    solve_linear,
    vandermonde,
)

field = PrimeField(97)
big = PrimeField(DEFAULT_PRIME)

print(f"small demo field: F_{field.q}")
print(f"default field:    F_{big.q} (2^61 - 1)")
print()

print("inverses are exact:", field.inv(3), "* 3 =", field.inv(3) * 3 % field.q)
print("binomials reduce mod q: C(10,3) =", binom_mod(field, 10, 3), "(120 mod 97)")
print()

# Fit a cubic through its own evaluations and read off the constant term.
coeffs = (3, 2, 0, 1)  # 3 + 2x + x^3
points = [1, 2, 3, 4]
values = [poly_eval(field, coeffs, x) for x in points]
print(f"p(x) = 3 + 2x + x^3 evaluated at {points}: {values}")

system = vandermonde(field, points, 4)
solution = solve_linear(field, system, [values])
print("solving the Vandermonde system recovers the coefficients:", solution.vectors[0])

(p0,) = lagrange_at_zero(field, points, [values])
print("interpolating straight at zero gives p(0) =", p0)
print()

# The same solve reports rank structure when the system is underdetermined,
# which is how the privacy probe quantifies what small groups learn.
short = vandermonde(field, points[:3], 4)
partial = solve_linear(field, short, [values[:3]])
print(
    f"with only 3 of 4 samples: rank {partial.rank}, "
    f"{partial.free_dims} free dimension(s)"
)
shifted = field.vec_add(partial.particular[0], partial.nullspace[0])
print("two consistent candidate coefficient vectors differ at the constant term:")
print("  ", partial.particular[0])
print("  ", shifted)
