"""The recursion engine: extend forward, recover backward, fit a closed form.

One (t, l, alternating, c) family covers every recursion the four sharing
variants use; this script walks its moving parts on small numbers.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mss.field import PrimeField, poly_eval
from mss.ilr import (
    IlrSpec,
    backward_recover,
    fit_general_term,
    fold_value,
    forward_extend,
    recursion_coeffs,
    rhs_term,
    to_homogeneous,
)

field = PrimeField(97)

# u_{j+2} - 2 u_{j+1} + u_j = j with u_0 = u_1 = 0 builds binomials C(j, 3).
spec = IlrSpec(t=2, l=1, alternating=False, c=(1,), field=field)
print("window coefficients:", recursion_coeffs(spec))
print("right-hand sides   :", [rhs_term(spec, i)[0] for i in range(6)])

seq = forward_extend(spec, [(0,), (0,)], 9)
print("sequence           :", [v[0] for v in seq], " (these are C(j,3))")

# Any order-many consecutive terms walk back to the start.
window = list(seq[5:7])
print("backward from u_5, u_6:", [v[0] for v in backward_recover(spec, window, 5)])

# t+2l samples pin the general-term polynomial; its constant term is u_0.
samples = [(j, seq[j]) for j in (2, 5, 7, 9)]
(coeffs,) = fit_general_term(spec, samples)
print("fitted general term:", coeffs, "-> u_0 =", coeffs[0])
assert all(poly_eval(field, coeffs, j) == seq[j][0] for j in range(10))
print()

# The alternating family hides the polynomial behind a sign flip.
alt = IlrSpec(t=1, l=1, alternating=True, c=(3,), field=field)
alt_seq = forward_extend(alt, [(5,)], 7)
print("alternating sequence:", [v[0] for v in alt_seq])
folded = [fold_value(alt, j, alt_seq[j][0]) for j in range(8)]
print("after sign folding  :", folded, " (polynomial values again)")
(alt_fit,) = fit_general_term(alt, [(j, alt_seq[j]) for j in range(3)])
print("fit recovers u_0 =", alt_fit[0])
print()

# Constant-RHS relations difference away their constant: one order higher,
# homogeneous.  Useful to see why these sequences are so rigid.
const = IlrSpec(t=3, l=0, alternating=False, c=(7,), field=field)
a = recursion_coeffs(const)[1:]
b = to_homogeneous(field, a)
print("constant-RHS trailing coefficients:", a)
print("homogenized one order higher      :", b)
cseq = forward_extend(const, [(1,), (4,)], 8)
k = len(a)
for i in range(len(cseq) - k - 1):
    acc = cseq[i + k + 1][0]
    for j, bj in enumerate(b, start=1):
        acc += bj * cseq[i + k + 1 - j][0]
    assert acc % field.q == 0
print("homogenized relation holds at every index of the sequence")
