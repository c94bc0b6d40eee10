"""The packed kernels against the per-entry loops they replaced.

``field._eliminate`` holds each row, and ``ilr.forward_extend`` each term,
as one int of w-bit slots and reduces only once per pivot or term.  The
references below are the per-entry loops, kept as oracles: the packed
kernels must give the same pivots, the same inverses and the same rows
and terms mod q, on every shape, rank and modulus, and also on the inputs
that make a slot grow the most.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss.field import _MR_LIMIT, PrimeField, _eliminate, is_prime
from mss.ilr import IlrSpec, backward_recover, forward_extend, recursion_coeffs, rhs_term


def largest_prime_below(n):
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


#: 2 and 3 make slots overflow most often, the last two fill a slot's bits.
MODULI = (2, 3, 97, (1 << 61) - 1, largest_prime_below(_MR_LIMIT))


def recording_field(q):
    """The field mod q, and the list of residues its ``inv`` is called on."""
    inverted = []

    class Recording(PrimeField):
        def inv(self, a):
            inverted.append(a % self.q)
            return super().inv(a)

    return Recording(q), inverted


def reference_eliminate(field, rows, ncols, above=False):
    """Per-entry Gaussian elimination: every row operation reduces each entry."""
    q = field.q
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_p = field.inv(rows[rank][col])
        prow = [v * inv_p % q for v in rows[rank][col:]]
        rows[rank][col:] = prow
        for r in range(0 if above else rank + 1, len(rows)):
            row = rows[r]
            f = row[col] % q
            if f and r != rank:
                row[col:] = [(a - f * p) % q for a, p in zip(row[col:], prow)]
        pivots.append(col)
        if rank + 1 == len(rows):
            break
    return pivots


def reference_forward(spec, initial, upto):
    """Per-entry forward step: u_new = rhs(i) - sum_v coeff_v * u_{new-v}."""
    q = spec.field.q
    coeffs = recursion_coeffs(spec)
    terms = [spec.field.vec(v) for v in initial]
    for new_idx in range(spec.order, upto + 1):
        acc = list(rhs_term(spec, new_idx - spec.order))
        for v in range(1, spec.window):
            for s in range(spec.dim):
                acc[s] -= coeffs[v] * terms[new_idx - v][s]
        terms.append(tuple(a % q for a in acc))
    return tuple(terms)


def reference_backward(spec, window, start):
    """Per-entry backward step, solved for the lowest-index term."""
    q = spec.field.q
    coeffs = recursion_coeffs(spec)
    inv_trailing = spec.field.inv(coeffs[-1])
    win = [spec.field.vec(v) for v in window]
    out = []
    for m in range(start - 1, -1, -1):
        acc = list(rhs_term(spec, m))
        for v in range(spec.window - 1):
            for s in range(spec.dim):
                acc[s] -= coeffs[v] * win[spec.order - 1 - v][s]
        u_m = tuple(inv_trailing * a % q for a in acc)
        out.append(u_m)
        win = [u_m] + win[:-1]
    return out


def assert_same_elimination(q, rows, ncols, above):
    field, want_inverted = recording_field(q)
    want_rows = [list(row) for row in rows]
    want = reference_eliminate(field, want_rows, ncols, above)
    field, got_inverted = recording_field(q)
    got_rows = [list(row) for row in rows]
    assert _eliminate(field, got_rows, ncols, above) == want
    assert got_inverted == want_inverted
    assert got_rows == [[v % q for v in row] for row in want_rows]


@st.composite
def eliminations(draw):
    """Rows of a chosen rank, shuffled, with unreduced and negative entries."""
    q = draw(st.sampled_from(MODULI))
    nrows = draw(st.integers(1, 9))
    width = draw(st.integers(1, 12))
    rank = draw(st.integers(0, min(nrows, width)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    basis = [[rnd.randrange(q) for _ in range(width)] for _ in range(rank)]
    rows = [list(vec) for vec in basis]
    while len(rows) < nrows:
        scales = [rnd.randrange(q) for _ in basis]
        rows.append([sum(s * vec[j] for s, vec in zip(scales, basis)) % q for j in range(width)])
    rnd.shuffle(rows)
    rows = [[v + q * rnd.randint(-2, 2) for v in row] for row in rows]
    ncols = draw(st.integers(1, width))
    return q, rows, ncols, draw(st.booleans())


@given(case=eliminations())
def test_eliminate_matches_per_entry_reference(case):
    assert_same_elimination(*case)


def most_growth(q, n):
    """n rows whose last row takes n - 1 row operations that each add
    (q - 1)^2 to column n - 1, the most a slot can hold; column n takes
    any carry out of it."""
    rows = [[0] * (n + 1) for _ in range(n)]
    for i in range(n - 1):
        rows[i][i] = 1
        rows[i][n - 1] = q - 1
    rows[n - 1] = [1] * (n - 1) + [q - 1, 1]
    return rows


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [2, 3, 5, 9])
@pytest.mark.parametrize("above", [False, True])
def test_eliminate_at_largest_slot_growth(q, n, above):
    assert_same_elimination(q, most_growth(q, n), n + 1, above)
    all_top = [[q - 1] * (n + 3) for _ in range(n)]
    assert_same_elimination(q, all_top, n + 3, above)


FAMILIES = [(alternating, wide) for alternating in (False, True) for wide in (False, True)]


def family_spec(q, alternating, wide, d, c):
    """The recursion shape of a scheme family: (t, l) = (1, d) or (d, 1)."""
    t, l = (1, d) if wide else (d, 1)
    return IlrSpec(t=t, l=l, alternating=alternating, c=tuple(c), field=PrimeField(q))


def assert_same_recursion(spec, initial, upto):
    terms = forward_extend(spec, initial, upto)
    assert terms == reference_forward(spec, initial, upto)
    for start in range(1, len(terms) - spec.order + 1):
        window = terms[start : start + spec.order]
        back = backward_recover(spec, window, start)
        assert back == reference_backward(spec, window, start)
        assert back == list(reversed(terms[:start]))


@st.composite
def recursions(draw):
    q = draw(st.sampled_from(MODULI))
    alternating, wide = draw(st.sampled_from(FAMILIES))
    d = draw(st.integers(1, min(8, q - 1)))  # binomials C(t+l-1, v) need t+l-1 < q
    dim = draw(st.integers(1, 64))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    spec = family_spec(q, alternating, wide, d, [rnd.randrange(q) for _ in range(dim)])
    initial = [
        [rnd.randrange(q) + q * rnd.randint(-2, 2) for _ in range(dim)]
        for _ in range(spec.order)
    ]
    return spec, initial, spec.order - 1 + draw(st.integers(0, 16))


@given(case=recursions())
def test_recursion_matches_per_entry_reference(case):
    assert_same_recursion(*case)


@pytest.mark.parametrize("q", [3, 97])
@pytest.mark.parametrize("alternating, wide", FAMILIES)
def test_recursion_every_dim_and_start(q, alternating, wide):
    rnd = random.Random(f"{q}-{alternating}-{wide}")
    for dim in range(1, 65):
        c = [rnd.randrange(q) for _ in range(dim)]
        spec = family_spec(q, alternating, wide, min(3, q - 1), c)
        initial = [[rnd.randrange(q) for _ in range(dim)] for _ in range(spec.order)]
        assert_same_recursion(spec, initial, spec.order + 6)
