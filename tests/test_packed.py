"""The packed kernels against the per-entry loops they replaced.

``field._eliminate`` holds each row, and ``ilr._walk`` (the one recursion
walker behind ``forward_extend`` and ``backward_recover``) each term, as
one int of w-bit slots, and reduces only once per pivot or term.  The
references below are the per-entry loops, kept as oracles: the packed
kernels must give the same pivots, the same inverses and the same rows
and terms mod q, on every shape, rank and modulus, and also on the inputs
that make a slot grow the most.  ``solve_linear`` (forward elimination,
then back substitution) must give what per-entry Gauss-Jordan elimination
of the same system gives.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mss.errors import Inconsistent
from mss.field import _MR_LIMIT, Matrix, PrimeField, _eliminate, is_prime, solve_linear
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


def assert_same_elimination(q, rows, ncols):
    field, want_inverted = recording_field(q)
    want_rows = [list(row) for row in rows]
    want = reference_eliminate(field, want_rows, ncols)
    field, got_inverted = recording_field(q)
    pivots, pivot_rows, leftover = _eliminate(field, rows, ncols)
    assert pivots == want
    assert got_inverted == want_inverted
    assert pivot_rows == [[v % q for v in row[col:]] for row, col in zip(want_rows, want)]
    left = want_rows[len(want) :]
    assert all(v % q == 0 for row in left for v in row[:ncols])
    assert leftover == [[v % q for v in row[ncols:]] for row in left]


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
    return q, rows, ncols


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
def test_eliminate_at_largest_slot_growth(q, n):
    assert_same_elimination(q, most_growth(q, n), n + 1)
    # the last row zero in every pivot column: it takes no row operation,
    # and adding q * prow to it instead would carry out of column n - 1
    zero_below = most_growth(q, n)
    zero_below[n - 1][: n - 1] = [0] * (n - 1)
    assert_same_elimination(q, zero_below, n + 1)
    all_top = [[q - 1] * (n + 3) for _ in range(n)]
    assert_same_elimination(q, all_top, n + 3)


def reference_solve(q, matrix, columns):
    """(rank, free_cols, particular, nullspace) read off the per-entry
    Gauss-Jordan form of [M | B], or None when some column has no solution."""
    ncols = len(matrix[0])
    rows = [list(row) + [b[i] for b in columns] for i, row in enumerate(matrix)]
    pivots = reference_eliminate(PrimeField(q), rows, ncols, above=True)
    rank = len(pivots)
    if any(v % q for row in rows[rank:] for v in row[ncols:]):
        return None
    free_cols = tuple(c for c in range(ncols) if c not in pivots)
    particular = []
    for c in range(ncols, ncols + len(columns)):
        x = [0] * ncols
        for r, col in enumerate(pivots):
            x[col] = rows[r][c] % q
        particular.append(tuple(x))
    nullspace = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc] % q
        nullspace.append(tuple(vec))
    return rank, free_cols, tuple(particular), tuple(nullspace)


SYSTEMS = ("full-rank", "rank-deficient", "inconsistent", "uniform")


@st.composite
def systems(draw, q, kind):
    """A system M x = B of the given kind, tall, square or wide, with one to
    eight right-hand sides (``fit_general_term`` and the rank probe pass
    several, one per component) and unreduced, negative entries.  The structured
    kinds start from an echelon form of known rank with zero rows below it
    (one right-hand side nonzero there when inconsistent) and mix its rows
    by unit triangular row operations and a shuffle, which keep the rank
    and the solution sets; "uniform" draws every entry at random."""
    nrows = draw(st.integers(2 if kind == "inconsistent" else 1, 8))
    ncols = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if kind == "uniform":
        rows = [[rnd.randrange(q) for _ in range(ncols + k)] for _ in range(nrows)]
    else:
        top = min(nrows - (kind == "inconsistent"), ncols)
        rank = top if kind == "full-rank" else draw(st.integers(0, top - (kind == "rank-deficient")))
        rows = [[0] * (ncols + k) for _ in range(nrows)]
        for row, col in zip(rows, sorted(rnd.sample(range(ncols), rank))):
            row[col] = rnd.randrange(1, q)
            row[col + 1 :] = [rnd.randrange(q) for _ in row[col + 1 :]]
        if kind == "inconsistent":
            rows[rnd.randrange(rank, nrows)][ncols + rnd.randrange(k)] = rnd.randrange(1, q)
        order = list(range(nrows))
        for sweep in (order, order[::-1]):
            for i, r in enumerate(sweep):
                for j in sweep[:i]:
                    s = rnd.randrange(q)
                    rows[r] = [a + s * b for a, b in zip(rows[r], rows[j])]
        rnd.shuffle(rows)
    rows = [[v % q + q * rnd.randint(-2, 2) for v in row] for row in rows]
    matrix = [row[:ncols] for row in rows]
    return matrix, [[row[ncols + c] for row in rows] for c in range(k)]


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("kind", SYSTEMS)
@given(data=st.data())
def test_solve_linear_matches_gauss_jordan(q, kind, data):
    matrix, columns = data.draw(systems(q, kind))
    want = reference_solve(q, matrix, columns)
    if kind != "uniform":
        assert (want is None) == (kind == "inconsistent")
    if kind == "full-rank":
        assert want[0] == min(len(matrix), len(matrix[0]))
    if kind == "rank-deficient":
        assert want[0] < min(len(matrix), len(matrix[0]))
    field = PrimeField(q)
    m = Matrix.from_rows(matrix)
    if want is None:
        with pytest.raises(Inconsistent):
            solve_linear(field, m, columns)
        return
    sol = solve_linear(field, m, columns)
    assert (sol.rank, sol.free_cols, sol.particular, sol.nullspace) == want


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


@pytest.mark.parametrize(
    "q, d, dims, starts",
    [
        pytest.param(3, 2, range(1, 65), 7, id="3"),
        pytest.param(97, 3, range(1, 65), 7, id="97"),
        # the orders that recover-window (t = 24) and criterion 7 (t = 32) walk
        pytest.param((1 << 61) - 1, 24, [24], 41, id="order24"),
        pytest.param((1 << 61) - 1, 32, [32], 41, id="order32"),
    ],
)
@pytest.mark.parametrize("alternating, wide", FAMILIES)
def test_recursion_every_dim_and_start(q, d, dims, starts, alternating, wide):
    rnd = random.Random(f"{q}-{alternating}-{wide}")
    for dim in dims:
        c = [rnd.randrange(q) for _ in range(dim)]
        spec = family_spec(q, alternating, wide, d, c)
        initial = [[rnd.randrange(q) for _ in range(dim)] for _ in range(spec.order)]
        assert_same_recursion(spec, initial, spec.order - 1 + starts)
