"""Exact arithmetic and linear algebra over a prime field.

Everything here works on plain Python ints, so 61-bit (or larger) moduli
never overflow; products use the full 128-bit intermediate before
reduction.  All functions are pure and all containers immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Sequence

from .errors import DimMismatch, DuplicateNode, Inconsistent, InvalidNode

#: Default modulus: the Mersenne prime 2^61 - 1.  Large enough that every
#: evaluation point used by the schemes is a distinct nonzero residue.
DEFAULT_PRIME = (1 << 61) - 1

# Strong-pseudoprime bases: the primes up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The smallest strong pseudoprime to every base in _MR_BASES, equal to
# 399165290221 * 798330580441 (Sorenson and Webster, Math. Comp. 2017):
# below it the test is deterministic, at or above it it cannot decide.
_MR_LIMIT = 318665857834031151167461

# Exact differences multiplied per reduction in lagrange_at_zero: enough to
# save most reductions, few enough that a product of 61-bit differences
# stays about 1,000 bits.
_CHUNK = 16


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed bases, exact below _MR_LIMIT.

    Raises ValueError for n >= _MR_LIMIT rather than guess.
    """
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: moduli must be below {_MR_LIMIT}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of residues modulo a prime q."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse (extended gcd via the builtin pow)."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.q)

    def rand_vec(self, rng, dim: int) -> tuple[int, ...]:
        """``dim`` uniform residues, in the order single draws give them."""
        return rng.randbelow_many(self.q, dim)

    # vectors are plain tuples of residues
    def vec(self, xs: Sequence[int]) -> tuple[int, ...]:
        return tuple(x % self.q for x in xs)

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        if len(a) != len(b):
            raise DimMismatch(f"vector lengths {len(a)} != {len(b)}")
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def vec_sub(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        if len(a) != len(b):
            raise DimMismatch(f"vector lengths {len(a)} != {len(b)}")
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def vec_scale(self, s: int, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(s * x % self.q for x in a)


@dataclass(frozen=True)
class Matrix:
    """Row-major matrix of residues, read by ``row`` and ``column``."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                f"data length {len(self.data)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        ncols = len(rows[0]) if rows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(len(rows), ncols, tuple(flat))

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.data[j :: self.cols]


def matrix_rank(field: PrimeField, m: Matrix) -> int:
    """Row rank: the pivot count of forward elimination (first-nonzero
    pivoting, see ``_eliminate``).

    A wide matrix is ranked on its leading rows x rows block first: when
    that block is nonsingular the matrix has full row rank, and the other
    columns are never touched.  Only a singular block sends the whole
    matrix through elimination.
    """
    if m.rows < m.cols:
        block = [m.row(i)[: m.rows] for i in range(m.rows)]
        if len(_eliminate(field, block, m.rows)[0]) == m.rows:
            return m.rows
    return len(_eliminate(field, [m.row(i) for i in range(m.rows)], m.cols)[0])


def _pack(values: Sequence[int], q: int, w: int) -> int:
    """The residues of ``values`` in one int: value j mod q in the w-bit slot j."""
    packed = 0
    for v in reversed(values):
        packed = packed << w | v % q
    return packed


def _unpack(packed: int, n: int, q: int, w: int) -> list[int]:
    """The first n w-bit slots of ``packed``, each reduced mod q."""
    mask = (1 << w) - 1
    return [(packed >> shift & mask) % q for shift in range(0, n * w, w)]


def _eliminate(
    field: PrimeField, rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Forward elimination over the first ``ncols`` columns: the pivot
    columns, each pivot row scaled to a leading 1 from its pivot column on,
    and the rows left over, from column ``ncols`` on, all reduced mod q.

    Pivots are the first nonzero entry at or below the current rank; each
    pivot row is scaled to a leading 1 and its column cleared in the rows
    below it, never above it.

    Each live row (one not yet a pivot row) is held as one int of w-bit
    slots (see ``_pack``), trimmed so that slot 0 is the current column.
    A column with no pivot is shifted out of every live row.  A pivot step
    shifts it out of the other live rows too, and adds to each whose entry
    f there is nonzero mod q the pivot row's later columns, packed as prow:
    row = (row >> w) + (q - f) * prow.  So row operations get shorter as
    elimination goes on, and live rows are reduced only when read (delayed
    reduction).  The pivot row is reduced when it is scaled, so every
    operation adds less than q^2 to a slot, and a row takes at most
    rows - 1 operations: a slot never exceeds
    (q - 1) + (rows - 1) * (q - 1)^2, and w is that bound's bit length, so
    no slot carries into the next.
    """
    q = field.q
    width = len(rows[0])
    w = (q - 1 + (len(rows) - 1) * (q - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    live = [_pack(row, q, w) for row in rows]
    pivots: list[int] = []
    pivot_rows: list[list[int]] = []
    for col in range(ncols):
        pivot = next((r for r, x in enumerate(live) if (x & mask) % q), None)
        if pivot is None:
            live = [x >> w for x in live]
            continue
        live[0], live[pivot] = live[pivot], live[0]
        top = live[0]
        inv_p = field.inv(top & mask)
        row = [(top >> s & mask) * inv_p % q for s in range(0, (width - col) * w, w)]
        prow = _pack(row[1:], q, w)
        rest, live = live[1:], []
        for x in rest:
            f = (x & mask) % q
            live.append((x >> w) + (q - f) * prow if f else x >> w)
        pivots.append(col)
        pivot_rows.append(row)
        if not live:
            break
    return pivots, pivot_rows, [_unpack(x, width - ncols, q, w) for x in live]


@dataclass(frozen=True)
class Solution:
    """Result of solving M x = b_c over F_q for each right-hand side b_c.

    The matrix fixes ``rank``, ``free_cols`` and ``nullspace`` (one basis
    vector per free column, in column order), so they are shared by every
    column.  ``particular`` holds one solution per right-hand side, in
    input order; column c's affine solution set is ``particular[c]`` plus
    the span of ``nullspace``.
    """

    rank: int
    particular: tuple[tuple[int, ...], ...]
    free_cols: tuple[int, ...]
    nullspace: tuple[tuple[int, ...], ...]

    @property
    def free_dims(self) -> int:
        return len(self.free_cols)

    @property
    def unique(self) -> bool:
        return self.free_dims == 0

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...] | None:
        """The solution of each column when it is unique, else None."""
        return self.particular if self.unique else None


def solve_linear(
    field: PrimeField, m: Matrix, columns: Sequence[Sequence[int]]
) -> Solution:
    """Solve M x = b exactly for every right-hand side b in ``columns``.

    One forward elimination (``_eliminate``) of M with the columns
    appended, then one back substitution per vector, from the last pivot
    row up: x[p] = (b - sum_{c > p} row[c - p] * x[c]) mod q.  For each
    right-hand side the free variables are 0 and b is the pivot row's entry
    in that column; for each free column that variable is 1, the other free
    variables are 0 and b is 0, which gives its nullspace vector.
    Raises Inconsistent when any column has no solution.  Column order of
    M is preserved, so ``free_cols`` names each free variable by its index.
    """
    for b in columns:
        if len(b) != m.rows:
            raise DimMismatch(f"matrix has {m.rows} rows, rhs has {len(b)}")
    q = field.q
    ncols = m.cols
    rows = [m.row(i) + tuple(b[i] for b in columns) for i in range(m.rows)]
    pivot_cols, pivot_rows, leftover = _eliminate(field, rows, ncols)
    if any(any(row) for row in leftover):
        raise Inconsistent("system has no solution")
    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(ncols) if c not in pivot_set)
    pivots = list(zip(pivot_cols, pivot_rows))

    def back_substitute(x: list[int], rhs: Sequence[int]) -> tuple[int, ...]:
        for (p, row), b in reversed(list(zip(pivots, rhs))):
            x[p] = (b - sum(map(mul, row[1 : ncols - p], x[p + 1 :]))) % q
        return tuple(x)

    particular = tuple(
        back_substitute([0] * ncols, [row[k - p] for p, row in pivots])
        for k in range(ncols, ncols + len(columns))
    )
    nullspace = tuple(
        back_substitute([int(c == fc) for c in range(ncols)], [0] * len(pivots))
        for fc in free_cols
    )
    return Solution(
        rank=len(pivots),
        particular=particular,
        free_cols=free_cols,
        nullspace=nullspace,
    )


def vandermonde(field: PrimeField, xs: Sequence[int], width: int) -> Matrix:
    """Rows (1, x, x^2, ..., x^(width-1)) for each evaluation point x."""
    q = field.q
    rows = []
    for x in xs:
        x %= q
        row = []
        acc = 1
        for _ in range(width):
            row.append(acc)
            acc = acc * x % q
        rows.append(row)
    return Matrix.from_rows(rows)


def lagrange_at_zero(
    field: PrimeField, nodes: Sequence[int], columns: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Value at 0 of the interpolating polynomial of each value column.

    Column c holds the values at the given nodes, in node order; the result
    holds one value per column.  The weights
    w_j = prod_{i != j} x_i / (x_i - x_j) depend on the nodes only, so they
    are computed once, and each column's value is sum_j w_j * y_j.  All
    nodes must be distinct and nonzero.

    Each weight is w_j = (prod_i x_i) / den_j with
    den_j = x_j * prod_{i != j} (x_i - x_j): the exact differences, ints in
    (-q, q), with x_j in place of the zero at i = j, multiplied _CHUNK at a
    time before each reduction mod q, so the int products stay short.  All
    denominators are inverted with one inversion of their product, walked
    back through the prefix products (Montgomery, Math. Comp. 48, 1987).
    """
    q = field.q
    xs = [x % q for x in nodes]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("interpolation nodes must be distinct")
    if any(x == 0 for x in xs):
        raise InvalidNode("node at x = 0 is not allowed")
    for ys in columns:
        if len(ys) != len(xs):
            raise DimMismatch(f"{len(xs)} nodes, value column has {len(ys)}")
    dens = []
    for j, xj in enumerate(xs):
        factors = list(map(sub, xs, repeat(xj)))
        factors[j] = xj  # in place of x_j - x_j = 0
        den = 1
        for start in range(0, len(factors), _CHUNK):
            den = den * math.prod(factors[start : start + _CHUNK]) % q
        dens.append(den)
    prefix = list(accumulate(dens, lambda a, b: a * b % q, initial=1))
    num = 1
    for x in xs:
        num = num * x % q
    inv = field.inv(prefix[-1])  # 1 / prod_j den_j; prefix[-1] is 1 for no nodes
    weights = [0] * len(xs)
    for j in reversed(range(len(xs))):
        weights[j] = num * inv * prefix[j] % q
        inv = inv * dens[j] % q
    return _weighted_sums(q, weights, columns)


def _weighted_sums(
    q: int, weights: Sequence[int], columns: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """sum_j weights[j] * ys[j] mod q for each column ys: with weights at
    zero (p(0) = sum_j w_j p(x_j) for every p of degree below the node
    count), each column's interpolating polynomial at 0."""
    return tuple(sum(map(mul, weights, ys)) % q for ys in columns)


def binom_mod(field: PrimeField, j: int, l: int) -> int:
    """Binomial coefficient C(j, l) mod q; zero when j < l."""
    if j < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    if l >= field.q:
        raise ValueError("l must be smaller than the modulus")
    return math.comb(j, l) % field.q


def poly_eval(field: PrimeField, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial given low-order-first coefficients (Horner)."""
    q = field.q
    x %= q
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc
