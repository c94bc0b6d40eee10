"""Exact arithmetic and linear algebra over a prime field.

Everything here works on plain Python ints, so 61-bit (or larger) moduli
never overflow; products use the full 128-bit intermediate before
reduction.  All functions are pure and all containers immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

    def neg(self, a: int) -> int:
        return -a % self.q

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
    """Row-major matrix of residues."""

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
        ncols = len(rows[0])
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(len(rows), ncols, tuple(flat))

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]


def matrix_rank(field: PrimeField, m: Matrix) -> int:
    """Row rank by Gaussian elimination (first-nonzero pivoting).

    A wide matrix is ranked on its leading rows x rows block first: when
    that block is nonsingular the matrix has full row rank, and the other
    columns are never touched.  Only a singular block sends the whole
    matrix through elimination.
    """
    if m.rows < m.cols:
        block = [m.data[i * m.cols : i * m.cols + m.rows] for i in range(m.rows)]
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
    field: PrimeField, rows: Sequence[Sequence[int]], ncols: int, above: bool = False
) -> tuple[list[int], list[int], int]:
    """Pivot columns among the first ``ncols``, the reduced rows packed in
    w-bit slots, and w: ``_unpack(row, len(rows[0]), q, w)`` reads one.

    Pivots are the first nonzero entry at or below the current rank; each
    pivot row is scaled to a leading 1 and its column cleared in the rows
    below it, and also above it when ``above`` is set (Gauss-Jordan form).

    Each row is held as one int of w-bit slots (see ``_pack``), so a row
    operation is one multiply-add, row += (q - f) * pivot_row, reduced
    only when read (delayed reduction).  The pivot row is reduced when it
    is scaled, so every operation adds less than q^2 to a slot, and a row
    takes at most rows - 1 operations between reductions: a slot never
    exceeds (q - 1) + (rows - 1) * (q - 1)^2, and w is that bound's bit
    length, so no slot carries into the next.
    """
    q = field.q
    width = len(rows[0])
    w = (q - 1 + (len(rows) - 1) * (q - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    packed = [_pack(row, q, w) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        shift = col * w
        pivot = next(
            (r for r in range(rank, len(packed)) if (packed[r] >> shift & mask) % q),
            None,
        )
        if pivot is None:
            continue
        packed[rank], packed[pivot] = packed[pivot], packed[rank]
        # left of col the pivot row is zero mod q: scale and repack the rest
        row = _unpack(packed[rank] >> shift, width - col, q, w)
        inv_p = field.inv(row[0])
        prow = packed[rank] = _pack([v * inv_p for v in row], q, w) << shift
        for r in range(0 if above else rank + 1, len(packed)):
            f = (packed[r] >> shift & mask) % q
            if f and r != rank:
                packed[r] += (q - f) * prow
        pivots.append(col)
        if rank + 1 == len(packed):
            break
    return pivots, packed, w


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
    free_dims: int
    particular: tuple[tuple[int, ...], ...]
    free_cols: tuple[int, ...]
    nullspace: tuple[tuple[int, ...], ...]

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

    One Gauss-Jordan elimination reduces all columns together; raises
    Inconsistent when any column has no solution.  Column order of M is
    preserved during elimination so free variables are identifiable by
    index (used by the sub-threshold rank probe).
    """
    for b in columns:
        if len(b) != m.rows:
            raise DimMismatch(f"matrix has {m.rows} rows, rhs has {len(b)}")
    q = field.q
    ncols = m.cols
    rows = [m.row(i) + tuple(b[i] for b in columns) for i in range(m.rows)]
    pivot_cols, packed, w = _eliminate(field, rows, ncols, above=True)
    rows = [_unpack(p, ncols + len(columns), q, w) for p in packed]
    pr = len(pivot_cols)
    for r in range(pr, len(rows)):
        if any(rows[r][ncols:]):
            raise Inconsistent("system has no solution")
    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(ncols) if c not in pivot_set)

    particular = []
    for c in range(ncols, ncols + len(columns)):
        x = [0] * ncols
        for r, col in enumerate(pivot_cols):
            x[col] = rows[r][c]
        particular.append(tuple(x))

    nullspace = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for r, col in enumerate(pivot_cols):
            vec[col] = -rows[r][fc] % q
        nullspace.append(tuple(vec))

    return Solution(
        rank=pr,
        free_dims=len(free_cols),
        particular=tuple(particular),
        free_cols=free_cols,
        nullspace=tuple(nullspace),
    )


def vandermonde(field: PrimeField, xs: Sequence[int], width: int) -> Matrix:
    """Rows (1, x, x^2, ..., x^(width-1)) for each evaluation point x."""
    q = field.q
    rows = []
    for x in xs:
        x %= q
        row = [1]
        acc = 1
        for _ in range(width - 1):
            acc = acc * x % q
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(rows)


def lagrange_at_zero(
    field: PrimeField, nodes: Sequence[int], columns: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Value at 0 of the interpolating polynomial of each value column.

    Column c holds the values at the given nodes, in node order; the result
    holds one value per column.  The weights
    w_j = prod_{i != j} x_i / (x_i - x_j) depend on the nodes only, so they
    are computed once, with one inversion for all nodes (Montgomery's
    batch trick), and each column's value is sum_j w_j * y_j.  All nodes
    must be distinct and nonzero.
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
    nums = []
    dens = []
    for j, xj in enumerate(xs):
        num = 1
        den = 1
        for i, xi in enumerate(xs):
            if i != j:
                num = num * xi % q
                den = den * (xi - xj) % q
        nums.append(num)
        dens.append(den)
    # prefix[j] = dens[0] * ... * dens[j-1]; walk back from one inverse
    prefix = [1]
    for den in dens:
        prefix.append(prefix[-1] * den % q)
    acc = field.inv(prefix[-1])
    weights = [0] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        weights[j] = nums[j] * acc % q * prefix[j] % q
        acc = acc * dens[j] % q
    return tuple(
        sum(w * y for w, y in zip(weights, ys)) % q for ys in columns
    )


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
