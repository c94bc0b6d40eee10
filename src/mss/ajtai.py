"""Subset-sum hashing of binary vectors, share sampling, and commitments.

A random matrix A over F_q maps a binary vector x to A*x mod q; since x is
binary this is a subset sum of A's columns.  Finding a second binary
preimage for a uniformly random A is assumed hard at cryptographic sizes,
which is what makes the published commitments h_j = F*sh_j binding.

A public matrix is published as a 32-byte seed, which ``expand_matrix``
turns into the matrix by SHAKE-256, as Kyber and NewHope publish theirs;
the matrices are then pseudorandom, with SHAKE-256 as a random oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import DimMismatch, MssError, NotBinary, RngSuspect, ShareSpaceExhausted
from .field import Matrix, PrimeField, _pack, _unpack, matrix_rank
from .rng import Xof

#: Consecutive repeated draws tolerated while drawing distinct shares or constants.
MAX_SHARE_RESAMPLES = 1000

#: Consecutive rank failures tolerated while sampling full-rank matrices;
#: for r >= t log t the failure probability per draw is negligible, so
#: hitting this limit signals broken randomness rather than bad luck.
MAX_RANK_RESAMPLES = 100

#: Bytes of the seed a public matrix is published as.
SEED_BYTES = 32


@dataclass(frozen=True)
class Share:
    """A participant's long-lived secret: a binary vector of length r."""

    owner: int
    bits: tuple[int, ...]

    def __post_init__(self):
        # True and 1.0 compare equal to 1, so types are checked first
        if type(self.owner) is not int:
            raise ValueError("owner index must be an int")
        if self.owner < 1:
            raise ValueError("owner index is 1-based")
        if not (set(map(type, self.bits)) <= {int} and set(self.bits) <= {0, 1}):
            raise NotBinary("share bits must be 0 or 1")
        if not self.bits:
            raise ValueError("share must be nonempty")


def _distinct_draws(draw, sizes, error: MssError) -> list[tuple[int, ...]]:
    """One ``draw(size)`` per size, in order, pairwise distinct: a draw that
    repeats an earlier one is drawn again, and the rest keep draw order.
    Raises ``error`` after MAX_SHARE_RESAMPLES repeats in a row."""
    drawn: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    for size in sizes:
        for _attempt in range(MAX_SHARE_RESAMPLES):
            value = draw(size)
            if value not in drawn:
                drawn[value] = None
                break
        else:
            raise error
    return list(drawn)


def sample_distinct_shares(n: int, r: int, rng) -> list[tuple[int, ...]]:
    """n pairwise-distinct uniform binary vectors of length r, resampling
    on collision."""
    exhausted = ShareSpaceExhausted(f"cannot draw {n} distinct shares of {r} bits")
    return _distinct_draws(rng.bit_vector, [r] * n, exhausted)


def expand_matrix(field: PrimeField, rows: int, cols: int, seed: bytes) -> Matrix:
    """The matrix a seed stands for: rows * cols uniform residues, row by
    row, drawn by ``Drbg.randbelow_many`` from the seed's SHAKE-256 stream."""
    return Matrix(rows, cols, field.rand_vec(Xof(seed), rows * cols))


def sample_matrix_full_rank(
    field: PrimeField, rows: int, cols: int, rng
) -> tuple[bytes, Matrix]:
    """A seed drawn from rng and the matrix it expands to, redrawn until
    that matrix has full row rank."""
    if rows > cols:
        raise DimMismatch("full row rank needs rows <= cols")
    for _attempt in range(MAX_RANK_RESAMPLES):
        seed = rng.randbytes(SEED_BYTES)
        m = expand_matrix(field, rows, cols, seed)
        if matrix_rank(field, m) == rows:
            return seed, m
    raise RngSuspect(f"{MAX_RANK_RESAMPLES} rank-deficient draws in a row")


def _check_length(a: Matrix, x: Sequence[int]) -> None:
    if len(x) != a.cols:
        raise DimMismatch(f"matrix has {a.cols} columns, vector has {len(x)}")


def ajtai_hash(field: PrimeField, a: Matrix, x: Sequence[int]) -> tuple[int, ...]:
    """A * x mod q for binary x: the subset sum of A's columns picked by x."""
    _check_length(a, x)
    if any(b not in (0, 1) for b in x):
        raise NotBinary("input vector must be binary")
    q = field.q
    picked = [j for j, b in enumerate(x) if b]
    out = []
    for i in range(a.rows):
        row = a.row(i)
        acc = 0
        for j in picked:
            acc += row[j]
        out.append(acc % q)
    return tuple(out)


def ajtai_hash_many(
    field: PrimeField, a: Matrix, shares: Sequence[Share]
) -> list[tuple[int, ...]]:
    """``ajtai_hash(field, a, share.bits)`` for every share.

    A ``Share`` has binary bits by construction, so the packed path checks
    only their length.

    Each column of A is packed once into one integer, entry i in the
    w-bit slot i (see ``field._pack``), with w = bits(cols * (q - 1)): a
    sum of at most cols residues fits in a slot, so slots never carry
    into each other.  A vector's hash is then one sum of the packed
    columns it picks, unpacked and reduced mod q.  Packing costs more
    than one hash, so it pays when several vectors are hashed under the
    same A; fewer than two go through ``ajtai_hash``.
    """
    if len(shares) < 2:
        return [ajtai_hash(field, a, share.bits) for share in shares]
    for share in shares:
        _check_length(a, share.bits)
    q, rows, cols = field.q, a.rows, a.cols
    w = (cols * (q - 1)).bit_length()
    packed = [_pack(a.column(j), q, w) for j in range(cols)]
    return [
        tuple(_unpack(sum(compress(packed, share.bits)), rows, q, w))
        for share in shares
    ]


def verify_commitment(
    field: PrimeField, f: Matrix, share: Share, commitment: Sequence[int]
) -> bool:
    """True iff hashing the share under f reproduces the commitment, the
    published residues h = F * share bits, exactly."""
    if len(commitment) != f.rows:
        raise DimMismatch(f"commitment has {len(commitment)} entries, matrix {f.rows} rows")
    return ajtai_hash(field, f, share.bits) == tuple(commitment)
