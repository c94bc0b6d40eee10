"""Subset-sum hashing of binary vectors, share sampling, and commitments.

A random matrix A over F_q maps a binary vector x to A*x mod q; since x is
binary this is a subset sum of A's columns.  Finding a second binary
preimage for a uniformly random A is assumed hard at cryptographic sizes,
which is what makes the published commitments h_j = F*sh_j binding.

A public matrix is published as a 32-byte seed, which ``expand_matrix``
turns into the matrix by SHAKE-256, as Kyber and NewHope publish theirs;
the matrices are then pseudorandom, with SHAKE-256 as a random oracle.

Hashing many vectors under one matrix reads its columns packed, each one
int of byte-aligned slots (``_slot_bits``): ``_seeded_columns`` lays a
seed's stream straight into them, for the dealer and every reader, and
``_matrix_columns`` packs a ``Matrix`` (format 1, or a rejected stream),
with equal columns for the matrix a seed expands to.  ``ajtai_hash_many``
then sums the packed columns each vector picks, and ``ajtai_hash`` stays
the per-entry definition.
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
) -> tuple[bytes, list[int]]:
    """A seed drawn from rng and its ``_seeded_columns``, redrawn until its
    matrix has full row rank: ranked on the leading rows x rows block, and
    expanded and ranked whole only when that block is singular."""
    if rows > cols:
        raise DimMismatch("full row rank needs rows <= cols")
    w = _slot_bits(field.q, cols)
    for _attempt in range(MAX_RANK_RESAMPLES):
        seed = rng.randbytes(SEED_BYTES)
        columns = _seeded_columns(field, rows, cols, seed)
        block = zip(*(_unpack(c, rows, field.q, w) for c in columns[:rows]))
        if (matrix_rank(field, Matrix.from_rows(list(block))) == rows
                or matrix_rank(field, expand_matrix(field, rows, cols, seed)) == rows):
            return seed, columns
    raise RngSuspect(f"{MAX_RANK_RESAMPLES} rank-deficient draws in a row")


def _check_length(cols: int, x: Sequence[int]) -> None:
    if len(x) != cols:
        raise DimMismatch(f"matrix has {cols} columns, vector has {len(x)}")


def ajtai_hash(field: PrimeField, a: Matrix, x: Sequence[int]) -> tuple[int, ...]:
    """A * x mod q for binary x: the subset sum of A's columns picked by x."""
    _check_length(a.cols, x)
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


def _slot_bits(q: int, cols: int) -> int:
    """Bits per slot of a packed column: whole bytes, at least k + 1 for
    q's bit length k, so that a candidate below 2^k plus 2^k - q carries
    into bit k of its own slot and no further, and at least
    bits(cols * (q - 1)), so that a sum of one residue per column fits."""
    return -(-max(q.bit_length() + 1, (cols * (q - 1)).bit_length()) // 8) * 8


def _matrix_columns(field: PrimeField, a: Matrix) -> list[int]:
    """A's columns packed for ``ajtai_hash_many``: column j's entry i mod q
    in slot i of int j (see ``field._pack``)."""
    w = _slot_bits(field.q, a.cols)
    return [_pack(a.column(j), field.q, w) for j in range(a.cols)]


def _seeded_columns(field: PrimeField, rows: int, cols: int, seed: bytes) -> list[int]:
    """``_matrix_columns`` of ``expand_matrix(field, rows, cols, seed)``,
    built from the seed's stream without a ``Matrix``.

    ``randbelow_many`` would read rows * cols candidates of nbytes
    big-endian bytes each, keep the top k bits of each, and keep them all
    unless one is q or more.  Those bytes are laid straight into the
    slots: for each row and each candidate byte, one strided slice copies
    the row's bytes into slot rows - 1 - i of every column, right-aligned,
    so that reading a column as one big-endian int puts row 0 in slot 0.
    One ``>> shift & mask`` then keeps each slot's top k bits.  Adding
    2^k - q to every slot carries into bit k of a slot exactly when its
    candidate is q or more; then the expansion rejected a candidate, and
    the matrix is expanded and packed instead.  A candidate whose first
    byte is above q's first byte is q or more: such a stream, common when
    q is just above a power of two, goes to the expansion before any
    slot is laid.
    """
    q = field.q
    k = q.bit_length()
    nbytes = (k + 7) // 8
    w = _slot_bits(q, cols)
    size = w // 8
    column_bytes = rows * size
    row_bytes = cols * nbytes
    data = Xof(seed).randbytes(rows * row_bytes)
    top = (q << 8 * nbytes - k) >> 8 * nbytes - 8  # q's first byte as a candidate's
    if data[::nbytes].translate(None, bytes(range(top + 1))):  # a first byte above it
        return _matrix_columns(field, expand_matrix(field, rows, cols, seed))
    slots = bytearray(cols * column_bytes)
    for i in range(rows):
        first = (rows - i) * size - nbytes  # row i's candidate in column 0
        row = data[i * row_bytes : (i + 1) * row_bytes]
        for b in range(nbytes):
            slots[first + b :: column_bytes] = row[b::nbytes]
    every_slot = ((1 << (w * rows)) - 1) // ((1 << w) - 1)  # 1 in each slot
    shift, mask = 8 * nbytes - k, ((1 << k) - 1) * every_slot
    offset, carry = ((1 << k) - q) * every_slot, (1 << k) * every_slot
    view = memoryview(slots)
    columns = []
    for start in range(0, len(slots), column_bytes):
        column = int.from_bytes(view[start : start + column_bytes], "big") >> shift & mask
        if (column + offset) & carry:
            return _matrix_columns(field, expand_matrix(field, rows, cols, seed))
        columns.append(column)
    return columns


def ajtai_hash_many(
    field: PrimeField, rows: int, columns: Sequence[int], shares: Sequence[Share]
) -> list[tuple[int, ...]]:
    """``ajtai_hash(field, a, share.bits)`` for every share, for the
    rows x len(columns) matrix A whose columns are packed as
    ``_matrix_columns`` and ``_seeded_columns`` pack them.

    A ``Share`` has binary bits by construction, so only their length is
    checked.  A vector's hash is one sum of the packed columns it picks,
    unpacked and reduced mod q: slots are at least bits(cols * (q - 1))
    wide, so a sum of at most cols residues never carries into the next.
    """
    for share in shares:
        _check_length(len(columns), share.bits)
    q = field.q
    w = _slot_bits(q, len(columns))
    return [
        tuple(_unpack(sum(compress(columns, share.bits)), rows, q, w)) for share in shares
    ]


def verify_commitment(
    field: PrimeField, f: Matrix, share: Share, commitment: Sequence[int]
) -> bool:
    """True iff hashing the share under f reproduces the commitment, the
    published residues h = F * share bits, exactly."""
    if len(commitment) != f.rows:
        raise DimMismatch(f"commitment has {len(commitment)} entries, matrix {f.rows} rows")
    return ajtai_hash(field, f, share.bits) == tuple(commitment)
