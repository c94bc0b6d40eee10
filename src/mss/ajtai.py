"""Subset-sum hashing of binary vectors, share sampling, and commitments.

A random matrix A over F_q maps a binary vector x to A*x mod q; since x is
binary this is a subset sum of A's columns.  Finding a second binary
preimage for a uniformly random A is assumed hard at cryptographic sizes,
which is what makes the published commitments h_j = F*sh_j binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import DimMismatch, NotBinary, RngSuspect, ShareSpaceExhausted
from .field import Matrix, PrimeField, matrix_rank

#: Keep the share space at >= 2^16 vectors even for tiny test parameters.
MIN_SHARE_BITS = 16

#: Consecutive duplicate draws tolerated while sampling distinct shares.
MAX_SHARE_RESAMPLES = 1000

#: Consecutive rank failures tolerated while sampling full-rank matrices;
#: for r >= t log t the failure probability per draw is negligible, so
#: hitting this limit signals broken randomness rather than bad luck.
MAX_RANK_RESAMPLES = 100


@dataclass(frozen=True)
class Share:
    """A participant's long-lived secret: a binary vector of length r."""

    owner: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.owner < 1:
            raise ValueError("owner index is 1-based")
        if any(b not in (0, 1) for b in self.bits):
            raise NotBinary("share bits must be 0 or 1")
        if not self.bits:
            raise ValueError("share must be nonempty")


def share_length(max_threshold: int, n: int) -> int:
    """Share bit-length: max(ceil(t*log2 t), ceil(log2 n), 16).

    Computed exactly in integer arithmetic: ceil(t*log2 t) = ceil(log2 t^t).
    """
    if n < 2:
        raise ValueError("need at least 2 participants")
    if max_threshold < 2:
        raise ValueError("threshold must be at least 2")
    from_threshold = (max_threshold**max_threshold - 1).bit_length()
    from_n = (n - 1).bit_length()
    return max(from_threshold, from_n, MIN_SHARE_BITS)


def sample_distinct_shares(n: int, r: int, rng) -> list[tuple[int, ...]]:
    """n pairwise-distinct uniform binary vectors of length r, resampling
    on collision."""
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for _ in range(n):
        for _attempt in range(MAX_SHARE_RESAMPLES):
            bits = rng.bit_vector(r)
            if bits not in seen:
                seen.add(bits)
                out.append(bits)
                break
        else:
            raise ShareSpaceExhausted(
                f"cannot draw {n} distinct shares of {r} bits"
            )
    return out


def sample_matrix_full_rank(
    field: PrimeField, rows: int, cols: int, rng
) -> Matrix:
    """Uniform matrix, resampled until it has full row rank."""
    if rows > cols:
        raise DimMismatch("full row rank needs rows <= cols")
    for _attempt in range(MAX_RANK_RESAMPLES):
        m = Matrix(rows, cols, field.rand_vec(rng, rows * cols))
        if matrix_rank(field, m) == rows:
            return m
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
    data = a.data
    out = []
    for i in range(a.rows):
        base = i * a.cols
        acc = 0
        for j in picked:
            acc += data[base + j]
        out.append(acc % q)
    return tuple(out)


def ajtai_hash_many(
    field: PrimeField, a: Matrix, shares: Sequence[Share]
) -> list[tuple[int, ...]]:
    """``ajtai_hash(field, a, share.bits)`` for every share.

    A ``Share`` has binary bits by construction, so only their length is
    checked here.

    Each column of A is packed once into one integer, entry i in the
    w-bit slot i, with w = bits(q) + bits(cols): a sum of at most cols
    residues below q fits in a slot, so slots never carry into each other.
    A vector's hash is then one sum of the packed columns it picks,
    unpacked slot by slot and reduced mod q.  Packing costs more than one
    hash, so it pays when several vectors are hashed under the same A.
    """
    for share in shares:
        _check_length(a, share.bits)
    q, rows, cols, data = field.q, a.rows, a.cols, a.data
    w = q.bit_length() + cols.bit_length()
    packed = []
    for j in range(cols):
        acc = 0
        for i in range(rows - 1, -1, -1):
            acc = (acc << w) | data[i * cols + j]
        packed.append(acc)
    mask = (1 << w) - 1
    out = []
    for share in shares:
        total = sum(compress(packed, share.bits))
        out.append(tuple(((total >> (i * w)) & mask) % q for i in range(rows)))
    return out


def verify_commitment(
    field: PrimeField, f: Matrix, share: Share, commitment: Sequence[int]
) -> bool:
    """True iff hashing the share under f reproduces the commitment, the
    published residues h = F * share bits, exactly."""
    if len(commitment) != f.rows:
        raise DimMismatch(f"commitment has {len(commitment)} entries, matrix {f.rows} rows")
    return ajtai_hash(field, f, share.bits) == tuple(commitment)
