"""Binary-share sampling, subset-sum hashing, and commitments."""

import pytest

from mss.ajtai import (
    MAX_RANK_RESAMPLES,
    Share,
    ajtai_hash,
    ajtai_hash_many,
    sample_distinct_shares,
    sample_matrix_full_rank,
    share_length,
    verify_commitment,
)
from mss.errors import DimMismatch, NotBinary, RngSuspect, ShareSpaceExhausted
from mss.field import Matrix, PrimeField, matrix_rank
from mss.rng import Drbg

F97 = PrimeField(97)


def reference_rank(field, m):
    """Row rank by elimination over the whole matrix, every column."""
    q = field.q
    rows = [list(m.row(i)) for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_p = pow(rows[rank][col], -1, q)
        prow = [v * inv_p % q for v in rows[rank]]
        for r in range(rank + 1, m.rows):
            f = rows[r][col] % q
            rows[r] = [(a - f * b) % q for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def reference_full_rank_sample(field, rows, cols, rng):
    """The sampler drawn one residue at a time and ranked in full on every draw."""
    for _ in range(MAX_RANK_RESAMPLES):
        m = Matrix(rows, cols, tuple(rng.randbelow(field.q) for _ in range(rows * cols)))
        if reference_rank(field, m) == rows:
            return m
    raise RngSuspect("reference sampler gave up")


def leading_block(m):
    return Matrix(m.rows, m.rows, tuple(v for i in range(m.rows) for v in m.row(i)[: m.rows]))


class TestShareLength:
    def test_small_parameters_hit_the_floor(self):
        assert share_length(2, 4) == 16
        assert share_length(3, 7) == 16

    def test_threshold_bound_dominates(self):
        assert share_length(8, 12) == 24

    def test_exact_ceil_of_t_log_t(self):
        # ceil(t * log2 t) computed without floating point
        assert share_length(5, 4) == max(12, 16)  # 5*log2(5) = 11.6...
        assert share_length(32, 64) == 160

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            share_length(1, 4)
        with pytest.raises(ValueError):
            share_length(2, 1)


class TestShareSampling:
    def test_distinct_within_deal(self):
        shares = sample_distinct_shares(5, 16, Drbg(3))
        assert len(set(shares)) == 5
        assert all(len(s) == 16 for s in shares)
        assert all(b in (0, 1) for s in shares for b in s)

    def test_seeded_sampling_reproducible(self):
        assert Drbg(1).bit_vector(8) == (1, 1, 1, 0, 0, 1, 1, 0)
        assert Drbg(1).bit_vector(8) == Drbg(1).bit_vector(8)

    def test_exhaustion_by_pigeonhole(self):
        with pytest.raises(ShareSpaceExhausted):
            sample_distinct_shares(3, 1, Drbg(0))

    # the batch hash trusts these checks and scans no bits itself
    @pytest.mark.parametrize("bits", [(0, 2), (1, 0, 2), (1, -1, 0), (0, 0.5, 1)])
    def test_share_validation(self, bits):
        with pytest.raises(NotBinary):
            Share(owner=1, bits=bits)
        with pytest.raises(ValueError):
            Share(owner=0, bits=(0, 1))


class TestAjtaiHash:
    def test_zero_vector_hashes_to_zero(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert ajtai_hash(F97, a, (0, 0, 0)) == (0, 0)

    def test_unit_vector_selects_column(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert ajtai_hash(F97, a, (1, 0, 0)) == (1, 4)

    def test_subset_sum_of_columns(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert ajtai_hash(F97, a, (1, 0, 1)) == (4, 10)

    def test_dimension_mismatch(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimMismatch):
            ajtai_hash(F97, a, (1, 0))

    def test_non_binary_rejected(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(NotBinary):
            ajtai_hash(F97, a, (1, 0, 2))

    def test_linearity_on_disjoint_support(self):
        rng = Drbg(12)
        a = sample_matrix_full_rank(F97, 3, 8, rng)
        x = (1, 0, 1, 0, 0, 1, 0, 0)
        y = (0, 1, 0, 0, 1, 0, 0, 1)
        both = tuple(xi | yi for xi, yi in zip(x, y))
        assert ajtai_hash(F97, a, both) == F97.vec_add(
            ajtai_hash(F97, a, x), ajtai_hash(F97, a, y)
        )

    def test_deterministic(self):
        rng = Drbg(12)
        a = sample_matrix_full_rank(F97, 3, 8, rng)
        x = Drbg(4).bit_vector(8)
        assert ajtai_hash(F97, a, x) == ajtai_hash(F97, a, x)


class TestMatrixRank:
    """The rank the sampler decides by, against elimination of every column."""

    @pytest.mark.parametrize("q", [2, 5, 97])
    def test_matches_full_elimination(self, q):
        field = PrimeField(q)
        rng = Drbg(f"rank-{q}")
        singular_blocks = 0
        for rows, cols in [(1, 3), (2, 3), (2, 5), (3, 4), (3, 3), (4, 2), (4, 7)]:
            for _ in range(60):
                m = Matrix(rows, cols, field.rand_vec(rng, rows * cols))
                if rows < cols and reference_rank(field, leading_block(m)) < rows:
                    singular_blocks += 1
                assert matrix_rank(field, m) == reference_rank(field, m)
        assert singular_blocks > 0


class TestMatrixSampling:
    def test_single_row_is_nonzero(self):
        m = sample_matrix_full_rank(F97, 1, 4, Drbg(5))
        assert any(v != 0 for v in m.data)

    def test_square_sample_is_invertible(self):
        m = sample_matrix_full_rank(F97, 4, 4, Drbg(6))
        assert matrix_rank(F97, m) == 4

    def test_seeded_sampling_identical(self):
        m1 = sample_matrix_full_rank(F97, 3, 10, Drbg(7))
        m2 = sample_matrix_full_rank(F97, 3, 10, Drbg(7))
        assert m1 == m2

    def test_rows_exceeding_cols_rejected(self):
        with pytest.raises(DimMismatch):
            sample_matrix_full_rank(F97, 5, 4, Drbg(8))

    # Seeds whose first 2x3 draw at q = 97 has a singular leading 2x2 block:
    # 67's has full row rank anyway, 245's is rank-deficient and is redrawn.
    @pytest.mark.parametrize("seed, first_rank", [(67, 2), (245, 1)])
    def test_singular_leading_block_matches_full_ranking(self, seed, first_rank):
        draws = Drbg(seed)
        first = Matrix(2, 3, tuple(draws.randbelow(97) for _ in range(6)))
        assert reference_rank(F97, leading_block(first)) < 2
        assert reference_rank(F97, first) == first_rank
        rng, ref_rng = Drbg(seed), Drbg(seed)
        m = sample_matrix_full_rank(F97, 2, 3, rng)
        assert m == reference_full_rank_sample(F97, 2, 3, ref_rng)
        assert (m == first) == (first_rank == 2)
        assert rng.randbytes(32) == ref_rng.randbytes(32)

    def test_constant_randomness_raises_rng_suspect(self):
        class ZeroDrbg(Drbg):
            """Every byte it returns is zero, so every matrix is zero."""

            def __init__(self):
                super().__init__(0)
                self.drawn = 0

            def randbytes(self, n):
                self.drawn += n
                return bytes(n)

        rng = ZeroDrbg()
        with pytest.raises(RngSuspect):
            sample_matrix_full_rank(F97, 2, 6, rng)
        assert rng.drawn == MAX_RANK_RESAMPLES * 2 * 6  # one byte per residue below 97


# A prime above 2^64, so the packed slots of the batch hash are wider than
# a machine word.
BIG_PRIME = (1 << 64) + 13


class TestAjtaiHashMany:
    @pytest.mark.parametrize("q", [97, (1 << 61) - 1, BIG_PRIME])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 17), (8, 255), (32, 160)])
    def test_matches_single_hash(self, q, rows, cols):
        field = PrimeField(q)
        rng = Drbg(f"many-{q}-{rows}-{cols}")
        vectors = [(0,) * cols, (1,) * cols] + [rng.bit_vector(cols) for _ in range(6)]
        shares = [Share(owner=j, bits=x) for j, x in enumerate(vectors, start=1)]
        for a in (
            Matrix(rows, cols, field.rand_vec(rng, rows * cols)),
            Matrix(rows, cols, (q - 1,) * (rows * cols)),  # largest slot sums
        ):
            assert ajtai_hash_many(field, a, shares) == [
                ajtai_hash(field, a, x) for x in vectors
            ]

    def test_no_shares(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert ajtai_hash_many(F97, a, []) == []

    @pytest.mark.parametrize("bad", [(1, 0), (1, 0, 1, 1)])
    def test_wrong_length_raises_like_single_hash(self, bad):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimMismatch) as single:
            ajtai_hash(F97, a, bad)
        with pytest.raises(DimMismatch) as many:
            ajtai_hash_many(F97, a, [Share(1, (1, 1, 0)), Share(2, bad)])
        assert str(many.value) == str(single.value)


class TestVerifyCommitment:
    def _setup(self, seed=9):
        rng = Drbg(seed)
        f = sample_matrix_full_rank(F97, 4, 16, rng)
        bits = rng.bit_vector(16)
        return f, Share(owner=1, bits=bits), ajtai_hash(F97, f, bits)

    def test_honest_share_verifies(self):
        f, share, commitment = self._setup()
        assert verify_commitment(F97, f, share, commitment)

    def test_flipped_bit_fails(self):
        f, share, commitment = self._setup()
        for pos in range(len(share.bits)):
            bits = list(share.bits)
            bits[pos] ^= 1
            tampered = Share(owner=1, bits=tuple(bits))
            assert not verify_commitment(F97, f, tampered, commitment)

    def test_zero_share_zero_commitment(self):
        f, _, _ = self._setup()
        share = Share(owner=1, bits=(0,) * 16)
        assert verify_commitment(F97, f, share, (0,) * 4)

    def test_dimension_mismatch(self):
        f, share, _ = self._setup()
        with pytest.raises(DimMismatch, match="commitment has 2 entries, matrix 4 rows"):
            verify_commitment(F97, f, share, (0, 0))

    def test_no_collisions_at_desk_scale(self):
        # distinct binary vectors colliding under a fresh random matrix would
        # need a {-1,0,1} kernel vector; none expected in 1000 seeded trials
        rng = Drbg(1000)
        field = F97
        for _ in range(1000):
            f = Matrix(4, 16, field.rand_vec(rng, 64))
            a, b = sample_distinct_shares(2, 16, rng)
            assert ajtai_hash(field, f, a) != ajtai_hash(field, f, b)
