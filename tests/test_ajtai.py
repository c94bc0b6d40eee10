"""Binary-share sampling, subset-sum hashing, and commitments."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mss import ajtai
from mss.ajtai import (
    MAX_RANK_RESAMPLES,
    SEED_BYTES,
    Share,
    _matrix_columns,
    _seeded_columns,
    _slot_bits,
    ajtai_hash,
    ajtai_hash_many,
    expand_matrix,
    sample_distinct_shares,
    sample_matrix_full_rank,
    verify_commitment,
)
from mss.errors import DimMismatch, NotBinary, RngSuspect, ShareSpaceExhausted
from mss.field import Matrix, PrimeField, _pack, matrix_rank
from mss.rng import Drbg, Xof
from test_packed import reference_eliminate
from test_properties import DIFFERENTIAL

F97 = PrimeField(97)


def reference_rank(field, m):
    """Row rank by per-entry elimination over the whole matrix, every column."""
    return len(reference_eliminate(field, [list(m.row(i)) for i in range(m.rows)], m.cols))


def reference_expansion(field, rows, cols, seed):
    """A seed's matrix drawn from its SHAKE-256 stream one residue at a time."""
    stream = Xof(seed)
    return Matrix(rows, cols, tuple(stream.randbelow(field.q) for _ in range(rows * cols)))


def reference_full_rank_sample(field, rows, cols, rng):
    """The sampler with each matrix expanded one residue at a time and
    ranked in full on every draw."""
    for _ in range(MAX_RANK_RESAMPLES):
        seed = rng.randbytes(SEED_BYTES)
        m = reference_expansion(field, rows, cols, seed)
        if reference_rank(field, m) == rows:
            return seed, m
    raise RngSuspect("reference sampler gave up")


def leading_block(m):
    return Matrix(m.rows, m.rows, tuple(v for i in range(m.rows) for v in m.row(i)[: m.rows]))


class TestShareSampling:
    def test_distinct_within_deal(self):
        shares = sample_distinct_shares(5, 16, Drbg(3))
        assert len(set(shares)) == 5
        assert all(len(s) == 16 for s in shares)
        assert all(b in (0, 1) for s in shares for b in s)

    def test_seeded_sampling_reproducible(self):
        assert Drbg(1).bit_vector(8) == (1, 1, 1, 0, 0, 1, 1, 0)
        assert Drbg(1).bit_vector(8) == Drbg(1).bit_vector(8)

    def test_collision_redrawn_in_draw_order(self):
        class Replay:
            draws = iter([(0, 1), (0, 1), (1, 1), (0, 1), (1, 0)])

            def bit_vector(self, r):
                return next(self.draws)

        assert sample_distinct_shares(3, 2, Replay()) == [(0, 1), (1, 1), (1, 0)]

    def test_exhaustion_by_pigeonhole(self):
        with pytest.raises(ShareSpaceExhausted, match="^cannot draw 3 distinct shares of 1 bits$"):
            sample_distinct_shares(3, 1, Drbg(0))

    # the batch hash trusts these checks and scans no bits itself
    @pytest.mark.parametrize(
        "bits", [(0, 2), (1, 0, 2), (1, -1, 0), (0, 0.5, 1), (1.0, 0, True) + (0,) * 13]
    )
    def test_share_validation(self, bits):
        with pytest.raises(NotBinary):
            Share(owner=1, bits=bits)
        # True and 1.0 equal 1, but a share file could not hold them
        for owner in (0, True, 1.0):
            with pytest.raises(ValueError):
                Share(owner=owner, bits=(1, 0, 1, 1))
        with pytest.raises(ValueError, match="nonempty"):
            Share(owner=1, bits=())


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
        _, a = sample_matrix_full_rank(F97, 3, 8, rng)
        x = (1, 0, 1, 0, 0, 1, 0, 0)
        y = (0, 1, 0, 0, 1, 0, 0, 1)
        both = tuple(xi | yi for xi, yi in zip(x, y))
        assert ajtai_hash(F97, a, both) == F97.vec_add(
            ajtai_hash(F97, a, x), ajtai_hash(F97, a, y)
        )

    def test_deterministic(self):
        rng = Drbg(12)
        _, a = sample_matrix_full_rank(F97, 3, 8, rng)
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
        _, m = sample_matrix_full_rank(F97, 1, 4, Drbg(5))
        assert any(v != 0 for v in m.data)

    def test_square_sample_is_invertible(self):
        _, m = sample_matrix_full_rank(F97, 4, 4, Drbg(6))
        assert matrix_rank(F97, m) == 4

    def test_seeded_sampling_identical(self):
        m1 = sample_matrix_full_rank(F97, 3, 10, Drbg(7))
        m2 = sample_matrix_full_rank(F97, 3, 10, Drbg(7))
        assert m1 == m2

    def test_rows_exceeding_cols_rejected(self):
        with pytest.raises(DimMismatch):
            sample_matrix_full_rank(F97, 5, 4, Drbg(8))

    # Generator seeds whose first 2x3 matrix at q = 97 has a singular leading
    # 2x2 block: 41's has full row rank anyway, 3272's is rank-deficient and
    # is redrawn.
    @pytest.mark.parametrize("seed, first_rank", [(41, 2), (3272, 1)])
    def test_singular_leading_block_matches_full_ranking(self, seed, first_rank):
        first = reference_expansion(F97, 2, 3, Drbg(seed).randbytes(SEED_BYTES))
        assert reference_rank(F97, leading_block(first)) < 2
        assert reference_rank(F97, first) == first_rank
        rng, ref_rng = Drbg(seed), Drbg(seed)
        seed_bytes, m = sample_matrix_full_rank(F97, 2, 3, rng)
        assert (seed_bytes, m) == reference_full_rank_sample(F97, 2, 3, ref_rng)
        assert (m == first) == (first_rank == 2)
        assert rng.randbytes(32) == ref_rng.randbytes(32)

    def test_rank_deficient_draws_raise_rng_suspect(self, monkeypatch):
        class CountingDrbg(Drbg):
            def __init__(self):
                super().__init__(0)
                self.drawn = 0

            def randbytes(self, n):
                self.drawn += n
                return super().randbytes(n)

        # every seed expands to the zero matrix, so every draw is rank-deficient
        monkeypatch.setattr(ajtai, "expand_matrix", lambda field, rows, cols, seed: Matrix(
            rows, cols, (0,) * (rows * cols)))
        rng = CountingDrbg()
        with pytest.raises(RngSuspect):
            sample_matrix_full_rank(F97, 2, 6, rng)
        assert rng.drawn == MAX_RANK_RESAMPLES * SEED_BYTES  # one seed per draw

    def test_sample_is_its_seed_expanded(self):
        rng, ref_rng = Drbg(9), Drbg(9)
        seed, m = sample_matrix_full_rank(F97, 3, 10, rng)
        assert seed == ref_rng.randbytes(SEED_BYTES)  # a full-rank first draw
        assert m == expand_matrix(F97, 3, 10, seed) == reference_expansion(F97, 3, 10, seed)
        assert rng.randbytes(32) == ref_rng.randbytes(32)


def undecided_field(q):
    """A field of modulus q that PrimeField refuses as undecidable: expansion
    reads only q, and does not depend on primality."""
    field = object.__new__(PrimeField)
    object.__setattr__(field, "q", q)
    return field


class TestExpandMatrix:
    MODULI = [97, (1 << 61) - 1, (1 << 127) - 1]

    @pytest.mark.parametrize("q", MODULI)
    def test_deterministic_and_reduced(self, q):
        field = undecided_field(q) if q > (1 << 64) else PrimeField(q)
        seed = bytes(range(SEED_BYTES))
        m = expand_matrix(field, 24, 111, seed)
        assert m == expand_matrix(field, 24, 111, seed)
        assert (m.rows, m.cols) == (24, 111)
        assert all(0 <= v < q for v in m.data)
        assert len(set(m.data)) > min(q, 24 * 111) // 2  # not stuck on a few values

    @pytest.mark.parametrize("q", MODULI)
    def test_distinct_seeds_distinct_matrices(self, q):
        field = undecided_field(q) if q > (1 << 64) else PrimeField(q)
        seeds = [Drbg(j).randbytes(SEED_BYTES) for j in range(20)]
        assert len({expand_matrix(field, 4, 16, seed) for seed in seeds}) == 20

    @pytest.mark.parametrize("q", MODULI)
    def test_matches_draws_one_residue_at_a_time(self, q):
        field = undecided_field(q) if q > (1 << 64) else PrimeField(q)
        seed = Drbg(f"one-at-a-time-{q}").randbytes(SEED_BYTES)
        assert expand_matrix(field, 5, 40, seed) == reference_expansion(field, 5, 40, seed)


# A prime above 2^64, so the packed slots of the batch hash are wider than
# a machine word.
BIG_PRIME = (1 << 64) + 13


def packed_hashes(field, a, shares):
    """``ajtai_hash_many`` under A's columns, packed from the matrix."""
    return ajtai_hash_many(field, a.rows, _matrix_columns(field, a), shares)


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
            assert packed_hashes(field, a, shares) == [
                ajtai_hash(field, a, x) for x in vectors
            ]

    def test_no_shares(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert packed_hashes(F97, a, []) == []

    @pytest.mark.parametrize("bad", [(1, 0), (1, 0, 1, 1)])
    def test_wrong_length_raises_like_single_hash(self, bad):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimMismatch) as single:
            ajtai_hash(F97, a, bad)
        with pytest.raises(DimMismatch) as many:
            packed_hashes(F97, a, [Share(1, (1, 1, 0)), Share(2, bad)])
        assert str(many.value) == str(single.value)

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("q", [97, (1 << 61) - 1, BIG_PRIME])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 17), (32, 160)])
    def test_fewer_than_two_shares_match_single_hash(self, count, q, rows, cols):
        field = PrimeField(q)
        rng = Drbg(f"few-{count}-{q}-{rows}-{cols}")
        a = Matrix(rows, cols, field.rand_vec(rng, rows * cols))
        shares = [Share(owner=j, bits=rng.bit_vector(cols)) for j in range(1, count + 1)]
        assert packed_hashes(field, a, shares) == [
            ajtai_hash(field, a, share.bits) for share in shares
        ]

    @pytest.mark.parametrize("bad", [(1, 0), (1, 0, 1, 1)])
    def test_one_share_of_wrong_length_raises_like_single_hash(self, bad):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimMismatch) as single:
            ajtai_hash(F97, a, bad)
        with pytest.raises(DimMismatch) as many:
            packed_hashes(F97, a, [Share(1, bad)])
        assert str(many.value) == str(single.value)

    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_hashing_packs_nothing(self, monkeypatch, count):
        # the columns are packed once by their owner, never per hash
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        columns = _matrix_columns(F97, a)
        shares = [Share(j, (1, j % 2, 1)) for j in range(1, count + 1)]
        monkeypatch.setattr(ajtai, "_pack", lambda *args: pytest.fail("packed while hashing"))
        assert ajtai_hash_many(F97, 2, columns, shares) == [
            ajtai_hash(F97, a, s.bits) for s in shares
        ]


#: Primes whose candidates are 1, 3, 8 and 10 bytes wide.  2^16 + 1, just
#: above a power of two, rejects about half its candidates, so its matrices
#: almost always take the fallback; 251 and 2^64 - 59 use every bit of
#: their candidate bytes.
KERNEL_PRIMES = (
    97, 251, (1 << 16) + 1, (1 << 24) - 3, (1 << 61) - 1, (1 << 64) - 59, (1 << 78) - 11
)


class TestSeededColumns:
    """The packed columns a seed expands to, against the per-entry oracles."""

    @DIFFERENTIAL
    @given(
        q=st.sampled_from(KERNEL_PRIMES),
        rows=st.integers(1, 6),
        cols=st.integers(1, 48),
        seed=st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES),
        data=st.data(),
    )
    @example(q=(1 << 16) + 1, rows=1, cols=1, seed=bytes(SEED_BYTES), data=None)
    @example(q=(1 << 61) - 1, rows=3, cols=1, seed=bytes(SEED_BYTES), data=None)
    # rejected candidates whose first byte is q's, so only the carry test
    # sees them: one in slot 0 whose carry an 8-bit slot would lose, and
    # one with a 7-bit shift
    @example(q=251, rows=2, cols=1, seed=(750).to_bytes(SEED_BYTES, "big"), data=None)
    @example(q=(1 << 16) + 1, rows=1, cols=1, seed=(112).to_bytes(SEED_BYTES, "big"), data=None)
    def test_match_the_matrix_and_its_hashes(self, q, rows, cols, seed, data):
        field = PrimeField(q)
        m = reference_expansion(field, rows, cols, seed)
        columns = _seeded_columns(field, rows, cols, seed)
        w = _slot_bits(q, cols)
        assert columns == [_pack(m.column(j), q, w) for j in range(cols)]
        vectors = [(0,) * cols, (1,) * cols]
        if data is not None:
            bits = st.lists(st.integers(0, 1), min_size=cols, max_size=cols).map(tuple)
            vectors += data.draw(st.lists(bits, max_size=4))
        shares = [Share(owner=j, bits=x) for j, x in enumerate(vectors, start=1)]
        for count in (0, 1, len(shares)):
            assert ajtai_hash_many(field, rows, columns, shares[:count]) == [
                ajtai_hash(field, m, share.bits) for share in shares[:count]
            ]

    @pytest.mark.parametrize("q", [(1 << 24) - 3, (1 << 61) - 1, (1 << 78) - 11])
    def test_kept_candidates_build_no_matrix(self, monkeypatch, q):
        field = PrimeField(q)
        seed = Drbg(f"kept-{q}").randbytes(SEED_BYTES)
        expected = _matrix_columns(field, expand_matrix(field, 24, 111, seed))
        monkeypatch.setattr(ajtai, "expand_matrix", lambda *args: pytest.fail("expanded"))
        monkeypatch.setattr(ajtai, "Matrix", lambda *args: pytest.fail("built a Matrix"))
        assert _seeded_columns(field, 24, 111, seed) == expected

    @pytest.mark.parametrize(
        "rows, cols, seed, laid",
        [
            (4, 9, Drbg("rejected").randbytes(SEED_BYTES), False),  # a first byte above q's
            (1, 1, (112).to_bytes(SEED_BYTES, "big"), True),  # q's first byte: the carry test
        ],
        ids=["first-byte", "carry"],
    )
    def test_a_rejected_candidate_falls_back_to_the_expansion(
        self, monkeypatch, rows, cols, seed, laid
    ):
        field = PrimeField((1 << 16) + 1)
        expanded, layouts = [], []
        real = ajtai.expand_matrix
        monkeypatch.setattr(
            ajtai, "expand_matrix", lambda *args: expanded.append(args[1:3]) or real(*args)
        )
        monkeypatch.setattr(
            ajtai, "bytearray", lambda size: layouts.append(size) or bytearray(size),
            raising=False,
        )
        m = reference_expansion(field, rows, cols, seed)
        assert _seeded_columns(field, rows, cols, seed) == _matrix_columns(field, m)
        assert expanded == [(rows, cols)]
        assert bool(layouts) == laid

    def test_wrong_length_raises_like_single_hash(self):
        field = PrimeField((1 << 61) - 1)
        seed = bytes(range(SEED_BYTES))
        columns = _seeded_columns(field, 2, 3, seed)
        with pytest.raises(DimMismatch) as single:
            ajtai_hash(field, expand_matrix(field, 2, 3, seed), (1, 0))
        with pytest.raises(DimMismatch) as many:
            ajtai_hash_many(field, 2, columns, [Share(1, (1, 1, 0)), Share(2, (1, 0))])
        assert str(many.value) == str(single.value) == "matrix has 3 columns, vector has 2"


class TestVerifyCommitment:
    def _setup(self, seed=9):
        rng = Drbg(seed)
        _, f = sample_matrix_full_rank(F97, 4, 16, rng)
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
