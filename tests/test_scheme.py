"""The four-phase protocol: dealing, recovery, verification, privacy probe."""

import dataclasses
import json
import re
import time

import pytest

from mss import ajtai, ilr, scheme
from mss.ajtai import Share, ajtai_hash, expand_matrix, verify_commitment
from mss.bulletin import encode_bulletin, read_bulletin
from mss.errors import (
    BadIndex,
    BadQuorum,
    BadShares,
    DimMismatch,
    NotConsecutive,
    RngSuspect,
)
from mss.field import DEFAULT_PRIME, PrimeField, solve_linear, vandermonde
from mss.ilr import fold_value, forward_extend
from mss.rng import Drbg
from mss.scheme import (
    MAX_PARTICIPANTS,
    SchemeParams,
    Variant,
    assemble_subshadows,
    compute_shadow,
    construct,
    deal,
    first_unbound,
    ilr_spec_for,
    participant_subshadows,
    privacy_rank_probe,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    secret_hash,
    setup,
    verify_secret,
)
from test_field import mat_vec

ALL_VARIANTS = list(Variant)


def make_deal(variant, n, k, thresholds, seed, q=97):
    params = SchemeParams(variant=variant, n=n, k=k, thresholds=thresholds, q=q)
    rng = Drbg(seed)
    field = params.field()
    secrets = [field.rand_vec(rng, t) for t in thresholds]
    shares, board = deal(params, secrets, rng)
    return params, secrets, shares, board


def dealer_sequence(board, i, shares):
    """Oracle: rebuild the dealer's sequence for secret i from scratch."""
    params = board.setup.params
    field = params.field()
    t_i = board.threshold(i)
    g_i = expand_matrix(field, t_i, params.r, board.setup.matrices[i])
    shadows = {s.owner: ajtai_hash(field, g_i, s.bits) for s in shares}
    # index 0 must be the secret; reconstruct it from any full quorum first
    sub = participant_subshadows(board, i, shares[:t_i])
    secret = recover_way2(
        board, i, {j: sub[j] for j in range(1, t_i + 1)}
    )
    spec = board.ilr_spec(i)
    initial = [secret] + [shadows[j] for j in range(1, t_i)]
    return forward_extend(spec, initial, params.n + params.variant.extras_count(t_i))


class TestSchemeParams:
    def test_derived_share_length(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97)
        assert p.r == 16
        assert p.max_threshold == 3

    def test_minimum_threshold_is_two(self):
        with pytest.raises(ValueError):
            SchemeParams(variant=Variant.S1, n=5, k=1, thresholds=(1,), q=97)

    def test_threshold_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            SchemeParams(variant=Variant.S1, n=3, k=1, thresholds=(4,), q=97)

    def test_threshold_count_must_match_k(self):
        with pytest.raises(ValueError):
            SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2,), q=97)

    def test_modulus_must_be_prime(self):
        with pytest.raises(ValueError):
            SchemeParams(variant=Variant.S1, n=5, k=1, thresholds=(2,), q=91)

    def test_modulus_must_cover_evaluation_points(self):
        with pytest.raises(ValueError):
            SchemeParams(variant=Variant.S1, n=10, k=1, thresholds=(5,), q=13)

    def test_variant_accepts_strings(self):
        p = SchemeParams(variant="s3", n=5, k=1, thresholds=(2,), q=97)
        assert p.variant is Variant.S3

    def test_participant_count_capped(self):
        p = SchemeParams(variant=Variant.S1, n=MAX_PARTICIPANTS, k=1, thresholds=(2,))
        assert p.n == MAX_PARTICIPANTS
        with pytest.raises(ValueError, match=f"at most {MAX_PARTICIPANTS} participants"):
            SchemeParams(variant=Variant.S1, n=MAX_PARTICIPANTS + 1, k=1, thresholds=(2,))

    def test_huge_n_rejected_before_share_length(self):
        # share_length(10**6, 10**6) alone takes seconds: t**t has 2e7 bits
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most"):
            SchemeParams(variant=Variant.S1, n=10**6, k=1, thresholds=(10**6,))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "n, k, r, message",
        [
            (1, 1, 0, "at least 2 participants"),
            (5, 0, 0, "at least 1 secret"),
            (5, 1, -1, "share length must be positive"),
        ],
    )
    def test_counts_and_share_length_validated(self, n, k, r, message):
        with pytest.raises(ValueError, match=message):
            SchemeParams(variant=Variant.S1, n=n, k=k, thresholds=(2,) * k, q=97, r=r)

    @pytest.mark.parametrize(
        "t, n, r",
        [
            (2, 4, 16),  # small parameters hit the floor
            (3, 7, 16),
            (8, 12, 24),  # the threshold bound dominates
            (5, 5, 16),  # ceil(5 * log2 5) = 12, computed without floating point
            (32, 64, 160),
        ],
    )
    def test_derived_share_length_rule(self, t, n, r):
        assert SchemeParams(variant=Variant.S1, n=n, k=1, thresholds=(t,)).r == r

    @pytest.mark.parametrize(
        "field, value",
        [("k", True), ("n", 5.0), ("thresholds", (2.5,)), ("q", 97.0), ("r", 16.0), ("r", True)],
    )
    def test_fields_must_be_ints(self, field, value):
        fields = {"variant": Variant.S1, "n": 5, "k": 1, "thresholds": (2,), "q": 97}
        with pytest.raises(ValueError, match=f"^{field}: .* is not an int$"):
            SchemeParams(**{**fields, field: value})


class TestIlrSpecFor:
    def test_s1_ties_depth_to_threshold(self):
        p = SchemeParams(variant=Variant.S1, n=6, k=1, thresholds=(2,), q=97)
        spec = ilr_spec_for(p, 1, ((4, 5),))
        assert (spec.t, spec.l, spec.alternating) == (2, 1, False)
        assert spec.c == (4, 5)
        assert spec.unknowns == 4

    def test_s3_truncates_shared_constant(self):
        p = SchemeParams(variant=Variant.S3, n=6, k=2, thresholds=(2, 3), q=97)
        spec = ilr_spec_for(p, 1, ((4, 5, 6),))
        assert (spec.t, spec.l, spec.alternating) == (1, 2, False)
        assert spec.c == (4, 5)
        assert spec.unknowns == 5
        assert ilr_spec_for(p, 2, ((4, 5, 6),)).c == (4, 5, 6)
        with pytest.raises(DimMismatch, match="shorter than the threshold"):
            ilr_spec_for(p, 2, ((4, 5),))

    def test_picks_the_secrets_constant_after_the_index_check(self):
        p = SchemeParams(variant=Variant.S1, n=6, k=2, thresholds=(2, 3), q=97)
        constants = ((4, 5), (6, 7, 8))
        assert ilr_spec_for(p, 2, constants).c == (6, 7, 8)
        for i in (0, 3):
            with pytest.raises(BadIndex):
                ilr_spec_for(p, i, constants)
        with pytest.raises(DimMismatch, match="must equal the threshold"):
            ilr_spec_for(p, 2, ((4, 5), (6, 7)))

    def test_alternating_variants(self):
        for variant in (Variant.S2, Variant.S4):
            p = SchemeParams(variant=variant, n=6, k=1, thresholds=(3,), q=97)
            assert ilr_spec_for(p, 1, ((1, 2, 3),)).alternating

    def test_extras_counts(self):
        assert Variant.S1.extras_count(4) == 2
        assert Variant.S2.extras_count(4) == 2
        assert Variant.S3.extras_count(4) == 5
        assert Variant.S4.extras_count(4) == 5


class TestSetup:
    def test_shapes_and_commitments(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97)
        field = p.field()
        shares, result = setup(p, Drbg(42))
        assert len(shares) == 5
        assert len({s.bits for s in shares}) == 5
        for i, t_i in enumerate(p.thresholds, start=1):
            g = expand_matrix(field, t_i, p.r, result.matrices[i])
            assert (g.rows, g.cols) == (t_i, p.r)
        f = expand_matrix(field, p.max_threshold, p.r, result.matrices[0])
        assert (f.rows, f.cols) == (3, p.r)
        for share, commitment in zip(shares, result.commitments):
            assert verify_commitment(field, f, share, commitment)

    def test_seeded_setup_deterministic(self):
        p = SchemeParams(variant=Variant.S2, n=5, k=2, thresholds=(2, 3), q=97)
        assert setup(p, Drbg(42)) == setup(p, Drbg(42))

    def test_dealer_never_rescans_share_bits(self, monkeypatch):
        # Share checks its bits once; setup and construct hash them in
        # batches that check only their length.  ajtai_hash keeps a binary
        # scan, and _check_binary is patched too in case the scan is ever
        # split out of it again.
        p = SchemeParams(variant=Variant.S3, n=6, k=2, thresholds=(2, 3), q=97)
        secrets = [(1, 2), (3, 4, 5)]
        expected = deal(p, secrets, Drbg("scan"))

        def scan(*args):
            raise AssertionError("share bits scanned again")

        monkeypatch.setattr(ajtai, "_check_binary", scan, raising=False)
        monkeypatch.setattr(ajtai, "ajtai_hash", scan)
        assert deal(p, secrets, Drbg("scan")) == expected


class TestPackedColumns:
    """Each matrix's columns are packed once per ``DealSetup``, straight from
    its seed: by the dealer as it draws the seed, by a reader as it uses it."""

    @pytest.fixture
    def packings(self, monkeypatch):
        """The packing function of every matrix packed, in order."""
        calls = []
        for name in ("_matrix_columns", "_seeded_columns"):
            real = getattr(scheme, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(scheme, name, spy)
        return calls

    P = SchemeParams(variant=Variant.S1, n=6, k=3, thresholds=(2, 3, 4))

    def test_the_dealer_packs_each_matrix_once(self, packings, monkeypatch):
        """At the default q the dealer packs each seed it draws from its
        stream, k + 1 calls of ``_seeded_columns``, and expands none."""
        drawn = []  # the row count of each seed the dealer packs
        real = ajtai._seeded_columns
        monkeypatch.setattr(
            ajtai, "_seeded_columns", lambda *args: drawn.append(args[1]) or real(*args)
        )
        for name in ("expand_matrix", "_matrix_columns"):
            monkeypatch.setattr(ajtai, name, lambda *args: pytest.fail("expanded"))
        shares, board = deal(self.P, [(1, 2), (3, 4, 5), (6, 7, 8, 9)], Drbg("packed"))
        assert drawn == [2, 3, 4, 4]  # G_1..G_3, then F
        assert sorted(board.setup.packed) == [0, 1, 2, 3]
        assert first_unbound(board.setup, shares) is None
        participant_subshadows(board, 2, shares[:3])
        compute_shadow(board, 3, shares[0])
        assert drawn == [2, 3, 4, 4] and packings == []

    def test_a_reader_packs_each_seed_it_uses_once_and_builds_no_matrix(
        self, packings, monkeypatch
    ):
        shares, board = deal(self.P, [(1, 2), (3, 4, 5), (6, 7, 8, 9)], Drbg("packed"))
        read, _ = read_bulletin(encode_bulletin(board)[0])
        del packings[:]
        monkeypatch.setattr(ajtai, "expand_matrix", lambda *args: pytest.fail("expanded"))
        for _ in range(2):
            assert first_unbound(read.setup, shares[3:]) is None
            assert participant_subshadows(read, 2, shares[1:4]) == participant_subshadows(
                board, 2, shares[1:4]
            )
            assert compute_shadow(read, 2, shares[5]) == compute_shadow(board, 2, shares[5])
        assert packings == ["_seeded_columns"] * 2  # F, then G_2
        assert sorted(read.setup.packed) == [0, 2]

    def test_a_share_of_another_length_is_refused_before_any_packing(self, monkeypatch):
        params = SchemeParams(variant=Variant.S1, n=8, k=2, thresholds=(3, 4))
        shares, board = deal(params, [(1, 2, 3), (4, 5, 6, 7)], Drbg("huge-r"))
        obj = json.loads(encode_bulletin(board)[0])
        obj["params"]["r"] = 10**9  # the reader packs nothing, so this stays cheap
        read, _ = read_bulletin(json.dumps(obj).encode())
        for module, name in ((scheme, "_seeded_columns"), (ajtai, "expand_matrix")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("packed"))
        share = shares[1]
        assert len(share.bits) == 16
        message = r"^share length 16 does not match the deal's r=1000000000$"
        for entry in (
            lambda: first_unbound(read.setup, [share]),
            lambda: compute_shadow(read, 2, share),
            lambda: participant_subshadows(read, 1, [share]),
            lambda: construct(read.setup, shares, [(1, 2, 3), (4, 5, 6, 7)], Drbg("c")),
        ):
            with pytest.raises(DimMismatch, match=message):
                entry()

    @pytest.mark.parametrize("huge_r", [False, True], ids=["own r", "r = 10**9"])
    @pytest.mark.parametrize("entry, group, error, message", [
        pytest.param(entry, group, error, message, id=f"{entry}-{name}")
        for name, group, error, message in (
            # (name, the group from shares s of owners 1..8, error, message)
            ("past n", lambda s: [Share(9, s[1].bits)], BadIndex, r"owner 9 outside \[1, 8\]"),
            ("past n and short", lambda s: [Share(9, s[1].bits[:-1])], BadIndex,
             r"owner 9 outside \[1, 8\]"),
            ("past n after a short share",
             lambda s: [Share(1, s[0].bits[:-1]), s[1], Share(9, s[2].bits)], BadIndex,
             r"owner 9 outside \[1, 8\]"),
            ("repeated", lambda s: [s[1], s[2], s[1]], BadShares,
             "two shares name the same owner: 2"),
            ("repeated after a short share", lambda s: [Share(1, s[0].bits[:-1]), s[2], s[2]],
             BadShares, "two shares name the same owner: 3"),
            ("past n after a repeat", lambda s: [s[1], s[1], Share(9, s[2].bits)], BadIndex,
             r"owner 9 outside \[1, 8\]"),
        )
        for entry in ("first_unbound", "compute_shadow", "participant_subshadows")
        if entry != "compute_shadow" or name in ("past n", "past n and short")  # one share
    ])
    def test_an_owner_past_n_or_repeated_is_refused_before_any_packing(
        self, entry, group, error, message, huge_r, packings, monkeypatch
    ):
        """``DealSetup.hash_shares`` checks every owner against n, then for a
        repeat, then every length, so each entry refuses before it packs."""
        params = SchemeParams(variant=Variant.S1, n=8, k=2, thresholds=(3, 4))
        shares, board = deal(params, [(1, 2, 3), (4, 5, 6, 7)], Drbg("one-check"))
        obj = json.loads(encode_bulletin(board)[0])
        if huge_r:
            obj["params"]["r"] = 10**9  # every share given is then of the wrong length
        read, _ = read_bulletin(json.dumps(obj).encode())
        monkeypatch.setattr(ajtai, "expand_matrix", lambda *args: pytest.fail("expanded"))
        del packings[:]
        call = {
            "first_unbound": lambda given: first_unbound(read.setup, given),
            "compute_shadow": lambda given: compute_shadow(read, 2, *given),
            "participant_subshadows": lambda given: participant_subshadows(read, 2, given),
        }[entry]
        with pytest.raises(error, match=f"^{message}$"):
            call(group(shares))
        assert packings == [] and read.setup.packed == {}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "index", [lambda k: -1, lambda k: k + 1, lambda k: True, lambda k: 1.0],
        ids=["-1", "k + 1", "True", "1.0"],
    )
    def test_a_matrix_index_outside_0_to_k_is_refused_before_the_length_check(
        self, k, index, packings
    ):
        params = SchemeParams(variant=Variant.S1, n=6, k=k, thresholds=(2, 3)[:k])
        shares, board = deal(params, [(1, 2), (3, 4, 5)][:k], Drbg("index"))
        read, _ = read_bulletin(encode_bulletin(board)[0])
        del packings[:]
        i = index(k)
        message = rf"^matrix index {re.escape(repr(i))} outside \[0, {k}\]$"
        for given in (shares, [Share(owner=1, bits=(1, 0))]):
            with pytest.raises(BadIndex, match=message):
                read.setup.hash_shares(i, given)
        assert packings == [] and read.setup.packed == {}


class TestFirstUnbound:
    """The one check that shares are the ones a setup commits to."""

    @staticmethod
    def tampered(share):
        return Share(owner=share.owner, bits=share.bits[:-1] + (share.bits[-1] ^ 1,))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_own_shares_in_any_order_are_bound(self, variant):
        p = SchemeParams(variant=variant, n=7, k=2, thresholds=(2, 4), q=97)
        shares, deal_setup = setup(p, Drbg(f"bound-{variant}"))
        shuffled = [shares[j] for j in (4, 0, 6, 2, 5, 1, 3)]
        assert first_unbound(deal_setup, shuffled) is None
        assert first_unbound(deal_setup, shuffled[:1]) is None
        assert first_unbound(deal_setup, []) is None

    @pytest.mark.parametrize("order", [(2, 5), (5, 2)])
    def test_first_tampered_share_in_the_order_given(self, order):
        p = SchemeParams(variant=Variant.S2, n=6, k=1, thresholds=(3,), q=97)
        shares, deal_setup = setup(p, Drbg("tampered"))
        bad = {j: self.tampered(shares[j - 1]) for j in (2, 5)}
        given = [shares[0], bad[order[0]], shares[3], bad[order[1]], shares[5]]
        assert first_unbound(deal_setup, given) is bad[order[0]]
        assert first_unbound(deal_setup, [bad[order[1]]]) is bad[order[1]]

    def test_owner_past_n_raises_bad_index(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=1, thresholds=(2,), q=97)
        shares, deal_setup = setup(p, Drbg("past"))
        past = Share(owner=6, bits=shares[0].bits)
        with pytest.raises(BadIndex, match=r"^owner 6 outside \[1, 5\]$"):
            first_unbound(deal_setup, [*shares, past])
        with pytest.raises(BadIndex):
            first_unbound(deal_setup, [past])


class TestConstruct:
    def test_offsets_extend_shadows_into_sequence(self):
        for variant in ALL_VARIANTS:
            params, secrets, shares, board = make_deal(
                variant, n=6, k=2, thresholds=(2, 3), seed=f"off-{variant}"
            )
            field = params.field()
            for i in (1, 2):
                t_i = board.threshold(i)
                seq = dealer_sequence(board, i, shares)
                assert seq[0] == tuple(secrets[i - 1])
                for j in range(1, params.n + 1):
                    d_j = compute_shadow(board, i, shares[j - 1])
                    if j <= t_i - 1:
                        assert seq[j] == d_j
                    else:
                        assert seq[j] == field.vec_add(
                            d_j, board.offset_for(i, j)
                        )
                # published extras are the sequence just past the participants
                for x, vec in board.extra_points(i):
                    assert seq[x] == vec

    def test_secret_shape_validation(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97)
        rng = Drbg(1)
        shares, result = setup(p, rng)
        with pytest.raises(ValueError):
            construct(result, shares, [(1, 2)], rng)  # wrong count
        with pytest.raises(ValueError):
            construct(result, shares, [(1, 2, 3), (1, 2, 3)], rng)  # wrong length
        with pytest.raises(ValueError):
            construct(result, shares, [(1, 97), (1, 2, 3)], rng)  # unreduced

    def test_deal_rejects_bad_secret_before_drawing(self):
        class NoDraws:
            """A generator whose every method raises."""

            def __getattr__(self, name):
                raise AssertionError(f"deal used the generator's {name}")

        p = SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97)
        not_ints = "secret {} has components that are not ints"
        cases = [
            ([(1, 2)], "expected 2 secrets, got 1"),
            ([(1, 2, 3), (1, 2, 3)], "secret 1 must have 2 components, got 3"),
            ([(1, 97), (1, 2, 3)], r"secret 1 has components outside \[0, q\)"),
            *(([(x, 1), (1, 2, 3)], not_ints.format(1)) for x in (0.5, 1.0, True, "1")),
            ([(1, 2), (1, 2, 3.0)], not_ints.format(2)),
        ]
        for secrets, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                deal(p, secrets, NoDraws())

    def test_share_count_checked(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=1, thresholds=(2,), q=97)
        rng = Drbg(2)
        shares, result = setup(p, rng)
        with pytest.raises(BadShares):
            construct(result, shares[:4], [(1, 2)], rng)

    def test_share_order_and_length_checked(self):
        p = SchemeParams(variant=Variant.S1, n=5, k=1, thresholds=(2,), q=97)
        rng = Drbg(3)
        s, result = setup(p, rng)
        swapped = (s[1], s[0], *s[2:])
        with pytest.raises(BadShares, match=r"^shares must be ordered by owner 1\.\.n$"):
            construct(result, swapped, [(1, 2)], rng)
        short = Share(owner=3, bits=s[2].bits[:-1])
        cut = (*s[:2], short, *s[3:])
        with pytest.raises(DimMismatch, match="^share length 15 does not match the deal's r=16$"):
            construct(result, cut, [(1, 2)], rng)

    def test_shares_of_another_setup_refused(self):
        # same params, second setup call: its shares are not the first one's
        p = SchemeParams(variant=Variant.S1, n=6, k=2, thresholds=(2, 3), q=97)
        rng = Drbg("other-setup")
        _, first = setup(p, rng)
        others, _ = setup(p, rng)
        with pytest.raises(BadShares, match="^shares are not the ones the setup commits to$"):
            construct(first, others, [(1, 2), (3, 4, 5)], rng)

    def test_constants_distinct_per_secret(self):
        params, _, _, board = make_deal(
            Variant.S1, n=6, k=3, thresholds=(2, 2, 2), seed="const"
        )
        assert len(set(board.constants)) == 3

    def test_constants_redrawn_on_collision(self):
        # a repeated draw is drawn again; the kept draws stay in draw order
        class Replay:
            draws = iter([(1, 2), (1, 2), (3, 4), (1, 2), (3, 4), (5, 6)])

            def randbelow_many(self, q, dim):
                return next(self.draws)

        params = SchemeParams(variant=Variant.S1, n=6, k=3, thresholds=(2, 2, 2), q=97)
        assert scheme._draw_constants(params, Replay()) == ((1, 2), (3, 4), (5, 6))

    def test_constants_that_keep_repeating_raise_rng_suspect(self):
        # the stub gives one vector forever; it stops after 5,000 draws, so
        # an unbounded redraw loop fails here instead of hanging
        class Stuck:
            drawn = 0

            def randbelow_many(self, q, dim):
                self.drawn += 1
                if self.drawn > 5000:
                    raise AssertionError("constant draws are not bounded")
                return (1, 2)

        params = SchemeParams(variant=Variant.S1, n=6, k=2, thresholds=(2, 2), q=97)
        rng = Stuck()
        with pytest.raises(RngSuspect, match="^1000 repeated constant vectors in a row$"):
            scheme._draw_constants(params, rng)
        assert rng.drawn == 1 + ajtai.MAX_SHARE_RESAMPLES

    def test_shared_constant_single_vector(self):
        params, _, _, board = make_deal(
            Variant.S4, n=6, k=3, thresholds=(2, 3, 2), seed="shared"
        )
        assert len(board.constants) == 1
        assert len(board.constants[0]) == 3  # max threshold

    def test_seeded_deal_deterministic(self):
        from mss.bulletin import encode_bulletin

        a = make_deal(Variant.S3, n=7, k=2, thresholds=(3, 4), seed=99)
        b = make_deal(Variant.S3, n=7, k=2, thresholds=(3, 4), seed=99)
        assert a[2] == b[2]  # shares
        assert encode_bulletin(a[3]) == encode_bulletin(b[3])


class TestShadows:
    def test_zero_share_gives_zero_shadow(self):
        params, _, shares, board = make_deal(
            Variant.S1, n=5, k=1, thresholds=(3,), seed="z"
        )
        zero = Share(owner=1, bits=(0,) * params.r)
        assert compute_shadow(board, 1, zero) == (0, 0, 0)

    def test_matrices_give_independent_shadows(self):
        params, _, shares, board = make_deal(
            Variant.S1, n=5, k=2, thresholds=(3, 3), seed="ind"
        )
        assert compute_shadow(board, 1, shares[0]) != compute_shadow(
            board, 2, shares[0]
        )

    def test_assemble_matches_dealer_sequence(self):
        params, _, shares, board = make_deal(
            Variant.S2, n=6, k=1, thresholds=(3,), seed="asm"
        )
        seq = dealer_sequence(board, 1, shares)
        sub = participant_subshadows(board, 1, shares)
        for j in range(1, params.n + 1):
            assert sub[j] == seq[j]

    def test_participant_subshadows_equal_shadow_plus_offset(self):
        params, _, shares, board = make_deal(
            Variant.S3, n=7, k=2, thresholds=(3, 4), seed="batch"
        )
        for i in (1, 2):
            group = [shares[5], shares[1], shares[6], shares[2]]
            shadows = {s.owner: compute_shadow(board, i, s) for s in group}
            assert participant_subshadows(board, i, group) == assemble_subshadows(
                board, i, shadows
            )

    @pytest.mark.parametrize("i", [0, 3])
    @pytest.mark.parametrize("count", [0, 2])
    def test_participant_subshadows_bad_secret_index(self, i, count):
        _, _, shares, board = make_deal(
            Variant.S1, n=5, k=2, thresholds=(2, 3), seed="bad-i"
        )
        with pytest.raises(BadIndex, match=f"secret index {i} outside"):
            participant_subshadows(board, i, shares[:count])

    @pytest.mark.parametrize("i", [0, 3])
    def test_extra_points_bad_secret_index(self, i):
        _, _, _, board = make_deal(Variant.S1, n=5, k=2, thresholds=(2, 3), seed="bad-i")
        with pytest.raises(BadIndex, match=f"secret index {i} outside"):
            board.extra_points(i)

    @pytest.mark.parametrize("j", [2, 6])
    def test_offset_for_outside_threshold_to_n(self, j):
        _, _, _, board = make_deal(Variant.S1, n=5, k=2, thresholds=(2, 3), seed="bad-i")
        with pytest.raises(BadIndex, match=f"no offset published for participant {j}"):
            board.offset_for(2, j)

    def test_participant_subshadows_refuse_two_shares_for_one_owner(self):
        _, _, shares, board = make_deal(
            Variant.S1, n=6, k=1, thresholds=(3,), seed=1, q=DEFAULT_PRIME
        )
        s2, s3, s4 = shares[1:4]
        forged = Share(owner=2, bits=tuple(1 - b for b in s2.bits))
        for group in ([s2, forged, s3, s4], [s2, s2, s3]):
            with pytest.raises(BadShares, match="^two shares name the same owner: 2$"):
                participant_subshadows(board, 1, group)

    def test_participant_subshadows_of_no_shares(self):
        _, _, _, board = make_deal(Variant.S1, n=5, k=2, thresholds=(2, 3), seed="empty")
        assert participant_subshadows(board, 2, []) == {}
        assert participant_subshadows(board, 2, iter(())) == {}

    def test_assemble_rejects_out_of_range_index(self):
        params, _, shares, board = make_deal(
            Variant.S1, n=5, k=1, thresholds=(2,), seed="rng"
        )
        with pytest.raises(BadIndex):
            assemble_subshadows(board, 1, {7: (0, 0)})


RECOVERY_METHODS = (recover_way1_vandermonde, recover_way1_lagrange, recover_way2)

V = (1, 2, 3)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize(
    "group, error",
    [
        pytest.param({0: V, 1: V, 2: V}, BadIndex, id="index-0"),
        pytest.param({5: V, 6: V, 7: V}, BadIndex, id="index-n+1"),
        pytest.param({1: V, 2: V[:2], 3: V}, DimMismatch, id="short-vector"),
        pytest.param({4: V, 5: V + (4,), 6: V}, DimMismatch, id="long-vector"),
        pytest.param({1: V[:2], 7: V, 2: V}, DimMismatch, id="lowest-index-first"),
        pytest.param({True: V, 2: V, 3: V}, BadIndex, id="bool-index"),
        pytest.param({1.5: V, 2: V, 3: V}, BadIndex, id="float-index"),
        pytest.param({"1": V, 2: V, 3: V}, BadIndex, id="str-index"),
        pytest.param({1: V, 2: (5.0, 7.0, 9.0), 3: V}, ValueError, id="float-entry"),
        pytest.param({1: V, 2: V, 3: (True, 2, 3)}, ValueError, id="bool-entry"),
        pytest.param({1: ("1", 2, 3), 2: V, 3: V}, ValueError, id="str-entry"),
    ],
)
def test_bad_group_raises_one_class_everywhere(variant, group, error):
    _, _, _, board = make_deal(variant, n=6, k=1, thresholds=(3,), seed="group")
    message = "entries that are not ints" if error is ValueError else None
    for check in (assemble_subshadows, *RECOVERY_METHODS, privacy_rank_probe):
        with pytest.raises(error, match=message):
            check(board, 1, group)


@pytest.mark.parametrize("i", [True, 1.0, 1.5, "1"])
def test_secret_index_must_be_an_int_everywhere(i):
    _, _, shares, board = make_deal(Variant.S1, n=6, k=2, thresholds=(3, 4), seed="index")
    sub = participant_subshadows(board, 1, shares[:3])
    entries = [
        lambda: board.threshold(i),
        lambda: board.offset_for(i, 4),
        lambda: board.extra_points(i),
        lambda: board.ilr_spec(i),
        lambda: ilr_spec_for(board.setup.params, i, board.constants),
        lambda: compute_shadow(board, i, shares[0]),
        lambda: participant_subshadows(board, i, shares[:3]),
        lambda: verify_secret(board, i, (1, 2, 3)),
        *(lambda check=check: check(board, i, sub)
          for check in (assemble_subshadows, *RECOVERY_METHODS, privacy_rank_probe)),
    ]
    for entry in entries:
        with pytest.raises(BadIndex, match=f"^secret index {re.escape(repr(i))} is not an int$"):
            entry()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("check", (assemble_subshadows, *RECOVERY_METHODS, privacy_rank_probe))
def test_group_checks_run_in_one_order_everywhere(variant, check):
    """The secret index first, then the caller's group size, then each
    participant index."""
    _, _, _, board = make_deal(variant, n=6, k=1, thresholds=(3,), seed="group")
    if check in RECOVERY_METHODS:
        with pytest.raises(BadQuorum, match=r"^need exactly 3 subshadows, got 2$"):
            check(board, 1, {0: V, 1: V})
    else:
        with pytest.raises(BadIndex, match=r"^participant index 0 outside \[1, 6\]$"):
            check(board, 1, {0: V, 1: V})
    for i in (0, 2):
        with pytest.raises(BadIndex, match=rf"^secret index {i} outside \[1, 1\]$"):
            check(board, i, {0: V[:1]})


@pytest.mark.parametrize("variant, unknowns", [("s1", 5), ("s2", 5), ("s3", 7), ("s4", 7)])
@pytest.mark.parametrize(
    "method", (recover_way1_vandermonde, recover_way1_lagrange, privacy_rank_probe)
)
def test_hand_built_extras_fail_the_general_term_checks(variant, unknowns, method):
    """A bulletin built in code, not decoded, with an extra term dropped or
    of the wrong dimension: both interpolating recoveries and the probe,
    which build one sample system, raise the ValueError of
    fit_general_term's checks instead of interpolating."""
    _, _, shares, board = make_deal(variant, n=6, k=1, thresholds=(3,), seed="extras")
    sub = participant_subshadows(board, 1, shares[:3])
    (extras,) = board.extras
    cases = {
        f"expected {unknowns} samples, got {unknowns - 1}": extras[:-1],
        "expected vectors of dimension 3, got 4": (extras[0] + (0,),) + extras[1:],
        "expected vectors of dimension 3, got 2": (extras[0][:-1],) + extras[1:],
    }
    for message, bad in cases.items():
        with pytest.raises(ValueError) as raised:
            method(dataclasses.replace(board, extras=(bad,)), 1, sub)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message


@pytest.mark.parametrize("variant, unknowns", [("s1", 5), ("s2", 5), ("s3", 7), ("s4", 7)])
def test_probe_below_the_threshold_counts_the_missing_extra(variant, unknowns):
    """A group one short of the threshold, on a bulletin missing one extra,
    is refused by the probe rather than ranked as if one more member were
    missing."""
    _, _, shares, board = make_deal(variant, n=6, k=1, thresholds=(3,), seed="extras")
    sub = participant_subshadows(board, 1, shares[:2])
    (extras,) = board.extras
    short = dataclasses.replace(board, extras=(extras[:-1],))
    with pytest.raises(ValueError, match=f"^expected {unknowns - 1} samples, got {unknowns - 2}$"):
        privacy_rank_probe(short, 1, sub)
    assert privacy_rank_probe(board, 1, sub).free_dims == 1


class TestRecovery:
    def test_all_methods_exact_on_all_variants(self):
        for variant in ALL_VARIANTS:
            params, secrets, shares, board = make_deal(
                variant, n=7, k=3, thresholds=(2, 3, 4), seed=f"rec-{variant}"
            )
            for i in (3, 1, 2):  # any stage order
                t_i = board.threshold(i)
                sub = participant_subshadows(board, i, shares[:t_i])
                for method in RECOVERY_METHODS:
                    assert method(board, i, sub) == tuple(secrets[i - 1])

    def test_vandermonde_solves_once_with_one_right_hand_side(self, monkeypatch):
        """The quorum's weights at zero come from one solve with the single
        right-hand side e_0, not one right-hand side per component."""
        params, secrets, shares, board = make_deal(
            Variant.S4, n=7, k=1, thresholds=(3,), seed="one-rhs"
        )
        widths = []

        def counted(field, m, columns):
            widths.append(len(columns))
            return solve_linear(field, m, columns)

        for module in (scheme, ilr):
            monkeypatch.setattr(module, "solve_linear", counted)
        sub = participant_subshadows(board, 1, shares[2:5])
        assert recover_way1_vandermonde(board, 1, sub) == tuple(secrets[0])
        assert widths == [1]

    def test_lagrange_inverts_once_per_quorum(self, monkeypatch):
        """All the quorum's denominators, 5 owners' and 6 extras', are
        inverted through one inversion of their product."""
        params, secrets, shares, board = make_deal(
            Variant.S3, n=12, k=1, thresholds=(5,), seed="one-inversion"
        )
        sub = participant_subshadows(board, 1, shares[3:8])
        calls = []
        inv = PrimeField.inv

        def counted(field, a):
            calls.append(a)
            return inv(field, a)

        monkeypatch.setattr(PrimeField, "inv", counted)
        assert recover_way1_lagrange(board, 1, sub) == tuple(secrets[0])
        assert len(calls) == 1

    def test_result_same_for_different_quorums(self):
        params, secrets, shares, board = make_deal(
            Variant.S3, n=8, k=1, thresholds=(3,), seed="sub"
        )
        sub_a = participant_subshadows(board, 1, [shares[0], shares[2], shares[6]])
        sub_b = participant_subshadows(board, 1, [shares[1], shares[4], shares[7]])
        assert recover_way1_vandermonde(board, 1, sub_a) == recover_way1_vandermonde(
            board, 1, sub_b
        )

    def test_alternating_variants_on_odd_index_quorums(self):
        for variant in (Variant.S2, Variant.S4):
            params, secrets, shares, board = make_deal(
                variant, n=9, k=1, thresholds=(3,), seed=f"odd-{variant}"
            )
            odd = [shares[0], shares[4], shares[8]]  # owners 1, 5, 9
            sub = participant_subshadows(board, 1, odd)
            got_v = recover_way1_vandermonde(board, 1, sub)
            got_l = recover_way1_lagrange(board, 1, sub)
            # backward recovery follows the recursion literally and pins
            # down what the interpolating answers must be
            window = participant_subshadows(board, 1, shares[:3])
            got_b = recover_way2(board, 1, window)
            assert got_v == got_l == got_b == tuple(secrets[0])

    def test_backward_window_extremes(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=8, k=1, thresholds=(3,), seed="win"
        )
        first = participant_subshadows(board, 1, shares[:3])
        last = participant_subshadows(board, 1, shares[-3:])
        assert recover_way2(board, 1, first) == tuple(secrets[0])
        assert recover_way2(board, 1, last) == tuple(secrets[0])

    def test_quorum_size_enforced(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=6, k=1, thresholds=(3,), seed="q"
        )
        small = participant_subshadows(board, 1, shares[:2])
        for method in RECOVERY_METHODS:
            with pytest.raises(BadQuorum):
                method(board, 1, small)

    def test_backward_requires_consecutive(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=6, k=1, thresholds=(3,), seed="c"
        )
        gap = participant_subshadows(board, 1, [shares[0], shares[1], shares[3]])
        with pytest.raises(NotConsecutive):
            recover_way2(board, 1, gap)

    def test_secret_index_validated(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=6, k=1, thresholds=(3,), seed="i"
        )
        sub = participant_subshadows(board, 1, shares[:3])
        with pytest.raises(BadIndex):
            recover_way1_vandermonde(board, 2, sub)

    def test_stage_independence(self):
        # recovery of secret 1 must not read secret 2's published data
        params, secrets, shares, board = make_deal(
            Variant.S1, n=6, k=2, thresholds=(3, 3), seed="stage"
        )
        garbage = tuple(tuple((v + 1) % 97 for v in vec) for vec in board.offsets[1])
        tampered = dataclasses.replace(
            board,
            offsets=(board.offsets[0], garbage),
            extras=(board.extras[0], tuple((0,) * 3 for _ in board.extras[1])),
        )
        sub = participant_subshadows(tampered, 1, shares[:3])
        for method in RECOVERY_METHODS:
            assert method(tampered, 1, sub) == tuple(secrets[0])


class TestVerifySecret:
    def test_recovered_secret_verifies(self):
        params, secrets, shares, board = make_deal(
            Variant.S2, n=6, k=2, thresholds=(2, 3), seed="v"
        )
        for i in (1, 2):
            sub = participant_subshadows(board, i, shares[: board.threshold(i)])
            assert verify_secret(board, i, recover_way2(board, i, sub))

    def test_single_component_change_fails(self):
        params, secrets, shares, board = make_deal(
            Variant.S2, n=6, k=1, thresholds=(3,), seed="v2"
        )
        candidate = list(secrets[0])
        candidate[1] = (candidate[1] + 1) % 97
        assert not verify_secret(board, 1, candidate)

    def test_wrong_length_fails(self):
        params, secrets, shares, board = make_deal(
            Variant.S2, n=6, k=1, thresholds=(3,), seed="v3"
        )
        assert not verify_secret(board, 1, secrets[0][:2])

    def test_unreduced_candidate_fails(self):
        # congruent to the dealt secret, but not equal to it
        params, secrets, shares, board = make_deal(
            Variant.S2, n=6, k=1, thresholds=(3,), seed="v4"
        )
        assert verify_secret(board, 1, secrets[0])
        for pos in range(3):
            for delta in (97, -97):
                candidate = list(secrets[0])
                candidate[pos] += delta
                assert not verify_secret(board, 1, candidate)

    def test_non_int_candidate_fails(self):
        params, secrets, shares, board = make_deal(
            Variant.S2, n=6, k=1, thresholds=(2,), seed="v5"
        )
        assert verify_secret(board, 1, secrets[0])
        a, b = secrets[0]
        for candidate in ((5.0, 7.0), (float(a), b), (a, str(b)), (a, b + 0.0)):
            assert not verify_secret(board, 1, candidate)

    def test_hash_includes_modulus(self):
        assert secret_hash(97, (1, 2)) != secret_hash(101, (1, 2))


class TestPrivacyRankProbe:
    def test_subthreshold_leaves_secret_free(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=7, k=1, thresholds=(3,), seed="probe"
        )
        sub = participant_subshadows(board, 1, shares[:2])  # t_i - 1 = 2
        probe = privacy_rank_probe(board, 1, sub)
        assert probe.rank == 4  # t_i + 1 independent equations
        assert probe.free_dims == 1
        for s, (a, b) in enumerate(probe.a0_witnesses):
            assert a != b
        # the honest general-term coefficients satisfy the probed system
        spec = board.ilr_spec(1)
        seq = dealer_sequence(board, 1, shares)
        points = [1, 2] + [x for x, _ in board.extra_points(1)]
        matrix = vandermonde(params.field(), points, spec.unknowns)
        full_samples = [(j, seq[j]) for j in range(spec.unknowns)]
        from mss.ilr import fit_general_term

        fits = fit_general_term(spec, full_samples)
        for s in range(spec.dim):
            coeffs = fits[s]
            assert coeffs[0] == secrets[0][s]
            expected = tuple(
                fold_value(spec, x, seq[x][s]) for x in points
            )
            assert mat_vec(params.field(), matrix, coeffs) == expected

    def test_full_quorum_pins_unique_solution(self):
        params, secrets, shares, board = make_deal(
            Variant.S2, n=7, k=1, thresholds=(3,), seed="probe2"
        )
        sub = participant_subshadows(board, 1, shares[:3])
        probe = privacy_rank_probe(board, 1, sub)
        assert probe.free_dims == 0
        for s, (a, b) in enumerate(probe.a0_witnesses):
            assert a == b == secrets[0][s]

    def test_wrong_length_subshadow_rejected(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=7, k=1, thresholds=(3,), seed="probe4"
        )
        sub = participant_subshadows(board, 1, shares[:2])
        for bad in (sub[2][:-1], sub[2] + (0,)):
            with pytest.raises(DimMismatch):
                privacy_rank_probe(board, 1, {1: sub[1], 2: bad})

    def test_oversized_probe_rejected(self):
        params, secrets, shares, board = make_deal(
            Variant.S1, n=7, k=1, thresholds=(3,), seed="probe3"
        )
        sub = participant_subshadows(board, 1, shares[:4])
        with pytest.raises(BadQuorum):
            privacy_rank_probe(board, 1, sub)
