"""The four-phase protocol: dealing, recovery, verification, privacy probe."""

import dataclasses
import time

import pytest

from mss import ajtai, ilr, scheme
from mss.ajtai import Share, ajtai_hash, verify_commitment
from mss.errors import (
    BadIndex,
    BadQuorum,
    BadShares,
    DimMismatch,
    NotConsecutive,
    RngSuspect,
)
from mss.field import DEFAULT_PRIME, solve_linear, vandermonde
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
    shadows = {
        s.owner: ajtai_hash(field, board.setup.matrix(i), s.bits) for s in shares
    }
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
            g = result.matrix(i)
            assert (g.rows, g.cols) == (t_i, p.r)
        assert (result.matrix(0).rows, result.matrix(0).cols) == (3, p.r)
        for share, commitment in zip(shares, result.commitments):
            assert verify_commitment(
                field, result.matrix(0), share, commitment
            )

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
        monkeypatch.setattr(scheme, "ajtai_hash", scan)
        assert deal(p, secrets, Drbg("scan")) == expected


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
        with pytest.raises(BadIndex, match=r"^a share's owner is outside \[1, 5\]$"):
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
        p = SchemeParams(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97)
        non_ints = ([(0.5, 1), (1, 2, 3)], [(1.0, 1), (1, 2, 3)], [(True, 1), (1, 2, 3)],
                    [("1", 1), (1, 2, 3)], [(1, 2), (1, 2, 3.0)])
        for secrets in ([(1, 2)], [(1, 2, 3), (1, 2, 3)], [(1, 97), (1, 2, 3)], *non_ints):
            rng = Drbg("shape")
            with pytest.raises(ValueError):
                deal(p, secrets, rng)
            assert rng.randbytes(32) == Drbg("shape").randbytes(32)

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
        with pytest.raises(BadShares, match="^share 3 has wrong bit-length$"):
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
            with pytest.raises(BadShares, match="two shares name the same owner"):
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
    ],
)
def test_bad_group_raises_one_class_everywhere(variant, group, error):
    _, _, _, board = make_deal(variant, n=6, k=1, thresholds=(3,), seed="group")
    for check in (assemble_subshadows, *RECOVERY_METHODS, privacy_rank_probe):
        with pytest.raises(error):
            check(board, 1, group)


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
