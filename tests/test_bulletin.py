"""Serialization: canonical encoding, round trips, and strict decoding."""

import json
import random
import sys
import time

import pytest

from mss.bulletin import (
    bind_share,
    deal_id,
    decode_bulletin,
    decode_recovered,
    decode_secrets,
    decode_share,
    encode_bulletin,
    encode_recovered,
    encode_secrets,
    encode_share,
    read_bulletin,
    write_atomic,
)
from mss.errors import (
    ParseError,
    UnsupportedVersion,
    ValidationError,
    WrongDeal,
)
from mss.field import DEFAULT_PRIME
from mss.rng import Drbg
from mss.scheme import SchemeParams, Variant, deal


#: The interpreter's digit limit for int(str); 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter converts decimal strings of any length"
)


def make_board(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97, seed="ser"):
    params = SchemeParams(variant=variant, n=n, k=k, thresholds=thresholds, q=q)
    rng = Drbg(seed)
    field = params.field()
    secrets = [field.rand_vec(rng, t) for t in thresholds]
    shares, board = deal(params, secrets, rng)
    return shares, board


def mutate(board, path, value):
    """Re-encode the bulletin with one JSON field replaced."""
    obj = json.loads(encode_bulletin(board)[0])
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(obj).encode()


class TestBulletinRoundTrip:
    def test_all_variants_and_moduli(self):
        for variant in Variant:
            for q in (97, DEFAULT_PRIME):
                shares, board = make_board(
                    variant=variant, q=q, seed=f"rt-{variant}-{q}"
                )
                blob = encode_bulletin(board)[0]
                assert decode_bulletin(blob) == board

    def test_encoding_is_canonical(self):
        shares, board = make_board()
        blob = encode_bulletin(board)[0]
        assert blob == encode_bulletin(decode_bulletin(blob))[0]
        # sorted keys, no whitespace variance
        reordered = json.dumps(
            json.loads(blob), sort_keys=True, separators=(",", ":")
        ).encode() + b"\n"
        assert reordered == blob

    def test_identical_structures_identical_bytes(self):
        a = make_board(seed="same")[1]
        b = make_board(seed="same")[1]
        assert encode_bulletin(a) == encode_bulletin(b)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_encode_gives_deal_id_and_read_gives_it_back(self, variant):
        _, board = make_board(variant=variant, q=DEFAULT_PRIME, seed=f"pair-{variant}")
        blob, digest = encode_bulletin(board)
        assert digest == deal_id(board)
        assert read_bulletin(blob) == (board, deal_id(board))

    def test_threshold_equal_to_n_edge(self):
        # a single offset vector per secret, longest extras for s4
        _, board = make_board(
            variant=Variant.S4, n=4, k=2, thresholds=(4, 4), seed="edge"
        )
        assert all(len(per_secret) == 1 for per_secret in board.offsets)
        assert decode_bulletin(encode_bulletin(board)[0]) == board


def reordered(value, rnd):
    """The JSON value with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rnd.shuffle(items)
        return {key: reordered(v, rnd) for key, v in items}
    if isinstance(value, list):
        return [reordered(v, rnd) for v in value]
    return value


class TestReadBulletin:
    def test_digest_ignores_what_decode_ignores(self):
        # an accepted file that is not canonical: unknown keys at three
        # levels, indentation and shuffled key order
        _, board = make_board(variant=Variant.S3, q=DEFAULT_PRIME, seed="loose")
        obj = json.loads(encode_bulletin(board)[0])
        obj["comment"] = "dealt by hand"
        obj["params"]["note"] = ["x", 1]
        obj["mask_matrices"][1]["label"] = {"rows": 7}
        obj["commit_matrix"]["data_sha"] = "0"
        blob = json.dumps(reordered(obj, random.Random(5)), indent=2).encode()
        assert blob != encode_bulletin(board)[0]
        decoded, digest = read_bulletin(blob)
        assert decoded == decode_bulletin(blob) == board
        assert digest == deal_id(decode_bulletin(blob)) == deal_id(board)


#: Files that json.loads itself cannot take.
HOSTILE_JSON = [
    pytest.param(b"[" * 400_000, id="nesting past the recursion limit"),
    pytest.param(
        b'{"kind": "share", "owner": ' + TOO_LONG.encode() + b"}",
        id="integer past the digit limit",
        marks=needs_digit_limit,
    ),
]


@pytest.mark.parametrize("data", HOSTILE_JSON)
@pytest.mark.parametrize(
    "decoder",
    [decode_bulletin, decode_share, decode_recovered, lambda data: decode_secrets(data, 97)],
    ids=["bulletin", "share", "recovered", "secrets"],
)
def test_hostile_json_is_parse_error(decoder, data):
    with pytest.raises(ParseError, match="not valid JSON"):
        decoder(data)


class TestBulletinValidation:
    def test_garbage_is_parse_error(self):
        with pytest.raises(ParseError):
            decode_bulletin(b"{not json")
        with pytest.raises(ParseError):
            decode_bulletin(b"[1,2,3]\n")

    def test_missing_key_is_parse_error(self):
        _, board = make_board()
        obj = json.loads(encode_bulletin(board)[0])
        del obj["extras"]
        with pytest.raises(ParseError):
            decode_bulletin(json.dumps(obj).encode())

    def test_unknown_version_rejected(self):
        _, board = make_board()
        with pytest.raises(UnsupportedVersion):
            decode_bulletin(mutate(board, ["format_version"], 2))

    @pytest.mark.parametrize("version", [True, False])
    def test_boolean_version_is_parse_error(self, version):
        _, board = make_board()
        with pytest.raises(ParseError, match="format_version must be an integer"):
            decode_bulletin(mutate(board, ["format_version"], version))

    def test_unknown_variant_rejected(self):
        _, board = make_board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["params", "variant"], "s9"))

    def test_bad_threshold_rejected(self):
        _, board = make_board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["params", "thresholds"], [1, 3]))

    def test_unreduced_residue_rejected(self):
        _, board = make_board()
        blob = mutate(board, ["constants", 0, 0], str(board.params.q))
        with pytest.raises(ValidationError):
            decode_bulletin(blob)

    def test_malformed_residue_string_is_parse_error(self):
        _, board = make_board()
        for bad in ("  12", "+3", "1e3", "03", ""):
            with pytest.raises(ParseError):
                decode_bulletin(mutate(board, ["constants", 0, 0], bad))

    def test_matrix_shape_mismatch_rejected(self):
        _, board = make_board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["commit_matrix", "rows"], 7))

    def test_commitment_count_checked(self):
        _, board = make_board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["commitments"].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_secret_hash_format_checked(self):
        _, board = make_board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["secret_hashes", 0], "ABC"))
        with pytest.raises(ValidationError):
            decode_bulletin(
                mutate(board, ["secret_hashes", 0], board.secret_hashes[0] + "\n")
            )

    # Every decimal array of a 5-owner s1 deal with thresholds (2, 3), named
    # as the decoder names it, with the JSON path to it.
    ARRAYS = {
        "mask_matrices[0].data": ["mask_matrices", 0, "data"],
        "mask_matrices[1].data": ["mask_matrices", 1, "data"],
        "commit_matrix.data": ["commit_matrix", "data"],
        "commitments[4]": ["commitments", 4],
        "constants[1]": ["constants", 1],
        "offsets[0][3]": ["offsets", 0, 3],
        "extras[1][0]": ["extras", 1, 0],
    }
    MALFORMED = {"non-string": 5, "leading zero": "05", "embedded comma": "1,2",
                 "trailing newline": "5\n"}

    @pytest.mark.parametrize("fault", [*MALFORMED, "unreduced"])
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("what", ARRAYS)
    def test_bad_residue_in_every_array(self, what, where, fault):
        _, board = make_board()
        if fault == "unreduced":
            bad = str(board.params.q)
            expected = (ValidationError, f"{what} is not reduced mod q")
        else:
            bad = self.MALFORMED[fault]
            expected = (ParseError, f"{what} must be a canonical decimal string")
        with pytest.raises(expected[0]) as excinfo:
            decode_bulletin(mutate(board, [*self.ARRAYS[what], where], bad))
        assert str(excinfo.value) == expected[1]

    @pytest.mark.parametrize("bad", [97, "097", "97,1", "97\n"])
    def test_bad_modulus_string(self, bad):
        _, board = make_board()
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(mutate(board, ["params", "q"], bad))
        assert str(excinfo.value) == "params.q must be a canonical decimal string"

    def test_undecidable_modulus_rejected(self):
        _, board = make_board()
        with pytest.raises(ValidationError, match="cannot decide"):
            decode_bulletin(mutate(board, ["params", "q"], "318665857834031151167461"))

    @needs_digit_limit
    @pytest.mark.parametrize("what", [*ARRAYS, "params.q"])
    def test_decimal_past_digit_limit_is_parse_error(self, what):
        _, board = make_board()
        path = ["params", "q"] if what == "params.q" else [*self.ARRAYS[what], -1]
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(mutate(board, path, TOO_LONG))
        assert str(excinfo.value) == f"{what} has too many digits ({len(TOO_LONG)})"

    def test_huge_n_rejected_before_share_length(self):
        # 281 bytes that would make SchemeParams compute t**t for t = 10**6
        params = {"variant": "s1", "n": 10**6, "k": 1, "thresholds": [10**6],
                  "q": str(DEFAULT_PRIME), "r": 0}
        blob = json.dumps({
            "kind": "bulletin", "format_version": 1, "params": params,
            "mask_matrices": [], "commit_matrix": {}, "commitments": [],
            "secret_hashes": [], "constants": [], "offsets": [], "extras": [],
        }).encode()
        start = time.perf_counter()
        with pytest.raises(ValidationError) as excinfo:
            decode_bulletin(blob)
        assert time.perf_counter() - start < 0.1
        assert str(excinfo.value) == "at most 4096 participants, got 1000000"

    def test_offset_vector_wrong_length_rejected(self):
        _, board = make_board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["offsets"][1][0].append("0")
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_offset_count_checked(self):
        _, board = make_board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["offsets"][0].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_extras_count_checked(self):
        _, board = make_board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["extras"][0].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_constants_count_checked(self):
        _, board = make_board(variant=Variant.S3, seed="cc")
        obj = json.loads(encode_bulletin(board)[0])
        obj["constants"].append(obj["constants"][0])
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())


class TestShareFiles:
    def test_round_trip_with_and_without_deal(self):
        shares, board = make_board()
        digest = deal_id(board)
        for share in shares:
            for deal_field in (None, digest):
                blob = encode_share(share, deal=deal_field)
                decoded = decode_share(blob)
                assert decoded.share == share
                assert decoded.deal == deal_field
                assert encode_share(decoded.share, deal=decoded.deal) == blob

    def test_hex_is_msb_first_and_padded(self):
        from mss.ajtai import Share

        share = Share(owner=1, bits=(1, 0, 1, 0, 0, 0, 0, 1, 1))  # r = 9
        blob = encode_share(share)
        obj = json.loads(blob)
        assert obj["bits"] == "143"  # 1_0100_0011 zero-padded to 3 nibbles
        assert decode_share(blob).share == share

    def test_bit_string_longer_than_r_rejected(self):
        from mss.ajtai import Share

        blob = encode_share(Share(owner=1, bits=(1, 0, 1, 0)))
        obj = json.loads(blob)
        obj["bits"] = "ff"  # needs 8 bits, r says 4
        with pytest.raises(ValidationError):
            decode_share(json.dumps(obj).encode())
        obj["bits"] = "1f0"  # wrong nibble count
        with pytest.raises(ValidationError):
            decode_share(json.dumps(obj).encode())

    def test_trailing_newline_rejected(self):
        shares, board = make_board()
        obj = json.loads(encode_share(shares[0], deal=deal_id(board)))
        with pytest.raises(ParseError, match="bits must be a lowercase hex string"):
            decode_share(json.dumps({**obj, "bits": obj["bits"] + "\n"}).encode())
        with pytest.raises(ValidationError, match="deal must be a 64-digit hex digest"):
            decode_share(json.dumps({**obj, "deal": obj["deal"] + "\n"}).encode())

    @pytest.mark.parametrize("version", [True, False])
    def test_boolean_version_is_parse_error(self, version):
        shares, _ = make_board()
        obj = json.loads(encode_share(shares[0]))
        obj["format_version"] = version
        with pytest.raises(ParseError, match="format_version must be an integer"):
            decode_share(json.dumps(obj).encode())

    def test_wrong_deal_rejected_at_binding(self):
        shares_a, board_a = make_board(seed="deal-a")
        shares_b, board_b = make_board(seed="deal-b")
        blob = encode_share(shares_a[0], deal=deal_id(board_a))
        share_file = decode_share(blob)
        assert bind_share(share_file, board_a, deal_id(board_a)) == shares_a[0]
        with pytest.raises(WrongDeal):
            bind_share(share_file, board_b, deal_id(board_b))

    def test_other_deals_digest_rejected_at_binding(self):
        shares_a, board_a = make_board(seed="deal-a")
        _, board_b = make_board(seed="deal-b")
        share_file = decode_share(encode_share(shares_a[0], deal=deal_id(board_a)))
        with pytest.raises(WrongDeal):
            bind_share(share_file, board_a, deal_id(board_b))

    def test_unbound_share_binds_anywhere(self):
        shares, board = make_board()
        share_file = decode_share(encode_share(shares[0]))
        assert bind_share(share_file, board, deal_id(board)) == shares[0]

    def test_wrong_length_rejected_at_binding(self):
        from mss.ajtai import Share

        shares, board = make_board()
        short = decode_share(encode_share(Share(owner=1, bits=(1, 0, 1, 0))))
        with pytest.raises(ValidationError):
            bind_share(short, board, deal_id(board))

    def test_owner_out_of_range_rejected_at_binding(self):
        from mss.ajtai import Share

        shares, board = make_board()
        stray = decode_share(
            encode_share(Share(owner=9, bits=shares[0].bits))
        )
        with pytest.raises(ValidationError):
            bind_share(stray, board, deal_id(board))


class TestSecretsAndRecoveredFiles:
    def test_secrets_round_trip(self):
        vectors = ((1, 2), (95, 0, 3))
        blob = encode_secrets(97, vectors)
        assert decode_secrets(blob, 97) == vectors

    def test_secrets_must_be_reduced(self):
        blob = encode_secrets(101, ((99,),))
        with pytest.raises(ValidationError):
            decode_secrets(blob, 97)

    @needs_digit_limit
    def test_secret_past_digit_limit_is_parse_error(self):
        obj = json.loads(encode_secrets(97, ((1, 2), (3,))))
        obj["secrets"][1][0] = TOO_LONG
        with pytest.raises(ParseError) as excinfo:
            decode_secrets(json.dumps(obj).encode(), 97)
        assert str(excinfo.value) == f"secrets[1] has too many digits ({len(TOO_LONG)})"

    @needs_digit_limit
    def test_candidate_past_digit_limit_is_parse_error(self):
        obj = json.loads(encode_recovered(1, (5, 6), True, "ab" * 32))
        obj["candidate"][1] = TOO_LONG
        with pytest.raises(ParseError) as excinfo:
            decode_recovered(json.dumps(obj).encode())
        assert str(excinfo.value) == f"candidate has too many digits ({len(TOO_LONG)})"

    def test_recovered_round_trip(self):
        digest = "ab" * 32
        blob = encode_recovered(2, (5, 6, 7), True, digest)
        report = decode_recovered(blob)
        assert report.secret_index == 2
        assert report.candidate == (5, 6, 7)
        assert report.verified is True
        assert report.deal == digest

    def test_recovered_deal_with_trailing_newline_rejected(self):
        obj = json.loads(encode_recovered(1, (5,), True, "ab" * 32))
        obj["deal"] += "\n"
        with pytest.raises(ValidationError, match="deal must be a 64-digit hex digest"):
            decode_recovered(json.dumps(obj).encode())

    def test_recovered_requires_boolean_verdict(self):
        blob = encode_recovered(1, (5,), True, "ab" * 32)
        obj = json.loads(blob)
        obj["verified"] = "yes"
        with pytest.raises(ParseError):
            decode_recovered(json.dumps(obj).encode())


class TestAtomicWrite:
    def test_writes_full_content(self, tmp_path):
        path = tmp_path / "out.json"
        write_atomic(str(path), b"payload")
        assert path.read_bytes() == b"payload"
        write_atomic(str(path), b"replaced")
        assert path.read_bytes() == b"replaced"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []
