"""Serialization: canonical encoding, round trips, and strict decoding."""

import dataclasses
import errno
import functools
import json
import os
import random
import re
import stat
import sys
import time

import pytest
from format1 import format1_deal

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
    BadIndex,
    MssError,
    ParseError,
    UnsupportedVersion,
    ValidationError,
    WrongDeal,
)
from mss.field import DEFAULT_PRIME
from mss.rng import Drbg
from mss.scheme import (
    Bulletin,
    SchemeParams,
    Variant,
    deal,
    participant_subshadows,
    recover_way1_lagrange,
)


#: The interpreter's digit limit for int(str); 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter converts decimal strings of any length"
)


def make_board(variant=Variant.S1, n=5, k=2, thresholds=(2, 3), q=97, seed="ser", format1=False):
    """A seeded deal, in format 2 or, with format1, with explicit matrices."""
    params = SchemeParams(variant=variant, n=n, k=k, thresholds=thresholds, q=q)
    rng = Drbg(seed)
    field = params.field()
    secrets = [field.rand_vec(rng, t) for t in thresholds]
    shares, board = (format1_deal if format1 else deal)(params, secrets, rng)
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
                for format1 in (True, False):
                    shares, board = make_board(
                        variant=variant, q=q, seed=f"rt-{variant}-{q}", format1=format1
                    )
                    blob = encode_bulletin(board)[0]
                    assert decode_bulletin(blob) == board

    def test_encoding_is_canonical(self):
        for format1 in (True, False):
            shares, board = make_board(format1=format1)
            blob = encode_bulletin(board)[0]
            assert blob == encode_bulletin(decode_bulletin(blob))[0]
            # sorted keys, no whitespace variance
            reordered = json.dumps(
                json.loads(blob), sort_keys=True, separators=(",", ":")
            ).encode() + b"\n"
            assert reordered == blob

    @pytest.mark.parametrize("format1", [True, False])
    def test_written_in_the_format_the_setup_holds(self, format1):
        # matrices write format 1 and seeds format 2, and both read back to
        # the setup they were written from
        _, board = make_board(variant=Variant.S2, q=DEFAULT_PRIME, seed="fmt", format1=format1)
        obj = json.loads(encode_bulletin(board)[0])
        assert obj["format_version"] == (1 if format1 else 2)
        format1_keys = {"mask_matrices", "commit_matrix"}
        format2_keys = {"mask_seeds", "commit_seed"}
        assert set(obj) >= (format1_keys if format1 else format2_keys)
        assert not set(obj) & (format2_keys if format1 else format1_keys)
        setup = decode_bulletin(encode_bulletin(board)[0]).setup
        assert setup.matrices == board.setup.matrices

    def test_a_setup_of_matrices_and_seeds_is_refused(self):
        _, board = make_board()
        _, board1 = make_board(format1=True)
        mixed = dataclasses.replace(
            board.setup, matrices=(board1.setup.matrices[0], *board.setup.matrices[1:])
        )
        with pytest.raises(ValueError, match="either every matrix or every seed"):
            encode_bulletin(dataclasses.replace(board, setup=mixed))

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
        # an accepted file that is not canonical: unknown keys at two levels,
        # and in format 1 inside the matrices too, indentation and shuffled
        # key order
        for format1 in (True, False):
            _, board = make_board(
                variant=Variant.S3, q=DEFAULT_PRIME, seed="loose", format1=format1
            )
            obj = json.loads(encode_bulletin(board)[0])
            obj["comment"] = "dealt by hand"
            obj["params"]["note"] = ["x", 1]
            if format1:
                obj["mask_matrices"][1]["label"] = {"rows": 7}
                obj["commit_matrix"]["data_sha"] = "0"
            blob = json.dumps(reordered(obj, random.Random(5)), indent=2).encode()
            assert blob != encode_bulletin(board)[0]
            decoded, digest = read_bulletin(blob)
            assert decoded == decode_bulletin(blob) == board
            assert digest == deal_id(decode_bulletin(blob)) == deal_id(board)


class TestDealIdCoversTheSetup:
    """deal_id is the digest of board.setup, and of nothing in the round."""

    @staticmethod
    def digests(board):
        """deal_id, encode_bulletin's digest and read_bulletin's digest."""
        blob, encoded = encode_bulletin(board)
        return deal_id(board), encoded, read_bulletin(blob)[1]

    @staticmethod
    def boards(variant):
        """A deal's shares, its bulletin, and another deal's with the same params."""
        shares, board = make_board(variant=variant, seed=f"cover-{variant}")
        return shares, board, make_board(variant=variant, seed=f"other-{variant}")[1]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_round_fields_leave_every_digest_alone(self, variant):
        shares, board, other = self.boards(variant)
        files = [decode_share(encode_share(s, deal=deal_id(board))) for s in shares]
        for key in ("secret_hashes", "constants", "offsets", "extras"):
            mixed = dataclasses.replace(board, **{key: getattr(other, key)})
            assert getattr(mixed, key) != getattr(board, key)
            assert self.digests(mixed) == self.digests(board)
            assert tuple(bind_share(f, deal_id(mixed)) for f in files) == shares

    @pytest.mark.parametrize("variant", list(Variant))
    def test_another_setup_changes_every_digest(self, variant):
        shares, board, other = self.boards(variant)
        files = [decode_share(encode_share(s, deal=deal_id(board))) for s in shares]
        swapped = dataclasses.replace(board, setup=other.setup)
        for before, after in zip(self.digests(board), self.digests(swapped)):
            assert before != after
        for share_file in files:
            with pytest.raises(WrongDeal):
                bind_share(share_file, deal_id(swapped))


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
    """Strict decoding of format 1 bulletins; TestFormat2BulletinValidation
    runs the checks of the sections both formats share on format 2."""

    FORMAT1 = True

    def board(self, **kwargs):
        return make_board(format1=self.FORMAT1, **kwargs)

    def test_garbage_is_parse_error(self):
        with pytest.raises(ParseError):
            decode_bulletin(b"{not json")
        with pytest.raises(ParseError):
            decode_bulletin(b"[1,2,3]\n")

    def test_non_utf8_is_parse_error(self):
        blob = encode_bulletin(self.board()[1])[0]
        with pytest.raises(ParseError, match="^not valid UTF-8: "):
            decode_bulletin(b"\xff" + blob)

    @pytest.mark.parametrize(
        "path", [["params"], ["commit_matrix"], ["mask_matrices", 1]], ids=str
    )
    def test_non_object_is_parse_error(self, path):
        _, board = self.board()
        what = "mask_matrices[1]" if len(path) == 2 else path[0]
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(mutate(board, path, ["rows", 2]))
        assert str(excinfo.value) == f"{what} must be an object"

    @pytest.mark.parametrize("r", [0, 1, 16])
    def test_r_must_be_positive(self, r):
        # SchemeParams refuses r = 0 as any r below 1; only an omitted r is derived
        _, board = self.board()
        assert SchemeParams(Variant.S1, 5, 2, (2, 3), 97).r == board.setup.params.r
        with pytest.raises(ValueError, match="^share length must be positive$"):
            SchemeParams(Variant.S1, 5, 2, (2, 3), 97, r=0)
        blob = mutate(board, ["params", "r"], r)
        if r == board.setup.params.r:
            assert read_bulletin(blob) == (board, deal_id(board))
        elif r == 0:
            with pytest.raises(ValidationError, match="^share length must be positive$"):
                decode_bulletin(blob)
        else:
            with pytest.raises(ValidationError, match=r"^mask_matrices\[0\] must be "):
                decode_bulletin(blob)

    def test_missing_key_is_parse_error(self):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        del obj["extras"]
        with pytest.raises(ParseError):
            decode_bulletin(json.dumps(obj).encode())

    @pytest.mark.parametrize("version", [2, "1", None])
    def test_kind_checked_before_version(self, version):
        # a document of another kind is refused as such, whatever its version
        blob = json.dumps({"kind": "share", "format_version": version}).encode()
        with pytest.raises(ParseError, match="expected kind 'bulletin', got 'share'"):
            decode_bulletin(blob)

    def test_unknown_version_rejected(self):
        _, board = self.board()
        with pytest.raises(UnsupportedVersion, match="^unsupported format_version 3$"):
            decode_bulletin(mutate(board, ["format_version"], 3))

    @pytest.mark.parametrize("version", [True, False])
    def test_boolean_version_is_parse_error(self, version):
        _, board = self.board()
        with pytest.raises(ParseError, match="format_version must be an integer"):
            decode_bulletin(mutate(board, ["format_version"], version))

    def test_unknown_variant_rejected(self):
        _, board = self.board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["params", "variant"], "s9"))

    def test_bad_threshold_rejected(self):
        _, board = self.board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["params", "thresholds"], [1, 3]))

    def test_unreduced_residue_rejected(self):
        _, board = self.board()
        blob = mutate(board, ["constants", 0, 0], str(board.setup.params.q))
        with pytest.raises(ValidationError):
            decode_bulletin(blob)

    def test_malformed_residue_string_is_parse_error(self):
        _, board = self.board()
        for bad in ("  12", "+3", "1e3", "03", ""):
            with pytest.raises(ParseError):
                decode_bulletin(mutate(board, ["constants", 0, 0], bad))

    def test_matrix_shape_mismatch_rejected(self):
        _, board = self.board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["commit_matrix", "rows"], 7))

    def test_commitment_count_checked(self):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["commitments"].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_secret_hash_format_checked(self):
        _, board = self.board()
        with pytest.raises(ValidationError):
            decode_bulletin(mutate(board, ["secret_hashes", 0], "ABC"))
        with pytest.raises(ValidationError):
            decode_bulletin(
                mutate(board, ["secret_hashes", 0], board.secret_hashes[0] + "\n")
            )

    # Every decimal array of a 5-owner s1 deal with thresholds (2, 3), named
    # as the decoder names it, with the JSON path to it; SHARED_ARRAYS are
    # those of both formats.
    SHARED_ARRAYS = {
        "commitments[4]": ["commitments", 4],
        "constants[1]": ["constants", 1],
        "offsets[0][3]": ["offsets", 0, 3],
        "extras[1][0]": ["extras", 1, 0],
    }
    ARRAYS = {
        "mask_matrices[0].data": ["mask_matrices", 0, "data"],
        "mask_matrices[1].data": ["mask_matrices", 1, "data"],
        "commit_matrix.data": ["commit_matrix", "data"],
        **SHARED_ARRAYS,
    }
    MALFORMED = {"non-string": 5, "leading zero": "05", "embedded comma": "1,2",
                 "trailing newline": "5\n"}

    @pytest.mark.parametrize("fault", [*MALFORMED, "unreduced"])
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("what", ARRAYS)
    def test_bad_residue_in_every_array(self, what, where, fault):
        _, board = self.board()
        if fault == "unreduced":
            bad = str(board.setup.params.q)
            expected = (ValidationError, f"{what} is not reduced mod q")
        else:
            bad = self.MALFORMED[fault]
            expected = (ParseError, f"{what} must be a canonical decimal string")
        with pytest.raises(expected[0]) as excinfo:
            decode_bulletin(mutate(board, [*self.ARRAYS[what], where], bad))
        assert str(excinfo.value) == expected[1]

    # Every array that holds arrays, as the decoder names it, with its path.
    SHARED_CONTAINERS = {
        "commitments": ["commitments"],
        "secret_hashes": ["secret_hashes"],
        "constants": ["constants"],
        "offsets": ["offsets"],
        "offsets[0]": ["offsets", 0],
        "extras": ["extras"],
        "extras[1]": ["extras", 1],
    }
    CONTAINERS = {"mask_matrices": ["mask_matrices"], **SHARED_CONTAINERS}

    @pytest.mark.parametrize("fault", ["non-list", "one too many"])
    @pytest.mark.parametrize("what", CONTAINERS)
    def test_bad_container_at_every_level(self, what, fault):
        _, board = self.board()
        path = self.CONTAINERS[what]
        value = json.loads(encode_bulletin(board)[0])
        for key in path:
            value = value[key]
        if fault == "non-list":
            bad = {"0": value[0]}
            expected = (ParseError, f"{what} must be an array")
        else:
            bad = value + value[-1:]
            n = len(value)
            expected = (ValidationError, f"{what} must have length {n}, got {n + 1}")
        with pytest.raises(expected[0]) as excinfo:
            decode_bulletin(mutate(board, path, bad))
        assert str(excinfo.value) == expected[1]

    @pytest.mark.parametrize("bad", [97, "097", "97,1", "97\n"])
    def test_bad_modulus_string(self, bad):
        _, board = self.board()
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(mutate(board, ["params", "q"], bad))
        assert str(excinfo.value) == "params.q must be a canonical decimal string"

    def test_undecidable_modulus_rejected(self):
        _, board = self.board()
        with pytest.raises(ValidationError, match="cannot decide"):
            decode_bulletin(mutate(board, ["params", "q"], "318665857834031151167461"))

    @needs_digit_limit
    @pytest.mark.parametrize("what", [*ARRAYS, "params.q"])
    def test_decimal_past_digit_limit_is_parse_error(self, what):
        _, board = self.board()
        path = ["params", "q"] if what == "params.q" else [*self.ARRAYS[what], -1]
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(mutate(board, path, TOO_LONG))
        assert str(excinfo.value) == f"{what} has too many digits ({len(TOO_LONG)})"

    def test_huge_n_rejected_before_share_length(self):
        # 281 bytes that would make SchemeParams compute t**t for t = 10**6
        params = {"variant": "s1", "n": 10**6, "k": 1, "thresholds": [10**6],
                  "q": str(DEFAULT_PRIME), "r": 0}
        blob = json.dumps({
            "kind": "bulletin", "format_version": 1 if self.FORMAT1 else 2, "params": params,
            "mask_matrices": [], "commit_matrix": {}, "commitments": [],
            "secret_hashes": [], "constants": [], "offsets": [], "extras": [],
        }).encode()
        start = time.perf_counter()
        with pytest.raises(ValidationError) as excinfo:
            decode_bulletin(blob)
        assert time.perf_counter() - start < 0.1
        assert str(excinfo.value) == "at most 4096 participants, got 1000000"

    def test_offset_vector_wrong_length_rejected(self):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["offsets"][1][0].append("0")
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_offset_count_checked(self):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["offsets"][0].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_extras_count_checked(self):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        obj["extras"][0].pop()
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())

    def test_constants_count_checked(self):
        _, board = self.board(variant=Variant.S3, seed="cc")
        obj = json.loads(encode_bulletin(board)[0])
        obj["constants"].append(obj["constants"][0])
        with pytest.raises(ValidationError):
            decode_bulletin(json.dumps(obj).encode())


class TestFormat2BulletinValidation(TestBulletinValidation):
    """The shared sections' checks on format 2, where seeds stand for the
    matrices: a seed is checked as a string and never expanded on decode."""

    FORMAT1 = False
    MALFORMED = TestBulletinValidation.MALFORMED
    SHARED_ARRAYS = TestBulletinValidation.SHARED_ARRAYS
    SHARED_CONTAINERS = TestBulletinValidation.SHARED_CONTAINERS
    CONTAINERS = {"mask_seeds": ["mask_seeds"], **SHARED_CONTAINERS}

    # format 1's matrix objects, which format 2 does not have
    test_matrix_shape_mismatch_rejected = None

    def test_non_object_is_parse_error(self):
        _, board = self.board()
        with pytest.raises(ParseError, match="^params must be an object$"):
            decode_bulletin(mutate(board, ["params"], ["rows", 2]))

    @pytest.mark.parametrize("r", [0, 1, 16])
    def test_r_must_be_positive(self, r):
        # the seeds fit any r: another r reads as another deal
        _, board = self.board()
        blob = mutate(board, ["params", "r"], r)
        if r == 0:
            with pytest.raises(ValidationError, match="^share length must be positive$"):
                decode_bulletin(blob)
        else:
            decoded, digest = read_bulletin(blob)
            assert decoded.setup.params.r == r
            assert (digest == deal_id(board)) == (r == board.setup.params.r)

    @pytest.mark.parametrize("fault", [*MALFORMED, "unreduced"])
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("what", SHARED_ARRAYS)
    def test_bad_residue_in_every_array(self, what, where, fault):
        super().test_bad_residue_in_every_array(what, where, fault)

    @pytest.mark.parametrize("fault", ["non-list", "one too many"])
    @pytest.mark.parametrize("what", CONTAINERS)
    def test_bad_container_at_every_level(self, what, fault):
        super().test_bad_container_at_every_level(what, fault)

    @needs_digit_limit
    @pytest.mark.parametrize("what", [*SHARED_ARRAYS, "params.q"])
    def test_decimal_past_digit_limit_is_parse_error(self, what):
        super().test_decimal_past_digit_limit_is_parse_error(what)

    SEEDS = {"commit_seed": ["commit_seed"], "mask_seeds[0]": ["mask_seeds", 0],
             "mask_seeds[1]": ["mask_seeds", 1]}

    @pytest.mark.parametrize(
        "bad", ["AB" * 32, "ab" * 31, "ab" * 33, "ab" * 32 + "\n", "g" * 64, 5, None, ["ab" * 32]],
        ids=["uppercase", "short", "long", "trailing newline", "not hex", "number", "null",
             "array"],
    )
    @pytest.mark.parametrize("what", SEEDS)
    def test_bad_seed_names_its_key(self, what, bad):
        _, board = self.board()
        with pytest.raises(ValidationError) as excinfo:
            decode_bulletin(mutate(board, self.SEEDS[what], bad))
        assert str(excinfo.value) == f"{what} must be 64 lowercase hex digits"

    @pytest.mark.parametrize("key", ["commit_seed", "mask_seeds"])
    def test_missing_seed_names_its_key(self, key):
        _, board = self.board()
        obj = json.loads(encode_bulletin(board)[0])
        del obj[key]
        with pytest.raises(ParseError) as excinfo:
            decode_bulletin(json.dumps(obj).encode())
        assert str(excinfo.value) == f"missing key {key!r}"

    def test_format1_keys_are_not_read(self):
        # a format 2 file is read by format 2's keys alone: format 1's
        # matrices beside them are ignored, as any unknown key is
        _, board = self.board()
        _, board1 = make_board(format1=True)
        obj = json.loads(encode_bulletin(board)[0])
        old = json.loads(encode_bulletin(board1)[0])
        obj.update(mask_matrices=old["mask_matrices"], commit_matrix=old["commit_matrix"])
        assert read_bulletin(json.dumps(obj).encode()) == (board, deal_id(board))


#: The secrets a partial read parses, for the k = 3 deals of TestPartialRead:
#: all of them by default, none, each alone, and all of them by name.
PARTIAL_READS = [None, (), (1,), (2,), (3,), (1, 2, 3)]


@functools.lru_cache(maxsize=None)
def partial_deal(variant, format1, q=97):
    """The shares, bulletin and bytes of a k = 3 deal whose secrets have
    different thresholds."""
    shares, board = make_board(
        variant=variant, k=3, thresholds=(2, 3, 2), q=q, seed=f"partial-{variant}",
        format1=format1,
    )
    return shares, board, encode_bulletin(board)[0]


def is_read(secrets, i: int) -> bool:
    return secrets is None or i in secrets


def read_outcome(blob, secrets=None):
    """read_bulletin's bulletin and digest, or the class and message it raised."""
    try:
        return read_bulletin(blob, secrets=secrets)
    except MssError as exc:
        return type(exc), str(exc)


def narrowed_full_read(blob, secrets):
    """The full read's outcome, with None for the offsets and extras of
    every secret a read of ``secrets`` leaves out."""
    outcome = read_outcome(blob)
    if not isinstance(outcome[0], Bulletin):
        return outcome
    board, digest = outcome
    return dataclasses.replace(board, **{
        key: tuple(v if is_read(secrets, i) else None
                   for i, v in enumerate(getattr(board, key), start=1))
        for key in ("offsets", "extras")
    }), digest


@pytest.mark.parametrize(
    "variant, format1",
    [
        pytest.param(v, f, id=f"{v.value}-format{1 if f else 2}")
        for v in Variant
        for f in (True, False)
    ],
)
class TestPartialRead:
    """read_bulletin(data, secrets) parses the offsets and extras of the
    secrets named alone, and checks every other secret's for shape; the
    rest of the file is read as the full read reads it."""

    @pytest.mark.parametrize("secrets", PARTIAL_READS, ids=str)
    def test_what_is_read_equals_the_full_read(self, variant, format1, secrets):
        _, board, blob = partial_deal(variant, format1)
        full, digest = read_bulletin(blob)
        part, part_digest = read_bulletin(blob, secrets=secrets)
        assert part_digest == digest == deal_id(board)
        assert part.setup == full.setup
        assert part.secret_hashes == full.secret_hashes
        assert part.constants == full.constants
        for key in ("offsets", "extras"):
            for i in (1, 2, 3):
                expected = getattr(full, key)[i - 1] if is_read(secrets, i) else None
                assert getattr(part, key)[i - 1] == expected
        if secrets is None or set(secrets) == {1, 2, 3}:
            assert part == full == board

    def test_an_index_outside_the_deal_is_ignored(self, variant, format1):
        _, _, blob = partial_deal(variant, format1)
        assert read_bulletin(blob, secrets=(0, 4, -1)) == read_bulletin(blob, secrets=())
        assert read_bulletin(blob, secrets=(4, 2)) == read_bulletin(blob, secrets=(2,))

    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
    def test_an_index_that_is_not_an_int_is_refused(self, variant, format1, bad):
        # True and 1.0 equal 1, so a set of them would read secret 1
        _, _, blob = partial_deal(variant, format1)
        refused = f"^secret index {re.escape(repr(bad))} is not an int$"
        for secrets in ((bad,), (2, bad), (1, bad)):
            with pytest.raises(BadIndex, match=refused):
                read_bulletin(blob, secrets=secrets)

    @pytest.mark.parametrize("secrets", PARTIAL_READS[1:], ids=str)
    def test_a_one_shot_iterable_reads_as_its_tuple(self, variant, format1, secrets):
        # each secret's offsets and extras test membership, so a generator
        # read once would leave every secret after the first loop unread
        _, _, blob = partial_deal(variant, format1)
        expected = read_bulletin(blob, secrets=secrets)
        assert read_bulletin(blob, secrets=(i for i in secrets)) == expected
        assert read_bulletin(blob, secrets=map(int, secrets)) == expected

    RESIDUE_FAULTS = {"leading zero": "01", "unreduced": "q", "negative": "-1",
                      "non-string": 5, "underscore": "1_0", "lone surrogate": "\ud800"}

    @pytest.mark.parametrize("key", ["offsets", "extras"])
    @pytest.mark.parametrize("fault", RESIDUE_FAULTS)
    def test_a_bad_residue_fails_the_reads_of_its_secret_alone(
        self, variant, format1, key, fault
    ):
        _, board, blob = partial_deal(variant, format1)
        bad = self.RESIDUE_FAULTS[fault]
        bad = str(board.setup.params.q) if bad == "q" else bad
        for m in range(3):
            faulty = mutate(board, [key, m, -1, 0], bad)
            full = read_outcome(faulty)
            assert full[0] in (ParseError, ValidationError)
            assert full[1].startswith(f"{key}[{m}]")
            for secrets in PARTIAL_READS:
                clean = narrowed_full_read(blob, secrets)
                expected = full if is_read(secrets, m + 1) else clean
                assert read_outcome(faulty, secrets) == expected

    SHAPE_FAULTS = {
        "non-list": lambda arr: {"0": arr},
        "one vector too many": lambda arr: arr + arr[-1:],
        "one vector too few": lambda arr: arr[:-1],
        "a vector one short": lambda arr: [arr[0][:-1], *arr[1:]],
    }

    @pytest.mark.parametrize("key", ["offsets", "extras"])
    @pytest.mark.parametrize("fault", SHAPE_FAULTS)
    def test_a_shape_fault_fails_every_read(self, variant, format1, key, fault):
        # at the level of all secrets, and of each secret's vectors
        _, board, blob = partial_deal(variant, format1)
        for path in ([key], [key, 0], [key, 1], [key, 2]):
            value = json.loads(blob)
            for step in path:
                value = value[step]
            faulty = mutate(board, path, self.SHAPE_FAULTS[fault](value))
            full = read_outcome(faulty)
            assert full[0] in (ParseError, ValidationError)
            for secrets in PARTIAL_READS:
                assert read_outcome(faulty, secrets) == full

    def test_an_unread_secret_is_refused_by_name(self, variant, format1):
        shares, board, blob = partial_deal(variant, format1)
        part, _ = read_bulletin(blob, secrets=(1,))
        quorum = shares[:2]
        assert recover_way1_lagrange(part, 1, participant_subshadows(part, 1, quorum)) == (
            recover_way1_lagrange(board, 1, participant_subshadows(board, 1, quorum))
        )
        refused = "^secret 2's offsets and extras were not read from the bulletin$"
        with pytest.raises(BadIndex, match=refused):
            part.offset_for(2, 4)
        with pytest.raises(BadIndex, match=refused):
            part.extra_points(2)
        with pytest.raises(BadIndex, match=refused):
            participant_subshadows(part, 2, shares[:3])
        # an index outside the deal is refused as before
        with pytest.raises(BadIndex, match=r"^secret index 4 outside \[1, 3\]$"):
            part.extra_points(4)
        with pytest.raises(ValueError, match="^a bulletin read without every secret's round"):
            encode_bulletin(part)


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

    def test_bits_round_trip_at_every_length(self):
        from mss.ajtai import Share

        rng = random.Random(20)
        for r in range(1, 201):
            patterns = (
                (0,) * r,
                (1,) * r,
                (0,) + (1,) * (r - 1),
                tuple(rng.randrange(2) for _ in range(r)),
            )
            for bits in patterns:
                share = Share(owner=2, bits=bits)
                value = 0
                for bit in bits:
                    value = value << 1 | bit
                blob = encode_share(share)
                assert json.loads(blob)["bits"] == format(value, "x").zfill((r + 3) // 4)
                decoded = decode_share(blob).share
                assert decoded == share
                assert set(map(type, decoded.bits)) == {int}

    def test_bit_string_longer_than_r_rejected(self):
        from mss.ajtai import Share

        blob = encode_share(Share(owner=1, bits=(1, 0, 1, 0)))
        obj = json.loads(blob)
        # At r = 4 one nibble holds every 4-bit string, so a longer string
        # fails the nibble count; test_bit_above_r_rejected reaches the
        # "bit string longer than r" branch.
        for bits in ("ff", "1f0"):  # needs 8 bits; needs 12
            obj["bits"] = bits
            with pytest.raises(ValidationError, match="^bits must be 1 hex digits for r=4$"):
                decode_share(json.dumps(obj).encode())

    def test_bit_above_r_rejected(self):
        from mss.ajtai import Share

        obj = json.loads(encode_share(Share(owner=1, bits=(1,) * 15)))
        assert obj["bits"] == "7fff"
        with pytest.raises(ValidationError, match="^bit string longer than r$"):
            decode_share(json.dumps({**obj, "bits": "ffff"}).encode())

    def test_owner_zero_rejected(self):
        shares, _ = make_board()
        obj = json.loads(encode_share(shares[0]))
        with pytest.raises(ValidationError, match="^owner index is 1-based$"):
            decode_share(json.dumps({**obj, "owner": 0}).encode())

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
        assert bind_share(share_file, deal_id(board_a)) == shares_a[0]
        with pytest.raises(WrongDeal):
            bind_share(share_file, deal_id(board_b))

    def test_other_deals_digest_rejected_at_binding(self):
        shares_a, board_a = make_board(seed="deal-a")
        _, board_b = make_board(seed="deal-b")
        share_file = decode_share(encode_share(shares_a[0], deal=deal_id(board_a)))
        with pytest.raises(WrongDeal):
            bind_share(share_file, deal_id(board_b))

    def test_unbound_share_binds_anywhere(self):
        shares, board = make_board()
        share_file = decode_share(encode_share(shares[0]))
        assert bind_share(share_file, deal_id(board)) == shares[0]

    @pytest.mark.parametrize(
        "bad", ["x" * 64, "AB" * 32, "ab" * 31, "ab" * 32 + "\n", 5], ids=repr
    )
    def test_deal_the_decoder_refuses_is_not_written(self, bad):
        shares, _ = make_board()
        with pytest.raises(
            ValueError, match=f"^deal {re.escape(repr(bad))} is not a 64-digit hex digest$"
        ):
            encode_share(shares[0], deal=bad)
        obj = json.loads(encode_share(shares[0], deal="ab" * 32))
        with pytest.raises(ValidationError, match="^deal must be a 64-digit hex digest$"):
            decode_share(json.dumps({**obj, "deal": bad}).encode())  # what it would have written


class TestSecretsAndRecoveredFiles:
    def test_secrets_round_trip(self):
        vectors = ((1, 2), (95, 0, 3))
        blob = encode_secrets(97, vectors)
        assert decode_secrets(blob, 97) == vectors

    @pytest.mark.parametrize("bad", [100, -1, True])
    def test_secrets_encoded_as_given_or_refused(self, bad):
        # reducing would write a secret other than the one given
        refusal = r"^secret 2 has components that are not ints in \[0, q\)$"
        with pytest.raises(ValueError, match=refusal):
            encode_secrets(97, [(1, 2), (3, bad, 5)])
        assert decode_secrets(encode_secrets(97, [(1, 2), (3, 96, 0)]), 97) == ((1, 2), (3, 96, 0))

    def test_secrets_must_be_reduced(self):
        blob = encode_secrets(101, ((99,),))
        with pytest.raises(ValidationError):
            decode_secrets(blob, 97)

    @pytest.mark.parametrize(
        "secrets, what", [([], "secrets"), ([[], ["1"]], "secrets[0]")]
    )
    def test_empty_secrets_rejected(self, secrets, what):
        obj = json.loads(encode_secrets(97, ((1, 2),)))
        with pytest.raises(ParseError) as excinfo:
            decode_secrets(json.dumps({**obj, "secrets": secrets}).encode(), 97)
        assert str(excinfo.value) == f"{what} must be a nonempty array"

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

    def test_recovered_candidate_reduced_mod_bulletin_q(self):
        blob = encode_recovered(1, (5, 97), True, "ab" * 32)
        assert decode_recovered(blob).candidate == (5, 97)
        assert decode_recovered(blob, 101).candidate == (5, 97)
        with pytest.raises(ValidationError, match="^candidate is not reduced mod q$"):
            decode_recovered(blob, 97)

    @pytest.mark.parametrize("q", [None, 97])
    @pytest.mark.parametrize("bad", ["007", " 5", "5\n", "1_0", "+5", "", "1,2", 5, None])
    def test_recovered_candidate_must_be_canonical(self, q, bad):
        obj = json.loads(encode_recovered(1, (5, 6), True, "ab" * 32))
        obj["candidate"][1] = bad
        with pytest.raises(ParseError, match="^candidate must be a canonical decimal string$"):
            decode_recovered(json.dumps(obj).encode(), q)

    def test_recovered_candidate_without_q_has_no_bound(self):
        obj = json.loads(encode_recovered(1, (5,), True, "ab" * 32))
        for candidate in ([], ["9" * 40, "0"]):
            blob = json.dumps({**obj, "candidate": candidate}).encode()
            assert decode_recovered(blob).candidate == tuple(map(int, candidate))

    @pytest.mark.parametrize("key, bad, message", [
        *(pytest.param("secret_index", bad, "secret index {!r} is not an int of at least 1",
                       id=repr(bad)) for bad in (True, 1.0, 0)),
        *(pytest.param("verified", bad, "verified {!r} is not a boolean", id=f"verified={bad!r}")
          for bad in (1, 0, "true", None)),
        *(pytest.param("deal", bad, "deal {!r} is not a 64-digit hex digest", id=f"deal={bad!r}")
          for bad in ("x" * 64, "AB" * 32, "ab" * 31, "ab" * 32 + "\n", None)),
    ])
    def test_recovered_index_the_decoder_refuses_is_not_written(self, key, bad, message):
        good = {"secret_index": 1, "candidate": (5,), "verified": True, "deal": "ab" * 32}
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad))}$"):
            encode_recovered(**{**good, key: bad})
        obj = json.loads(encode_recovered(**good))
        with pytest.raises((ParseError, ValidationError)):  # what it would have written
            decode_recovered(json.dumps({**obj, key: bad}).encode())

    def test_recovered_index_zero_rejected(self):
        obj = json.loads(encode_recovered(1, (5,), True, "ab" * 32))
        with pytest.raises(ValidationError, match="^secret_index is 1-based$"):
            decode_recovered(json.dumps({**obj, "secret_index": 0}).encode())

    def test_recovered_candidate_must_be_array(self):
        obj = json.loads(encode_recovered(1, (5,), True, "ab" * 32))
        with pytest.raises(ParseError, match="^candidate must be an array$"):
            decode_recovered(json.dumps({**obj, "candidate": "5"}).encode())

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

    def test_failed_rename_removes_temp_and_raises(self, tmp_path):
        target = tmp_path / "out.json"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            write_atomic(str(target), b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert target.is_dir()

    def test_failed_cleanup_keeps_the_write_error(self, tmp_path, monkeypatch):
        """When the temp file cannot be removed either, the caller still gets
        the rename's error, naming the path given, and the temp file stays."""
        path = tmp_path / "out.json"

        def refuse(code):
            def fail(src, *args, **kwargs):
                raise OSError(code, os.strerror(code), src)
            return fail

        monkeypatch.setattr(os, "replace", refuse(errno.EXDEV))
        monkeypatch.setattr(os, "unlink", refuse(errno.EACCES))
        with pytest.raises(OSError) as info:
            write_atomic(str(path), b"payload")
        monkeypatch.undo()
        exc = info.value
        assert type(exc) is OSError  # EACCES, the unlink's, would be PermissionError
        assert (exc.errno, exc.strerror, exc.filename, exc.filename2) == (
            errno.EXDEV, os.strerror(errno.EXDEV), str(path), None
        )
        assert ".mss-tmp-" not in str(exc)
        (leftover,) = tmp_path.iterdir()
        assert leftover.name.startswith(".mss-tmp-")
        assert leftover.read_bytes() == b"payload"
        leftover.unlink()

    def test_failed_write_removes_temp_and_raises_as_is(self, tmp_path):
        with pytest.raises(TypeError, match="bytes-like"):
            write_atomic(str(tmp_path / "out.json"), "not bytes")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    @pytest.mark.parametrize("mode", [None, 0o600, 0o640], ids=str)
    def test_mode_less_the_umask(self, tmp_path, umask, mode):
        """Like ``open``: the file's mode is the mode given (0666 by default)
        less the umask, also when it replaces a file of another mode."""
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        path.chmod(0o755)
        old = os.umask(umask)
        try:
            if mode is None:
                write_atomic(str(path), b"payload")
            else:
                write_atomic(str(path), b"payload", mode=mode)
        finally:
            os.umask(old)
        expected = 0o666 if mode is None else mode
        assert stat.S_IMODE(path.stat().st_mode) == expected & ~umask
        assert path.read_bytes() == b"payload"

    def test_empty_path_fails_before_any_temp_file(self, tmp_path, monkeypatch):
        """Its temp name would land in the parent of the working directory."""
        inner = tmp_path / "sub" / "inner"
        inner.mkdir(parents=True)
        monkeypatch.chdir(inner)
        opened = []
        real_open = os.open

        def spy(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        with pytest.raises(FileNotFoundError) as info:
            write_atomic("", b"payload")
        exc = info.value
        assert (exc.errno, exc.strerror, exc.filename) == (
            errno.ENOENT, os.strerror(errno.ENOENT), ""
        )
        assert opened == []
        assert list(tmp_path.rglob("*.mss-tmp-*")) == []

    @pytest.mark.parametrize(
        "path, error, code",
        [
            ("missing/out.json", FileNotFoundError, errno.ENOENT),
            ("adir", IsADirectoryError, errno.EISDIR),
        ],
    )
    def test_error_names_the_path_given(self, tmp_path, monkeypatch, path, error, code):
        """Class, errno and strerror are the failure's own, the file named is
        the path given rather than the temp name, and the temp file is gone."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        with pytest.raises(error) as info:
            write_atomic(path, b"payload")
        exc = info.value
        assert (exc.errno, exc.strerror, exc.filename, exc.filename2) == (
            code, os.strerror(code), path, None
        )
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []
