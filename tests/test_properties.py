"""Property tests over random deals (Hypothesis).

For a random variant, modulus, participant count n <= 12, thresholds,
secrets and DRBG seed, every recovery path returns the dealt secret exactly
from a random quorum, and decoding an encoded bulletin gives it back.
``read_bulletin`` gives ``deal_id`` of the decoded bulletin even for a file
with unknown keys, indentation and shuffled key order.  The
bulletin's one-pass residue-array parser agrees with a per-element reference
parser on hostile arrays, errors included.  The generator's byte stream is
SHA-256 in counter mode however it is split, and a batch draw gives the
values, and leaves the stream, of the single draws it replaces.  Share
files and reports with any JSON value in any header field decode or raise
an ``MssError``.  Examples are derived from the test itself (derandomized),
so every run checks the same inputs.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mss.bulletin import (
    _parse_vector,
    deal_id,
    decode_bulletin,
    decode_recovered,
    decode_share,
    encode_bulletin,
    encode_share,
    read_bulletin,
)
from mss.errors import MssError, ParseError, ValidationError
from mss.rng import Drbg
from mss.scheme import (
    SchemeParams,
    Variant,
    deal,
    participant_subshadows,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
)

MODULI = (97, (1 << 61) - 1)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def deals(draw):
    """(secrets, shares, bulletin) of one random deal."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    params = SchemeParams(
        variant=draw(st.sampled_from(list(Variant))),
        n=n,
        k=k,
        thresholds=draw(st.lists(st.integers(2, n), min_size=k, max_size=k)),
        q=draw(st.sampled_from(MODULI)),
    )
    secrets = [
        tuple(draw(st.lists(st.integers(0, params.q - 1), min_size=t, max_size=t)))
        for t in params.thresholds
    ]
    shares, board = deal(params, secrets, Drbg(draw(st.integers(0, 2**64))))
    return secrets, shares, board


@PROPERTY
@given(dealt=deals(), data=st.data())
def test_every_recovery_returns_the_dealt_secret(dealt, data):
    secrets, shares, board = dealt
    n = board.params.n
    for i, secret in enumerate(secrets, start=1):
        t_i = board.threshold(i)
        owners = data.draw(st.lists(st.integers(1, n), min_size=t_i, max_size=t_i, unique=True))
        quorum = participant_subshadows(board, i, [shares[j - 1] for j in owners])
        assert recover_way1_vandermonde(board, i, quorum) == secret
        assert recover_way1_lagrange(board, i, quorum) == secret
        start = data.draw(st.integers(1, n - t_i + 1))
        window = participant_subshadows(board, i, shares[start - 1 : start - 1 + t_i])
        assert recover_way2(board, i, window) == secret


@PROPERTY
@given(dealt=deals())
def test_decode_encode_is_the_identity(dealt):
    _, shares, board = dealt
    blob, digest = encode_bulletin(board)
    assert decode_bulletin(blob) == board
    assert encode_bulletin(decode_bulletin(blob)) == (blob, digest)
    for share in shares:
        share_file = decode_share(encode_share(share, deal=digest))
        assert (share_file.share, share_file.deal) == (share, digest)


#: Values of unknown keys, which decode ignores.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def loosened(value, draw):
    """The JSON value with unknown keys added to objects and keys shuffled."""
    if isinstance(value, list):
        return [loosened(v, draw) for v in value]
    if not isinstance(value, dict):
        return value
    items = [(key, loosened(v, draw)) for key, v in value.items()]
    extra = draw(st.lists(st.text(max_size=3), max_size=2, unique=True))
    items += [(f"x-{key}", draw(JUNK)) for key in extra]
    return dict(draw(st.permutations(items)))


@PROPERTY
@given(dealt=deals(), data=st.data())
def test_read_bulletin_digest_is_deal_id_of_the_decoded(dealt, data):
    _, _, board = dealt
    obj = loosened(json.loads(encode_bulletin(board)[0]), data.draw)
    blob = json.dumps(obj, indent=data.draw(st.sampled_from([None, 0, 2, "\t"]))).encode()
    decoded = decode_bulletin(blob)
    assert decoded == board
    assert read_bulletin(blob) == (decoded, deal_id(decoded)) == (board, deal_id(board))


def reference_vector(value, q, what):
    """Parse a residue array element by element; the first bad one decides."""
    out = []
    for v in value:
        canonical = (
            isinstance(v, str) and v.isascii() and v.isdigit() and (v == "0" or v[0] != "0")
        )
        if not canonical:
            raise ParseError(f"{what} must be a canonical decimal string")
        if int(v) >= q:
            raise ValidationError(f"{what} is not reduced mod q")
        out.append(int(v))
    return tuple(out)


def outcome(parse, *args):
    try:
        return parse(*args)
    except MssError as exc:
        return type(exc), str(exc)


@st.composite
def residue_arrays(draw):
    """(q, array): canonical residues with one or two hostile elements."""
    q = draw(st.sampled_from(MODULI))
    affix = st.sampled_from(["0", ",", "\n", " ", "-", "+", "\u0663"])
    number = st.integers(0, q).map(str)
    hostile = st.one_of(
        st.builds(str.__add__, affix, number),
        st.builds(str.__add__, number, affix),
        st.text(alphabet="0123456789,\n -+\u0663", max_size=4),
        st.sampled_from([str(q), str(q + 1), "007", ""]),
        st.integers(),
        st.none(),
    )
    arr = draw(st.lists(st.integers(0, q - 1).map(str), min_size=1, max_size=8))
    for _ in range(draw(st.integers(1, 2))):
        arr[draw(st.integers(0, len(arr) - 1))] = draw(hostile)
    return q, arr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=residue_arrays())
def test_vector_parser_matches_per_element_reference(case):
    q, arr = case
    assert outcome(_parse_vector, arr, q, len(arr), "v") == outcome(
        reference_vector, arr, q, "v"
    )


def test_first_bad_element_decides_the_error():
    assert outcome(_parse_vector, ["97", "03"], 97, 2, "v") == (
        ValidationError, "v is not reduced mod q"
    )
    assert outcome(_parse_vector, ["03", "97"], 97, 2, "v") == (
        ParseError, "v must be a canonical decimal string"
    )


#: Any JSON value, non-finite floats included.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

SHARE_HEADER = {
    "format_version": 1, "kind": "share", "owner": 3, "r": 16, "bits": "a5f0", "deal": "0" * 64,
}
REPORT_HEADER = {
    "format_version": 1, "kind": "recovered", "secret_index": 2, "candidate": ["5", "7"],
    "verified": True, "deal": "0" * 64,
}


def hostile(header, draw):
    """The header as JSON bytes, each field kept, dropped or replaced by any value."""
    obj = {}
    for key, value in header.items():
        how = draw(st.sampled_from(["keep", "drop", "replace"]))
        if how != "drop":
            obj[key] = value if how == "keep" else draw(ANY_JSON)
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "header, decode",
    [(SHARE_HEADER, decode_share), (REPORT_HEADER, decode_recovered)],
    ids=["share", "report"],
)
@PROPERTY
@given(data=st.data())
def test_hostile_headers_decode_or_raise_mss_error(header, decode, data):
    try:
        decode(hostile(header, data.draw))
    except MssError:
        pass


def reference_stream(seed: int, size: int) -> bytes:
    """The first ``size`` bytes of SHA-256 in counter mode under the seed's key."""
    material = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
    key = hashlib.sha256(b"mss.drbg.v1:" + material).digest()
    blocks = (size + 31) // 32
    stream = b"".join(hashlib.sha256(key + c.to_bytes(8, "big")).digest() for c in range(blocks))
    return stream[:size]


#: Draw sizes that leave the pool at any position, across block boundaries.
SPLITS = st.lists(st.integers(0, 100), max_size=6)

#: Bounds of one candidate byte (1, 2, 97), eight (2^61 - 1), nine and
#: twenty.  About half the candidates are rejected for 1, 2, 2^64 + 1 and
#: the 160-bit bound, a quarter for 97 and almost none for 2^61 - 1.
BOUNDS = (1, 2, 97, (1 << 61) - 1, (1 << 64) + 1, (1 << 159) + 1)


@PROPERTY
@given(seed=st.integers(0, 2**64), splits=SPLITS)
def test_randbytes_is_one_counter_mode_stream(seed, splits):
    rng = Drbg(seed)
    drawn = b"".join(rng.randbytes(size) for size in splits)
    assert drawn == reference_stream(seed, sum(splits))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64),
    n=st.sampled_from(BOUNDS),
    count=st.integers(0, 70),
    before=SPLITS,
)
def test_randbelow_many_equals_single_draws(seed, n, count, before):
    batch, single = Drbg(seed), Drbg(seed)
    for size in before:
        assert batch.randbytes(size) == single.randbytes(size)
    assert batch.randbelow_many(n, count) == tuple(single.randbelow(n) for _ in range(count))
    assert batch.randbytes(32) == single.randbytes(32)


@pytest.mark.parametrize("n", [0, -5])
def test_randbelow_many_rejects_bounds_like_randbelow(n):
    with pytest.raises(ValueError, match="bound must be positive"):
        Drbg(1).randbelow(n)
    with pytest.raises(ValueError, match="bound must be positive"):
        Drbg(1).randbelow_many(n, 3)
