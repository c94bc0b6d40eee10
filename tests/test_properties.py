"""Property tests over random deals (Hypothesis).

For a random variant, modulus, participant count n <= 12, thresholds,
secrets and DRBG seed, every recovery path returns the dealt secret exactly
from a random quorum, and decoding an encoded bulletin gives it back.
Examples are derived from the test itself (derandomized), so every run
checks the same deals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mss.bulletin import (
    deal_id,
    decode_bulletin,
    decode_share,
    encode_bulletin,
    encode_share,
)
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
    blob = encode_bulletin(board)
    assert decode_bulletin(blob) == board
    assert encode_bulletin(decode_bulletin(blob)) == blob
    digest = deal_id(board)
    for share in shares:
        share_file = decode_share(encode_share(share, deal=digest))
        assert (share_file.share, share_file.deal) == (share, digest)
