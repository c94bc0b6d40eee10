"""Secret guessing: the published digest gives a secret away when its
candidates can be listed.

``secret_hash(q, secret)`` is an unsalted SHA-256 of the secret alone, and
the bulletin publishes it.  So anyone who reads the bulletin, with no share
at all, can hash candidate secrets until one matches.  A secret of t_i
components holds at most t_i * log2(q) bits, so a security level of λ bits
needs λ bits of min-entropy over those t_i components, whatever the shares
hide; at q = 97 a secret holds under 128 bits for every t_i <= 19.
"""

import math
from itertools import product

from mss.bulletin import encode_bulletin, read_bulletin
from mss.rng import Drbg
from mss.scheme import SchemeParams, Variant, deal, secret_hash


def published(params, secrets, seed):
    """The bulletin as anyone reads it from the bytes a deal publishes."""
    _shares, board = deal(params, secrets, Drbg(seed))
    return read_bulletin(encode_bulletin(board)[0])[0]


def guess(bulletin, i, candidates):
    """The first candidate whose digest is secret i's published digest."""
    q, target = bulletin.setup.params.q, bulletin.secret_hashes[i - 1]
    return next(c for c in candidates if secret_hash(q, c) == target)


def test_a_q97_secret_of_two_components_is_found_among_all_candidates():
    params = SchemeParams(variant=Variant.S1, n=8, k=2, thresholds=(2, 3), q=97)
    bulletin = published(params, [(41, 7), (5, 60, 88)], seed=1)
    assert guess(bulletin, 1, product(range(97), repeat=2)) == (41, 7)


def test_a_default_q_secret_of_small_components_is_found():
    params = SchemeParams(variant=Variant.S1, n=8, k=1, thresholds=(2,))
    assert params.q == 2**61 - 1
    bulletin = published(params, [(37, 58)], seed=2)
    assert guess(bulletin, 1, product(range(64), repeat=2)) == (37, 58)


def test_q97_holds_under_128_bits_up_to_nineteen_components():
    assert 19 * math.log2(97) < 128 <= 20 * math.log2(97)
