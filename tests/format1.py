"""Format 1 deals: the dealer that published every public matrix in full.

It draws each matrix residue by residue from the dealer's generator, in the
order ``scheme.setup`` draws the seeds (shares, G_1..G_k, then F), redrawn
until it has full row rank.  A ``DealSetup`` that holds these matrices
encodes as a format 1 bulletin, so seeded format 1 files can be rebuilt
byte for byte and checked against their pins.
"""

from mss.ajtai import MAX_RANK_RESAMPLES, Share, ajtai_hash, sample_distinct_shares
from mss.errors import RngSuspect
from mss.field import Matrix, matrix_rank
from mss.scheme import DealSetup, construct


def format1_setup(params, rng):
    """The shares and an explicit-matrix ``DealSetup``, as ``setup`` was."""
    field = params.field()
    shares = tuple(
        Share(owner=j + 1, bits=bits)
        for j, bits in enumerate(sample_distinct_shares(params.n, params.r, rng))
    )

    def full_rank(rows):
        for _ in range(MAX_RANK_RESAMPLES):
            m = Matrix(rows, params.r, field.rand_vec(rng, rows * params.r))
            if matrix_rank(field, m) == rows:
                return m
        raise RngSuspect(f"{MAX_RANK_RESAMPLES} rank-deficient draws in a row")

    masks = [full_rank(t) for t in params.thresholds]
    f = full_rank(params.max_threshold)
    commitments = tuple(ajtai_hash(field, f, share.bits) for share in shares)
    return shares, DealSetup(params, (f, *masks), commitments)


def format1_deal(params, secrets, rng):
    """``scheme.deal`` on a format 1 setup: the same draws, in the same order."""
    shares, setup = format1_setup(params, rng)
    return shares, construct(setup, shares, secrets, rng)
