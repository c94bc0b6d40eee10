"""Verifiable multi-stage secret sharing with any-order recovery.

A library for splitting several secrets, each with its own threshold,
among one set of participants holding a single reusable binary share each.
Shares are masked by subset-sum hashing under public random matrices;
recovery works by interpolation over any quorum or by backward recursion
over a consecutive one, and both shares and recovered secrets are
verifiable against published digests.

The package exports the protocol and the error classes its functions can
raise. The toolkits are imported from their submodules: the field from
`mss.field`, the recursion from `mss.ilr`, the count tables from
`mss.counts`; so is everything else (codecs, samplers, helpers), and the
codec's and toolkits' errors come from `mss.errors`.
"""

from .ajtai import Share
from .errors import (
    BadIndex,
    BadQuorum,
    BadShares,
    DimMismatch,
    MssError,
    NotBinary,
    NotConsecutive,
    RngSuspect,
    ShareSpaceExhausted,
)
from .rng import Drbg
from .scheme import (
    Bulletin,
    SchemeParams,
    Variant,
    deal,
    first_unbound,
    participant_subshadows,
    privacy_rank_probe,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    verify_secret,
)

__version__ = "0.1.0"
