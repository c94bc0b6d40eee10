"""Verifiable multi-stage secret sharing with any-order recovery.

A library for splitting several secrets, each with its own threshold,
among one set of participants holding a single reusable binary share each.
Shares are masked by subset-sum hashing under public random matrices;
recovery works by interpolation over any quorum or by backward recursion
over a consecutive one, and both shares and recovered secrets are
verifiable against published digests.

The package exports the protocol, the field and recursion toolkit, the
count and bench tables, and every error class; everything else (codecs,
samplers, helpers) is imported from its submodule.
"""

from .ajtai import Share, verify_commitment
from .bench import bench_csv, bench_rows
from .counts import FIGURE1_TUPLES, counts_csv
from .errors import (
    BadIndex,
    BadInitial,
    BadQuorum,
    BadShares,
    BadWindow,
    DimMismatch,
    DuplicateNode,
    Inconsistent,
    InvalidNode,
    MssError,
    NotBinary,
    NotConsecutive,
    ParseError,
    RngSuspect,
    ShareSpaceExhausted,
    UnsupportedVersion,
    ValidationError,
    WrongDeal,
)
from .field import (
    DEFAULT_PRIME,
    PrimeField,
    binom_mod,
    lagrange_at_zero,
    poly_eval,
    solve_linear,
    vandermonde,
)
from .ilr import (
    IlrSpec,
    backward_recover,
    fit_general_term,
    fold_value,
    forward_extend,
    recursion_coeffs,
    rhs_term,
    to_homogeneous,
)
from .rng import Drbg
from .scheme import (
    Bulletin,
    SchemeParams,
    Variant,
    deal,
    participant_subshadows,
    privacy_rank_probe,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    verify_secret,
)

__version__ = "0.1.0"
