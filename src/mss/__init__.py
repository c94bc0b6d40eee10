"""Verifiable multi-stage secret sharing with any-order recovery.

A library for splitting several secrets, each with its own threshold,
among one set of participants holding a single reusable binary share each.
Shares are masked by subset-sum hashing under public random matrices;
recovery works by interpolation over any quorum or by backward recursion
over a consecutive one, and both shares and recovered secrets are
verifiable against published digests.
"""

from .ajtai import (
    Commitment,
    Share,
    ajtai_hash,
    sample_binary_share,
    sample_distinct_shares,
    sample_matrix_full_rank,
    share_length,
    verify_commitment,
)
from .bench import BenchRow, bench_csv, bench_rows, recovery_medians
from .bulletin import (
    RecoveredFile,
    ShareFile,
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
    write_atomic,
)
from .counts import FIGURE1_TUPLES, counts_csv, public_value_counts
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
    Matrix,
    PrimeField,
    Solution,
    binom_mod,
    is_prime,
    lagrange_at_zero,
    mat_vec,
    matrix_rank,
    poly_eval,
    solve_linear,
    vandermonde,
)
from .ilr import (
    IlrSequence,
    IlrSpec,
    backward_recover,
    fit_general_term,
    fold_value,
    forward_extend,
    recursion_coeffs,
    rhs_term,
    satisfies,
    to_homogeneous,
)
from .rng import Drbg
from .scheme import (
    Bulletin,
    ProbeResult,
    SchemeParams,
    SetupResult,
    Variant,
    assemble_subshadows,
    compute_shadow,
    construct,
    deal,
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

__version__ = "0.1.0"
