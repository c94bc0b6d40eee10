"""The four-phase multi-stage secret sharing protocol.

Four variants share one machinery.  In every variant, secret i is a vector
of dimension t_i (its threshold), hidden as the index-0 term of a recursion
sequence whose next t_i - 1 terms are masked participant shares (shadows).
Published offsets extend every participant's shadow into a sequence term,
and a few published extra terms give interpolating quorums enough samples.

  s1  per-secret constant vectors, plain recursion
  s2  per-secret constant vectors, alternating recursion
  s3  one shared constant vector, plain recursion
  s4  one shared constant vector, alternating recursion

Recovery: any t_i participants interpolate the general-term polynomial
(by a linear solve or directly at zero by the Lagrange formula), or t_i
participants with consecutive indices walk the recursion backward.  Each
secret recovers independently, in any order.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ajtai import (
    MAX_SHARE_RESAMPLES,
    Share,
    _distinct_draws,
    _matrix_columns,
    _seeded_columns,
    ajtai_hash_many,
    sample_distinct_shares,
    sample_matrix_full_rank,
)
from .errors import (
    BadIndex,
    BadQuorum,
    BadShares,
    DimMismatch,
    NotConsecutive,
    RngSuspect,
)
from .field import (
    DEFAULT_PRIME,
    Matrix,
    PrimeField,
    _weighted_sums,
    lagrange_at_zero,
    solve_linear,
    vandermonde,
)
from .ilr import (
    IlrSpec,
    _checked_nodes,
    backward_recover,
    fold_columns,
    forward_extend,
)


class Variant(str, enum.Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"
    S4 = "s4"

    @property
    def alternating(self) -> bool:
        return self in (Variant.S2, Variant.S4)

    @property
    def shared_constant(self) -> bool:
        """True when one constant vector serves every secret (s3/s4)."""
        return self in (Variant.S3, Variant.S4)

    def extras_count(self, threshold: int) -> int:
        """Published sequence terms beyond index n."""
        return threshold + 1 if self.shared_constant else 2


#: Largest participant count a deal may have.  Thresholds are at most n,
#: so this also bounds the t**t that deriving r computes exactly.
MAX_PARTICIPANTS = 4096

#: Keep the share space at >= 2^16 vectors even for tiny test parameters.
MIN_SHARE_BITS = 16


@dataclass(frozen=True)
class SchemeParams:
    """Validated deal parameters, the one place they are checked and derived.

    n, k, every threshold, q and a given r must be ints, not bools or floats.
    Omit r to derive the share bit-length from the largest threshold t,
    r = max(ceil(t*log2 t), ceil(log2 n), MIN_SHARE_BITS); a given r must be positive.
    """

    variant: Variant
    n: int
    k: int
    thresholds: tuple[int, ...]
    q: int = DEFAULT_PRIME
    r: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        given_r = () if self.r is None else (self.r,)
        for name, values in (("n", (self.n,)), ("k", (self.k,)), ("thresholds", self.thresholds),
                             ("q", (self.q,)), ("r", given_r)):
            for value in values:
                if type(value) is not int:  # True and 5.0 compare equal to ints
                    raise ValueError(f"{name}: {value!r} is not an int")
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.n < 2:
            raise ValueError("need at least 2 participants")
        if self.n > MAX_PARTICIPANTS:
            # before r is derived: parameters come from files and flags
            raise ValueError(f"at most {MAX_PARTICIPANTS} participants, got {self.n}")
        if self.k < 1:
            raise ValueError("need at least 1 secret")
        if len(self.thresholds) != self.k:
            raise ValueError(f"expected {self.k} thresholds")
        for t in self.thresholds:
            if not 2 <= t <= self.n:
                raise ValueError(f"threshold {t} outside [2, {self.n}]")
        PrimeField(self.q)  # primality check
        if self.q <= self.n + self.max_threshold + 1:
            raise ValueError("modulus too small for the evaluation points")
        if self.r is None:
            t = self.max_threshold
            from_threshold = (t**t - 1).bit_length()  # ceil(t*log2 t) = ceil(log2 t^t), exactly
            from_n = (self.n - 1).bit_length()
            object.__setattr__(self, "r", max(from_threshold, from_n, MIN_SHARE_BITS))
        if self.r < 1:
            raise ValueError("share length must be positive")

    @property
    def max_threshold(self) -> int:
        return max(self.thresholds)

    def field(self) -> PrimeField:
        return PrimeField(self.q)


@dataclass(frozen=True)
class DealSetup:
    """What share files are bound to: the parameters, the public matrices
    and the commitments.

    This is the section that ``deal_id`` digests.  matrices[0] stands for
    the commitment matrix F and matrices[i] for secret i's mask matrix G_i:
    each is a ``Matrix``, or the seed ``expand_matrix`` turns into one.
    commitments[j - 1] is owner j's commitment F * sh_j, as residues.
    """

    params: SchemeParams
    matrices: tuple[Matrix | bytes, ...]
    commitments: tuple[tuple[int, ...], ...]
    #: Each matrix's packed columns, by index, packed on first use; the
    #: dealer fills in those of the matrices it drew.
    packed: dict[int, list[int]] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def _rows(self, i: int) -> int:
        return self.params.thresholds[i - 1] if i else self.params.max_threshold

    def hash_shares(self, i: int, shares: Sequence[Share]) -> list[tuple[int, ...]]:
        """Each share's bits hashed under matrices[i], the one way to F and the
        G_i: BadIndex unless i is an int in [0, k], DimMismatch unless each share
        is r bits long, then the columns are packed once, a seed's from its stream."""
        k, r = self.params.k, self.params.r
        if type(i) is not int or not 0 <= i <= k:  # True and 1.0 compare equal to 1
            raise BadIndex(f"matrix index {i!r} outside [0, {k}]")
        for length in (len(share.bits) for share in shares):
            if length != r:
                raise DimMismatch(f"share length {length} does not match the deal's r={r}")
        field = self.params.field()
        if i not in self.packed:
            source = self.matrices[i]
            self.packed[i] = (
                _matrix_columns(field, source) if isinstance(source, Matrix)
                else _seeded_columns(field, self._rows(i), self.params.r, source)
            )
        return ajtai_hash_many(field, self._rows(i), self.packed[i], shares)


def _check_secret_index(params: SchemeParams, i: int) -> None:
    if type(i) is not int:
        raise BadIndex(f"secret index {i!r} is not an int")
    if not 1 <= i <= params.k:
        raise BadIndex(f"secret index {i} outside [1, {params.k}]")


@dataclass(frozen=True)
class Bulletin:
    """Every public value of one deal: its setup and one round's values.

    offsets[i-1][j - t_i] is the published offset for secret i and
    participant j (t_i <= j <= n); extras[i-1][m-1] is the published
    sequence term at index n + m; both are None for a secret that
    ``read_bulletin`` did not parse, and the accessors then raise BadIndex.
    """

    setup: DealSetup
    secret_hashes: tuple[str, ...]
    constants: tuple[tuple[int, ...], ...]
    offsets: tuple[tuple[tuple[int, ...], ...] | None, ...]
    extras: tuple[tuple[tuple[int, ...], ...] | None, ...]

    def threshold(self, i: int) -> int:
        _check_secret_index(self.setup.params, i)
        return self.setup.params.thresholds[i - 1]

    def ilr_spec(self, i: int) -> IlrSpec:
        return ilr_spec_for(self.setup.params, i, self.constants)

    def _parsed(self, values, i: int):
        if values[i - 1] is None:  # offsets or extras that read_bulletin left out
            raise BadIndex(f"secret {i}'s offsets and extras were not read from the bulletin")
        return values[i - 1]

    def offset_for(self, i: int, j: int) -> tuple[int, ...]:
        t_i = self.threshold(i)
        if not t_i <= j <= self.setup.params.n:
            raise BadIndex(f"no offset published for participant {j}")
        return self._parsed(self.offsets, i)[j - t_i]

    def extra_points(self, i: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Published samples (n+1, u_{n+1}), ..., beyond the participants."""
        _check_secret_index(self.setup.params, i)
        n = self.setup.params.n
        return tuple(
            (n + m, vec) for m, vec in enumerate(self._parsed(self.extras, i), start=1)
        )


def ilr_spec_for(
    params: SchemeParams, i: int, constants: Sequence[Sequence[int]]
) -> IlrSpec:
    """Recursion parameters for secret i under the chosen variant.

    ``constants`` are as a bulletin holds them: one vector per secret for
    s1/s2, one shared vector for s3/s4.  s1/s2 tie the recursion's t to the
    threshold with l = 1; s3/s4 fix t = 1 and tie l to the threshold,
    truncating the shared constant to its first t_i components.
    """
    _check_secret_index(params, i)
    t_i = params.thresholds[i - 1]
    if params.variant.shared_constant:
        constant, t, l = constants[0], 1, t_i
        if len(constant) < t_i:
            raise DimMismatch("shared constant shorter than the threshold")
    else:
        constant, t, l = constants[i - 1], t_i, 1
        if len(constant) != t_i:
            raise DimMismatch("constant length must equal the threshold")
    return IlrSpec(
        t=t,
        l=l,
        alternating=params.variant.alternating,
        c=tuple(constant[:t_i]),
        field=params.field(),
    )


def secret_hash(q: int, secret: Sequence[int]) -> str:
    """SHA-256 of the canonical encoding of (q, len, components).

    Components are fixed-width big-endian at the byte width of q, and the
    length is part of the encoding, so truncated candidates hash differently.
    """
    width = (q.bit_length() + 7) // 8
    h = hashlib.sha256()
    h.update(b"mss.secret.v1")
    qbytes = q.to_bytes(width, "big")
    h.update(len(qbytes).to_bytes(2, "big"))
    h.update(qbytes)
    h.update(len(secret).to_bytes(4, "big"))
    for value in secret:
        h.update((value % q).to_bytes(width, "big"))
    return h.hexdigest()


def setup(params: SchemeParams, rng) -> tuple[tuple[Share, ...], DealSetup]:
    """Sample shares, per-secret mask matrices, and the commitment matrix:
    the shares, and the ``DealSetup`` that binds them.

    Draw order (fixed for reproducibility): shares 1..n, then the seeds of
    mask matrices 1..k, then the commitment matrix's seed.
    """
    field = params.field()
    shares = tuple(
        Share(owner=j + 1, bits=bits)
        for j, bits in enumerate(sample_distinct_shares(params.n, params.r, rng))
    )
    rows = (*params.thresholds, params.max_threshold)  # G_1..G_k, then F
    *masks, commit = (sample_matrix_full_rank(field, t, params.r, rng) for t in rows)
    seeds, packed = zip(commit, *masks)  # F first, as DealSetup indexes them
    commitments = ajtai_hash_many(field, params.max_threshold, packed[0], shares)
    deal_setup = DealSetup(params, seeds, tuple(commitments))
    deal_setup.packed.update(enumerate(packed))
    return shares, deal_setup


def first_unbound(setup: DealSetup, shares: Sequence[Share]) -> Share | None:
    """The first share, in the order given, that F does not hash to its
    owner's commitment, or None.  Raises BadIndex for an owner past n."""
    for share in shares:
        if share.owner > setup.params.n:
            raise BadIndex(f"owner {share.owner} outside [1, {setup.params.n}]")
    hashes = setup.hash_shares(0, shares)
    return next((share for share, values in zip(shares, hashes)
                 if values != setup.commitments[share.owner - 1]), None)


def _validate_secrets(params: SchemeParams, secrets: Sequence[Sequence[int]]) -> None:
    if len(secrets) != params.k:
        raise ValueError(f"expected {params.k} secrets, got {len(secrets)}")
    for i, secret in enumerate(secrets, start=1):
        t_i = params.thresholds[i - 1]
        if len(secret) != t_i:
            raise ValueError(
                f"secret {i} must have {t_i} components, got {len(secret)}"
            )
        if any(type(x) is not int for x in secret):
            raise ValueError(f"secret {i} has components that are not ints")
        if any(not 0 <= x < params.q for x in secret):
            raise ValueError(f"secret {i} has components outside [0, q)")


def _draw_constants(params: SchemeParams, rng) -> tuple[tuple[int, ...], ...]:
    field = params.field()
    lengths = (params.max_threshold,) if params.variant.shared_constant else params.thresholds
    repeated = RngSuspect(f"{MAX_SHARE_RESAMPLES} repeated constant vectors in a row")
    return tuple(_distinct_draws(lambda t: field.rand_vec(rng, t), lengths, repeated))


def construct(
    setup: DealSetup,
    shares: Sequence[Share],
    secrets: Sequence[Sequence[int]],
    rng,
) -> Bulletin:
    """Build the public bulletin that hides the given secrets.

    ``shares`` are the ones ``setup`` commits to, ordered by owner.  Per
    secret i the sequence starts (S_i, d_1, ..., d_{t_i-1}) with
    d_j = G_i * sh_j, runs forward to index n plus the variant's extras, and
    publishes offsets u_j - d_j for j = t_i..n plus the extra terms.
    """
    params = setup.params
    _validate_secrets(params, secrets)
    if len(shares) != params.n:
        raise BadShares(f"expected {params.n} shares, got {len(shares)}")
    if [share.owner for share in shares] != list(range(1, params.n + 1)):
        raise BadShares("shares must be ordered by owner 1..n")
    if first_unbound(setup, shares) is not None:
        raise BadShares("shares are not the ones the setup commits to")
    field = params.field()
    constants = _draw_constants(params, rng)
    offsets = []
    extras = []
    hashes = []
    for i in range(1, params.k + 1):
        t_i = params.thresholds[i - 1]
        # shadows[j - 1] is owner j's, as the shares are ordered by owner
        shadows = setup.hash_shares(i, shares)
        spec = ilr_spec_for(params, i, constants)
        initial = [field.vec(secrets[i - 1])]
        initial.extend(shadows[: t_i - 1])
        e_i = params.variant.extras_count(t_i)
        seq = forward_extend(spec, initial, params.n + e_i)
        offsets.append(
            tuple(
                field.vec_sub(seq[j], shadows[j - 1])
                for j in range(t_i, params.n + 1)
            )
        )
        extras.append(seq[params.n + 1 :])
        hashes.append(secret_hash(params.q, secrets[i - 1]))
    return Bulletin(
        setup=setup,
        secret_hashes=tuple(hashes),
        constants=constants,
        offsets=tuple(offsets),
        extras=tuple(extras),
    )


def deal(
    params: SchemeParams, secrets: Sequence[Sequence[int]], rng
) -> tuple[tuple[Share, ...], Bulletin]:
    """Run setup and construction in one step.

    Raises ValueError for a malformed secret before any randomness is drawn.
    """
    _validate_secrets(params, secrets)
    shares, deal_setup = setup(params, rng)
    return shares, construct(deal_setup, shares, secrets, rng)


def compute_shadow(bulletin: Bulletin, i: int, share: Share) -> tuple[int, ...]:
    """Shadow d_j = G_i * sh_j of one participant for secret i."""
    _check_secret_index(bulletin.setup.params, i)
    (shadow,) = bulletin.setup.hash_shares(i, [share])
    return shadow


def _quorum(
    bulletin: Bulletin, i: int, group: Mapping[int, Sequence[int]], size: str | None = None
) -> list[tuple[int, Sequence[int]]]:
    """(index, vector) pairs of a group in index order, the vectors as given,
    after the one check of a group, in this order: the secret index (BadIndex);
    t_i members for size "recovery", 1 to t_i for "probe" (BadQuorum); int
    indices, then in ascending order each in [1, n] (BadIndex), its vector's
    length t_i (DimMismatch) and int entries, not bools (ValueError)."""
    t_i = bulletin.threshold(i)
    if size == "recovery" and len(group) != t_i:
        raise BadQuorum(f"need exactly {t_i} subshadows, got {len(group)}")
    if size == "probe" and not 1 <= len(group) <= t_i:
        raise BadQuorum(f"probe takes 1 to {t_i} subshadows, got {len(group)}")
    for j in group:
        if type(j) is not int:
            raise BadIndex(f"participant index {j!r} is not an int")
    n = bulletin.setup.params.n
    pairs = []
    for j in sorted(group):
        if not 1 <= j <= n:
            raise BadIndex(f"participant index {j} outside [1, {n}]")
        vec = group[j]
        if len(vec) != t_i:
            raise DimMismatch(f"vector for {j} has length {len(vec)}, want {t_i}")
        if any(type(x) is not int for x in vec):
            raise ValueError(f"vector for {j} has entries that are not ints")
        pairs.append((j, vec))
    return pairs


def assemble_subshadows(
    bulletin: Bulletin, i: int, shadows: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, ...]]:
    """Turn shadows into sequence terms, reduced mod q: add the published
    offset for j >= t_i.  The group is checked as a recovery checks one, of
    any size: BadIndex for a secret index, or a participant index that is not
    an int in [1, n], DimMismatch for a vector whose length is not t_i, and
    ValueError for one with an entry that is not an int.
    """
    t_i = bulletin.threshold(i)
    field = bulletin.setup.params.field()
    return {
        j: field.vec(vec) if j < t_i else field.vec_add(vec, bulletin.offset_for(i, j))
        for j, vec in _quorum(bulletin, i, shadows)
    }


def participant_subshadows(
    bulletin: Bulletin, i: int, shares: Iterable[Share]
) -> dict[int, tuple[int, ...]]:
    """Subshadows of secret i computed straight from a group's shares.

    All shadows come from one ``DealSetup.hash_shares`` call under G_i;
    they equal ``compute_shadow`` of each share.  Raises BadShares when two
    shares name one owner, then what ``assemble_subshadows`` raises.
    """
    _check_secret_index(bulletin.setup.params, i)
    shares = list(shares)
    if len({share.owner for share in shares}) != len(shares):
        raise BadShares("two shares name the same owner")
    hashes = bulletin.setup.hash_shares(i, shares)
    shadows = {share.owner: values for share, values in zip(shares, hashes)}
    return assemble_subshadows(bulletin, i, shadows)


def _quorum_columns(
    bulletin: Bulletin, i: int, pairs: Sequence[tuple[int, Sequence[int]]]
) -> tuple[IlrSpec, list[int], list[list[int]]]:
    """The spec of secret i, and the nodes and folded value columns of a
    group's samples: its already checked pairs, then the published extras.
    The samples pass fit_general_term's checks: ValueError unless there are
    len(pairs) + extras_count(t_i) of them, all of dimension t_i, and
    DuplicateNode for a repeated index."""
    samples = list(pairs) + list(bulletin.extra_points(i))
    count = len(pairs) + bulletin.setup.params.variant.extras_count(bulletin.threshold(i))
    spec = bulletin.ilr_spec(i)
    return spec, _checked_nodes(spec, samples, count), fold_columns(spec, samples)


def _solved_weights(field: PrimeField, nodes: Sequence[int]) -> tuple[int, ...]:
    """Weights z of distinct nodes at zero, from one solve V^T z = e_0 with V
    their square Vandermonde matrix: for the values y = V a of a polynomial
    with coefficients a, z^T y = (V^T z)^T a = a_0, its value at 0."""
    v = vandermonde(field, nodes, len(nodes))
    columns_of_v = Matrix.from_rows([v.column(c) for c in range(v.cols)])
    e_0 = (1,) + (0,) * (len(nodes) - 1)
    (weights,) = solve_linear(field, columns_of_v, [e_0]).particular
    return weights


def recover_way1_vandermonde(
    bulletin: Bulletin, i: int, subshadows: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """Recover secret i as the constant coefficient of the general term.

    Any t_i subshadows plus the published extras give exactly as many
    samples as the polynomial has coefficients.  One linear solve gives the
    quorum's weights at zero, and each secret component is the weighted sum
    of its samples.  The group is checked once, as assemble_subshadows checks
    one: BadIndex for a secret index out of range, BadQuorum unless exactly
    t_i subshadows are given, BadIndex for a participant index that is not
    an int in [1, n], DimMismatch for a subshadow whose length is not t_i,
    and ValueError for one with an entry that is not an int.
    """
    pairs = _quorum(bulletin, i, subshadows, "recovery")
    spec, nodes, columns = _quorum_columns(bulletin, i, pairs)
    return _weighted_sums(spec.field.q, _solved_weights(spec.field, nodes), columns)


def recover_way1_lagrange(
    bulletin: Bulletin, i: int, subshadows: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """Recover secret i by evaluating the interpolating polynomial at zero.

    The samples and weighted sums of recover_way1_vandermonde, with the
    weights from the Lagrange product formula; raises the same errors.
    """
    pairs = _quorum(bulletin, i, subshadows, "recovery")
    spec, nodes, columns = _quorum_columns(bulletin, i, pairs)
    return lagrange_at_zero(spec.field, nodes, columns)


def recover_way2(
    bulletin: Bulletin, i: int, subshadows: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """Recover secret i by walking the recursion backward to index 0.

    Requires t_i subshadows at consecutive participant indices; the
    published constant makes every backward step computable.  Raises the
    same errors as recover_way1_vandermonde, and NotConsecutive when the
    indices do not form one window.
    """
    group = _quorum(bulletin, i, subshadows, "recovery")
    start = group[0][0]
    if group[-1][0] - start != len(group) - 1:
        raise NotConsecutive("backward recovery needs consecutive participant indices")
    window = [vec for _, vec in group]
    recovered = backward_recover(bulletin.ilr_spec(i), window, start=start)
    return recovered[-1]


def verify_secret(bulletin: Bulletin, i: int, candidate: Sequence[int]) -> bool:
    """True iff the candidate equals the dealt secret i.

    The candidate must have t_i components, each an int reduced into
    [0, q), and hash to the published digest; a congruent but unreduced
    candidate such as (5 + q, 7) does not verify, nor does (5.0, 7.0).
    """
    t_i = bulletin.threshold(i)
    q = bulletin.setup.params.q
    if len(candidate) != t_i or any(type(x) is not int or not 0 <= x < q for x in candidate):
        return False
    return secret_hash(q, candidate) == bulletin.secret_hashes[i - 1]


@dataclass(frozen=True)
class ProbeResult:
    """What a sub-threshold group can pin down about one secret.

    a0_witnesses holds, per component, two values of the constant
    coefficient that are both consistent with everything the group sees;
    they differ whenever free_dims >= 1, i.e. the secret is undetermined.
    """

    rank: int
    free_dims: int
    a0_witnesses: tuple[tuple[int, int], ...]


def privacy_rank_probe(
    bulletin: Bulletin, i: int, subshadows: Mapping[int, Sequence[int]]
) -> ProbeResult:
    """Rank-analyze the interpolation system a given group can assemble.

    The samples are those the recoveries build (``_quorum_columns``), from
    the group's subshadows.  With t_i - 1 subshadows the per-component
    system has one more unknown than independent equations, so the constant
    coefficient (the secret component) stays free; with a full quorum it is
    pinned uniquely.  Raises BadQuorum unless 1 to t_i subshadows are
    given, and BadIndex, DimMismatch and ValueError as the recoveries do
    for a bad group or bad extras.
    """
    pairs = _quorum(bulletin, i, subshadows, "probe")
    spec, nodes, columns = _quorum_columns(bulletin, i, pairs)
    sol = solve_linear(spec.field, vandermonde(spec.field, nodes, spec.unknowns), columns)
    # with free dims, a nullspace vector moves A_0: the nullspace polynomial
    # vanishes at the sample points, all nonzero, so its value at 0 is not 0
    shift = next((v[0] for v in sol.nullspace if v[0] != 0), 0)
    witnesses = tuple((x[0], (x[0] + shift) % spec.field.q) for x in sol.particular)
    return ProbeResult(rank=sol.rank, free_dims=sol.free_dims, a0_witnesses=witnesses)
