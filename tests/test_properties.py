"""Property tests over random deals (Hypothesis).

For a random variant, modulus, participant count n <= 12, thresholds,
secrets and DRBG seed, every recovery path returns the dealt secret exactly
from a random quorum, also when the caller moves each of the quorum's
entries by a multiple of q, and decoding an encoded bulletin gives it back.
``first_unbound`` returns the first share, of any shares of a seeded deal
in any order with up to two of them tampered, that ``verify_commitment``
refuses against its owner's commitment.
The weights at zero that one linear solve gives a node set turn any
samples into the constant coefficients that ``fit_general_term`` fits, and
the Vandermonde recovery of any bulletin's quorum equals those.
``SchemeParams`` refuses a field that is a bool or a float, and what it
accepts deals a bulletin that reads back with equal params and its
``deal_id``.  ``read_bulletin`` gives ``deal_id`` of the decoded bulletin
even for a file with unknown keys, indentation and shuffled key order.  The
bulletin's one-pass residue-array parser agrees with a per-element reference
parser on hostile arrays and on levels of them, errors included, and its
writer gives the bytes of ``json.dumps`` with sorted keys.  One hostile
element anywhere in a bulletin's round arrays gives a read of some
secrets the full read's outcome, unless it lies in a secret not read.  The
generator's byte stream is SHA-256 in counter mode however it is split,
a negative length is refused before the stream moves, and a batch draw
gives the values, and leaves the stream, of the single draws it replaces;
a bit vector is the bits of one draw.  A seed's ``Xof`` stream is its
SHAKE-256 output however it is split, and batch draws from it equal single
draws too.  Share files and reports
with any JSON value in any header field decode or raise an ``MssError``.
Examples are derived from the test itself (derandomized), so every run
checks the same inputs.
"""

import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mss.ajtai import Share, expand_matrix, verify_commitment
from mss.bulletin import (
    _Residues,
    _canonical_bytes,
    _parse_nested,
    _setup_section,
    _strs,
    deal_id,
    decode_bulletin,
    decode_recovered,
    decode_share,
    encode_bulletin,
    encode_share,
    read_bulletin,
)
from mss.errors import MssError, ParseError, ValidationError
from mss.field import Matrix, PrimeField, _weighted_sums, lagrange_at_zero
from mss.ilr import IlrSpec, fit_general_term, fold_columns
from mss.rng import Drbg, Xof
from mss.scheme import (
    Bulletin,
    DealSetup,
    SchemeParams,
    Variant,
    _solved_weights,
    assemble_subshadows,
    compute_shadow,
    deal,
    first_unbound,
    participant_subshadows,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
)
from test_bulletin import (
    PARTIAL_READS,
    TOO_LONG,
    is_read,
    mutate,
    narrowed_full_read,
    needs_digit_limit,
    partial_deal,
    read_outcome,
)

MODULI = (97, (1 << 61) - 1)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: At least the example counts the differential properties were written
#: with, and more under a profile that asks for more.
DIFFERENTIAL = settings(
    max_examples=max(300, settings.default.max_examples),
    deadline=None, derandomize=True, database=None,
)


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
    n = board.setup.params.n
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
@given(dealt=deals(), data=st.data())
def test_entries_moved_by_multiples_of_q_recover_alike(dealt, data):
    """A group built by the caller, with each entry moved by a multiple of
    q of either sign, assembles and recovers as its residues do."""
    secrets, shares, board = dealt
    n, q = board.setup.params.n, board.setup.params.q

    def moved(vectors):
        return {
            j: tuple(v + q * m for v, m in zip(vec, data.draw(
                st.lists(st.integers(-3, 3), min_size=len(vec), max_size=len(vec)))))
            for j, vec in vectors.items()
        }

    for i, secret in enumerate(secrets, start=1):
        t_i = board.threshold(i)
        owners = data.draw(st.lists(st.integers(1, n), min_size=t_i, max_size=t_i, unique=True))
        shadows = {j: compute_shadow(board, i, shares[j - 1]) for j in owners}
        quorum = assemble_subshadows(board, i, shadows)
        assert assemble_subshadows(board, i, moved(shadows)) == quorum
        assert recover_way1_vandermonde(board, i, moved(quorum)) == secret
        assert recover_way1_lagrange(board, i, moved(quorum)) == secret
        start = data.draw(st.integers(1, n - t_i + 1))
        window = participant_subshadows(board, i, shares[start - 1 : start - 1 + t_i])
        assert recover_way2(board, i, moved(window)) == secret


@functools.cache
def seeded_deal(variant, q):
    """(shares, setup) of one seeded n = 8 deal."""
    params = SchemeParams(variant=variant, n=8, k=2, thresholds=(3, 5), q=q)
    shares, board = deal(params, [(1, 2, 3), (4, 5, 6, 7, 8)], Drbg(f"unbound-{variant}-{q}"))
    return shares, board.setup


@st.composite
def pooled_shares(draw):
    """A setup and one or more of its shares in random order, with one bit
    flipped in up to two of them."""
    shares, setup = seeded_deal(
        draw(st.sampled_from(list(Variant))), draw(st.sampled_from(MODULI))
    )
    owners = draw(
        st.lists(st.integers(1, len(shares)), min_size=1, max_size=len(shares), unique=True)
    )
    given = [shares[j - 1] for j in owners]
    flipped = draw(st.lists(st.sampled_from(range(len(given))), max_size=2, unique=True))
    for at in flipped:
        bits = list(given[at].bits)
        bits[draw(st.integers(0, len(bits) - 1))] ^= 1
        given[at] = Share(owner=given[at].owner, bits=tuple(bits))
    return setup, given


@settings(
    max_examples=max(200, settings.default.max_examples),
    deadline=None, derandomize=True, database=None,
)
@given(pooled_shares())
def test_first_unbound_is_the_first_share_failing_its_commitment(case):
    setup, given = case
    field = setup.params.field()
    f = expand_matrix(field, setup.params.max_threshold, setup.params.r, setup.matrices[0])

    def reference(shares):
        return next((share for share in shares if not verify_commitment(
            field, f, share, setup.commitments[share.owner - 1]
        )), None)

    # one share goes through the per-row hash, two or more through packed columns
    assert first_unbound(setup, given) is reference(given)
    for share in given:
        assert first_unbound(setup, [share]) is reference([share])


def residue_vectors(q, dim, count):
    return st.lists(
        st.tuples(*[st.integers(0, q - 1)] * dim), min_size=count, max_size=count
    )


@st.composite
def fitted_systems(draw):
    """A plain or alternating spec with t + 2l in [2, 40] unknowns, and that
    many samples at distinct nonzero nodes."""
    q = draw(st.sampled_from(MODULI))
    size = draw(st.integers(2, 40))
    l = draw(st.integers(0, min(size // 2, size - 2)))  # t + l >= 2
    dim = draw(st.integers(1, 3))
    spec = IlrSpec(
        t=size - 2 * l,
        l=l,
        alternating=draw(st.booleans()),
        c=draw(residue_vectors(q, dim, 1))[0],
        field=PrimeField(q),
    )
    nodes = draw(st.lists(st.integers(1, q - 1), min_size=size, max_size=size, unique=True))
    return spec, list(zip(nodes, draw(residue_vectors(q, dim, size))))


@PROPERTY
@given(fitted_systems())
def test_solved_weights_give_the_fitted_constant_coefficients(system):
    spec, samples = system
    weights = _solved_weights(spec.field, [x for x, _ in samples])
    got = _weighted_sums(spec.field.q, weights, fold_columns(spec, samples))
    assert got == tuple(coeffs[0] for coeffs in fit_general_term(spec, samples))


def per_node_weights(field, nodes):
    """Oracle: the weights at zero of distinct nonzero nodes, one inversion
    per node, w_j = prod_{i != j} x_i / (x_i - x_j)."""
    q = field.q
    xs = [x % q for x in nodes]
    weights = []
    for j, xj in enumerate(xs):
        num = den = 1
        for i, xi in enumerate(xs):
            if i != j:
                num = num * xi % q
                den = den * (xi - xj) % q
        weights.append(num * field.inv(den) % q)
    return tuple(weights)


@st.composite
def scheme_nodes(draw):
    """A random quorum of 1..n in random order, then the extras n+1..n+e."""
    q = draw(st.sampled_from(MODULI))
    n = draw(st.integers(1, 30))
    quorum = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return q, quorum + list(range(n + 1, n + 1 + draw(st.integers(0, 10))))


@st.composite
def wide_residues(draw):
    """Distinct 61-bit residues."""
    q = (1 << 61) - 1
    return q, draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=40, unique=True))


@st.composite
def nodes_past_q(draw):
    """Nodes at or above a small q, distinct and nonzero mod q."""
    q = draw(st.sampled_from([2, 3, 97]))
    residues = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=min(q - 1, 40), unique=True))
    return q, [x + q * draw(st.integers(1, 2**64)) for x in residues]


@DIFFERENTIAL
@given(
    fitted_systems().map(lambda system: (system[0].field.q, [x for x, _ in system[1]]))
    | scheme_nodes() | wide_residues() | nodes_past_q()
)
def test_lagrange_weights_are_the_solved_and_per_node_weights(case):
    q, nodes = case
    field = PrimeField(q)
    units = [[int(i == j) for i in range(len(nodes))] for j in range(len(nodes))]
    weights = lagrange_at_zero(field, nodes, units)
    assert weights == per_node_weights(field, nodes) == _solved_weights(field, nodes)


@st.composite
def hand_built_quorums(draw):
    """A bulletin of one secret with random constants and extras, whose
    general term has 4 to 40 unknowns (the fewest a deal has is 4), and a
    random quorum of random subshadows."""
    q = draw(st.sampled_from(MODULI))
    variant = draw(st.sampled_from(list(Variant)))
    t = draw(st.integers(2, 19 if variant.shared_constant else 38))
    n = draw(st.integers(t, 90 - t))  # q = 97 must exceed n + t + 1
    params = SchemeParams(variant=variant, n=n, k=1, thresholds=(t,), q=q, r=1)
    owners = draw(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True))
    board = Bulletin(
        setup=DealSetup(params, matrices=(), commitments=()),
        secret_hashes=("",),
        constants=(draw(residue_vectors(q, t, 1))[0],),
        offsets=((),),
        extras=(tuple(draw(residue_vectors(q, t, variant.extras_count(t)))),),
    )
    return board, dict(zip(owners, draw(residue_vectors(q, t, t))))


@PROPERTY
@given(hand_built_quorums())
def test_vandermonde_recovery_is_the_fitted_constant_coefficient(case):
    board, quorum = case
    samples = sorted(quorum.items()) + list(board.extra_points(1))
    fitted = tuple(coeffs[0] for coeffs in fit_general_term(board.ilr_spec(1), samples))
    assert recover_way1_vandermonde(board, 1, quorum) == fitted
    assert recover_way1_lagrange(board, 1, quorum) == fitted


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


def loosely_typed(value):
    """The int value itself, or the bool or the float equal to it."""
    return st.sampled_from((value, bool(value), float(value)))


@PROPERTY
@given(data=st.data())
def test_params_are_ints_or_refused(data):
    """Each field an int, a bool or a float: ``SchemeParams`` raises
    ValueError, or its deal reads back with equal params and its deal_id."""
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, 2))
    thresholds = data.draw(st.lists(st.integers(2, n), min_size=k, max_size=k))
    r = data.draw(st.sampled_from((None, 1, 16)))
    try:
        params = SchemeParams(
            variant=data.draw(st.sampled_from(list(Variant))),
            n=data.draw(loosely_typed(n)),
            k=data.draw(loosely_typed(k)),
            thresholds=[data.draw(loosely_typed(t)) for t in thresholds],
            q=data.draw(loosely_typed(97)),
            r=None if r is None else data.draw(loosely_typed(r)),
        )
    except ValueError:
        return
    _, board = deal(params, [(0,) * t for t in params.thresholds], Drbg(0))
    decoded, digest = read_bulletin(encode_bulletin(board)[0])
    assert (decoded.setup.params, digest) == (params, deal_id(board))


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
        try:
            value = int(v)
        except ValueError:  # past the interpreter's integer-string digit limit
            raise ParseError(f"{what} has too many digits ({len(v)})") from None
        if value >= q:
            raise ValidationError(f"{what} is not reduced mod q")
        out.append(value)
    return tuple(out)


def outcome(parse, *args):
    try:
        return parse(*args)
    except MssError as exc:
        return type(exc), str(exc)


#: Elements that are, or nearly are, JSON values other than a canonical
#: unsigned integer: the array parser reads a level as one JSON array.
JSON_SYNTAX = (
    " 1", "1 ", "-0", "-1", "+1", "1e3", "1E3", "1.0", "00", "01", "0x1",
    "true", "null", "NaN", "Infinity", "[1]", "1]", "[1", '"1"',
)


def hostile_elements(q):
    """Array elements that are not canonical residues below q, and some
    that just are.  ``int`` accepts "1_0", a lone surrogate cannot be
    encoded to bytes, and JSON reads its own number syntax."""
    affix = st.sampled_from(["0", ",", "\n", " ", "-", "+", "_", "\u0663", "\ud800"])
    number = st.integers(0, q).map(str)
    return st.one_of(
        st.builds(str.__add__, affix, number),
        st.builds(str.__add__, number, affix),
        st.builds(lambda a, sep, b: a + sep + b, number, affix, number),
        st.text(alphabet="0123456789,\n -+_\u0663\ud800", max_size=4),
        st.sampled_from([str(q), str(q + 1), "007", ""]),
        st.sampled_from(JSON_SYNTAX),
        st.integers(),
        st.none(),
    )


@st.composite
def residue_arrays(draw):
    """(q, array): canonical residues with one or two hostile elements."""
    q = draw(st.sampled_from(MODULI))
    arr = draw(st.lists(st.integers(0, q - 1).map(str), min_size=1, max_size=8))
    for _ in range(draw(st.integers(1, 2))):
        arr[draw(st.integers(0, len(arr) - 1))] = draw(hostile_elements(q))
    return q, arr


@DIFFERENTIAL
@given(case=residue_arrays())
def test_vector_parser_matches_per_element_reference(case):
    q, arr = case
    assert outcome(_parse_nested, arr, q, len(arr), "v") == outcome(
        reference_vector, arr, q, "v"
    )


def reference_level(value, q, shape, what):
    """Parse a list of residue arrays one array at a time."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array")
    if len(value) != len(shape):
        raise ValidationError(f"{what} must have length {len(shape)}, got {len(value)}")
    out = []
    for i, (vec, length) in enumerate(zip(value, shape)):
        if not isinstance(vec, list):
            raise ParseError(f"{what}[{i}] must be an array")
        if len(vec) != length:
            raise ValidationError(f"{what}[{i}] must have length {length}, got {len(vec)}")
        out.append(reference_vector(vec, q, f"{what}[{i}]"))
    return tuple(out)


@st.composite
def residue_levels(draw):
    """(q, shape, level): canonical residue arrays of the given lengths,
    with up to three faults: a hostile element anywhere, a child that is
    not a list, or a child one too short or too long."""
    q = draw(st.sampled_from(MODULI))
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    level = [
        draw(st.lists(st.integers(0, q - 1).map(str), min_size=length, max_size=length))
        for length in shape
    ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(level) - 1))
        fault = draw(st.sampled_from(["element", "element", "not a list", "short", "long"]))
        if fault == "not a list":
            level[i] = draw(st.none() | st.integers() | st.text(max_size=3) | st.just({}))
        elif not isinstance(level[i], list):
            continue
        elif fault == "element" and level[i]:
            level[i][draw(st.integers(0, len(level[i]) - 1))] = draw(hostile_elements(q))
        elif fault == "short":
            level[i] = level[i][:-1]
        elif fault == "long":
            level[i] = level[i] + [draw(st.integers(0, q - 1).map(str))]
    return q, shape, level


@DIFFERENTIAL
@given(case=residue_levels())
def test_level_parser_matches_per_vector_reference(case):
    q, shape, level = case
    assert outcome(_parse_nested, level, q, shape, "v") == outcome(
        reference_level, level, q, shape, "v"
    )


@st.composite
def round_faults(draw):
    """(blob, faulty, secret): a k = 3 deal's bytes, and those bytes with
    one hostile element anywhere in the constants, offsets or extras;
    secret is the 1-based secret whose offsets or extras hold it, else None."""
    q = draw(st.sampled_from(MODULI))
    _, board, blob = partial_deal(draw(st.sampled_from(list(Variant))), draw(st.booleans()), q)
    key = draw(st.sampled_from(["constants", "offsets", "extras"]))
    path, vectors = [key], getattr(board, key)
    if key != "constants":
        path.append(draw(st.integers(0, 2)))
        vectors = vectors[path[-1]]
    path.append(draw(st.integers(0, len(vectors) - 1)))
    path.append(draw(st.integers(0, len(vectors[path[-1]]) - 1)))
    faulty = mutate(board, path, draw(hostile_elements(q)))
    return blob, faulty, None if key == "constants" else path[1] + 1


@DIFFERENTIAL
@given(case=round_faults())
def test_one_fault_reads_as_in_the_full_read_unless_in_a_secret_not_read(case):
    blob, faulty, secret = case
    for secrets in PARTIAL_READS:
        unread_fault = secret is not None and not is_read(secrets, secret)
        expected = narrowed_full_read(blob if unread_fault else faulty, secrets)
        assert read_outcome(faulty, secrets) == expected


@pytest.mark.parametrize(
    "element", [*JSON_SYNTAX, pytest.param(TOO_LONG, id="past-digit-limit", marks=needs_digit_limit)]
)
@pytest.mark.parametrize("q", MODULI)
def test_json_syntax_elements_give_the_reference_error(element, q):
    for at in range(3):
        arr = ["1", "2", "3"]
        arr[at] = element
        assert outcome(_parse_nested, arr, q, 3, "v") == outcome(reference_vector, arr, q, "v")
        level = [["4"], arr, ["5", "6"]]
        assert outcome(_parse_nested, level, q, [1, 3, 2], "v") == outcome(
            reference_level, level, q, [1, 3, 2], "v"
        )


def test_first_bad_element_decides_the_error():
    assert outcome(_parse_nested, ["97", "03"], 97, 2, "v") == (
        ValidationError, "v is not reduced mod q"
    )
    assert outcome(_parse_nested, ["03", "97"], 97, 2, "v") == (
        ParseError, "v must be a canonical decimal string"
    )


#: Any JSON value, non-finite floats included.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

#: Residue tuples at any depth, and matrices, as ``_strs`` writes them.
#: Decode marks the strings it has checked the same way, empty arrays included.
RESIDUE_STRS = st.one_of(
    st.recursive(
        st.lists(st.integers(0, 2**80), max_size=4).map(tuple),
        lambda inner: st.lists(inner, max_size=3).map(tuple),
        max_leaves=5,
    ).map(_strs),
    st.builds(
        lambda rows, cols, data: _strs(Matrix(rows, cols, tuple(data[: rows * cols]))),
        st.integers(1, 3), st.integers(1, 3), st.lists(st.integers(0, 2**64), min_size=9, max_size=9),
    ),
    st.lists(st.integers(0, 2**64).map(str), max_size=3).map(_Residues),
)

#: Strings that JSON must escape: quote, backslash, control characters,
#: non-ASCII and a lone surrogate.
ESCAPED = st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a0,', max_size=5)


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


@DIFFERENTIAL
@given(
    obj=st.recursive(
        RESIDUE_STRS | ANY_JSON | st.lists(ESCAPED, max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ESCAPED, inner, max_size=3),
        max_leaves=6,
    )
)
def test_canonical_bytes_is_sorted_compact_json(obj):
    assert _canonical_bytes(obj) == canonical_json(obj)


@PROPERTY
@given(dealt=deals())
def test_setup_sections_write_as_sorted_compact_json(dealt):
    _, _, board = dealt
    setup = _setup_section(board.setup)
    assert _canonical_bytes(setup) == canonical_json(setup)
    # read_bulletin hashes the section it rebuilds from the file's strings
    digest = read_bulletin(encode_bulletin(board)[0])[1]
    assert digest == hashlib.sha256(canonical_json(setup)).hexdigest()


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

#: Bounds of one candidate byte (1, 2, 97), three, five, seven, eight
#: (2^61 - 1), nine, ten and twenty: narrower than a word, one word, and
#: joined from two or three.  About half the candidates are rejected for
#: every bound of the form 2^m + 1 and for 1 and 2, a quarter for 97 and
#: almost none for 2^61 - 1.
BOUNDS = (
    1, 2, 97, (1 << 17) + 1, (1 << 33) + 1, (1 << 55) + 1, (1 << 61) - 1,
    (1 << 64) + 1, (1 << 73) + 1, (1 << 159) + 1,
)


@PROPERTY
@given(seed=st.integers(0, 2**64), splits=SPLITS)
def test_randbytes_is_one_counter_mode_stream(seed, splits):
    rng = Drbg(seed)
    drawn = b"".join(rng.randbytes(size) for size in splits)
    assert drawn == reference_stream(seed, sum(splits))


@given(seed=st.binary(min_size=32, max_size=32), splits=SPLITS)
def test_xof_is_one_shake_stream(seed, splits):
    stream = Xof(seed)
    drawn = b"".join(stream.randbytes(size) for size in splits)
    assert drawn == hashlib.shake_256(seed).digest(sum(splits))


@given(seed=st.binary(min_size=32, max_size=32), n=st.sampled_from(BOUNDS),
       count=st.integers(0, 70))
def test_xof_batch_draw_equals_single_draws(seed, n, count):
    batch, single = Xof(seed), Xof(seed)
    assert batch.randbelow_many(n, count) == tuple(single.randbelow(n) for _ in range(count))
    assert batch.randbytes(32) == single.randbytes(32)


@settings(
    max_examples=max(200, settings.default.max_examples),
    deadline=None, derandomize=True, database=None,
)
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


@pytest.mark.parametrize("count", [-1, -3])
def test_randbelow_many_rejects_negative_counts_before_drawing(count):
    rng = Drbg(1)
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        rng.randbelow_many(97, count)
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        PrimeField(97).rand_vec(rng, count)
    assert rng.randbytes(32) == Drbg(1).randbytes(32)


@pytest.mark.parametrize("n", [-1, -3])
def test_randbytes_rejects_negative_lengths_before_drawing(n):
    rng = Drbg(1)
    with pytest.raises(ValueError, match="^number of bytes must be nonnegative$"):
        rng.randbytes(n)
    assert rng.randbytes(0) == b""
    assert rng.randbytes(32) == Drbg(1).randbytes(32)


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (-1, ValueError, "seed must be nonnegative"),
        (1.5, TypeError, "unsupported seed type: float"),
        (True, TypeError, "unsupported seed type: bool"),
        (False, TypeError, "unsupported seed type: bool"),
        (b"seed", TypeError, "unsupported seed type: bytes"),
    ],
)
def test_drbg_refuses_bad_seeds(seed, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Drbg(seed)


def test_getrandbits_refuses_zero_bits():
    with pytest.raises(ValueError, match="^number of bits must be positive$"):
        Drbg(1).getrandbits(0)


def test_bit_vector_is_the_bits_of_one_draw():
    for r in range(1, 301):
        rng, twin = Drbg(r), Drbg(r)
        bits = rng.bit_vector(r)
        value = twin.getrandbits(r)
        assert bits == tuple((value >> (r - 1 - i)) & 1 for i in range(r))
        assert set(map(type, bits)) == {int}
        assert rng.randbytes(32) == twin.randbytes(32)
