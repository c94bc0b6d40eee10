"""Canonical serialization of bulletins, share files, and reports.

Everything is JSON with sorted keys and no insignificant whitespace, so
identical structures encode to identical bytes, and ``_document`` puts every
file under the envelope that ``_load_json`` checks.  Residues travel as
decimal strings because the default modulus exceeds the 53-bit range where
JSON numbers stay exact.  One writer, ``_strs``, turns residue arrays into
lists of decimal strings that ``_dump`` writes by ``join``, and one reader,
``_parse_nested``, checks them back against the shape the parameters give,
each vector or level of vectors in one byte scan and one JSON array read.
Share bits become hex by ``bytes.translate`` and ``int``, and bits again by
``rng._bits``, which the generator's bit vectors use too.  Decoding
re-validates every structural invariant and fails loudly on anything off,
except that ``read_bulletin`` checks only the shape of the offsets and
extras of a secret it is not asked to read.

This is the one module that knows bulletin formats.  Format 2, which
``deal`` writes, publishes each public matrix as the seed it expands from;
format 1 published the matrices, and is still read and written for a
``DealSetup`` that holds matrices.  Every other file is format 1.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

from .ajtai import Share
from .errors import (
    BadIndex,
    ParseError,
    UnsupportedVersion,
    ValidationError,
    WrongDeal,
)
from .field import Matrix
from .rng import _bits
from .scheme import Bulletin, DealSetup, SchemeParams, Variant

#: The format ``_document`` writes: that of every file but a bulletin, which
#: is written in the format its setup holds (see ``_setup_section``).
FORMAT_VERSION = 1

#: The keys under which each bulletin format publishes F and the G_i: as
#: matrices in format 1, as the seeds ``ajtai.expand_matrix`` expands in 2.
_MATRIX_KEYS = {1: ("commit_matrix", "mask_matrices"), 2: ("commit_seed", "mask_seeds")}

# Matched with fullmatch: "$" would also accept a value ending in "\n".
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_HEX = re.compile(r"[0-9a-f]+")
_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")

#: Share bits, the byte values 0 and 1, as the digits "0" and "1".
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class _Residues(list):
    """Decimal strings that need no JSON escaping: made only by ``_strs``
    from ints and by decode from strings it has checked to be canonical."""


def _is_digest(value) -> bool:
    return isinstance(value, str) and _HEX_DIGEST.fullmatch(value) is not None


def _dump(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` for the
    codec's str-keyed objects, with each residue array written by ``join``."""
    if isinstance(obj, _Residues):
        return '["' + '","'.join(obj) + '"]' if obj else "[]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _dump(obj[k]) for k in sorted(obj)) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(map(_dump, obj)) + "]"
    return json.dumps(obj)


def _canonical_bytes(obj) -> bytes:
    return (_dump(obj) + "\n").encode()


def _document(kind: str, **fields) -> bytes:
    """Any file of the codec: its fields under the envelope ``_load_json``
    checks, at FORMAT_VERSION unless the fields hold a format_version."""
    return _canonical_bytes({"format_version": FORMAT_VERSION, **fields, "kind": kind})


def _load_json(data: bytes | str, kind: str, versions=(FORMAT_VERSION,)) -> dict:
    """The document's top-level object, once the envelope checks out: UTF-8,
    JSON, an object, the expected kind, and a format_version in versions."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # also an integer past the interpreter's digit limit, or deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    if obj.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
    version = obj.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ParseError("format_version must be an integer")
    if version not in versions:
        raise UnsupportedVersion(f"unsupported format_version {version}")
    return obj


def _get(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    return obj[key]


def _parse_uint(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{what} must be a nonnegative integer")
    return value


def _parse_decimal(value, what: str) -> int:
    if not isinstance(value, str) or not _DECIMAL.fullmatch(value):
        raise ParseError(f"{what} must be a canonical decimal string")
    try:
        return int(value)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"{what} has too many digits ({len(value)})") from None


def _parse_residue(value, q: int, what: str) -> int:
    n = _parse_decimal(value, what)
    if n >= q:
        raise ValidationError(f"{what} is not reduced mod q")
    return n


def _array(value, length: int, what: str) -> list:
    """The value itself, once it is known to be a list of the given length."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array")
    if len(value) != length:
        raise ValidationError(f"{what} must have length {length}, got {len(value)}")
    return value


def _residues(strs: list, q: int) -> tuple[int, ...] | None:
    """The values of a nonempty list of strings, checked in one pass, or
    None unless all are canonical decimals below q.  Joined with commas,
    those hold no byte but digits and commas, and read as one JSON array
    of len(strs) values: JSON refuses an empty element and a leading zero,
    and an element holding a comma adds a value."""
    try:
        joined = ",".join(strs)  # TypeError on a non-string
        if not joined.encode().translate(None, b"0123456789,"):  # ValueError on a surrogate
            values = json.loads("[" + joined + "]")  # ValueError on bad syntax or past the digit limit
            if len(values) == len(strs) and max(values) < q:
                return tuple(values)
    except (TypeError, ValueError):
        pass
    return None


def _parse_nested(value, q: int, shape, what: str):
    """Residue arrays nested as ``shape`` says: an int is a vector's length,
    and a list holds the shape of each element in turn.  A vector or a level
    of vectors is checked by one ``_residues`` over all its strings; when
    that fails, the elements are parsed in turn, which raises the first error."""
    if isinstance(shape, int):
        arr = _array(value, shape, what)
        values = _residues(arr, q)
        return values if values is not None else tuple(_parse_residue(v, q, what) for v in arr)
    arr = _array(value, len(shape), what)
    if all(isinstance(s, int) for s in shape) and all(
        isinstance(v, list) and len(v) == s for v, s in zip(arr, shape)
    ):
        values = _residues(list(chain.from_iterable(arr)), q)
        if values is not None:
            return tuple(values[end - s : end] for s, end in zip(shape, accumulate(shape)))
    return tuple(
        _parse_nested(v, q, s, f"{what}[{i}]") for i, (v, s) in enumerate(zip(arr, shape))
    )


def _check_shape(value, shape, what: str) -> None:
    """The array checks of ``_parse_nested`` alone, with its errors."""
    if isinstance(shape, int):
        _array(value, shape, what)
    elif not all(isinstance(v, list) and len(v) == s
                 for v, s in zip(_array(value, len(shape), what), shape)):
        for i, (v, s) in enumerate(zip(value, shape)):
            _check_shape(v, s, f"{what}[{i}]")


def _strs(value):
    """Residue tuples at any depth as lists of decimal strings, and a
    Matrix as its rows/cols/data object; the decoders read them back."""
    if isinstance(value, Matrix):
        return {"rows": value.rows, "cols": value.cols, "data": _strs(value.data)}
    if value and isinstance(value[0], int):
        return _Residues([str(v) for v in value])
    return [_strs(v) for v in value]


def _parse_matrix(value, q: int, rows: int, cols: int, what: str) -> tuple[Matrix, dict]:
    """The matrix, and its ``_strs`` object rebuilt from the checked strings."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object")
    got_rows = _parse_uint(_get(value, "rows"), f"{what}.rows")
    got_cols = _parse_uint(_get(value, "cols"), f"{what}.cols")
    if got_rows != rows or got_cols != cols:
        raise ValidationError(f"{what} must be {rows}x{cols}, got {got_rows}x{got_cols}")
    raw = _get(value, "data")
    data = _parse_nested(raw, q, rows * cols, f"{what}.data")
    return Matrix(rows, cols, data), {"rows": rows, "cols": cols, "data": _Residues(raw)}


def _parse_seed(value, what: str) -> tuple[bytes, str]:
    """The seed, and the string it was read from."""
    if not _is_digest(value):
        raise ValidationError(f"{what} must be 64 lowercase hex digits")
    return bytes.fromhex(value), value


def _parse_public_matrices(obj: dict, params: SchemeParams, version: int):
    """The setup's matrices as ``DealSetup`` holds them, and the values its
    section holds for them, both F first, from the checked input: format 1's
    matrices, or format 2's seeds, which are not expanded here."""
    commit_key, masks_key = _MATRIX_KEYS[version]
    raw_masks = _array(_get(obj, masks_key), params.k, masks_key)
    if version == 1:
        q, r = params.q, params.r
        masks = [
            _parse_matrix(m, q, t, r, f"{masks_key}[{i}]")
            for i, (m, t) in enumerate(zip(raw_masks, params.thresholds))
        ]
        commit = _parse_matrix(_get(obj, commit_key), q, params.max_threshold, r, commit_key)
    else:
        masks = [_parse_seed(s, f"{masks_key}[{i}]") for i, s in enumerate(raw_masks)]
        commit = _parse_seed(_get(obj, commit_key), commit_key)
    matrices, values = zip(commit, *masks)
    return matrices, values


def _params_obj(params: SchemeParams) -> dict:
    return {
        "variant": params.variant.value,
        "n": params.n,
        "k": params.k,
        "thresholds": list(params.thresholds),
        "q": str(params.q),
        "r": params.r,
    }


def _parse_params(value) -> SchemeParams:
    if not isinstance(value, dict):
        raise ParseError("params must be an object")
    variant_raw = _get(value, "variant")
    try:
        variant = Variant(variant_raw)
    except ValueError as exc:
        raise ValidationError(f"unknown variant {variant_raw!r}") from exc
    n = _parse_uint(_get(value, "n"), "params.n")
    k = _parse_uint(_get(value, "k"), "params.k")
    thresholds = _array(_get(value, "thresholds"), k, "params.thresholds")
    t_list = tuple(_parse_uint(t, "threshold") for t in thresholds)
    q = _parse_decimal(_get(value, "q"), "params.q")
    r = _parse_uint(_get(value, "r"), "params.r")
    try:
        params = SchemeParams(variant=variant, n=n, k=k, thresholds=t_list, q=q, r=r)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return params


def _setup_obj(version: int, params: SchemeParams, values, commitments: list) -> dict:
    """The setup section of a bulletin format: a ``DealSetup`` with the values
    the format publishes for F and the G_i, F first, split under their keys,
    and its commitments as string lists.

    Encode and decode both build it here, so the digest that binds share
    files to a deal is taken over one layout.
    """
    commit_key, masks_key = _MATRIX_KEYS[version]
    commit, *masks = values
    return {
        "format_version": version,
        "params": _params_obj(params),
        masks_key: masks,
        commit_key: commit,
        "commitments": commitments,
    }


def _setup_section(setup: DealSetup) -> dict:
    """The section of the format the setup holds: 1 for matrices, 2 for seeds."""
    version = 1 if isinstance(setup.matrices[0], Matrix) else 2
    if any(isinstance(m, Matrix) != (version == 1) for m in setup.matrices):
        raise ValueError("a setup holds either every matrix or every seed")
    values = map(_strs if version == 1 else bytes.hex, setup.matrices)
    return _setup_obj(version, setup.params, values, _strs(setup.commitments))


def _digest(setup: dict) -> str:
    return hashlib.sha256(_canonical_bytes(setup)).hexdigest()


def deal_id(bulletin: Bulletin) -> str:
    """Digest binding shares to one deal: the hash of ``bulletin.setup``'s
    section, so no round field enters it."""
    return _digest(_setup_section(bulletin.setup))


def encode_bulletin(bulletin: Bulletin) -> tuple[bytes, str]:
    """The bulletin's bytes and its ``deal_id``, with the setup section
    turned into strings once for both; ``read_bulletin`` undoes it."""
    if None in bulletin.offsets + bulletin.extras:
        raise ValueError("a bulletin read without every secret's round values cannot be written")
    setup = _setup_section(bulletin.setup)
    rounds = {key: _strs(getattr(bulletin, key)) for key in ("constants", "offsets", "extras")}
    data = _document("bulletin", **setup, **rounds, secret_hashes=list(bulletin.secret_hashes))
    return data, _digest(setup)


def read_bulletin(data: bytes | str, secrets=None) -> tuple[Bulletin, str]:
    """The bulletin and its ``deal_id``, in one pass.

    Both bulletin formats are read; a format 2 seed is checked and kept,
    and ``DealSetup.hash_shares`` packs its columns when an op first hashes
    under it.
    The digest is hashed from the setup section rebuilt from the file's own
    residue and seed strings.  Decode has checked each to be ``str`` of its
    value, so the section equals ``_setup_section`` of ``bulletin.setup``;
    keys that decode ignores never reach it.

    ``secrets``, if given, is any iterable, read once, of the secrets whose
    offsets and extras are parsed, ignoring any int outside 1..k; an entry
    that is not an int raises BadIndex.  Every other secret's are checked
    for shape alone and read as None.  The rest is read in full.
    """
    if secrets is not None:
        secrets = tuple(secrets)
        for i in secrets:
            if type(i) is not int:  # True and 1.0 compare equal to 1
                raise BadIndex(f"secret index {i!r} is not an int")
    obj = _load_json(data, "bulletin", versions=tuple(_MATRIX_KEYS))
    version = obj["format_version"]
    params = _parse_params(_get(obj, "params"))
    q, n, k, ts = params.q, params.n, params.k, params.thresholds
    t_max = params.max_threshold
    matrices, values = _parse_public_matrices(obj, params, version)
    raw_commitments = _get(obj, "commitments")
    commitments = _parse_nested(raw_commitments, q, [t_max] * n, "commitments")
    raw_hashes = _array(_get(obj, "secret_hashes"), k, "secret_hashes")
    if not all(map(_is_digest, raw_hashes)):
        raise ValidationError("secret hash must be 64 lowercase hex digits")

    shapes = {
        "offsets": [[t] * (n - t + 1) for t in ts],
        "extras": [[t] * params.variant.extras_count(t) for t in ts],
    }
    constants = [t_max] if params.variant.shared_constant else list(ts)
    per_secret = {"constants": _parse_nested(_get(obj, "constants"), q, constants, "constants")}
    read = range(1, k + 1) if secrets is None else set(secrets)
    for key, shape in shapes.items():  # a secret read is parsed as the full read parses it
        per_secret[key] = tuple(
            _parse_nested(v, q, s, f"{key}[{i}]") if i + 1 in read
            else _check_shape(v, s, f"{key}[{i}]")
            for i, (v, s) in enumerate(zip(_array(_get(obj, key), k, key), shape))
        )

    deal_setup = DealSetup(params, matrices, commitments)
    bulletin = Bulletin(setup=deal_setup, secret_hashes=tuple(raw_hashes), **per_secret)
    setup = _setup_obj(version, params, values, list(map(_Residues, raw_commitments)))
    return bulletin, _digest(setup)


def decode_bulletin(data: bytes | str) -> Bulletin:
    return read_bulletin(data)[0]


@dataclass(frozen=True)
class ShareFile:
    """Decoded share file: the share plus its optional deal binding."""

    share: Share
    deal: str | None


def encode_share(share: Share, deal: str | None = None) -> bytes:
    if deal is not None and not _is_digest(deal):
        raise ValueError(f"deal {deal!r} is not a 64-digit hex digest")
    r = len(share.bits)
    value = int(bytes(share.bits).translate(_BIT_DIGITS), 2)
    bits = format(value, "x").zfill((r + 3) // 4)
    binding = {} if deal is None else {"deal": deal}
    return _document("share", owner=share.owner, r=r, bits=bits, **binding)


def decode_share(data: bytes | str) -> ShareFile:
    obj = _load_json(data, "share")
    owner = _parse_uint(_get(obj, "owner"), "owner")
    if owner < 1:
        raise ValidationError("owner index is 1-based")
    r = _parse_uint(_get(obj, "r"), "r")
    if r < 1:
        raise ValidationError("r must be positive")
    raw_bits = _get(obj, "bits")
    nibbles = (r + 3) // 4
    if not isinstance(raw_bits, str) or not _HEX.fullmatch(raw_bits):
        raise ParseError("bits must be a lowercase hex string")
    if len(raw_bits) != nibbles:
        raise ValidationError(f"bits must be {nibbles} hex digits for r={r}")
    value = int(raw_bits, 16)
    if value >> r:
        raise ValidationError("bit string longer than r")
    bits = _bits(value, r)
    deal = obj.get("deal")
    if deal is not None and not _is_digest(deal):
        raise ValidationError("deal must be a 64-digit hex digest")
    return ShareFile(share=Share(owner=owner, bits=bits), deal=deal)


def bind_share(share_file: ShareFile, deal: str) -> Share:
    """The share of a share file that names no deal or ``deal``, a bulletin's
    ``deal_id``, else WrongDeal; ``scheme.first_unbound`` checks the rest."""
    share = share_file.share
    if share_file.deal is not None and share_file.deal != deal:
        raise WrongDeal(f"share of owner {share.owner} belongs to another deal")
    return share


def encode_secrets(q: int, secrets: Sequence[Sequence[int]]) -> bytes:
    if not secrets or not all(secrets):  # decode_secrets reads no empty vector or list
        raise ValueError("secrets must be a nonempty list of nonempty vectors")
    for i, secret in enumerate(secrets, start=1):
        if any(type(x) is not int or not 0 <= x < q for x in secret):
            raise ValueError(f"secret {i} has components that are not ints in [0, q)")
    return _document("secrets", secrets=_strs(secrets))


def decode_secrets(data: bytes | str, q: int) -> tuple[tuple[int, ...], ...]:
    obj = _load_json(data, "secrets")
    raw = _get(obj, "secrets")
    if not isinstance(raw, list) or not raw:
        raise ParseError("secrets must be a nonempty array")
    out = []
    for i, vec in enumerate(raw):
        if not isinstance(vec, list) or not vec:
            raise ParseError(f"secrets[{i}] must be a nonempty array")
        out.append(_parse_nested(vec, q, len(vec), f"secrets[{i}]"))
    return tuple(out)


@dataclass(frozen=True)
class RecoveredFile:
    secret_index: int
    candidate: tuple[int, ...]
    verified: bool
    deal: str


def encode_recovered(
    secret_index: int, candidate: Sequence[int], verified: bool, deal: str
) -> bytes:
    """The recovery report, for values that ``decode_recovered`` reads back,
    else a ValueError."""
    if type(secret_index) is not int or secret_index < 1:
        raise ValueError(f"secret index {secret_index!r} is not an int of at least 1")
    if any(type(x) is not int or x < 0 for x in candidate):
        raise ValueError(f"candidate {candidate!r} has a component that is not an int >= 0")
    if not isinstance(verified, bool):
        raise ValueError(f"verified {verified!r} is not a boolean")
    if not _is_digest(deal):
        raise ValueError(f"deal {deal!r} is not a 64-digit hex digest")
    return _document(
        "recovered",
        secret_index=secret_index,
        candidate=_strs(candidate),
        verified=verified,
        deal=deal,
    )


def decode_recovered(data: bytes | str, q: int | None = None) -> RecoveredFile:
    """The recovery report.  Given the bulletin's q, every candidate
    component must be reduced into [0, q), else a ValidationError."""
    obj = _load_json(data, "recovered")
    index = _parse_uint(_get(obj, "secret_index"), "secret_index")
    if index < 1:
        raise ValidationError("secret_index is 1-based")
    raw = _get(obj, "candidate")
    if not isinstance(raw, list):
        raise ParseError("candidate must be an array")
    bound = math.inf if q is None else q  # no bulletin: no reduction check
    candidate = _parse_nested(raw, bound, len(raw), "candidate")
    verified = _get(obj, "verified")
    if not isinstance(verified, bool):
        raise ParseError("verified must be a boolean")
    deal = _get(obj, "deal")
    if not _is_digest(deal):
        raise ValidationError("deal must be a 64-digit hex digest")
    return RecoveredFile(
        secret_index=index, candidate=candidate, verified=verified, deal=deal
    )


def write_atomic(path: str, data: bytes, mode: int = 0o666) -> None:
    """Write a whole file via a temp name and rename, so a crashed process
    never leaves a partial file; without ``fsync`` a power loss still can.

    The temp file is created with ``mode`` less the umask, like ``open``,
    and renamed with it.  An OSError names ``path``, not the temp name,
    which differs per run; an empty path fails before any temp file exists.
    """
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, ".mss-tmp-" + os.urandom(8).hex())
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, mode)
        tmp = name
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise
