"""Canonical serialization of bulletins, share files, and reports.

Everything is JSON with sorted keys and no insignificant whitespace, so
identical structures always encode to identical bytes.  Residues travel as
decimal strings because the default modulus exceeds the 53-bit range where
JSON numbers stay exact.  Decoding re-validates every structural invariant
and fails loudly on anything off.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Sequence

from .ajtai import Share
from .errors import (
    ParseError,
    UnsupportedVersion,
    ValidationError,
    WrongDeal,
)
from .field import Matrix
from .scheme import Bulletin, SchemeParams, Variant

FORMAT_VERSION = 1

# Matched with fullmatch: "$" would also accept a value ending in "\n".
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_DECIMAL_ARRAY = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
_HEX = re.compile(r"[0-9a-f]+")
_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def _canonical_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _load_json(data: bytes | str) -> dict:
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
    return obj


def _expect_kind(obj: dict, kind: str) -> None:
    if obj.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
    version = obj.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ParseError("format_version must be an integer")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported format_version {version}")


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


def _parse_vector(value, q: int, length: int, what: str) -> tuple[int, ...]:
    """The array's residues, checked and converted in one pass.

    Joined with commas, an array of canonical decimals has exactly
    length - 1 commas and matches _DECIMAL_ARRAY.  When any check fails,
    the per-element loop runs instead, only to raise the first bad
    element's error; it accepts nothing the one-pass check rejects.
    """
    arr = _array(value, length, what)
    try:
        joined = ",".join(arr)  # TypeError on a non-string
        if joined.count(",") == length - 1 and _DECIMAL_ARRAY.fullmatch(joined):
            values = tuple(map(int, arr))  # ValueError past int's digit limit
            if max(values) < q:
                return values
    except (TypeError, ValueError):
        pass
    return tuple(_parse_residue(v, q, what) for v in arr)


def _matrix_obj(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": [str(v) for v in m.data]}


def _parse_matrix(value, q: int, rows: int, cols: int, what: str) -> tuple[Matrix, dict]:
    """The matrix, and its ``_matrix_obj`` rebuilt from the checked strings."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object")
    got_rows = _parse_uint(_get(value, "rows"), f"{what}.rows")
    got_cols = _parse_uint(_get(value, "cols"), f"{what}.cols")
    if got_rows != rows or got_cols != cols:
        raise ValidationError(
            f"{what} must be {rows}x{cols}, got {got_rows}x{got_cols}"
        )
    raw = _get(value, "data")
    data = _parse_vector(raw, q, rows * cols, f"{what}.data")
    return Matrix(rows, cols, data), {"rows": rows, "cols": cols, "data": raw}


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
        return SchemeParams(variant=variant, n=n, k=k, thresholds=t_list, q=q, r=r)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _setup_obj(
    params: SchemeParams, masks: list[dict], commit_matrix: dict, commitments: list
) -> dict:
    """The setup section, from matrix objects and commitment string lists.

    Encode and decode both build it here, so the digest that binds share
    files to a deal is taken over one layout.
    """
    return {
        "format_version": FORMAT_VERSION,
        "params": _params_obj(params),
        "mask_matrices": masks,
        "commit_matrix": commit_matrix,
        "commitments": commitments,
    }


def _setup_section(bulletin: Bulletin) -> dict:
    return _setup_obj(
        bulletin.params,
        [_matrix_obj(m) for m in bulletin.mask_matrices],
        _matrix_obj(bulletin.commit_matrix),
        [[str(v) for v in c] for c in bulletin.commitments],
    )


def _digest(setup: dict) -> str:
    return hashlib.sha256(_canonical_bytes(setup)).hexdigest()


def deal_id(bulletin: Bulletin) -> str:
    """Digest binding shares to one deal: the hash of the setup section."""
    return _digest(_setup_section(bulletin))


def encode_bulletin(bulletin: Bulletin) -> tuple[bytes, str]:
    """The bulletin's bytes and its ``deal_id``, with the setup section
    turned into strings once for both; ``read_bulletin`` undoes it."""
    setup = _setup_section(bulletin)
    return _canonical_bytes(_bulletin_obj(bulletin, setup)), _digest(setup)


def _bulletin_obj(bulletin: Bulletin, setup: dict) -> dict:
    """The whole bulletin as a JSON object, around its setup section."""
    obj = dict(setup)
    obj["kind"] = "bulletin"
    obj["secret_hashes"] = list(bulletin.secret_hashes)
    obj["constants"] = [[str(v) for v in c] for c in bulletin.constants]
    obj["offsets"] = [
        [[str(v) for v in vec] for vec in per_secret]
        for per_secret in bulletin.offsets
    ]
    obj["extras"] = [
        [[str(v) for v in vec] for vec in per_secret]
        for per_secret in bulletin.extras
    ]
    return obj


def _parse_per_secret(value, params: SchemeParams, count, what: str):
    """Per-secret lists of t_i-vectors, count(t_i) of them for secret i."""
    return tuple(
        tuple(
            _parse_vector(vec, params.q, t_i, f"{what}[{i}][{j}]")
            for j, vec in enumerate(_array(per_secret, count(t_i), f"{what}[{i}]"))
        )
        for i, (per_secret, t_i) in enumerate(
            zip(_array(value, params.k, what), params.thresholds)
        )
    )


def _decode_bulletin(data: bytes | str) -> tuple[Bulletin, dict]:
    """The bulletin, and its setup section rebuilt from the checked fields.

    The rebuilt section holds the file's own residue strings, which decode
    has checked to be canonical decimals, so each equals ``str`` of its
    value and the section equals ``_setup_section`` of the bulletin.  Keys
    that decode ignores never reach it.
    """
    obj = _load_json(data)
    _expect_kind(obj, "bulletin")
    params = _parse_params(_get(obj, "params"))
    q = params.q
    n, k = params.n, params.k
    t_max = params.max_threshold

    masks = [
        _parse_matrix(m, q, params.thresholds[i], params.r, f"mask_matrices[{i}]")
        for i, m in enumerate(_array(_get(obj, "mask_matrices"), k, "mask_matrices"))
    ]
    commit_matrix, commit_obj = _parse_matrix(
        _get(obj, "commit_matrix"), q, t_max, params.r, "commit_matrix"
    )
    raw_commitments = _array(_get(obj, "commitments"), n, "commitments")
    commitments = tuple(
        _parse_vector(c, q, t_max, f"commitments[{j}]")
        for j, c in enumerate(raw_commitments)
    )

    raw_hashes = _array(_get(obj, "secret_hashes"), k, "secret_hashes")
    for h in raw_hashes:
        if not isinstance(h, str) or not _HEX_DIGEST.fullmatch(h):
            raise ValidationError("secret hash must be 64 lowercase hex digits")

    dims = (t_max,) if params.variant.shared_constant else params.thresholds
    raw_constants = _array(_get(obj, "constants"), len(dims), "constants")
    constants = tuple(
        _parse_vector(c, q, dim, f"constants[{i}]")
        for i, (c, dim) in enumerate(zip(raw_constants, dims))
    )
    offsets = _parse_per_secret(
        _get(obj, "offsets"), params, lambda t_i: n - t_i + 1, "offsets"
    )
    extras = _parse_per_secret(
        _get(obj, "extras"), params, params.variant.extras_count, "extras"
    )

    bulletin = Bulletin(
        params=params,
        mask_matrices=tuple(m for m, _ in masks),
        commit_matrix=commit_matrix,
        commitments=commitments,
        secret_hashes=tuple(raw_hashes),
        constants=constants,
        offsets=offsets,
        extras=extras,
    )
    return bulletin, _setup_obj(
        params, [m_obj for _, m_obj in masks], commit_obj, raw_commitments
    )


def decode_bulletin(data: bytes | str) -> Bulletin:
    return _decode_bulletin(data)[0]


def read_bulletin(data: bytes | str) -> tuple[Bulletin, str]:
    """``decode_bulletin(data)`` and its ``deal_id``, in one pass.

    The digest is hashed from the residue strings decode has checked, not
    from the bulletin's values turned back into strings.
    """
    bulletin, setup = _decode_bulletin(data)
    return bulletin, _digest(setup)


@dataclass(frozen=True)
class ShareFile:
    """Decoded share file: the share plus its optional deal binding."""

    share: Share
    deal: str | None


def encode_share(share: Share, deal: str | None = None) -> bytes:
    r = len(share.bits)
    value = 0
    for bit in share.bits:
        value = (value << 1) | bit
    nibbles = (r + 3) // 4
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": "share",
        "owner": share.owner,
        "r": r,
        "bits": format(value, "x").zfill(nibbles),
    }
    if deal is not None:
        obj["deal"] = deal
    return _canonical_bytes(obj)


def decode_share(data: bytes | str) -> ShareFile:
    obj = _load_json(data)
    _expect_kind(obj, "share")
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
    bits = tuple((value >> (r - 1 - i)) & 1 for i in range(r))
    deal = obj.get("deal")
    if deal is not None and (not isinstance(deal, str) or not _HEX_DIGEST.fullmatch(deal)):
        raise ValidationError("deal must be a 64-digit hex digest")
    return ShareFile(share=Share(owner=owner, bits=bits), deal=deal)


def bind_share(share_file: ShareFile, bulletin: Bulletin, deal: str) -> Share:
    """Check a share file against a bulletin and return the share.

    ``deal`` is the bulletin's digest, ``deal_id(bulletin)``, computed once
    by the caller for all the share files it binds; a share file that names
    another deal raises WrongDeal.
    """
    params = bulletin.params
    share = share_file.share
    if share_file.deal is not None and share_file.deal != deal:
        raise WrongDeal(f"share of owner {share.owner} belongs to another deal")
    if len(share.bits) != params.r:
        raise ValidationError(
            f"share length {len(share.bits)} does not match the deal's r={params.r}"
        )
    if not 1 <= share.owner <= params.n:
        raise ValidationError(f"owner {share.owner} outside [1, {params.n}]")
    return share


def encode_secrets(q: int, secrets: Sequence[Sequence[int]]) -> bytes:
    return _canonical_bytes(
        {
            "format_version": FORMAT_VERSION,
            "kind": "secrets",
            "secrets": [[str(v % q) for v in vec] for vec in secrets],
        }
    )


def decode_secrets(data: bytes | str, q: int) -> tuple[tuple[int, ...], ...]:
    obj = _load_json(data)
    _expect_kind(obj, "secrets")
    raw = _get(obj, "secrets")
    if not isinstance(raw, list) or not raw:
        raise ParseError("secrets must be a nonempty array")
    out = []
    for i, vec in enumerate(raw):
        if not isinstance(vec, list) or not vec:
            raise ParseError(f"secrets[{i}] must be a nonempty array")
        out.append(tuple(_parse_residue(v, q, f"secrets[{i}]") for v in vec))
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
    return _canonical_bytes(
        {
            "format_version": FORMAT_VERSION,
            "kind": "recovered",
            "secret_index": secret_index,
            "candidate": [str(v) for v in candidate],
            "verified": verified,
            "deal": deal,
        }
    )


def decode_recovered(data: bytes | str) -> RecoveredFile:
    obj = _load_json(data)
    _expect_kind(obj, "recovered")
    index = _parse_uint(_get(obj, "secret_index"), "secret_index")
    if index < 1:
        raise ValidationError("secret_index is 1-based")
    raw = _get(obj, "candidate")
    if not isinstance(raw, list):
        raise ParseError("candidate must be an array")
    candidate = tuple(_parse_decimal(v, "candidate") for v in raw)
    verified = _get(obj, "verified")
    if not isinstance(verified, bool):
        raise ParseError("verified must be a boolean")
    deal = _get(obj, "deal")
    if not isinstance(deal, str) or not _HEX_DIGEST.fullmatch(deal):
        raise ValidationError("deal must be a 64-digit hex digest")
    return RecoveredFile(
        secret_index=index, candidate=candidate, verified=verified, deal=deal
    )


def write_atomic(path: str, data: bytes) -> None:
    """Write a whole file via a temp name and rename, never leaving partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mss-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
