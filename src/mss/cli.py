"""Command-line front end: deal, verify, recover, counts, bench.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or
validation error.  With --seed (or the MSS_SEED environment variable) all
non-timing output is reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from . import bulletin as bio
from .counts import FIGURE1_TUPLES, SCHEME_LABELS, counts_csv, public_value_counts
from .errors import MssError, WrongDeal
from .field import DEFAULT_PRIME
from .rng import Drbg
from .scheme import (
    SchemeParams,
    Variant,
    construct,
    deal,
    participant_subshadows,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    setup,
    verify_secret,
)
from .ajtai import ajtai_hash_many, verify_commitment

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _seed_for(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MSS_SEED")
    return int(env) if env is not None else None


def _rng_for(args) -> Drbg:
    return Drbg(_seed_for(args))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma list of integers")


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def cmd_deal(args) -> int:
    params = SchemeParams(
        variant=Variant(args.variant),
        n=args.n,
        k=args.k,
        thresholds=args.thresholds,
        q=int(args.q),
    )
    secrets = bio.decode_secrets(_read(args.secrets), params.q)
    shares, board = deal(params, secrets, _rng_for(args))
    board_bytes, deal_digest = bio.encode_bulletin(board)

    os.makedirs(args.out_dir, exist_ok=True)
    outputs = [(os.path.join(args.out_dir, "bulletin.json"), board_bytes)]
    for share in shares:
        outputs.append(
            (
                os.path.join(args.out_dir, f"share_{share.owner}.json"),
                bio.encode_share(share, deal=deal_digest),
            )
        )
    for path, data in outputs:
        bio.write_atomic(path, data)

    n_offsets = sum(len(per_secret) for per_secret in board.offsets)
    n_extras = sum(len(per_secret) for per_secret in board.extras)
    total = (
        params.k  # mask matrices
        + 1  # commitment matrix
        + params.n  # commitments
        + params.k  # secret hashes
        + len(board.constants)
        + n_offsets
        + n_extras
    )
    print(f"deal {deal_digest[:16]} written to {args.out_dir}")
    print(
        "public values: "
        f"matrices={params.k + 1} commitments={params.n} hashes={params.k} "
        f"constants={len(board.constants)} offsets={n_offsets} extras={n_extras} "
        f"total={total}"
    )
    return EXIT_OK


def cmd_verify_share(args) -> int:
    board, digest = bio.read_bulletin(_read(args.bulletin))
    share_file = bio.decode_share(_read(args.share))
    share = bio.bind_share(share_file, board, digest)
    field = board.params.field()
    commitment = board.commitments[share.owner - 1]
    if verify_commitment(field, board.commit_matrix, share, commitment):
        print(f"share {share.owner}: OK")
        return EXIT_OK
    print(f"share {share.owner}: FAIL", file=sys.stderr)
    return EXIT_VERIFY_FAILED


_METHODS = {
    "vandermonde": recover_way1_vandermonde,
    "lagrange": recover_way1_lagrange,
    "backward": recover_way2,
}


def _quorum(shares: list, t_i: int, method: str) -> list:
    """The shares a recovery uses, picked from shares sorted by owner.

    These are the t_i lowest owners or, for the backward walk, the first run
    of t_i consecutive owners when the shares hold one.  The recovery itself
    rejects a quorum that does not fit it.
    """
    if method == "backward":
        for start in range(len(shares) - t_i + 1):
            window = shares[start : start + t_i]
            if window[-1].owner - window[0].owner == t_i - 1:
                return window
    return shares[:t_i]


def cmd_recover(args) -> int:
    board, digest = bio.read_bulletin(_read(args.bulletin))
    i = args.secret
    t_i = board.threshold(i)

    shares = []
    seen_owners = set()
    for path in args.shares:
        share = bio.bind_share(bio.decode_share(_read(path)), board, digest)
        if share.owner in seen_owners:
            raise MssError(f"duplicate share for owner {share.owner}")
        seen_owners.add(share.owner)
        shares.append(share)

    # one batch hash; the first failure in the order given is reported
    hashes = ajtai_hash_many(board.params.field(), board.commit_matrix, shares)
    for share, values in zip(shares, hashes):
        if values != board.commitments[share.owner - 1]:
            print(f"share {share.owner}: FAIL", file=sys.stderr)
            return EXIT_VERIFY_FAILED

    shares.sort(key=lambda s: s.owner)
    subshadows = participant_subshadows(board, i, _quorum(shares, t_i, args.method))
    candidate = _METHODS[args.method](board, i, subshadows)
    verified = verify_secret(board, i, candidate)

    out_path = args.out or f"recovered_{i}.json"
    bio.write_atomic(
        out_path,
        bio.encode_recovered(i, candidate, verified, digest),
    )
    print(f"secret {i}: {'verified' if verified else 'NOT VERIFIED'} -> {out_path}")
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


def cmd_verify_secret(args) -> int:
    board, digest = bio.read_bulletin(_read(args.bulletin))
    report = bio.decode_recovered(_read(args.recovered), board.params.q)
    if report.deal != digest:
        raise WrongDeal("report belongs to another deal")
    if verify_secret(board, report.secret_index, report.candidate):
        print(f"secret {report.secret_index}: verified")
        return EXIT_OK
    print(f"secret {report.secret_index}: FAIL", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_counts(args) -> int:
    if args.figure1:
        sys.stdout.write(counts_csv(FIGURE1_TUPLES))
        return EXIT_OK
    counts = public_value_counts(args.t, args.k, args.n)
    print(f"t={args.t} k={args.k} n={args.n}")
    for label in SCHEME_LABELS:
        print(f"{label:>5}  {counts[label]}")
    return EXIT_OK


def _timed(samples: list[float], fn, *args):
    """``fn(*args)``, with its wall time appended to samples."""
    start = time.perf_counter()
    result = fn(*args)
    samples.append(time.perf_counter() - start)
    return result


def cmd_bench(args) -> int:
    """Median wall time of each phase, as CSV rows per threshold value.

    Setup runs once per threshold so that construction can be timed on its
    own; this is a timing harness only, as reusing a setup across deals lets
    a quorum that pooled its subshadows for one deal recover the next deal's
    secrets.  Each trial times a fresh construction, one share verification,
    and one recovery per method over freshly drawn quorums.
    """
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    n, k = args.n, args.k
    phases = ("construct", "verify_share", "recover_vandermonde", "recover_lagrange",
              "recover_backward")
    rng = _rng_for(args)
    lines = ["phase,t,trials,median_seconds"]
    for t in args.t_range:
        params = SchemeParams(variant=args.variant, n=n, k=k, thresholds=(t,) * k)
        field = params.field()
        setup_result = setup(params, rng)
        secrets = [field.rand_vec(rng, t) for _ in range(k)]
        times: dict[str, list[float]] = {phase: [] for phase in phases}
        for _ in range(args.trials):
            board = _timed(times["construct"], construct, params, secrets, setup_result, rng)
            share = setup_result.shares[rng.randbelow(n)]
            commitment = board.commitments[share.owner - 1]
            _timed(times["verify_share"], verify_commitment,
                   field, board.commit_matrix, share, commitment)
            # random quorum for the interpolating methods
            owners = list(range(1, n + 1))
            quorum = [owners.pop(rng.randbelow(len(owners))) for _ in range(t)]
            group = [setup_result.shares[j - 1] for j in quorum]
            subshadows = participant_subshadows(board, 1, group)
            _timed(times["recover_vandermonde"], recover_way1_vandermonde, board, 1, subshadows)
            _timed(times["recover_lagrange"], recover_way1_lagrange, board, 1, subshadows)
            # random consecutive window for backward recovery
            start = 1 + rng.randbelow(n - t + 1)
            window_group = setup_result.shares[start - 1 : start - 1 + t]
            window = participant_subshadows(board, 1, window_group)
            _timed(times["recover_backward"], recover_way2, board, 1, window)
        for phase, samples in times.items():
            lines.append(f"{phase},{t},{args.trials},{statistics.median(samples):.9f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mss",
        description="Verifiable multi-stage secret sharing with any-order recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deal", help="split secrets into shares and a public bulletin")
    p.add_argument("--variant", choices=[v.value for v in Variant], required=True)
    p.add_argument("--n", type=int, required=True, help="participant count")
    p.add_argument("--k", type=int, required=True, help="secret count")
    p.add_argument("--thresholds", type=_parse_int_list, required=True)
    p.add_argument("--q", default=str(DEFAULT_PRIME), help="prime modulus (decimal)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--secrets", required=True, help="secrets.json input file")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_deal)

    p = sub.add_parser("verify-share", help="check a share against its commitment")
    p.add_argument("--bulletin", required=True)
    p.add_argument("--share", required=True)
    p.set_defaults(func=cmd_verify_share)

    p = sub.add_parser("recover", help="recover one secret from share files")
    p.add_argument("--bulletin", required=True)
    p.add_argument("--secret", type=int, required=True, help="secret index (1-based)")
    p.add_argument("--method", choices=sorted(_METHODS), required=True)
    p.add_argument("--out", default=None, help="output report path")
    p.add_argument("shares", nargs="+", help="share_<j>.json files")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("verify-secret", help="check a recovery report against the bulletin")
    p.add_argument("--bulletin", required=True)
    p.add_argument("--recovered", required=True)
    p.set_defaults(func=cmd_verify_secret)

    p = sub.add_parser("counts", help="published-value count comparison table")
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--figure1", action="store_true", help="CSV for the reference tuples")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("bench", help="time construction, verification, and recovery")
    p.add_argument("--variant", choices=[v.value for v in Variant], default="s1")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t-range", type=_parse_int_list, default=(8, 16, 32))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WrongDeal as exc:
        print(f"FAIL: WrongDeal: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (MssError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
