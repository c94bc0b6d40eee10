"""Command-line front end: deal, verify, recover, counts, bench.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or
validation error.  With --seed, the one way to seed a run, all non-timing
output is reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bulletin as bio
from .counts import SCHEME_LABELS, counts_csv, public_value_counts
from .errors import MssError, WrongDeal
from .field import DEFAULT_PRIME
from .rng import Drbg
from .scheme import (
    SchemeParams,
    Variant,
    construct,
    deal,
    first_unbound,
    participant_subshadows,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    setup,
    verify_secret,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _seed(text: str) -> int:
    """A --seed value, the one seed of a run: a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


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
        variant=args.variant,
        n=args.n,
        k=args.k,
        thresholds=args.thresholds,
        q=args.q,
    )
    secrets = bio.decode_secrets(_read(args.secrets), params.q)
    shares, board = deal(params, secrets, Drbg(args.seed))
    board_bytes, deal_digest = bio.encode_bulletin(board)

    os.makedirs(args.out_dir, exist_ok=True)
    bio.write_atomic(os.path.join(args.out_dir, "bulletin.json"), board_bytes)
    for share in shares:
        bio.write_atomic(  # a share is secret: its owner alone may read it
            os.path.join(args.out_dir, f"share_{share.owner}.json"),
            bio.encode_share(share, deal=deal_digest),
            mode=0o600,
        )

    published = {
        "matrices": params.k + 1,  # a mask matrix per secret and F, published as seeds
        "commitments": params.n,
        "hashes": params.k,
        "constants": len(board.constants),
        "offsets": sum(len(per_secret) for per_secret in board.offsets),
        "extras": sum(len(per_secret) for per_secret in board.extras),
    }
    print(f"deal {deal_digest[:16]} written to {args.out_dir}")
    listed = " ".join(f"{name}={count}" for name, count in published.items())
    print(f"public values: {listed} total={sum(published.values())}")
    return EXIT_OK


def cmd_verify_share(args) -> int:
    board, digest = bio.read_bulletin(_read(args.bulletin), secrets=())
    share = bio.bind_share(bio.decode_share(_read(args.share)), digest)
    if first_unbound(board.setup, [share]) is None:
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
    board, digest = bio.read_bulletin(_read(args.bulletin), secrets=(args.secret,))
    i = args.secret
    t_i = board.threshold(i)

    shares = [bio.bind_share(bio.decode_share(_read(path)), digest) for path in args.shares]
    unbound = first_unbound(board.setup, shares)
    if unbound is not None:
        print(f"share {unbound.owner}: FAIL", file=sys.stderr)
        return EXIT_VERIFY_FAILED

    ordered = sorted(shares, key=lambda share: share.owner)
    subshadows = participant_subshadows(board, i, _quorum(ordered, t_i, args.method))
    candidate = _METHODS[args.method](board, i, subshadows)
    verified = verify_secret(board, i, candidate)

    out_path = f"recovered_{i}.json" if args.out is None else args.out
    report = bio.encode_recovered(i, candidate, verified, digest)
    bio.write_atomic(out_path, report, mode=0o600)  # it holds the secret in the clear
    print(f"secret {i}: {'verified' if verified else 'NOT VERIFIED'} -> {out_path}")
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


def cmd_verify_secret(args) -> int:
    board, digest = bio.read_bulletin(_read(args.bulletin), secrets=())
    report = bio.decode_recovered(_read(args.recovered), board.setup.params.q)
    if report.deal != digest:
        raise WrongDeal("report belongs to another deal")
    if verify_secret(board, report.secret_index, report.candidate):
        print(f"secret {report.secret_index}: verified")
        return EXIT_OK
    print(f"secret {report.secret_index}: FAIL", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_counts(args) -> int:
    if args.figure1:
        sys.stdout.write(counts_csv())
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

    Each trial draws its own setup, untimed, then times construction on it,
    one share verification, and one recovery per method: over a random
    quorum, or a random consecutive window for the backward walk.  Trial m
    recovers secret 1 + m % k, so the trials cycle through every secret.
    """
    import statistics  # only here; importing it costs every other command

    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    n, k = args.n, args.k
    phases = ("construct", "verify_share", *(f"recover_{method}" for method in _METHODS))
    rng = Drbg(args.seed)
    lines = ["phase,t,trials,median_seconds"]
    for t in args.t_range:
        params = SchemeParams(variant=args.variant, n=n, k=k, thresholds=(t,) * k)
        secrets = [params.field().rand_vec(rng, t) for _ in range(k)]
        times: dict[str, list[float]] = {phase: [] for phase in phases}
        for trial in range(args.trials):
            i = 1 + trial % k
            shares, deal_setup = setup(params, rng)
            board = _timed(times["construct"], construct, deal_setup, shares, secrets, rng)
            share = shares[rng.randbelow(n)]
            _timed(times["verify_share"], first_unbound, deal_setup, [share])
            unpicked = list(shares)
            quorum = [unpicked.pop(rng.randbelow(len(unpicked))) for _ in range(t)]
            drawn = participant_subshadows(board, i, quorum)
            start = rng.randbelow(n - t + 1)
            window = participant_subshadows(board, i, shares[start : start + t])
            for method, recover in _METHODS.items():
                subshadows = window if method == "backward" else drawn
                _timed(times[f"recover_{method}"], recover, board, i, subshadows)
        for phase, samples in times.items():
            lines.append(f"{phase},{t},{args.trials},{statistics.median(samples):.9f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


_VARIANTS = [v.value for v in Variant]

#: Each subcommand's help line and options, an option as the name and the
#: keywords that ``add_argument`` takes.  Subcommand ``x-y`` runs ``cmd_x_y``,
#: looked up as the parser is built, so a wrapper set on the module runs.
_SUBCOMMANDS = {
    "deal": ("split secrets into shares and a public bulletin", (
        ("--variant", {"choices": _VARIANTS, "required": True}),
        ("--n", {"type": int, "required": True, "help": "participant count"}),
        ("--k", {"type": int, "required": True, "help": "secret count"}),
        ("--thresholds", {"type": _parse_int_list, "required": True}),
        ("--q", {"type": int, "default": DEFAULT_PRIME, "help": "prime modulus (decimal)"}),
        ("--seed", {"type": _seed, "default": None}),
        ("--secrets", {"required": True, "help": "secrets.json input file"}),
        ("--out-dir", {"default": "."}),
    )),
    "verify-share": ("check a share against its commitment", (
        ("--bulletin", {"required": True}),
        ("--share", {"required": True}),
    )),
    "recover": ("recover one secret from share files", (
        ("--bulletin", {"required": True}),
        ("--secret", {"type": int, "required": True, "help": "secret index (1-based)"}),
        ("--method", {"choices": sorted(_METHODS), "required": True}),
        ("--out", {"default": None, "help": "output report path"}),
        ("shares", {"nargs": "+", "help": "share_<j>.json files"}),
    )),
    "verify-secret": ("check a recovery report against the bulletin", (
        ("--bulletin", {"required": True}),
        ("--recovered", {"required": True}),
    )),
    "counts": ("published-value count comparison table", (
        ("--t", {"type": int, "default": 3}),
        ("--k", {"type": int, "default": 4}),
        ("--n", {"type": int, "default": 7}),
        ("--figure1", {"action": "store_true", "help": "CSV for the reference tuples"}),
    )),
    "bench": ("time construction, verification, and recovery", (
        ("--variant", {"choices": _VARIANTS, "default": "s1"}),
        ("--n", {"type": int, "default": 64}),
        ("--k", {"type": int, "default": 1}),
        ("--t-range", {"type": _parse_int_list, "default": (8, 16, 32)}),
        ("--trials", {"type": int, "default": 10}),
        ("--seed", {"type": _seed, "default": None}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``mss`` parser with every subcommand, or with ``command`` alone.

    A one-subcommand parser still prints every subcommand in its usage
    line, so the errors it reports read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="mss",
        description="Verifiable multi-stage secret sharing with any-order recovery.",
    )
    names = _SUBCOMMANDS if command is None else (command,)
    # The full parser prints its choices by itself; a metavar there would
    # also replace "command" in its missing- and invalid-command errors.
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the subcommand named runs, so only its parser is built; help,
    # no arguments and an unknown word get the full one.
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except WrongDeal as exc:
        print(f"FAIL: WrongDeal: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (MssError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE

