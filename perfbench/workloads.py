"""Workloads of the end-to-end benchmark: seeded inputs, CLI ops and checks.

Every op goes through the real command-line entry point, ``mss.cli.main``,
in this process, with stdout and stderr captured.  The program sees only
the files written here and its argv; everything random about a workload
(secrets, deal seeds, quorums, secret indices) comes from the workload
seed.  Output checks run outside the timed region.

Importing this module needs ``src`` on ``sys.path``; ``run.py`` puts it there.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from mss import bulletin as bio
from mss import cli
from mss.field import DEFAULT_PRIME
from mss.scheme import secret_hash

N = 64  # participants, every workload
K = 4  # secrets, every workload

#: Ops cycle through this many seeded op specs.  Traced runs stop only at
#: cycle boundaries, so per-op means of counts are exact for a seed.
CYCLE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    thresholds: tuple[int, ...]
    method: str | None  # recovery method; None for the deal workload
    consecutive: bool  # quorum is a window of consecutive owners

    @property
    def quorum_size(self) -> int:
        return self.thresholds[0]


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deal", "s2", (8, 16, 24, 32), None, False),
        Workload("recover-solve", "s4", (16,) * 4, "vandermonde", False),
        Workload("recover-lagrange", "s3", (24,) * 4, "lagrange", False),
        Workload("recover-window", "s1", (24,) * 4, "backward", True),
    )
}


@dataclass(frozen=True)
class OpSpec:
    """One op of a cycle.

    For ``deal``: ``deal_seed`` is the op's ``--seed`` and ``owners`` holds
    the one participant whose share is verified.  For recovery: ``secret``
    is the secret index and ``owners`` the quorum whose share files are
    passed.
    """

    slot: int
    deal_seed: int
    secret: int
    owners: tuple[int, ...]


@dataclass(frozen=True)
class Inputs:
    secrets: tuple[tuple[int, ...], ...]
    setup_seed: int
    ops: tuple[OpSpec, ...]


def generate_inputs(workload: Workload, seed: int) -> Inputs:
    """Everything random about a workload, as a pure function of the seed."""
    rnd = random.Random(f"perfbench:{workload.name}:{seed}")
    secrets = tuple(
        tuple(rnd.randrange(DEFAULT_PRIME) for _ in range(t)) for t in workload.thresholds
    )
    setup_seed = rnd.getrandbits(63)
    ops = []
    for slot in range(CYCLE):
        deal_seed = rnd.getrandbits(63)
        secret = rnd.randint(1, K)
        if workload.method is None:
            owners = (rnd.randint(1, N),)
        elif workload.consecutive:
            start = rnd.randint(1, N - workload.quorum_size + 1)
            owners = tuple(range(start, start + workload.quorum_size))
        else:
            owners = tuple(sorted(rnd.sample(range(1, N + 1), workload.quorum_size)))
        ops.append(OpSpec(slot, deal_seed, secret, owners))
    return Inputs(secrets, setup_seed, tuple(ops))


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    code: int | None  # None when the call raised
    stdout: str
    stderr: str
    error: str | None = None  # exception class name when the call raised


class OpFailed(Exception):
    """An op's output did not pass its check; ``kind`` names the error class."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


def run_cli(argv: list[str]) -> CliCall:
    """One in-process CLI call.  ``cli.main`` is looked up on every call so a
    wrapper installed on the module is the one that runs."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = type(exc).__name__
    return CliCall(tuple(argv), code, out.getvalue(), err.getvalue(), error)


def _expect_ok(call: CliCall) -> None:
    if call.error is not None:
        raise OpFailed(call.error, f"mss {call.argv[0]} raised")
    if call.code != 0:
        first = call.stderr.strip().splitlines()[:1]
        raise OpFailed(f"Exit{call.code}", f"mss {call.argv[0]}: {' '.join(first)}")


def _expect_stdout(call: CliCall, expected: str) -> None:
    if call.stdout != expected:
        raise OpFailed("WrongOutput", f"mss {call.argv[0]} printed {call.stdout!r}")


class Bench:
    """Files and ops of one workload inside a work directory."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.deal_dir = workdir / "setup"
        self.secrets_path = workdir / "secrets.json"
        self.report_path = workdir / "recovered.json"

    def _deal_argv(self, seed: int, out_dir: Path) -> list[str]:
        w = self.workload
        return [
            "deal", "--variant", w.variant, "--n", str(N), "--k", str(K),
            "--thresholds", ",".join(map(str, w.thresholds)),
            "--seed", str(seed), "--secrets", str(self.secrets_path),
            "--out-dir", str(out_dir),
        ]

    def setup(self, out_dir: Path) -> bytes:
        """Write the secrets file and run the one seeded deal into out_dir.

        Returns the bulletin bytes; raises OpFailed if the deal fails.  The
        ops use the deal in ``self.deal_dir``, the last directory set up.
        """
        self.secrets_path.write_bytes(bio.encode_secrets(DEFAULT_PRIME, self.inputs.secrets))
        call = run_cli(self._deal_argv(self.inputs.setup_seed, out_dir))
        _expect_ok(call)
        self.deal_dir = out_dir
        return (out_dir / "bulletin.json").read_bytes()

    def op(self, spec: OpSpec) -> list[CliCall]:
        """The timed part of one op: two CLI calls, the second only if the
        first succeeded."""
        if self.workload.method is None:
            out_dir = self.workdir / f"deal{spec.slot}"
            first = run_cli(self._deal_argv(spec.deal_seed, out_dir))
            second = [
                "verify-share", "--bulletin", str(out_dir / "bulletin.json"),
                "--share", str(out_dir / f"share_{spec.owners[0]}.json"),
            ]
        else:
            bulletin = str(self.deal_dir / "bulletin.json")
            first = run_cli(
                ["recover", "--bulletin", bulletin, "--secret", str(spec.secret),
                 "--method", self.workload.method, "--out", str(self.report_path)]
                + [str(self.deal_dir / f"share_{j}.json") for j in spec.owners]
            )
            second = ["verify-secret", "--bulletin", bulletin, "--recovered", str(self.report_path)]
        if first.code != 0 or first.error is not None:
            return [first]
        return [first, run_cli(second)]

    def check(self, spec: OpSpec, calls: list[CliCall]) -> int:
        """Check one op's outputs; returns the size of the bulletin it used.

        Recovery must give back the dealt secret exactly, component for
        component: the report's ``verified`` flag alone is not enough
        because ``verify_secret`` accepts unreduced representatives.
        """
        for call in calls:
            _expect_ok(call)
        if len(calls) != 2:
            raise OpFailed("Incomplete", "second CLI call did not run")
        if self.workload.method is None:
            out_dir = self.workdir / f"deal{spec.slot}"
            _expect_stdout(calls[1], f"share {spec.owners[0]}: OK\n")
            data = (out_dir / "bulletin.json").read_bytes()
            board = bio.decode_bulletin(data)
            expected = tuple(secret_hash(DEFAULT_PRIME, s) for s in self.inputs.secrets)
            if board.secret_hashes != expected:
                raise OpFailed("WrongOutput", "bulletin secret_hashes differ from the secrets")
            return len(data)
        i = spec.secret
        _expect_stdout(calls[0], f"secret {i}: verified -> {self.report_path}\n")
        _expect_stdout(calls[1], f"secret {i}: verified\n")
        report = bio.decode_recovered(self.report_path.read_bytes())
        if report.secret_index != i or not report.verified:
            raise OpFailed("WrongOutput", "report names another secret or is unverified")
        if report.candidate != self.inputs.secrets[i - 1]:
            raise OpFailed("WrongSecret", f"recovered secret {i} differs from the dealt one")
        return (self.deal_dir / "bulletin.json").stat().st_size
