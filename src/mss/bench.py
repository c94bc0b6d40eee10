"""Wall-clock comparison of the construction, verification, and recovery paths.

Reports medians only; absolute numbers are machine-dependent, so the one
claim worth asserting is ordinal (backward recovery beats the linear-solve
path once thresholds grow).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from .ajtai import verify_commitment
from .rng import Drbg
from .scheme import (
    SchemeParams,
    Variant,
    construct,
    participant_subshadows,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    setup,
)

PHASES = (
    "construct",
    "verify_share",
    "recover_vandermonde",
    "recover_lagrange",
    "recover_backward",
)


@dataclass(frozen=True)
class BenchRow:
    phase: str
    t: int
    trials: int
    median_seconds: float


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_at(
    variant: Variant, n: int, k: int, t: int, trials: int, rng: Drbg
) -> dict[str, list[float]]:
    """Per-phase timing samples for one threshold value.

    Setup runs once so that construction can be timed on its own; this
    is a timing harness only, as reusing a setup across deals lets a quorum
    that pooled its subshadows for one deal recover the next deal's secrets.
    Each trial times a fresh construction, one share verification, and one
    recovery per method over freshly drawn quorums.
    """
    params = SchemeParams(variant=variant, n=n, k=k, thresholds=(t,) * k)
    field = params.field()
    setup_result = setup(params, rng)
    secrets = [field.rand_vec(rng, t) for _ in range(k)]
    times: dict[str, list[float]] = {phase: [] for phase in PHASES}
    for _ in range(trials):
        holder: dict = {}
        times["construct"].append(
            _timed(lambda: holder.update(b=construct(params, secrets, setup_result, rng)))
        )
        bulletin = holder["b"]
        share = setup_result.shares[rng.randbelow(n)]
        commitment = bulletin.commitments[share.owner - 1]
        times["verify_share"].append(
            _timed(
                lambda: verify_commitment(
                    field, bulletin.commit_matrix, share, commitment
                )
            )
        )
        # random quorum for the interpolating methods
        owners = list(range(1, n + 1))
        quorum = []
        for _pick in range(t):
            quorum.append(owners.pop(rng.randbelow(len(owners))))
        group = [setup_result.shares[j - 1] for j in quorum]
        subshadows = participant_subshadows(bulletin, 1, group)
        times["recover_vandermonde"].append(
            _timed(lambda: recover_way1_vandermonde(bulletin, 1, subshadows))
        )
        times["recover_lagrange"].append(
            _timed(lambda: recover_way1_lagrange(bulletin, 1, subshadows))
        )
        # random consecutive window for backward recovery
        start = 1 + rng.randbelow(n - t + 1)
        window_group = [setup_result.shares[j - 1] for j in range(start, start + t)]
        window = participant_subshadows(bulletin, 1, window_group)
        times["recover_backward"].append(
            _timed(lambda: recover_way2(bulletin, 1, window))
        )
    return times


def bench_rows(
    variant: Variant,
    n: int,
    k: int,
    t_values: Sequence[int],
    trials: int,
    seed: int | None = None,
) -> list[BenchRow]:
    rng = Drbg(seed)
    rows = []
    for t in t_values:
        times = bench_at(variant, n, k, t, trials, rng)
        for phase in PHASES:
            rows.append(
                BenchRow(
                    phase=phase,
                    t=t,
                    trials=trials,
                    median_seconds=statistics.median(times[phase]),
                )
            )
    return rows


def bench_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["phase,t,trials,median_seconds"]
    for row in rows:
        lines.append(f"{row.phase},{row.t},{row.trials},{row.median_seconds:.9f}")
    return "\n".join(lines) + "\n"

