"""Write ``perfbench/baseline.json``: what each workload is, and its traced
per-layer figures at the current commit.

    python3 perfbench/record_baseline.py

Runs the traced run of every workload in this process (a few minutes in
all).  ``BENCHMARK.json`` holds only the keys its format allows; the rest of
the record lives in the file written here.
"""

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import CYCLE, K, N, WORKLOADS  # noqa: E402

#: Seed of the recorded baseline; later claims are confirmed on HELD_OUT_SEED.
SEED = 1
HELD_OUT_SEED = 104729
#: Seconds of ops in each workload's traced run.
SECONDS = 20.0

RECOVERIES = ["recover-solve", "recover-lagrange", "recover-window"]

#: Which end-to-end metric each per-layer metric should move, on which
#: workloads, written down before anything is optimised.
MOVES = {
    "cli.deal.ms": {"op_ms_p50": ["deal"]},
    "cli.verify_share.ms": {"op_ms_p50": ["deal"]},
    "cli.recover.ms": {"op_ms_p50": RECOVERIES},
    "cli.verify_secret.ms": {"op_ms_p50": RECOVERIES},
    "bulletin.deal_id.ms": {"op_ms_p50": ["recover-window", "recover-lagrange"]},
    "bulletin.deal_id.calls": {"op_ms_p50": ["recover-window", "recover-lagrange"]},
    "bulletin.decode_bulletin.ms": {"op_ms_p50": RECOVERIES + ["deal"]},
    "bulletin.decode_bulletin.calls": {"op_ms_p50": RECOVERIES + ["deal"]},
    "bulletin.decode_share.ms": {"op_ms_p50": RECOVERIES},
    "bulletin.bind_share.ms": {"op_ms_p50": RECOVERIES},
    "bulletin.encode_bulletin.ms": {"op_ms_p50": ["deal"]},
    "bulletin.encode_share.ms": {"op_ms_p50": ["deal"]},
    "bulletin.write_atomic.ms": {"op_ms_p50": ["deal"]},
    "scheme.setup.ms": {"op_ms_p50": ["deal"], "setup_s": RECOVERIES},
    "scheme.construct.ms": {"op_ms_p50": ["deal"], "setup_s": RECOVERIES},
    "scheme.compute_shadow.ms": {"op_ms_p50": RECOVERIES},
    "scheme.compute_shadow.calls": {"op_ms_p50": RECOVERIES},
    "scheme.assemble_subshadows.ms": {"op_ms_p50": RECOVERIES},
    "scheme.recover_way1_vandermonde.ms": {"op_ms_p50": ["recover-solve"]},
    "scheme.recover_way1_lagrange.ms": {"op_ms_p50": ["recover-lagrange"]},
    "scheme.recover_way2.ms": {"op_ms_p50": ["recover-window"]},
    "scheme.verify_secret.ms": {"op_ms_p50": RECOVERIES},
    "ajtai.sample_matrix_full_rank.ms": {"op_ms_p50": ["deal"]},
    "ajtai.full_rank.accept_ratio": {"op_ms_p50": ["deal"]},
    "ajtai.sample_distinct_shares.ms": {"op_ms_p50": ["deal"]},
    "ajtai.ajtai_hash.ms": {"op_ms_p50": ["deal"] + RECOVERIES},
    "ajtai.ajtai_hash.calls": {"op_ms_p50": ["deal"] + RECOVERIES},
    "ajtai.ajtai_hash.cols_summed": {"op_ms_p50": ["deal"] + RECOVERIES},
    "ajtai.verify_commitment.ms": {"op_ms_p50": RECOVERIES + ["deal"]},
    "field.matrix_rank.ms": {"op_ms_p50": ["deal"]},
    "field.matrix_rank.calls": {"op_ms_p50": ["deal"]},
    "field.solve_linear.ms": {"op_ms_p50": ["recover-solve"]},
    "field.solve_linear.calls": {"op_ms_p50": ["recover-solve"]},
    "field.vandermonde.ms": {"op_ms_p50": ["recover-solve"]},
    "field.lagrange_at_zero.ms": {"op_ms_p50": ["recover-lagrange"]},
    "field.lagrange_at_zero.calls": {"op_ms_p50": ["recover-lagrange"]},
    "field.inv.calls": {"op_ms_p50": ["recover-lagrange", "recover-solve"]},
    "ilr.forward_extend.ms": {"op_ms_p50": ["deal"]},
    "ilr.backward_recover.ms": {"op_ms_p50": ["recover-window"]},
    "ilr.fit_general_term.calls": {"op_ms_p50": ["recover-solve", "recover-lagrange"]},
    "ilr.fold_value.calls": {"op_ms_p50": ["recover-solve", "recover-lagrange"]},
    "rng.randbytes.ms": {"op_ms_p50": ["deal"], "setup_s": RECOVERIES},
    "rng.randbytes.calls": {"op_ms_p50": ["deal"], "setup_s": RECOVERIES},
    "rng.bytes": {"op_ms_p50": ["deal"], "setup_s": RECOVERIES},
    "trace.overhead": {},
}


def _op_text(workload) -> str:
    if workload.method is None:
        return (
            f"mss deal --variant {workload.variant} --n {N} --k {K} --thresholds "
            f"{','.join(map(str, workload.thresholds))} with a fresh --seed, then "
            "mss verify-share for one random participant"
        )
    quorum = (
        f"{workload.quorum_size} consecutive share files from a random start"
        if workload.consecutive
        else f"a random set of {workload.quorum_size} share files"
    )
    return (
        f"mss recover --method {workload.method} over {quorum} for a random secret "
        f"index, then mss verify-secret; one seeded mss deal (variant {workload.variant}, "
        f"n={N}, k={K}, thresholds {','.join(map(str, workload.thresholds))}) in set-up"
    )


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": SECONDS,
        "ops_per_cycle": CYCLE,
        "calibration_ref_ns": run.CAL_REF_NS,
        "note": "mss bench CSV timings time bare library calls; they are not metrics "
        "of this benchmark.",
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        result, lines, info = run.run(name, SEED, SECONDS, True)
        print("\n".join(lines), flush=True)
        if not result["correct"]:
            sys.exit(f"{name}: traced run failed")
        record["workloads"][name] = {
            "variant": workload.variant,
            "n": N,
            "k": K,
            "thresholds": list(workload.thresholds),
            "op": _op_text(workload),
            "why": why[name],
            "moves": {
                layer: [e2e for e2e, names in moves.items() if name in names]
                for layer, moves in MOVES.items()
                if any(name in names for names in moves.values())
            },
            "bulletin_sha256": info["bulletin_sha256"],
            "per_layer_baseline": {
                k: (None if k in info["not_applicable"] else m["value"])
                for k, m in result["metrics"].items()
            },
        }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
