"""End-to-end benchmark of the mss command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each workload is a closed loop with one client in this one process (no
threads, no subprocesses): an op starts when the previous one has ended and
been checked.  Ops run through ``mss.cli.main`` in-process.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
ops untraced for half the time and traced for the other half, and reports
per-layer self times and counts as means per op.  Both print a readable
table and then, as the last line, one JSON object.

Times are calibrated.  On a shared machine the speed of a core drifts by up
to 2x over tens of seconds, and process CPU time drifts with it.  A fixed
pure-Python kernel (``calibrate``) runs between ops and slows by the same
factor, so each op's wall time is multiplied by ``CAL_REF_NS`` over the
kernel's time around that op.  On an idle core the factor is about 1; the
readable table also shows the uncalibrated wall-clock figures.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

#: p90 needs at least ten samples beyond it.
MIN_OPS = 100
#: A run ends after this many seconds of ops even below MIN_OPS.
HARD_CAP_S = 120.0
#: Seeded set-up deals per run; setup_s takes their median.
SETUP_REPS = 5
#: Calibration kernel time that counts as nominal speed (an idle core of
#: the 2-CPU machine the baseline was recorded on takes about this long).
CAL_REF_NS = 6_000_000
_CAL_Q = (1 << 61) - 1
_CAL_INTS = [i * 2654435761 % _CAL_Q for i in range(15000)]
_CAL_BLOB = json.dumps([str(v) for v in _CAL_INTS[:4000]]).encode()

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "bulletin_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  ``<span>.ms`` is mean self time per op
#: and ``<span>.calls`` mean calls per op; the rest are defined in
#: ``layer_metrics``.
PER_LAYER = {
    **{f"{span}.ms": "ms" for span in (
        "cli.deal", "cli.verify_share", "cli.recover", "cli.verify_secret",
        "bulletin.deal_id", "bulletin.decode_bulletin", "bulletin.decode_share",
        "bulletin.bind_share", "bulletin.encode_bulletin", "bulletin.encode_share",
        "bulletin.write_atomic", "scheme.setup", "scheme.construct",
        "scheme.compute_shadow", "scheme.assemble_subshadows",
        "scheme.recover_way1_vandermonde", "scheme.recover_way1_lagrange",
        "scheme.recover_way2", "scheme.verify_secret",
        "ajtai.sample_matrix_full_rank", "ajtai.sample_distinct_shares",
        "ajtai.ajtai_hash", "ajtai.verify_commitment", "field.matrix_rank",
        "field.solve_linear", "field.vandermonde", "field.lagrange_at_zero",
        "ilr.forward_extend", "ilr.backward_recover", "rng.randbytes",
    )},
    **{f"{span}.calls": "count" for span in (
        "bulletin.deal_id", "bulletin.decode_bulletin", "scheme.compute_shadow",
        "ajtai.ajtai_hash", "field.matrix_rank", "field.solve_linear",
        "field.lagrange_at_zero", "field.inv", "ilr.fit_general_term",
        "ilr.fold_value", "rng.randbytes",
    )},
    "ajtai.ajtai_hash.cols_summed": "count",
    "rng.bytes": "bytes",
    "ajtai.full_rank.accept_ratio": "ratio",
    "trace.overhead": "ratio",
}


def calibrate() -> int:
    """Run the calibration kernel once; returns its wall time in ns.

    Python integer arithmetic like the field code, a list of fresh big
    integers like the dealer's matrices, and a JSON round trip plus SHA-256
    over decimal strings like the bulletin code, so that each kind of work
    weighs in the factor.
    """
    t0 = time.perf_counter_ns()
    acc = 1
    for i in range(10000):
        acc = (acc * (i + 12345) + 7) % _CAL_Q
    fresh = [(a * acc + 89) % _CAL_Q for a in _CAL_INTS]
    hashlib.sha256(",".join(map(str, fresh[::4])).encode()).digest()
    json.loads(json.dumps(json.loads(_CAL_BLOB)))
    hashlib.sha256(_CAL_BLOB * 3).digest()
    return time.perf_counter_ns() - t0


def _scales(cals: list) -> list:
    """Calibration factor per op: ``cals[i]`` ran just before op i and
    ``cals[i + 1]`` just after it.  The median of the four nearest kernel
    runs ignores a single disturbed one."""
    return [
        CAL_REF_NS / statistics.median(cals[max(0, i - 1) : i + 3])
        for i in range(len(cals) - 1)
    ]


def _import_program():
    """Import mss from this checkout's src, or exit with a message if it is not there."""
    if not (SRC / "mss" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'mss'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mss

    if not Path(mss.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported mss from {mss.__file__}, not from {SRC}")


@dataclass
class Loop:
    """What one closed loop of ops measured."""

    attempted: int = 0
    latencies: list = field(default_factory=list)  # calibrated ns, passed ops
    wall: list = field(default_factory=list)  # uncalibrated ns, passed ops
    scales: dict = field(default_factory=dict)  # op id -> calibration factor
    failures: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)  # op slot -> bulletin bytes

    def p50(self) -> float:
        return statistics.median(self.latencies) if self.latencies else 0.0


def measure(bench, keep_going, tracer=None) -> Loop:
    """Run ops in a closed loop until ``keep_going(count, elapsed_s)`` is false."""
    ops = bench.inputs.ops
    loop = Loop()
    walls, passed = [], []
    loop_start = time.perf_counter()
    cals = [calibrate()]
    while keep_going(loop.attempted, time.perf_counter() - loop_start):
        count = loop.attempted
        spec = ops[count % len(ops)]
        gc.collect()  # each op starts without the last one's garbage, as a fresh CLI process would
        if tracer is None:
            t0 = time.perf_counter_ns()
            calls = bench.op(spec)
            t1 = time.perf_counter_ns()
        else:
            with tracer.op(count):
                t0 = time.perf_counter_ns()
                calls = bench.op(spec)
                t1 = time.perf_counter_ns()
        cals.append(calibrate())
        walls.append(t1 - t0)
        loop.attempted += 1
        try:
            loop.sizes[spec.slot] = bench.check(spec, calls)
            passed.append(True)
        except Exception as exc:  # a failed check is counted, not fatal
            kind = getattr(exc, "kind", type(exc).__name__)
            loop.failures.append(f"op {count} (slot {spec.slot}) failed: {kind}: {exc}")
            passed.append(False)
    loop.scales = dict(enumerate(_scales(cals)))
    for i, wall in enumerate(walls):
        if passed[i]:
            loop.latencies.append(wall * loop.scales[i])
            loop.wall.append(wall)
    return loop


def _untraced_until(seconds):
    return lambda n, elapsed: elapsed < HARD_CAP_S and (elapsed < seconds or n < MIN_OPS)


def _cycles_until(seconds, cycle):
    """Whole cycles of ops only, so per-op means over them are exact for a seed."""
    return lambda n, elapsed: n == 0 or n % cycle or elapsed < seconds


def _ms(ns):
    return ns / 1e6


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else 0.0


def _row(name, value, unit):
    shown = value if isinstance(value, str) else f"{value:.6g}"
    return f"  {name:36s} {shown:>14s} {unit}"


def _bulletin_bytes(bench, seeded_bulletin, sizes):
    """Bulletin size: the set-up deal's, or for ``deal`` the mean over a cycle."""
    if bench.workload.method is not None:
        return float(len(seeded_bulletin))
    cycle = len(bench.inputs.ops)
    return statistics.fmean(sizes[s] for s in range(cycle)) if len(sizes) == cycle else 0.0


def layer_metrics(tracer, loop, untraced_p50):
    """Per-layer metrics of a traced loop, and which of them apply."""
    totals = tracer.totals(loop.scales)
    ops = loop.attempted
    metrics, applicable = {}, {}
    for name, unit in PER_LAYER.items():
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead":
            value, used = loop.p50() / untraced_p50, True
        elif name == "ajtai.full_rank.accept_ratio":
            drawn = totals["field.matrix_rank"].get("under:ajtai.sample_matrix_full_rank", 0)
            accepted = totals["ajtai.sample_matrix_full_rank"]["calls"]
            value, used = (accepted / drawn if drawn else 0.0), drawn > 0
        else:
            row = totals["rng.randbytes" if name == "rng.bytes" else span]
            raw = {"ms": _ms(row["self_ns"]), "calls": row["calls"]}.get(stat, row["amount"])
            value, used = raw / ops, row["calls"] > 0
        metrics[name] = {"value": value, "unit": unit}
        applicable[name] = used
    return metrics, applicable


def _end_to_end(bench, seconds, setup_s, seeded_bulletin):
    loop = measure(bench, _untraced_until(seconds))
    lat = loop.latencies
    values = {
        "op_ms_p50": _ms(loop.p50()),
        "op_ms_p90": _ms(_p90(lat)),
        "ops_per_s": len(lat) / (sum(lat) / 1e9) if lat else 0.0,
        "setup_s": setup_s,
        "bulletin_bytes": _bulletin_bytes(bench, seeded_bulletin, loop.sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    failed = len(loop.failures)
    lines = [
        f"  timed ops: {len(lat)} passed of {loop.attempted} attempted",
        *(_row(k, m["value"], m["unit"]) for k, m in metrics.items()),
        _row("op_fail_ratio", failed / loop.attempted,
             f"ratio ({failed} failed / {loop.attempted} attempted)"),
        _row("wall op_ms_p50 (uncalibrated)", _ms(statistics.median(loop.wall)) if lat else 0.0, "ms"),
        _row("wall op_ms_p90 (uncalibrated)", _ms(_p90(loop.wall)), "ms"),
        _row("calibration factor, median", statistics.median(loop.scales.values()), "x"),
    ]
    info = {"bulletin_bytes": values["bulletin_bytes"]}
    return metrics, loop.attempted, loop.failures, lines, info


def _traced(bench, seconds, seeded_bulletin):
    from tracer import Tracer

    cycle = len(bench.inputs.ops)
    untraced = measure(bench, _cycles_until(seconds / 2, cycle))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(-1):
            traced_setup = bench.setup(bench.workdir / "setup-traced")
        loop = measure(bench, _cycles_until(seconds / 2, cycle), tracer)
    finally:
        tracer.uninstall()
    failures = untraced.failures + loop.failures
    if traced_setup != seeded_bulletin:
        failures.append("set-up: traced deal differs from the untraced one")
    metrics, applicable = layer_metrics(tracer, loop, untraced.p50() or 1.0)
    trace_path = TRACE_DIR / f"trace-{bench.workload.name}.csv.gz"
    tracer.write(trace_path)
    setup_ms = {
        name: _ms(row["self_ns"]) for name, row in tracer.totals({-1: 1.0}).items() if row["calls"]
    }
    top = sorted(setup_ms.items(), key=lambda item: -item[1])[:6]
    lines = [
        f"  untraced ops: {untraced.attempted}, traced ops: {loop.attempted}, "
        f"spans: {len(tracer.start)} -> {trace_path.relative_to(ROOT)}",
        *(_row(k, m["value"] if applicable[k] else "n/a", m["unit"]) for k, m in metrics.items()),
        "  set-up deal, uncalibrated self ms: " + ", ".join(f"{k} {v:.3g}" for k, v in top),
    ]
    info = {
        "bulletin_bytes": _bulletin_bytes(bench, seeded_bulletin, loop.sizes),
        "not_applicable": [k for k, used in applicable.items() if not used],
    }
    return metrics, untraced.attempted + loop.attempted, failures, lines, info


def run(workload_name, seed, seconds, trace, import_s=0.0):
    """One benchmark run.

    Returns the result object, the readable lines, and an info dict with the
    SHA-256 of the seeded set-up bulletin, ``bulletin_bytes`` and, when
    traced, the per-layer metrics that do not apply to the workload.
    """
    from workloads import WORKLOADS, Bench, generate_inputs

    workload = WORKLOADS[workload_name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_ROOT))
    try:
        setup_walls, bulletins, cals = [], set(), [calibrate()]
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            bench = Bench(workload, generate_inputs(workload, seed), workdir)
            bulletins.add(bench.setup(workdir / f"setup{rep}"))
            setup_walls.append(time.perf_counter() - t0)
            cals.append(calibrate())
        setup_times = [wall * scale for wall, scale in zip(setup_walls, _scales(cals))]
        seeded_bulletin = min(bulletins)
        bench.op(bench.inputs.ops[0])  # first-call costs stay out of the timed ops
        if trace:
            metrics, attempted, failures, lines, info = _traced(bench, seconds, seeded_bulletin)
        else:
            setup_s = import_s + statistics.median(setup_times)
            metrics, attempted, failures, lines, info = _end_to_end(
                bench, seconds, setup_s, seeded_bulletin
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(bulletins) > 1:
        failures.append("set-up: deals with one seed wrote different bulletins")
    info["bulletin_sha256"] = hashlib.sha256(seeded_bulletin).hexdigest()
    lines.insert(0, f"workload {workload_name} seed {seed} trace {int(trace)}")
    lines.extend(f"  FAIL {line}" for line in failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cals = [calibrate()]
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    # Imports, scaled like op times; the calibration run itself is left out.
    import_s = time.perf_counter() - _T0 - cals[0] / 1e9
    cals.append(calibrate())
    import_s *= _scales(cals)[0]
    result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
