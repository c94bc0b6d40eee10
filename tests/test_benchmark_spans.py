"""The benchmark's per-layer rows name spans its tracer can record.

perfbench reads each per-layer metric from the span of one traced
function, so renaming or deleting such a function would fail only in a
traced benchmark run.  This test installs the tracer on the imported
layers, as a traced run does, and checks every name the rows read.
"""

import importlib.util
from pathlib import Path

import mss.cli  # noqa: F401  imports every layer the tracer wraps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Rows computed from other spans or from the run itself, not read from a span.
DERIVED = ("trace.overhead", "ajtai.full_rank.accept_ratio")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_a_per_layer_row_reads_is_wrapped():
    run, tracer_module = _load("run"), _load("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.names)
    finally:
        tracer.uninstall()
    read = {
        "rng.randbytes" if name == "rng.bytes" else name.rpartition(".")[0]
        for name in run.PER_LAYER
        if name not in DERIVED
    }
    assert read - wrapped == set()
