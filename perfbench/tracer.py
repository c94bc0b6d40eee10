"""Spans around the public functions of the mss layers, from outside them.

``Tracer.install`` wraps every public function that the layer modules
define, under every name a caller looks it up by: the defining module, each
module that imported it (``mss.scheme.ajtai_hash`` as well as
``mss.ajtai.ajtai_hash``) and module-level dicts such as the CLI's method
table.  Two class attributes are wrapped as well, ``PrimeField.inv`` and
``Drbg.randbytes``; other methods run per residue and are left out so the
trace does not swamp what it measures.  Nothing under ``src`` changes.

A span is recorded only inside ``Tracer.op``; outside it a wrapper just
calls through.  Spans stay in memory (parallel arrays) until ``write``.
No layer queues work or hands it to another thread, so a span's duration
is all busy time and there is no waiting-time metric to take.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "bulletin", "scheme", "ajtai", "field", "ilr", "rng")

#: Class attributes wrapped besides the module-level functions.
METHODS = (("field", "PrimeField", "inv"), ("rng", "Drbg", "randbytes"))


def _amount(span: str, args: tuple) -> int:
    """Work size recorded with a span: bytes drawn, or columns summed."""
    if span == "rng.randbytes":
        return args[1]
    if span == "ajtai.ajtai_hash":
        return sum(args[2]) * args[1].rows
    return 0


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[len("cmd_"):]
    return f"{layer}.{attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name per wrapper, indexed by name_id
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.amount = array("q")
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        counted = span in ("rng.randbytes", "ajtai.ajtai_hash")
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self._op)
            self.amount.append(_amount(span, args) if counted else 0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def op(self, op_id: int):
        """Record spans of one op (op_id < 0 marks set-up work)."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"mss.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not inspect.isclass(value)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(_span_name(layer, attr), value))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"mss.{layer}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original, setattr))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mss" and not mod_name.startswith("mss."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value, setattr))
                    setattr(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._restore.append((value, key, item, dict.__setitem__))
                            value[key] = wrappers[id(item)][1]

    def uninstall(self) -> None:
        for target, key, original, put in reversed(self._restore):
            put(target, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self, scales: dict[int, float]) -> dict[str, dict]:
        """Per span name over the ops in ``scales``: calls, self time (ns,
        times the op's calibration factor), amount, and ``under:<name>``,
        the calls whose parent span is named <name>."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out = {name: {"calls": 0, "self_ns": 0.0, "amount": 0} for name in self.names}
        for i in range(n):
            scale = scales.get(self.op_id[i])
            if scale is None:
                continue
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_ns"] += (duration[i] - child[i]) * scale
            row["amount"] += self.amount[i]
            p = self.parent[i]
            if p >= 0:
                key = "under:" + self.names[self.name_id[p]]
                row[key] = row.get(key, 0) + 1
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip'd CSV: index, op, parent, name, start, end, amount."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span,op,parent,name,start_ns,end_ns,amount\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.op_id[i]},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.amount[i]}\n"
                )
