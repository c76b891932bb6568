#!/usr/bin/env python3
"""Run one menonsums CLI command in-process with a span around each layer call.

    python3 perfbench/trace_run.py SPANS.npz -- verify menon --n-max 200 --output out.csv

The package must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Before ``menonsums.cli.main`` runs, the public functions of
``arith``, ``kernels``, ``characters``, ``identities``, ``harness`` and
``cli`` are replaced by timing wrappers in every ``menonsums`` module that
holds a binding to them, because several modules take names with
``from .x import y`` and look them up in their own namespace.
``CharacterGroup`` methods are wrapped on the class.  Spans (name, start,
end, parent, nested-in-same-name) are kept in flat arrays in memory and
written to SPANS.npz when the command returns, together with the counters
taken at the same boundaries.  The process exits with the CLI's exit code.

Pool workers forked by ``--jobs N`` inherit the wrappers, but their spans
stay in the workers and are discarded: only the parent's layers are seen.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute, counter name or None); the counter adds the
# value returned by COUNTERS[counter](args) each time the span is entered.
FUNCTIONS = (
    ("cli.emit", "menonsums.cli", "_emit", "cli.output_bytes"),
    ("harness.sweep", "menonsums.harness", "run_sweep", None),
    ("harness.sweep", "menonsums.harness", "search_counterexamples", None),
    ("harness.format", "menonsums.harness", "format_report", "harness.rows"),
    ("characters.group", "menonsums.characters", "character_group", None),
    ("characters.unit_group_structure", "menonsums.characters", "unit_group_structure", None),
    ("kernels.menon_gcd_sum", "menonsums.kernels", "menon_gcd_sum", None),
    ("kernels.dlog", "menonsums.kernels", "dlog_cyclic", "kernels.dlog.entries"),
    ("kernels.dlog", "menonsums.kernels", "dlog_two_gens", "kernels.dlog.entries"),
    ("kernels.sgcd_weights", "menonsums.kernels", "sgcd_weights", None),
    ("identities.weights", "menonsums.identities", "generalized_weights", None),
    ("identities.weights", "menonsums.identities", "zhao_cao_weights", None),
    ("identities.menon_sum", "menonsums.identities", "menon_sum", None),
    ("arith.factorize", "menonsums.arith", "factorize", None),
    ("arith.totients", "menonsums.arith", "euler_phi", None),
    ("arith.totients", "menonsums.arith", "klee_phi", None),
    ("arith.sgcd_table", "menonsums.arith", "sgcd_table", None),
)

# (span name, class, method, counter name or None), wrapped on the class.
METHODS = (
    ("characters.group_build", "CharacterGroup", "__init__", None),
    ("characters.label", "CharacterGroup", "label", None),
    ("characters.all_sums", "CharacterGroup", "all_sums", "characters.all_sums.points"),
    ("characters.conductors", "CharacterGroup", "conductors", None),
)

COUNTERS = {
    "cli.output_bytes": lambda args: len(args[0]),
    "harness.rows": lambda args: len(args[0]),
    "kernels.dlog.entries": lambda args: int(args[0]),
    "characters.all_sums.points": lambda args: int(args[0].phi),
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans in flat arrays: span i has name id, start, end, parent index
    (-1 at the root) and whether an enclosing span has the same name."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._active.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter: str | None = None):
        nid = self._name_id(name)
        count = COUNTERS[counter] if counter else None
        clock = time.perf_counter
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(active[nid] > 0)
            self.end.append(0.0)
            if count is not None:
                self.counts[counter] = self.counts.get(counter, 0) + count(args)
            active[nid] += 1
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                active[nid] -= 1

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            nested=np.frombuffer(self.nested, dtype=np.int8),
            counts=np.array(json.dumps(self.counts)),
        )


def install(tracer: Tracer) -> list[str]:
    """Wrap every target where menonsums modules bind it; return the targets
    that do not exist in this version of the package."""
    import menonsums.cli  # noqa: F401  (loads every module that binds a target)

    modules = [m for k, m in sys.modules.items() if k == "menonsums" or k.startswith("menonsums.")]
    missing = []
    for span, module, attr, counter in FUNCTIONS:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = tracer.wrap(span, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    characters = sys.modules["menonsums.characters"]
    for span, cls_name, method, counter in METHODS:
        cls = getattr(characters, cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            missing.append(f"menonsums.characters.{cls_name}.{method}")
            continue
        setattr(cls, method, tracer.wrap(span, original, counter))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print(f"trace_run: not in this version, not traced: {', '.join(missing)}", file=sys.stderr)
    import menonsums.cli

    code = tracer.wrap(ROOT_SPAN, menonsums.cli.main)(cli_argv)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
