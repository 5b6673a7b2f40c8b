"""In-memory tracing of calls into the library, from outside the library.

The tracer wraps public functions and methods at every name a caller looks
up: a function imported by name into another module (`nu` and `cli` import
`check_membership`, `oriental` imports `enumerate_injective_into`, `zdelta`
imports `compose`) is replaced in every `osimplex` module that holds it.
Hot constructors and leaf methods get count-only hooks; the rest record a
span (name, start, end, parent span, operation id) in flat arrays, which are
written out when the traced pass ends.  Span times are process CPU times,
like the end-to-end timings; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import defaultdict
from time import process_time

# (module, owner class or None, attribute, metric name)
COUNTED = [
    ("simplex", "MonotoneMap", "__post_init__", "simplex.MonotoneMap.created"),
    ("simplex", None, "compose", "simplex.compose.calls"),
    ("simplex", None, "enumerate_injective_into", "simplex.enumerate_injective_into.calls"),
    ("zdelta", "ZMorphism", "__init__", "zdelta.ZMorphism.created"),
    ("zdelta", "ZMorphism", "face", "zdelta.ZMorphism.face.calls"),
    ("zdelta", "ZMorphism", "degeneracy", "zdelta.ZMorphism.degeneracy.calls"),
    ("chains", "Chain", "__init__", "chains.Chain.created"),
    ("chains", "Chain", "boundary", "chains.Chain.boundary.calls"),
    ("oriental", None, "split_start", "oriental.split.calls"),
    ("oriental", None, "split_middle", "oriental.split.calls"),
    ("oriental", None, "split_finish", "oriental.split.calls"),
    ("oriental", "Expr", "evaluate", "oriental.Expr.evaluate.calls"),
    ("nu", "Cell", "compose", "nu.Cell.compose.calls"),
]

SPANNED = [
    ("zdelta", "ZMorphism", "compose", "zdelta.ZMorphism.compose"),
    ("chains", None, "to_chain_map", "chains.to_chain_map"),
    ("chains", None, "from_chain_map", "chains.from_chain_map"),
    ("chains", "ChainMapTable", "validate", "chains.ChainMapTable.validate"),
    ("chains", None, "check_unital", "chains.check_unital"),
    ("chains", None, "check_strongly_loopfree", "chains.check_strongly_loopfree"),
    ("oriental", None, "check_membership", "oriental.check_membership"),
    ("oriental", None, "first_last", "oriental.first_last"),
    ("oriental", None, "simplify", "oriental.simplify"),
    ("oriental", None, "factorize", "oriental.factorize"),
    ("oriental", None, "eval_expr", "oriental.eval_expr"),
    ("nu", None, "enumerate_cells", "nu.enumerate_cells"),
    ("nu", None, "check_atom_generation", "nu.check_atom_generation"),
    ("nu", None, "act", "nu.act"),
]

SPAN_NAMES = {name for *_, name in SPANNED}

# Spans whose calls also record how far the counters moved inside them.
SNAPSHOT = {"nu.enumerate_cells", "nu.check_atom_generation"}


class Tracer:
    """Counts and spans of one traced pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.inner = defaultdict(lambda: defaultdict(int))
        self.first_last_inputs = defaultdict(set)
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self, lib):
        modules = [m for k, m in sys.modules.items() if k == "osimplex" or k.startswith("osimplex.")]
        wrapped = {}
        for module, owner, attr, name in COUNTED + SPANNED:
            host = getattr(lib, module)
            if owner is not None:
                host = getattr(host, owner)
            original = host.__dict__[attr]
            if original not in wrapped:
                if name in SPAN_NAMES:
                    wrapped[original] = self._span(original, name)
                else:
                    wrapped[original] = self._count(original, name)
            replacement = wrapped[original]
            if owner is not None:
                self._replace(host, attr, replacement)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, replacement)

    def _replace(self, host, attr, value):
        self._restore.append((host, attr, host.__dict__[attr]))
        setattr(host, attr, value)

    def uninstall(self):
        for host, attr, original in reversed(self._restore):
            setattr(host, attr, original)
        self._restore.clear()

    def _count(self, original, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def _span(self, original, name):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        starts, ends = self.span_start, self.span_end
        stack, counts = self.stack, self.counts
        tracer = self
        snapshot = name in SNAPSHOT
        is_first_last = name == "oriental.first_last"
        is_enumerate = name == "nu.enumerate_cells"

        def traced(*args, **kwargs):
            idx = len(starts)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.span_op.append(tracer.op)
            ends.append(0.0)
            if is_first_last:
                tracer.first_last_inputs[tracer.op].add(args[0])
            before = dict(counts) if snapshot else None
            stack.append(idx)
            starts.append(process_time())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = process_time()
                stack.pop()
            if is_enumerate:
                counts["nu.enumerate_cells.cells"] += len(result)
            if snapshot:
                for key, value in counts.items():
                    moved = value - before.get(key, 0)
                    if moved:
                        tracer.inner[name][key] += moved
            return result

        return traced

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Self time in seconds per span: duration minus child durations."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def finish(self):
        """Sum self times per span name and per (name, operation)."""
        self.self_by_name = defaultdict(float)
        self.self_by_op = defaultdict(float)
        self.calls_by_name = defaultdict(int)
        self.calls_by_op = defaultdict(int)
        for i, s in enumerate(self.self_times()):
            name = self.names[self.span_name[i]]
            self.self_by_name[name] += s
            self.self_by_op[(name, self.span_op[i])] += s
            self.calls_by_name[name] += 1
            self.calls_by_op[(name, self.span_op[i])] += 1

    def self_ms(self, name, op=None):
        if op is None:
            return self.self_by_name.get(name, 0.0) * 1e3
        return self.self_by_op.get((name, op), 0.0) * 1e3

    def write(self, path_prefix):
        """Write the spans: a JSON header and the raw arrays, in the order the
        header lists them (native byte order)."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [
                ["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"],
            ],
        }
        os.makedirs(os.path.dirname(path_prefix), exist_ok=True)
        with open(path_prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(path_prefix + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(handle)
