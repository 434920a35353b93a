"""Span tracing of the ``coframes`` layers from outside the library.

``Tracer.install`` replaces each layer-boundary public function by a wrapper
that records a span, and rebinds the wrapper under every name any
``coframes`` module (the package included) imported the function as, so
calls between modules are traced too.  ``Tracer.uninstall`` puts the
originals back.  Only functions called per structure or per document are
wrapped, never the element-level ``meet``, ``join`` or ``bits``.

A span records its name, start, end, parent span and operation id; spans
are kept in memory in flat arrays and written out by ``Tracer.dump``.  Self
time (a span's duration minus the time its child spans cover) and call
counts are accumulated per span name as spans close.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

# (module, function, span name).  Span names are "<layer>.<what>"; several
# functions may share one name.
TRACED = (
    ("lattice", "analyze", "lattice.analyze"),
    ("lattice", "build_lattice", "lattice.construct"),
    ("lattice", "downset_lattice", "lattice.construct"),
    ("lattice", "powerset_lattice", "lattice.construct"),
    ("lattice", "dualize", "lattice.construct"),
    ("filters", "grill", "filters"),
    ("filters", "mesh", "filters"),
    ("filters", "all_filters", "filters"),
    ("filters", "restrict_complemented", "filters"),
    ("filters", "refines", "filters"),
    ("filters", "is_proper", "filters"),
    ("convergence", "classify", "convergence.classify"),
    ("convergence", "s1", "convergence.s1"),
    ("convergence", "s_infinity", "convergence.s_infinity"),
    ("convergence", "points", "convergence.points"),
    ("adherence", "adh0_table", "adherence.adh0_table"),
    ("adherence", "adh_table", "adherence.adh_table"),
    ("adherence", "closed_sets", "adherence.closed_sets"),
    ("topology", "topological_modification", "topology.topological_modification"),
    ("duality", "pt_space", "duality.pt_space"),
    ("duality", "bullet", "duality.bullet"),
    ("duality", "eta", "duality.eta"),
    ("documents", "load_document", "documents.load"),
    ("documents", "canonical_json", "documents.dump"),
    ("documents", "structure_to_doc", "documents.dump"),
    ("documents", "lattice_to_doc", "documents.dump"),
    ("documents", "convergence_to_doc", "documents.dump"),
    ("documents", "space_to_doc", "documents.dump"),
    ("documents", "adherence_space_to_doc", "documents.dump"),
    ("documents", "topological_space_to_doc", "documents.dump"),
    ("documents", "topology_to_doc", "documents.dump"),
    ("cli", "main", "cli.main"),
    ("search", "search_counterexample", "search.search_counterexample"),
    ("search", "small_coframes", "search.small_coframes"),
)

# Generator functions: each resumption is one span.
GENERATORS = {"small_coframes"}

# (span, ancestor): counted when the span opens while the ancestor is open.
NESTED = (
    ("adherence.adh0_table", "convergence.classify"),
    ("convergence.s1", "convergence.s_infinity"),
    ("duality.bullet", "duality.pt_space"),
)

_END = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self._open: Counter = Counter()  # open spans per name id
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.current_op = -1
        self._nested = {}
        self._analysed: weakref.WeakSet = weakref.WeakSet()
        self._built: weakref.WeakSet = weakref.WeakSet()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        nid = self._id(name)
        for anc in self._nested.get(nid, ()):
            if self._open[anc]:
                self.counters[f"{name}.within.{self.names[anc]}"] += 1
        self._open[nid] += 1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append([idx, 0])
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter_ns()
        top, child_ns = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name[idx]
        self._open[nid] -= 1
        self.self_ns[nid] += dur - child_ns
        self.total_ns[nid] += dur
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(args, result)
            return result

        return traced

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it, _END)
                finally:
                    tracer.close(idx)
                if item is _END:
                    return
                yield item

        return traced

    # Notes run after a traced call returns and record counts at the same
    # boundary.  A carrier is cold for ``analyze`` the first time the tracer
    # sees it there; weak sets keep the tracer from retaining carriers.

    def _note_analyze(self, args, result) -> None:
        if args[0] not in self._analysed:
            self.counters["lattice.analyze.cold"] += 1
            self._analysed.add(args[0])

    def _note_construct(self, args, result) -> None:
        if result not in self._built:
            self.counters["lattice.carriers_built"] += 1
            self._built.add(result)

    def _note_load(self, args, result) -> None:
        self.counters["documents.bytes_in"] += len(args[0].encode())

    def _note_dump(self, args, result) -> None:
        if isinstance(result, str):  # canonical_json; the others build dicts
            self.counters["documents.bytes_out"] += len(result.encode())

    def install(self) -> None:
        """Wrap every function in TRACED under all names it is bound to."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "coframes" or key.startswith("coframes."))
        ]
        notes = {
            "lattice.analyze": self._note_analyze,
            "lattice.construct": self._note_construct,
            "documents.load": self._note_load,
            "documents.dump": self._note_dump,
        }
        for mod_name, attr, name in TRACED:
            original = getattr(sys.modules[f"coframes.{mod_name}"], attr)
            if attr in GENERATORS:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, notes.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        self._nested = {
            self._id(name): tuple(self._id(anc) for n, anc in NESTED if n == name)
            for name, _ in NESTED
        }

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        return {
            "self_s": {self.names[i]: ns / 1e9 for i, ns in self.self_ns.items()},
            "total_s": {self.names[i]: ns / 1e9 for i, ns in self.total_ns.items()},
            "calls": {self.names[i]: c for i, c in self.calls.items()},
            "counters": dict(self.counters),
            "spans": len(self.name),
        }

    def dump(self, path, t0_ns: int) -> None:
        """Write every span, with times in ns from ``t0_ns``, as gzipped JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start_ns", "end_ns"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start_ns": [t - t0_ns for t in self.start],
            "end_ns": [t - t0_ns for t in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
