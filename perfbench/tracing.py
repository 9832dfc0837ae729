"""Per-layer tracing from outside the program.

:class:`Tracer` records spans around calls into each layer's public
callables.  :func:`install` wraps those callables at runtime (module and
class attributes, restored on exit) -- no program file is touched, and
only public names are imported, so the benchmark survives the planned
deletions of individual strategies, kernels and observers: the chase
strategy is wrapped through whatever ``make_strategy`` resolves.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory in flat arrays and written out when the run ends.  A
layer's self time is its span duration minus the part of that interval
its child spans cover (:func:`self_time_ns`); its busy time counts only
spans not nested in a span of the same layer, so recursion and re-entry
are not double-counted.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """An in-memory span recorder (thread-safe: one parent stack per thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        """The interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span under the current thread's innermost open span."""
        stack = self._stack()
        with self._lock:
            sid = len(self.start)
            self.name_of.append(self.name_id(name))
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.start.append(_clock())
            self.end.append(0)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End a span opened by :meth:`open` on this thread."""
        self.end[sid] = _clock()
        self._stack().pop()

    def add_span(self, name: str, start: int, end: int, parent: int = -1,
                 op: int = -1) -> int:
        """Record a finished span directly (client-side and test spans)."""
        with self._lock:
            sid = len(self.start)
            self.name_of.append(self.name_id(name))
            self.parent.append(parent)
            self.op_of.append(op)
            self.start.append(start)
            self.end.append(end)
        return sid

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a counter recorded at a layer boundary."""
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """A callable that runs ``fn`` inside a span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> int:
        """How many spans were recorded."""
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as one TSV line (gzip): name start end parent op."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name_of[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op_of[i]}\n"
                )


# -- self time and busy time ----------------------------------------------------


def covered_ns(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """How much of ``[start, end)`` the union of child intervals covers.

    Children may overlap one another (threads, or async work awaited in
    parallel) and may stick out of the parent; only the union inside the
    parent's interval counts.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_ns(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_ns(start, end, children)


class SpanTable:
    """Aggregates over a tracer's spans, by span name."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        n = tracer.spans()
        self.children: Dict[int, List[int]] = defaultdict(list)
        for sid in range(n):
            parent = tracer.parent[sid]
            if parent >= 0:
                self.children[parent].append(sid)
        self._by_name: Dict[str, List[int]] = defaultdict(list)
        for sid in range(n):
            self._by_name[tracer.names[tracer.name_of[sid]]].append(sid)

    def ids(self, name: str) -> List[int]:
        """Span ids carrying ``name``."""
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        """How many spans carry ``name``."""
        return len(self.ids(name))

    def _nested_in_same(self, sid: int, names: Sequence[str]) -> bool:
        tracer = self.tracer
        parent = tracer.parent[sid]
        while parent >= 0:
            if tracer.names[tracer.name_of[parent]] in names:
                return True
            parent = tracer.parent[parent]
        return False

    def busy_ms(self, *names: str) -> float:
        """Wall time inside spans of ``names``, outermost occurrences only."""
        tracer = self.tracer
        total = 0
        for name in names:
            for sid in self.ids(name):
                if not self._nested_in_same(sid, names):
                    total += tracer.end[sid] - tracer.start[sid]
        return total / 1e6

    def self_ms(self, name: str) -> float:
        """Summed self time of every span named ``name``."""
        tracer = self.tracer
        total = 0
        for sid in self.ids(name):
            kids = [(tracer.start[c], tracer.end[c]) for c in self.children.get(sid, ())]
            total += self_time_ns(tracer.start[sid], tracer.end[sid], kids)
        return total / 1e6


# -- installing the wrappers ------------------------------------------------------


class _StrategyProxy:
    """Times ``next_round`` and ``observe`` of whatever strategy was resolved."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def next_round(self):
        sid = self._tracer.open("chase.discover")
        try:
            triggers = self._inner.next_round()
        finally:
            self._tracer.close(sid)
        self._tracer.count("chase.discover.triggers", len(triggers))
        return triggers

    def observe(self, delta):
        sid = self._tracer.open("chase.observe")
        try:
            return self._inner.observe(delta)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every layer's public callables for the duration of the block."""
    import repro.chase.engine as chase_engine
    import repro.implication.decidable as decidable
    import repro.implication.engine as implication_engine
    from repro.api import Solver
    from repro.chase import ChaseEngine, ChaseStatus, CheckpointWriter
    from repro.implication import ImplicationEngine

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def chase_result(result, _args) -> None:
        tracer.count("chase.steps", result.steps)
        tracer.count("chase.rounds", result.rounds)
        if result.status is ChaseStatus.BUDGET_EXHAUSTED:
            tracer.count("chase.exhausted", 1)
        tracer.count(f"config.strategy={result.strategy}", 1)
        tracer.count(f"config.kernel={result.kernel}", 1)

    def check_result(alpha, _args) -> None:
        if alpha is not None:
            tracer.count("chase.check.active", 1)

    def finite_result(found, _args) -> None:
        if found is not None:
            tracer.count("implication.finite_search.found", 1)

    def writer_closed(_none, args) -> None:
        writer = args[0]
        if writer.path not in tracer_paths:
            tracer_paths.add(writer.path)
            with contextlib.suppress(OSError):
                tracer.count("chase.checkpoint.bytes", os.path.getsize(writer.path))

    tracer_paths: set = set()

    patch(ChaseEngine, "run", tracer.wrap("chase.run", ChaseEngine.run, chase_result))
    original_make = chase_engine.make_strategy
    patch(chase_engine, "make_strategy",
          lambda *a, **k: _StrategyProxy(original_make(*a, **k), tracer))
    patch(chase_engine, "trigger_is_active",
          tracer.wrap("chase.check", chase_engine.trigger_is_active, check_result))
    patch(chase_engine, "apply_td_step",
          tracer.wrap("chase.apply.td", chase_engine.apply_td_step))
    patch(chase_engine, "apply_egd_step",
          tracer.wrap("chase.apply.egd", chase_engine.apply_egd_step))
    for method in ("__init__", "round", "step", "snapshot", "maybe_snapshot",
                   "footer", "close"):
        original = CheckpointWriter.__dict__[method]
        patch(CheckpointWriter, method, tracer.wrap(
            "chase.checkpoint", original,
            writer_closed if method == "close" else None))

    patch(ImplicationEngine, "solve",
          tracer.wrap("implication.solve", ImplicationEngine.solve))
    patch(implication_engine, "fd_implies",
          tracer.wrap("implication.fd_closure", implication_engine.fd_implies))
    patch(implication_engine, "full_fragment_implies",
          tracer.wrap("implication.full_fragment",
                      implication_engine.full_fragment_implies))
    for module in (implication_engine, decidable):
        patch(module, "prove", tracer.wrap("implication.prove", module.prove))
        patch(module, "normalize_all",
              tracer.wrap("implication.normalize", module.normalize_all))
    patch(implication_engine, "refute_finitely",
          tracer.wrap("implication.finite_search", implication_engine.refute_finitely,
                      finite_result))

    original_init = Solver.__init__

    def traced_init(solver, *args, **kwargs):
        original_init(solver, *args, **kwargs)
        trace_store(tracer, solver.store)

    patch(Solver, "__init__", traced_init)
    patch(Solver, "problem", tracer.wrap("api.parse", Solver.problem))
    patch(Solver, "identity", tracer.wrap("api.identity", Solver.identity))
    patch(Solver, "solve_many", tracer.wrap("api.batch", Solver.solve_many))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def trace_store(tracer: Tracer, store) -> None:
    """Wrap one outcome store's ``get``/``put`` (instance attributes)."""
    store.get = tracer.wrap("api.store.get", store.get)
    store.put = tracer.wrap("api.store.put", store.put)


# -- per-layer metrics --------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every chase/implication/api per-layer metric from one traced run."""
    table = SpanTable(tracer)
    counts = tracer.counts
    runs = table.calls("chase.run")
    checks = table.calls("chase.check")
    td_calls = table.calls("chase.apply.td")
    egd_calls = table.calls("chase.apply.egd")
    finite_calls = table.calls("implication.finite_search")
    return {
        "chase.runs": (runs, "count"),
        "chase.busy_ms": (table.busy_ms("chase.run"), "ms"),
        "chase.steps": (counts["chase.steps"], "count"),
        "chase.rounds": (counts["chase.rounds"], "count"),
        "chase.exhausted_share": (_ratio(counts["chase.exhausted"], runs), "ratio"),
        "chase.discover.busy_ms": (table.busy_ms("chase.discover"), "ms"),
        "chase.discover.triggers": (counts["chase.discover.triggers"], "count"),
        "chase.observe.busy_ms": (table.busy_ms("chase.observe"), "ms"),
        "chase.check.calls": (checks, "count"),
        "chase.check.busy_ms": (table.busy_ms("chase.check"), "ms"),
        "chase.check.active_share": (_ratio(counts["chase.check.active"], checks), "ratio"),
        "chase.apply.td_calls": (td_calls, "count"),
        "chase.apply.egd_calls": (egd_calls, "count"),
        "chase.apply.busy_ms": (table.busy_ms("chase.apply.td", "chase.apply.egd"), "ms"),
        "chase.round.self_ms": (table.self_ms("chase.run"), "ms"),
        "chase.useful_share": (_ratio(td_calls + egd_calls, checks), "ratio"),
        "chase.checkpoint.busy_ms": (table.busy_ms("chase.checkpoint"), "ms"),
        "chase.checkpoint.bytes": (counts["chase.checkpoint.bytes"], "bytes"),
        "implication.busy_ms": (table.busy_ms("implication.solve"), "ms"),
        "implication.fd_closure.calls": (table.calls("implication.fd_closure"), "count"),
        "implication.fd_closure.busy_ms": (table.busy_ms("implication.fd_closure"), "ms"),
        "implication.full_fragment.calls": (table.calls("implication.full_fragment"), "count"),
        "implication.full_fragment.busy_ms": (
            table.busy_ms("implication.full_fragment"), "ms"),
        "implication.prove.calls": (table.calls("implication.prove"), "count"),
        "implication.prove.busy_ms": (table.busy_ms("implication.prove"), "ms"),
        "implication.normalize.busy_ms": (table.busy_ms("implication.normalize"), "ms"),
        "implication.finite_search.calls": (finite_calls, "count"),
        "implication.finite_search.busy_ms": (
            table.busy_ms("implication.finite_search"), "ms"),
        "implication.finite_search.found_share": (
            _ratio(counts["implication.finite_search.found"], finite_calls), "ratio"),
        "api.parse.calls": (table.calls("api.parse"), "count"),
        "api.parse.busy_ms": (table.busy_ms("api.parse"), "ms"),
        "api.identity.calls": (table.calls("api.identity"), "count"),
        "api.identity.busy_ms": (table.busy_ms("api.identity"), "ms"),
        "api.store.get.calls": (table.calls("api.store.get"), "count"),
        "api.store.get.busy_ms": (table.busy_ms("api.store.get"), "ms"),
        "api.store.put.calls": (table.calls("api.store.put"), "count"),
        "api.store.put.busy_ms": (table.busy_ms("api.store.put"), "ms"),
        "api.batch.self_ms": (table.self_ms("api.batch"), "ms"),
    }
