"""Spans recorded from outside the program, by wrapping its public functions.

A wrapper replaces a function at every module attribute (or class
attribute) that its callers resolve at call time, and records one span
per call: name, start, end, parent span and op id.  Spans stay in
memory and are written out at the end.  Forked scheduler workers inherit
the wrappers; they exit through ``os._exit``, so each worker appends its
spans to a per-process side file as it records them.

Layers are the program's modules; :data:`LAYERS` maps each span name to
the functions that produce it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: span name -> (module, qualified attribute) of each wrapped function.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "experiments.fig3": (("repro.experiments.fig3_price_pdf", "run"),),
    "experiments.fig4": (("repro.experiments.fig4_job_timeline", "run"),),
    "experiments.table3": (("repro.experiments.table3_bid_prices", "run"),),
    "experiments.fig5": (("repro.experiments.fig5_onetime_costs", "run"),),
    "experiments.fig6": (("repro.experiments.fig6_persistent_vs_onetime", "run"),),
    "experiments.table4": (("repro.experiments.table4_mapreduce_plans", "run"),),
    "experiments.fig7": (("repro.experiments.fig7_mapreduce_costs", "run"),),
    "experiments.props": (("repro.experiments.queue_stability", "run"),),
    "provider.fit": (("repro.provider.fitting", "fit_both_families"),),
    "traces.generate": (
        ("repro.traces.generator", "generate_equilibrium_history"),
        ("repro.traces.generator", "generate_renewal_history"),
    ),
    "core.decide": (
        ("repro.core.client", "BiddingClient.decide"),
        ("repro.core.client", "BiddingClient.respond"),
    ),
    "market.simulate": (("repro.market.simulator", "SpotMarket.run_until_done"),),
    "mapreduce.plan_grid": (("repro.mapreduce.grid", "run_plan_grid"),),
    "sweep.run_sweep": (("repro.sweep.engine", "run_sweep"),),
    "sweep.shm": (
        ("repro.sweep.shm", "SharedPriceStack.__init__"),
        ("repro.sweep.shm", "SharedPriceStack.close"),
    ),
    "scheduler.run_shards": (("repro.scheduler.pool", "run_shards"),),
    "sweep.kernel": (
        ("repro.sweep.engine", "persistent_sweep_kernel"),
        ("repro.sweep.engine", "onetime_sweep_kernel"),
    ),
    "serve.decode": (
        ("repro.serve.protocol", "decode_line"),
        ("repro.serve.protocol", "request_from_wire"),
    ),
    "serve.handle": (("repro.serve.service", "BidService.handle"),),
    "serve.cache_get": (("repro.serve.cache", "DecisionCache.get"),),
    "serve.cache_put": (("repro.serve.cache", "DecisionCache.put"),),
    "serve.table_decide": (("repro.serve.tables", "BidTableSet.decide"),),
    "serve.encode": (
        ("repro.serve.protocol", "response_to_wire"),
        ("repro.serve.protocol", "encode_line"),
    ),
    "serve.rebuild": (("repro.serve.ingest", "MarketState.build_snapshot"),),
}


#: Per-layer metrics read off spans other than the one their name starts
#: with (see :func:`spans_of`).
_READS: Dict[str, Tuple[str, ...]] = {
    "sweep.cells": ("sweep.run_sweep",),
    "sweep.calls": ("sweep.run_sweep",),
    "sweep.self_s": ("sweep.run_sweep",),
    "sweep.kernel_inflation": ("sweep.kernel",),
    "scheduler.first_kernel_ms": ("scheduler.run_shards", "sweep.kernel"),
    "scheduler.worker_util": ("scheduler.run_shards", "sweep.kernel"),
    "serve.compute_us": ("core.decide", "serve.table_decide"),
    # Traced requests are tagged with their kind where they are decoded.
    "serve.compute_round_share": ("serve.handle", "serve.decode"),
    "serve.transport_us": ("serve.decode", "serve.handle", "serve.encode", "serve.rebuild"),
    "serve.rebuilds": ("serve.rebuild",),
    "setup.tables_s": ("serve.rebuild",),
}


def spans_of(metric: str) -> Tuple[str, ...]:
    """The span names a per-layer metric is computed from: those in
    ``_READS``, else the span its name starts with (``provider.fit_s``
    reads ``provider.fit``), else none (it comes from counters or
    ``/proc``)."""
    if metric in _READS:
        return _READS[metric]
    prefixes = [name for name in LAYERS if metric.startswith(name + "_")]
    return (max(prefixes, key=len),) if prefixes else ()


def _resolve(module_name: str, attr: str) -> Tuple[Any, str, Any, bool]:
    """The owner, leaf name and current value of a wrapped function, and
    whether its owner is a class; raises if the program has no such
    function."""
    import importlib

    owner: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[leaf] if path else getattr(owner, leaf)
    return owner, leaf, original, bool(path)


def unresolved_layers() -> Dict[str, List[str]]:
    """Span names with a wrapped function the program no longer has,
    each with the functions that are missing.  Metrics read off such a
    span are not measured: they read NaN, never zero."""
    out: Dict[str, List[str]] = {}
    for name, targets in LAYERS.items():
        for module_name, attr in targets:
            try:
                _resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                out.setdefault(name, []).append(f"{module_name}.{attr}")
    return out


def _sweep_counts(report: Any) -> Dict[str, float]:
    counters = report.counters
    return {"sweep.cells": counters.n_traces * counters.n_bids}


#: span name -> counter increments read off a wrapped call's result.
OBSERVERS: Dict[str, Callable[[Any], Dict[str, float]]] = {
    "sweep.run_sweep": _sweep_counts,
}

#: Modules whose by-name imports of wrapped functions must be patched.
CALLERS = ("repro.cli", "repro.experiments.report", "repro.serve.service")

#: One finished span: (id, name, start_ns, end_ns, parent id or -1, op, pid).
Span = Tuple[int, str, int, int, int, int, int]


class Tracer:
    """Installs the wrappers of :data:`LAYERS` and collects their spans."""

    def __init__(self, side_dir: Path):
        self.side_dir = Path(side_dir)
        # Spans of this process as flat int64 rows, so that hundreds of
        # thousands of them add no objects for the garbage collector to
        # walk while a daemon serves.
        self._rows = array("q")
        self._name_ids = {name: i for i, name in enumerate(LAYERS)}
        self._merged: List[Span] = []
        #: (counter, op) -> total, from :data:`OBSERVERS`.
        self.counts: Dict[Tuple[str, int], float] = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = os.getpid()
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------
    def _after_fork(self) -> None:
        # Span ids stay unique across processes; the inherited stack and
        # spans belong to the parent.
        self._ids = itertools.count(os.getpid() * 10**9)
        self._local = threading.local()
        self._rows = array("q")
        self._merged = []

    @property
    def spans(self) -> List[Span]:
        names = {i: name for name, i in self._name_ids.items()}
        rows = self._rows
        own = [
            (rows[i], names[rows[i + 1]], *rows[i + 2 : i + 7])
            for i in range(0, len(rows), 7)
        ]
        return own + self._merged  # type: ignore[return-value]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        if span[6] == self._owner:
            self._rows.extend((span[0], self._name_ids[span[1]], *span[2:]))
            return
        # A forked worker: it may leave through os._exit at any moment.
        path = self.side_dir / f"spans-{span[6]}.jsonl"
        with open(path, "a") as out:
            out.write(json.dumps(span) + "\n")

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._record((sid, name, start, end, parent, tracer.op, os.getpid()))
            if observe is not None:
                for key, value in observe(result).items():
                    tracer.counts[(key, tracer.op)] += value
            return result

        return traced

    # -- installation --------------------------------------------------------
    def plan(self) -> None:
        """Resolve every wrapped function and each attribute holding it.

        Module-level functions are replaced wherever a ``repro`` module
        imported them by name, so ``from .grid import run_plan_grid`` in
        a caller is covered too.  A function a later program version no
        longer has stays unwrapped (see :func:`unresolved_layers`).
        """
        import importlib

        for caller in CALLERS:
            importlib.import_module(caller)
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    owner, leaf, original, in_class = _resolve(module_name, attr)
                except (ImportError, AttributeError, KeyError):
                    continue
                wrapper = self.wrap(original, name)
                if in_class:
                    self._patches.append((owner, leaf, original, wrapper))
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- collection ----------------------------------------------------------
    def collect_side_files(self) -> None:
        """Merge the spans forked workers wrote, and remove their files."""
        for path in sorted(self.side_dir.glob("spans-*.jsonl")):
            with open(path) as lines:
                self._merged.extend(tuple(json.loads(line)) for line in lines)
            path.unlink()

    def dump(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> List[Span]:
    with open(path) as lines:
        return [tuple(json.loads(line)) for line in lines]  # type: ignore[misc]


class SpanTable:
    """Self times, inclusive times and counts of a set of spans.

    A span's self time is its duration minus the part its child spans
    in the same process cover; work a forked worker did for it is not
    subtracted, because the parent waited through it.
    """

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s[0]: s for s in self.spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for sid, _name, start, end, parent, _op, pid in self.spans:
            up = self.by_id.get(parent)
            if up is not None and up[6] == pid:
                child_ns[parent] += end - start
        self.self_ns = {s[0]: (s[3] - s[2]) - child_ns[s[0]] for s in self.spans}

    def of(self, name: str, op: Optional[int] = None) -> List[Span]:
        return [s for s in self.spans if s[1] == name and (op is None or s[5] == op)]

    def outermost(self, name: str, op: Optional[int] = None) -> List[Span]:
        """Spans of ``name`` not nested in another span of ``name``."""
        out = []
        for span in self.of(name, op):
            up = self.by_id.get(span[4])
            while up is not None and up[1] != name:
                up = self.by_id.get(up[4])
            if up is None:
                out.append(span)
        return out

    def self_seconds(self, name: str, op: Optional[int] = None) -> float:
        return sum(self.self_ns[s[0]] for s in self.of(name, op)) / 1e9

    def total_seconds(self, name: str, op: Optional[int] = None) -> float:
        return sum(s[3] - s[2] for s in self.outermost(name, op)) / 1e9

    def calls(self, name: str, op: Optional[int] = None) -> int:
        return len(self.outermost(name, op))

    def under(self, name: str, ancestor: str) -> List[Span]:
        """Spans of ``name`` whose nearest traced ancestor is ``ancestor``."""
        out = []
        for span in self.of(name):
            up = self.by_id.get(span[4])
            if up is not None and up[1] == ancestor:
                out.append(span)
        return out
