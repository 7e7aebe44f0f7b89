"""Span recorder and the wrappers that feed it, installed from outside.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces public functions and methods of each layer with timing
wrappers (and :meth:`Tracer.uninstall` puts the originals back), so an
untraced run executes exactly the library's own code.  Every span is
kept in memory as ``[name, start, end, parent]`` until the repetition
ends and is then written out as JSON lines.

Self time is a span's duration minus the time its child spans cover.
The wrappers run on one thread and nest like the call stack, so the
self times of all spans add up to the time the top-level spans cover;
whatever no span covers is reported as ``trace.other_s``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from workloads import FAMILIES

# Span name for each wrapped callable, by module: (owner, attribute, name).
# Owners are resolved lazily by :meth:`Tracer.install` so importing this
# module imports nothing from the library.
SPANS = [
    ("repro.analysis.facade", "Analysis.__init__", "analysis.build"),
    ("repro.analysis.facade", "Analysis.step", "analysis.step"),
    ("repro.analysis.facade", "Analysis.run", "analysis.run"),
    ("repro.encoding.improved", "ImprovedEncoding.__init__",
     "encoding.build"),
    ("repro.symbolic.transition", "SymbolicNet.__init__",
     "symbolic.net_build"),
    ("repro.symbolic.transition", "SymbolicNet.image", "symbolic.image"),
    ("repro.symbolic.transition", "SymbolicNet.image_toggle",
     "symbolic.image"),
    ("repro.symbolic.transition", "SymbolicNet.preimage_all",
     "symbolic.preimage"),
    ("repro.symbolic.transition", "SymbolicNet.count_markings",
     "symbolic.count"),
    ("repro.symbolic.transition", "SymbolicNet.deadlock_condition",
     "symbolic.deadlock_condition"),
    ("repro.symbolic.checker", "ModelChecker.find_deadlocks",
     "checker.deadlock"),
    ("repro.symbolic.checker", "ModelChecker.ag", "checker.ag"),
    ("repro.symbolic.checker", "ModelChecker.can_always_recover",
     "checker.home"),
    ("repro.symbolic.checker", "ModelChecker.ef", "checker.ef"),
    ("repro.dd.manager", "DDManager.checkpoint", "dd.safepoint"),
    ("repro.service.cache", "ResultCache.get", "cache.get"),
    ("repro.service.cache", "ResultCache.put", "cache.put"),
    ("repro.analysis.portfolio", "WorkerHarness.spawn", "portfolio.spawn"),
]


def _resolve(module_name: str, dotted: str):
    import importlib
    owner = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[tuple] = []
        self._submitted: Dict[Any, float] = {}

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapper installation ------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _timed(self, name: str, after: Optional[Callable] = None):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if after is not None:
                    after(index, args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every layer boundary listed above, plus the counters."""
        import repro.dd.reorder as reorder
        import repro.petri.generators as generators
        from repro.dd.manager import DDManager
        from repro.service.pool import AnalysisWorkerPool
        from repro.service.server import AnalysisService

        # ``workloads.make_net`` looks generators up on the module at
        # call time.
        for name in FAMILIES.values():
            self._patch(generators, name, self._timed("petri.generate"))
        for module_name, dotted, name in SPANS:
            owner, attr = _resolve(module_name, dotted)
            self._patch(owner, attr, self._timed(name))
        self._patch(DDManager, "collect_garbage",
                    self._timed("dd.gc", self._after_gc))
        self._patch(DDManager, "swap_levels", self._counted("dd.swaps"))
        # The safe point imports ``sift`` from the module at call time,
        # so replacing the module attribute catches every automatic sift.
        self._patch(reorder, "sift", self._sift)
        self._patch(AnalysisService, "submit",
                    self._timed("service.submit", self._after_submit))
        self._patch(AnalysisWorkerPool, "submit",
                    self._timed("pool.submit", self._after_pool_submit))
        self._patch(AnalysisWorkerPool, "poll",
                    self._timed("pool.poll", self._after_poll))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrapper bodies ------------------------------------------------

    def _counted(self, name: str):
        counters = self.counters

        def make(original):
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _sift(self, original):
        tracer = self

        def wrapper(manager, *args, **kwargs):
            before = manager.live_nodes()
            index = tracer._open("dd.sift")
            try:
                result = original(manager, *args, **kwargs)
            finally:
                tracer._close(index)
            after = manager.live_nodes()
            tracer.counters["dd.sift_nodes_before"] += before
            tracer.counters["dd.sift_nodes_after"] += after
            return result
        return wrapper

    def _after_gc(self, index, args, freed) -> None:
        self.counters["dd.gc_freed"] += freed

    def _after_submit(self, index, args, handle) -> None:
        hit = handle.info.get("cache") == "hit"
        self.spans[index][0] = ("service.submit_hit" if hit
                                else "service.submit_miss")

    def _after_pool_submit(self, index, args, accepted) -> None:
        # The pool is lazy: its first submit spawns the workers.
        if self.counters["pool.submits"] == 0:
            self.spans[index][0] = "pool.spawn"
        self.counters["pool.submits"] += 1
        if accepted:
            self._submitted[args[1]] = self.spans[index][1]

    def _after_poll(self, index, args, events) -> None:
        now = self.spans[index][2]
        for event in events:
            started = self._submitted.pop(event[1], None)
            if event[0] != "result" or started is None:
                continue
            roundtrip = now - started
            solve = event[2]["seconds"]
            self.samples["pool.roundtrip_s"].append(roundtrip)
            self.samples["pool.worker_solve_s"].append(solve)
            self.samples["pool.overhead_s"].append(roundtrip - solve)

    # -- analysis ------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self time, call count, longest call."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"self": 0.0, "calls": 0,
                                          "max": 0.0})
            entry["self"] += (end - start) - child_time[index]
            entry["calls"] += 1
            entry["max"] = max(entry["max"], end - start)
        return out

    def covered(self, lo: float, hi: float) -> float:
        """Seconds of ``[lo, hi]`` that some top-level span covers."""
        return sum(max(0.0, min(end, hi) - max(start, lo))
                   for _name, start, end, parent in self.spans
                   if parent is None)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent,
                     "workload": self.workload}) + "\n")
