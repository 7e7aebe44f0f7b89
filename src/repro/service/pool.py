"""Warm worker pool running whole analyses in persistent processes.

The serving layer's unit of parallelism is one whole ``analyze()`` call
per worker process.  Workers are persistent — warm across requests,
with a small parsed-net cache — and speak the portfolio's wire idiom:
nets as canonical ``.pnet`` text, specs and results as their
``to_dict()`` payloads.

The process mechanics are the shared supervisor's
(:mod:`repro.analysis.workers`); this module multiplexes requests.
Each worker takes requests from its own task queue and replies over its
own pipe, and :meth:`AnalysisWorkerPool.poll` waits on every slot's
pipe at once:

* a worker that raises *inside* a request replies ``("error", ...)``
  and lives on;
* end of file on a worker's pipe — it died, busy or idle — or a reply
  that cannot be read or is malformed is that worker's crash: it is
  respawned with a **fresh task queue** (its undrained tasks must not
  leak into the replacement) and its pending requests resubmitted;
  past the respawn budget the slot is retired and its requests
  redistributed over the survivors;
* with no worker left (or none spawnable) the pool reports
  ``mode="serial-fallback"`` and hands pending requests back as
  ``("orphan", ...)`` events, which the
  :class:`~repro.service.server.AnalysisService` solves in-process.

Shutdown is polite-then-forceful, with a ``weakref.finalize`` safety
net so a leaked pool cannot strand processes.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.workers import WorkerHarness, WorkerSlot, reap_processes

__all__ = ["AnalysisWorkerPool", "PoolEvent"]

#: Parsed nets one worker keeps warm before recycling the cache.
WORKER_NET_CACHE = 8

#: One pool event: ``("result", request_id, result_dict)``,
#: ``("error", request_id, {"kind", "detail"})`` or
#: ``("orphan", request_id)`` (the pool can no longer run it; the
#: caller should solve it in-process).
PoolEvent = Tuple


def _service_worker_main(task_queue, reply) -> None:
    """One service worker: a warm analysis loop.

    Top level so it pickles under every start method.  Protocol, tasks
    on ``task_queue`` and replies on the ``reply`` pipe:

    * ``("run", request_id, net_text, spec_dict)`` — parse (or reuse a
      warm parse of) the net, run ``analyze``, reply ``("result",
      request_id, result_dict)``; a per-request exception replies
      ``("error", request_id, info)`` and the worker lives on,
    * ``("stop",)`` — exit.

    Anything fatal outside a request dies silently — the parent sees
    end of file on the pipe, exactly as after a SIGKILL.
    """
    try:
        import warnings

        from ..analysis.facade import analyze
        from ..analysis.spec import AnalysisSpec
        from ..petri.parser import loads

        nets: Dict[str, Any] = {}
        while True:
            task = task_queue.get()
            if not isinstance(task, tuple) or not task:
                continue
            if task[0] == "stop":
                break
            if task[0] != "run" or len(task) != 4:
                continue
            _tag, request_id, net_text, spec_dict = task
            try:
                digest = hashlib.sha256(
                    net_text.encode("utf-8")).hexdigest()
                net = nets.get(digest)
                if net is None:
                    net = loads(net_text)
                    if len(nets) >= WORKER_NET_CACHE:
                        nets.clear()
                    nets[digest] = net
                spec = AnalysisSpec.from_dict(spec_dict)
                with warnings.catch_warnings():
                    # Inapplicable-option warnings already fired when
                    # the submitting process validated the spec.
                    warnings.simplefilter("ignore")
                    result = analyze(net, spec)
                reply.send(("result", request_id, result.to_dict()))
            except Exception as exc:
                reply.send(("error", request_id,
                            {"kind": type(exc).__name__,
                             "detail": str(exc)}))
    except BaseException:
        pass


class _ServiceSlot(WorkerSlot):
    """One pool slot: a supervised worker, its task queue and its
    pending-request ledger."""

    def __init__(self, worker_id: int) -> None:
        super().__init__(f"service-{worker_id}")
        self.worker_id = worker_id
        self.task_queue = None
        self.pending: Dict[Any, Tuple[str, Dict[str, Any]]] = {}
        self.completed = 0


class AnalysisWorkerPool:
    """Persistent ``analyze()`` workers multiplexing service requests.

    Parameters
    ----------
    workers:
        Pool size: a positive integer, ``"auto"`` (CPU count) or ``0``
        to skip processes entirely (every submit is refused and the
        caller solves serially — the deterministic mode the benchmarks
        use).
    harness:
        Process-primitive seam (:class:`~repro.analysis.workers.
        WorkerHarness`); tests inject fakes or force the serial
        degradation here.

    The pool is lazy: processes spawn on the first :meth:`submit`.
    """

    def __init__(self, workers: "int | str" = "auto",
                 harness: Optional[WorkerHarness] = None) -> None:
        self.requested_workers = workers
        self.harness = harness if harness is not None else WorkerHarness()
        self.mode: Optional[str] = None
        self.slots: List[_ServiceSlot] = []
        self.crashes: List[Dict[str, Any]] = []
        self._inflight: Dict[Any, int] = {}  # request_id -> worker_id
        self._processes: List = []           # every process ever spawned
        self._finalizer = weakref.finalize(self, reap_processes,
                                           self._processes)
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _activate(self) -> None:
        count = (os.cpu_count() or 1) \
            if self.requested_workers in (None, "auto") \
            else int(self.requested_workers)
        if count < 1 or not self.harness.available():
            self.mode = "serial-fallback"
            return
        try:
            for worker_id in range(count):
                slot = _ServiceSlot(worker_id)
                self._spawn(slot)
                self.slots.append(slot)
        except Exception:
            reap_processes(self._processes)
            self.slots = []
            self.mode = "serial-fallback"
            return
        self.mode = "process"

    def _spawn(self, slot: _ServiceSlot) -> None:
        # Fresh task queue per (re)spawn — see module docstring.  A
        # queue, not a pipe: its feeder thread keeps ``put`` from
        # blocking the parent on a worker that is itself blocked
        # sending a large reply.
        slot.task_queue = self.harness.create_queue()
        self._processes.append(slot.spawn(
            self.harness, _service_worker_main, (slot.task_queue,)))

    def close(self) -> None:
        """Stop the pool: polite stop, then terminate → join → kill."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            if slot.alive():
                try:
                    slot.task_queue.put(("stop",))
                except Exception:
                    pass
        reap_processes(self._processes)
        for slot in self.slots:
            slot.stop()

    def __enter__(self) -> "AnalysisWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------

    def _live_slots(self) -> List[_ServiceSlot]:
        return [slot for slot in self.slots
                if not slot.retired and slot.alive()]

    def _dispatch(self, request_id, net_text: str,
                  spec_dict: Dict[str, Any]) -> bool:
        """Queue one request on the least-loaded live worker."""
        live = self._live_slots()
        if not live:
            return False
        slot = min(live, key=lambda s: len(s.pending))
        try:
            slot.task_queue.put(("run", request_id, net_text, spec_dict))
        except Exception:
            return False
        slot.pending[request_id] = (net_text, spec_dict)
        self._inflight[request_id] = slot.worker_id
        return True

    def submit(self, request_id, net_text: str,
               spec_dict: Dict[str, Any]) -> bool:
        """Dispatch one request to the least-loaded live worker.

        Returns ``False`` when the pool cannot take it (serial-fallback
        mode, or every worker gone) — the caller then solves
        in-process.  Never raises for a dead pool.
        """
        if self.mode is None:
            self._activate()
        if self.mode == "serial-fallback":
            return False
        if not self._live_slots():
            self.mode = "serial-fallback"
            return False
        return self._dispatch(request_id, net_text, spec_dict)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- collection ----------------------------------------------------

    def poll(self) -> List[PoolEvent]:
        """One poll round: read every ready reply and book every crash.

        Waits on the pipes of all slots not retired, idle ones too, so
        a worker that dies between requests is still respawned (or
        retired) rather than silently shrinking the pool.  Blocks at
        most one
        :meth:`~repro.analysis.workers.WorkerHarness.poll_interval`
        while requests are in flight, and not at all otherwise; returns
        the events that became available (possibly none).  Callers loop
        while they have unresolved requests.
        """
        events: List[PoolEvent] = []
        replying = {slot.reply: slot for slot in self.slots
                    if not slot.retired and slot.reply is not None}
        timeout = self.harness.poll_interval() if self._inflight else 0
        for reader in self.harness.wait(list(replying), timeout):
            slot = replying[reader]
            message = slot.receive()
            if not (isinstance(message, tuple) and len(message) == 3
                    and message[0] in ("result", "error")):
                self._recover(slot, events)
                continue
            tag, request_id, payload = message
            # The request's ledger entry lives with its current owner
            # (possibly not the replying worker, after a
            # redistribution); a reply for an unknown id is a stale
            # duplicate from before a crash recovery and is dropped.
            owner = self._inflight.pop(request_id, None)
            if owner is not None:
                self.slots[owner].pending.pop(request_id, None)
                slot.completed += 1
                events.append((tag, request_id, payload))
        return events

    def _recover(self, slot: _ServiceSlot,
                 events: List[PoolEvent]) -> None:
        """Respawn a crashed slot (bounded) or retire it."""
        slot.stop()
        action = slot.recover()
        self.crashes.append({
            "worker": slot.worker_id,
            "pending": len(slot.pending),
            "action": action,
        })
        if action == "respawn":
            try:
                self._spawn(slot)
                for request_id, (net_text, spec_dict) in \
                        list(slot.pending.items()):
                    slot.task_queue.put(
                        ("run", request_id, net_text, spec_dict))
                return
            except Exception:
                slot.process = None
        self._retire(slot, events)

    def _retire(self, slot: _ServiceSlot,
                events: List[PoolEvent]) -> None:
        """Drop a slot for good; move its pending requests elsewhere."""
        slot.retired = True
        pending = list(slot.pending.items())
        slot.pending.clear()
        for request_id, (net_text, spec_dict) in pending:
            self._inflight.pop(request_id, None)
            if not self._dispatch(request_id, net_text, spec_dict):
                events.append(("orphan", request_id))
        if not self._live_slots():
            self.mode = "serial-fallback"

    # -- introspection -------------------------------------------------

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (the CLI's kill-a-worker hook)."""
        return [slot.process.pid for slot in self.slots
                if slot.alive() and slot.process.pid is not None]

    def stats(self) -> Dict[str, Any]:
        return {
            "mode": self.mode or "idle",
            "workers": len(self.slots),
            "live": len(self._live_slots()),
            "completed": sum(slot.completed for slot in self.slots),
            "respawns": sum(slot.respawns for slot in self.slots),
            "retired": sum(1 for slot in self.slots if slot.retired),
            "crashes": list(self.crashes),
            "inflight": len(self._inflight),
        }
