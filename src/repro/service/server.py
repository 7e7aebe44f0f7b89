"""The analysis service: async submit/handle API over cache + pool.

:class:`AnalysisService` is the layer Garavel's "useful features"
proposal asks model checkers for (arXiv 2101.05024): a long-lived
queryable tool rather than a one-shot batch run.  ``submit(net, spec)``
returns an :class:`AnalysisHandle` immediately; the service resolves it
from — in priority order —

1. **in-flight dedupe**: a submit whose ``(net, spec)`` cache key
   matches a request already being solved attaches to that solve
   instead of starting another (``dedup`` in the handle's service
   info) — but only when the running solve's budgets
   (``node_budget``, ``deadline``, ``timeout``, ``member_timeout``,
   ``max_iterations``) are at least as permissive as the new
   request's, so a tightly-budgeted solve can never answer an
   unbudgeted request with a truncated partial result;
2. **the result cache**: a :class:`~repro.service.cache.ResultCache`
   hit resolves the handle instantly, without spawning or contacting
   any solver;
3. **the warm worker pool**: the request is dispatched to a persistent
   :class:`~repro.service.pool.AnalysisWorkerPool` worker;
4. **serial in-process solve**: when the pool is unavailable (or a
   request is orphaned by worker crashes past the respawn budget), the
   service runs ``analyze()`` inline — degraded but never wrong.

When the service is given a ``checkpoint_dir``, each cache-missing
request is executed with an injected per-key checkpoint path and
``resume=True`` (PR 7): the first solve of a key leaves a final sealed
checkpoint behind, so a later solve of the same key — after the cache
entry is gone, or from a fresh service over the same directory —
resumes the finished fixpoint instead of cold-starting.  All injected
fields are non-semantic, so they change neither the cache key nor the
checkpoint's own spec-hash header.

Only ``status="complete"`` results are cached: budgets are excluded
from the cache key (they don't change the trajectory), so a partial
result truncated by a budget must never be stored under the key a full
solve of the same spec would hit — a budget-limited run is answered
and forgotten, and the next unbudgeted submit solves for real.

Telemetry never touches result payloads: cache hits must stay
bit-identical to the originally computed ``AnalysisResult.to_dict()``,
so per-request service info (cache hit/miss + tier, solve mode, dedupe)
lives on the handle and in the batch CLI's response envelope, not in
the result's ``extras``.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.facade import analyze
from ..analysis.result import AnalysisResult
from ..analysis.spec import AnalysisSpec
from ..analysis.workers import WorkerHarness
from ..petri.net import PetriNet
from ..petri.parser import dumps
from .cache import CacheLookup, ResultCache, cache_key
from .pool import AnalysisWorkerPool

__all__ = ["AnalysisService", "AnalysisHandle", "ServiceError"]

#: Injected checkpoint cadence: effectively "final checkpoint only"
#: (every session writes one unconditionally on completion).
CHECKPOINT_CADENCE_SECONDS = 3600.0

#: Default wait bound for ``AnalysisHandle.result()`` (seconds).
DEFAULT_TIMEOUT = 600.0

#: Spec fields that bound how far a solve gets before it is cut off.
#: All non-semantic (excluded from the cache key), but a solve limited
#: by one can end with a truncated ``status="partial"`` result — so
#: dedupe must only attach to a running solve whose budgets cover the
#: new request's (:func:`_budgets_cover`).
BUDGET_FIELDS = ("node_budget", "deadline", "timeout",
                 "member_timeout", "max_iterations")


def _budgets_cover(running: AnalysisSpec, wanted: AnalysisSpec) -> bool:
    """Can a solve running under ``running``'s budgets stand in for a
    request asking for ``wanted``'s?

    True when every budget on the running spec is at least as
    permissive as the corresponding one on the wanted spec (``None``
    means unbounded): the attached handle then receives a result no
    more truncated than its own solve would have produced.
    """
    for field in BUDGET_FIELDS:
        have = getattr(running, field)
        want = getattr(wanted, field)
        if have is None:
            continue
        if want is None or have < want:
            return False
    return True


class ServiceError(Exception):
    """A submitted analysis failed (or its handle timed out).

    ``kind`` carries the original exception class name when the solve
    itself raised (``SpecError``, ``TraversalLimitError``, ...).
    """

    def __init__(self, message: str, kind: str = "ServiceError") -> None:
        super().__init__(message)
        self.kind = kind


class AnalysisHandle:
    """Future-style handle for one submitted analysis.

    ``result()`` blocks (driving the service's event pump) until the
    request resolves, then returns the
    :class:`~repro.analysis.result.AnalysisResult`; ``result_dict()``
    returns the raw JSON payload — for a cache hit, byte-identical to
    what the original solve produced.  ``info`` describes how the
    request was served::

        {"cache": "hit"|"miss", "tier": "memory"|"disk"|None,
         "mode": "cache"|"pool"|"serial"|None, "dedup": bool,
         "key": [net_hash, spec_hash]}
    """

    def __init__(self, service: "AnalysisService", request_id: int,
                 key: Tuple[str, str]) -> None:
        self._service = service
        self.request_id = request_id
        self.key = key
        self.info: Dict[str, Any] = {
            "cache": "miss", "tier": None, "mode": None,
            "dedup": False, "key": list(key),
        }
        self._payload: Optional[Dict[str, Any]] = None
        self._error: Optional[ServiceError] = None
        self._done = False

    def done(self) -> bool:
        return self._done

    def _resolve(self, payload: Dict[str, Any]) -> None:
        self._payload = payload
        self._done = True

    def _fail(self, error: ServiceError) -> None:
        self._error = error
        self._done = True

    def result_dict(self, timeout: Optional[float] = None) \
            -> Dict[str, Any]:
        """The result's JSON payload (blocks until resolved)."""
        if not self._done:
            self._service._pump(self, timeout=timeout)
        if self._error is not None:
            raise self._error
        return self._payload

    def result(self, timeout: Optional[float] = None) -> AnalysisResult:
        """The result (blocks until resolved)."""
        return AnalysisResult.from_dict(self.result_dict(timeout=timeout))

    @property
    def error(self) -> Optional[ServiceError]:
        return self._error


class _Request:
    """One in-flight solve and every handle attached to it."""

    def __init__(self, request_id: int, key: Tuple[str, str],
                 net_text: str, exec_spec: AnalysisSpec) -> None:
        self.request_id = request_id
        self.key = key
        self.net_text = net_text
        self.exec_spec = exec_spec
        self.handles: List[AnalysisHandle] = []


class AnalysisService:
    """Long-lived analysis server: cache, dedupe, pool, degradation.

    Parameters
    ----------
    cache:
        A :class:`~repro.service.cache.ResultCache` to use; or
    cache_dir:
        build one over this directory (``None`` → memory-only cache).
        The service never prunes the directory: every entry written
        stays until the caller deletes it, so pruning a long-lived
        cache is the caller's job.
    workers:
        Pool size (``"auto"`` | int); ``0`` skips worker processes —
        every miss is solved serially in-process (deterministic, the
        benchmark mode).
    checkpoint_dir:
        When set, cache misses run with an injected per-key checkpoint
        path + ``resume=True`` (see module docstring).  Those files
        stay too, one per solved key: the caller prunes them as it
        prunes the cache directory.
    harness:
        :class:`~repro.analysis.workers.WorkerHarness` forwarded to the
        pool (tests inject fakes here).

    Use as a context manager or call :meth:`close` to stop the pool.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None,
                 workers: "int | str" = "auto",
                 checkpoint_dir: Optional[str] = None,
                 harness: Optional[WorkerHarness] = None) -> None:
        self.cache = cache if cache is not None \
            else ResultCache(directory=cache_dir)
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.pool = AnalysisWorkerPool(workers=workers, harness=harness)
        self._ids = itertools.count(1)
        self._requests: Dict[int, _Request] = {}
        # Several solves of one key can be in flight at once when their
        # budgets are incompatible (a tight-budget solve cannot answer
        # an unbudgeted request), hence a list per key.
        self._by_key: Dict[Tuple[str, str], List[int]] = {}
        # Telemetry.
        self.submits = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.pool_solves = 0
        self.serial_solves = 0
        self.errors = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.close()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------

    def _exec_spec(self, spec: AnalysisSpec,
                   key: Tuple[str, str]) -> AnalysisSpec:
        """The spec a miss actually runs with (checkpoint injection).

        Only non-semantic fields are touched, and a caller-provided
        ``checkpoint_path`` is respected.
        """
        if self.checkpoint_dir is None or spec.checkpoint_path is not None:
            return spec
        return spec.replace(
            checkpoint_path=f"{self.checkpoint_dir}/"
                            f"{key[0]}-{key[1]}.ckpt",
            checkpoint_every_seconds=CHECKPOINT_CADENCE_SECONDS,
            resume=True)

    def submit(self, net: PetriNet, spec: Optional[AnalysisSpec] = None,
               **overrides) -> AnalysisHandle:
        """Submit one analysis; returns immediately with a handle."""
        if self._closed:
            raise ServiceError("service is closed")
        if spec is None:
            spec = AnalysisSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        key = cache_key(net, spec)
        self.submits += 1
        request_id = next(self._ids)
        handle = AnalysisHandle(self, request_id, key)

        # 1. In-flight dedupe: attach to a running solve of the same
        #    key — but only one whose execution budgets cover this
        #    request's, so a budget-truncated partial result can never
        #    resolve a handle that asked for more.
        for inflight_id in self._by_key.get(key, []):
            inflight = self._requests.get(inflight_id)
            if inflight is not None \
                    and _budgets_cover(inflight.exec_spec, spec):
                self.dedup_hits += 1
                handle.info["dedup"] = True
                handle.info["mode"] = "pool"
                inflight.handles.append(handle)
                return handle

        # 2. Result cache: resolve instantly, no solver involved.
        lookup: CacheLookup = self.cache.get(key)
        if lookup.hit:
            self.cache_hits += 1
            handle.info.update(cache="hit", tier=lookup.tier,
                               mode="cache")
            handle._resolve(lookup.result)
            return handle
        handle.info["miss_reason"] = lookup.reason

        # 3. Dispatch to the pool (or 4. solve serially in-process).
        exec_spec = self._exec_spec(spec, key)
        request = _Request(request_id, key, dumps(net), exec_spec)
        request.handles.append(handle)
        if self.pool.submit(request_id, request.net_text,
                            exec_spec.to_dict()):
            handle.info["mode"] = "pool"
            self._requests[request_id] = request
            self._by_key.setdefault(key, []).append(request_id)
            return handle
        self._solve_serial(request)
        return handle

    # -- resolution ----------------------------------------------------

    def _solve_serial(self, request: _Request) -> None:
        """In-process degradation: solve now, on the caller's thread."""
        self.serial_solves += 1
        for handle in request.handles:
            handle.info["mode"] = "serial"
        try:
            result = analyze_from_text(request.net_text,
                                       request.exec_spec)
        except Exception as exc:
            self._fail(request, exc)
            return
        self._finish(request, result.to_dict())

    def _forget(self, request: _Request) -> None:
        """Drop a resolved request from the in-flight indexes."""
        ids = self._by_key.get(request.key)
        if ids is not None:
            try:
                ids.remove(request.request_id)
            except ValueError:
                pass
            if not ids:
                del self._by_key[request.key]
        self._requests.pop(request.request_id, None)

    def _finish(self, request: _Request,
                payload: Dict[str, Any]) -> None:
        # Only complete fixpoints are cacheable: budgets are excluded
        # from the key, so a budget-truncated partial stored here would
        # be served to later unbudgeted requests as if it were the full
        # answer.
        if payload.get("status") == "complete":
            self.cache.put(request.key, payload)
        self._forget(request)
        for handle in request.handles:
            handle._resolve(payload)

    def _fail(self, request: _Request, exc: Exception,
              kind: Optional[str] = None) -> None:
        self.errors += 1
        self._forget(request)
        error = ServiceError(str(exc),
                             kind=kind or type(exc).__name__)
        for handle in request.handles:
            handle._fail(error)

    def _pump(self, handle: AnalysisHandle,
              timeout: Optional[float] = None) -> None:
        """Drive pool events until the handle resolves (or times out)."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else DEFAULT_TIMEOUT)
        while not handle.done():
            if time.monotonic() > deadline:
                handle._fail(ServiceError(
                    f"request {handle.request_id} did not resolve "
                    f"within its timeout", kind="Timeout"))
                return
            events = self.pool.poll()
            for event in events:
                self._apply(event)
            if not events and self.pool.inflight == 0 \
                    and not handle.done():
                # Nothing can resolve this handle any more — the pool
                # lost track of the request (should be unreachable; the
                # orphan path covers worker exhaustion).  Fail loudly
                # instead of spinning until the timeout.
                solve_id = next(
                    (rid for rid, req in self._requests.items()
                     if handle in req.handles), None)
                if solve_id is not None:
                    self._apply(("orphan", solve_id))
                else:
                    handle._fail(ServiceError(
                        f"request {handle.request_id} was lost by the "
                        f"worker pool", kind="Lost"))
                return

    def _apply(self, event: Tuple) -> None:
        tag, request_id = event[0], event[1]
        request = self._requests.get(request_id)
        if request is None:
            return
        if tag == "result":
            self.pool_solves += 1
            self._finish(request, event[2])
        elif tag == "error":
            info = event[2]
            self._fail(request, Exception(info.get("detail", "")),
                       kind=info.get("kind", "WorkerError"))
        elif tag == "orphan":
            # The pool gave the request back (workers exhausted):
            # degrade to a serial in-process solve.
            self._forget(request)
            self._solve_serial(request)

    # -- telemetry -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "submits": self.submits,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "pool_solves": self.pool_solves,
            "serial_solves": self.serial_solves,
            "errors": self.errors,
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
        }


def analyze_from_text(net_text: str,
                      spec: AnalysisSpec) -> AnalysisResult:
    """Run ``analyze`` on a net's canonical ``.pnet`` text.

    The serial-degradation twin of what a pool worker does, sharing the
    same wire form so both paths compute on an identical parsed net.
    """
    from ..petri.parser import loads
    return analyze(loads(net_text), spec)
