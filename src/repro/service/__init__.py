"""Analysis-as-a-service: result cache, warm worker pool, batch API.

The serving layer over :mod:`repro.analysis` — the ROADMAP's
"long-lived queryable tool" item (after Garavel, arXiv 2101.05024)::

    from repro.service import AnalysisService

    with AnalysisService(cache_dir="cache/") as service:
        handle = service.submit(net, AnalysisSpec(scheme="improved"))
        print(handle.result().markings, handle.info)

* :class:`ResultCache` — two-tier (memory LRU + disk JSON) result
  cache keyed by ``(net_fingerprint, semantic spec fingerprint)``,
  content-hash sealed, torn-write safe, size-bounded.
* :class:`AnalysisWorkerPool` — persistent ``analyze()`` worker
  processes on the shared supervisor (:mod:`repro.analysis.workers`),
  with serial degradation.
* :class:`AnalysisService` / :class:`AnalysisHandle` — async
  submit/result API with in-flight dedupe, cache consultation,
  checkpoint-resume injection and per-request service telemetry.

The CLI front ends are ``python -m repro.cli batch`` (JSONL request
file in, JSON results out) and ``serve`` (the same loop over
stdin/stdout).
"""

from .cache import (CACHE_FORMAT, MISS_REASONS, CacheLookup, ResultCache,
                    cache_key)
from .pool import AnalysisWorkerPool
from .server import AnalysisHandle, AnalysisService, ServiceError

__all__ = [
    "ResultCache", "CacheLookup", "cache_key", "CACHE_FORMAT",
    "MISS_REASONS",
    "AnalysisWorkerPool",
    "AnalysisService", "AnalysisHandle", "ServiceError",
]
