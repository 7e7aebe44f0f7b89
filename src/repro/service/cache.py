"""Fingerprint-keyed result cache: disk tier + in-memory LRU tier.

The serving layer's whole premise is that the same analysis asked twice
should be solved once.  :class:`ResultCache` makes that concrete: the
key is ``(net_fingerprint(net), spec.semantic_fingerprint())`` — the
same two digests :class:`~repro.analysis.checkpoint.CheckpointStore`
stamps into checkpoint headers — so a cache entry and a checkpoint can
never disagree about what "the same analysis" means, and the
non-semantic spec fields (``workers``, checkpoint paths, budgets,
``max_iterations``) cannot fracture the key.

Storage is two-tier:

* an in-memory LRU (``MEMORY_ENTRIES`` results) answering repeat
  lookups within one service lifetime without touching disk, and
* a disk tier (one JSON file per key under ``directory``) surviving
  process restarts, shared between concurrent services.

Disk entries are written the way checkpoints are
(:func:`repro._atomic.write_atomically`: unique tmp name, ``fsync``,
``os.replace``) and sealed with a content hash::

    {"format": "repro-result-cache 1",
     "key": [<net_hash>, <spec_hash>],
     "sha256": "<digest of the canonical result JSON>",
     "result": {<AnalysisResult.to_dict() payload>}}

so every load re-derives the digest and rejects bit rot, truncation or
a hand-edited payload with a structured miss reason instead of serving
corrupt statistics.  Two processes racing a ``put`` on the same key
each rename a complete sealed file into place; the loser's entry simply
overwrites the winner's identical one — never a torn file.

Every miss is classified (``absent`` / ``corrupt`` / ``schema`` /
``mismatch`` / ``io``) and counted.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .._atomic import sweep_stale_tmp, write_atomically
from ..analysis.checkpoint import net_fingerprint
from ..analysis.spec import AnalysisSpec
from ..petri.net import PetriNet

__all__ = ["ResultCache", "CacheLookup", "cache_key",
           "CACHE_FORMAT", "MISS_REASONS"]

log = logging.getLogger(__name__)

CACHE_FORMAT = "repro-result-cache 1"

#: Stable machine-readable miss classifications.
MISS_REASONS = ("absent", "corrupt", "schema", "mismatch", "io")

#: In-memory LRU capacity (results, not bytes — a result dict is a few
#: KB of statistics).
MEMORY_ENTRIES = 128


def cache_key(net: PetriNet, spec: AnalysisSpec) -> Tuple[str, str]:
    """The cache identity of one analysis: (net hash, semantic spec hash).

    Shared digests with the checkpoint layer; see module docstring.
    """
    return (net_fingerprint(net), spec.semantic_fingerprint())


def _canonical(result: Dict[str, Any]) -> str:
    """The canonical JSON text a cache entry's seal digests."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def result_digest(result: Dict[str, Any]) -> str:
    """Content hash sealing one cached result payload."""
    return hashlib.sha256(_canonical(result).encode("utf-8")).hexdigest()


@dataclass
class CacheLookup:
    """Outcome of one :meth:`ResultCache.get`.

    ``hit`` with ``tier`` ``"memory"`` or ``"disk"`` and the result
    payload; or a miss with ``reason`` one of :data:`MISS_REASONS` and
    ``detail`` a human-readable explanation.
    """

    hit: bool
    tier: Optional[str] = None
    reason: Optional[str] = None
    detail: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"hit": self.hit}
        if self.hit:
            data["tier"] = self.tier
        else:
            data["reason"] = self.reason
        return data


class ResultCache:
    """Two-tier ``AnalysisResult`` cache keyed by semantic fingerprints.

    Parameters
    ----------
    directory:
        Disk tier location; created on demand.  ``None`` keeps the
        cache memory-only (no persistence).
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None
                 ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._memory: "OrderedDict[Tuple[str, str], Dict[str, Any]]" = \
            OrderedDict()
        # Telemetry.
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses: Dict[str, int] = {reason: 0 for reason in MISS_REASONS}
        self.writes = 0

    # -- paths ---------------------------------------------------------

    def entry_path(self, key: Tuple[str, str]) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key[0]}-{key[1]}.json"

    # -- memory tier ---------------------------------------------------

    def _memory_put(self, key: Tuple[str, str],
                    result: Dict[str, Any]) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    # -- lookup --------------------------------------------------------

    def get(self, key: Tuple[str, str]) -> CacheLookup:
        """Look the key up, memory tier first, and classify any miss."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits_memory += 1
            return CacheLookup(hit=True, tier="memory",
                               result=self._memory[key])
        lookup = self._disk_get(key)
        if lookup.hit:
            self.hits_disk += 1
            self._memory_put(key, lookup.result)  # promotion
        else:
            self.misses[lookup.reason] += 1
        return lookup

    def _disk_get(self, key: Tuple[str, str]) -> CacheLookup:
        path = self.entry_path(key)
        if path is None or not path.exists():
            return CacheLookup(hit=False, reason="absent",
                               detail="no cache entry on disk")
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            return CacheLookup(hit=False, reason="io",
                               detail=f"cannot read {path}: {exc}")
        try:
            entry = json.loads(text)
        except ValueError as exc:
            return CacheLookup(
                hit=False, reason="corrupt",
                detail=f"entry is not valid JSON (truncated write?): "
                       f"{exc}")
        if not isinstance(entry, dict) \
                or entry.get("format") != CACHE_FORMAT:
            return CacheLookup(
                hit=False, reason="schema",
                detail=f"entry is not a {CACHE_FORMAT!r} file")
        if list(entry.get("key", [])) != list(key):
            return CacheLookup(
                hit=False, reason="mismatch",
                detail=f"entry key {entry.get('key')} does not match "
                       f"lookup key {list(key)} (renamed file?)")
        result = entry.get("result")
        if not isinstance(result, dict):
            return CacheLookup(hit=False, reason="schema",
                               detail="entry has no result payload")
        if entry.get("sha256") != result_digest(result):
            return CacheLookup(
                hit=False, reason="corrupt",
                detail="content hash mismatch (bit rot or a partial "
                       "overwrite)")
        return CacheLookup(hit=True, tier="disk", result=result)

    # -- store ---------------------------------------------------------

    def put(self, key: Tuple[str, str], result: Dict[str, Any]) -> None:
        """Store one result payload under the key, both tiers.

        The disk write is atomic (unique tmp + fsync + rename), so a
        concurrent reader sees either the previous sealed entry or the
        new one — never a torn file — and a crash mid-write strands
        only a tmp file, swept on the next put.  Disk errors are logged
        and swallowed: a cache that cannot persist still serves from
        memory.
        """
        self._memory_put(key, result)
        path = self.entry_path(key)
        if path is None:
            return
        entry = {
            "format": CACHE_FORMAT,
            "key": list(key),
            "sha256": result_digest(result),
            "result": result,
        }
        # The disk tier is shared between concurrent services: the sweep
        # spares tmp files whose writer is alive (repro._atomic).
        sweep_stale_tmp(self.directory, "")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            write_atomically(path, json.dumps(entry, sort_keys=True))
        except OSError as exc:
            log.warning("cannot persist cache entry %s: %s", path, exc)
            return
        self.writes += 1

    # -- telemetry -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for service telemetry / CLI summaries."""
        return {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": dict(self.misses),
            "writes": self.writes,
            "memory_entries": len(self._memory),
        }
