"""Durable fixpoint checkpoints: atomic writes, integrity, resume.

A long symbolic traversal should survive being killed.  This module
gives the analysis sessions a :class:`CheckpointStore` that periodically
serializes the fixpoint state — the reached and frontier sets through
the :mod:`repro.bdd.io` formats (``bddio`` for the BDD sessions,
``zddio`` for the ZDD session), the manager's variable order, the
completed iteration count and a spec-hash + net-hash header — to a
single file, written atomically (tmp file + ``os.replace``) so a crash
mid-write can never leave a half-checkpoint under the real name.

File format (line-oriented, hash-sealed)::

    repro-checkpoint 1
    meta {"spec_hash": ..., "net_hash": ..., "kind": "bdd"|"zdd",
          "iteration": N, "order": [...]}
    <bddio or zddio payload lines>
    end <sha256 of everything above>

The trailing ``end`` line makes truncation detectable at *every* byte
boundary: a prefix of a valid checkpoint either loses the trailer
entirely or invalidates its digest, so :func:`parse_checkpoint` raises
a structured :class:`CheckpointError` instead of resuming from silently
corrupt state (``tests/analysis/test_checkpoint.py`` truncates at every
byte to pin this down).

Resume validation compares the checkpoint's hashes against the current
run: ``spec_hash`` is :func:`spec_fingerprint` — a digest over the
spec's *semantic* fields only, excluding the durability knobs
(``checkpoint_path``, ``resume``, budgets, ``max_iterations``) so a
resume run with ``resume=True`` still matches the checkpoint its cold
ancestor wrote — and ``net_hash`` is :func:`net_fingerprint` over the
net's canonical ``.pnet`` text.  Any mismatch, missing file or parse
failure is a :class:`CheckpointError`; the sessions treat every one of
them as "fall back to a cold start" (never a crash).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .._atomic import sweep_stale_tmp, write_atomically
from ..petri.net import PetriNet
from .spec import AnalysisSpec

__all__ = [
    "CheckpointError", "CheckpointData", "CheckpointStore",
    "dump_checkpoint", "parse_checkpoint", "net_fingerprint",
    "spec_fingerprint",
]

CHECKPOINT_HEADER = "repro-checkpoint 1"
CHECKPOINT_KINDS = ("bdd", "zdd")

_TRAILER_RE = re.compile(r"^end ([0-9a-f]{64})\n?$")


class CheckpointError(Exception):
    """A checkpoint could not be written, read or trusted.

    Covers the whole rejection surface: missing/unreadable files,
    truncated or corrupted payloads (integrity digest mismatch),
    malformed headers, and spec/net/kind mismatches against the resuming
    run.  ``reason`` is a stable machine-readable tag (``missing``,
    ``truncated``, ``malformed``, ``mismatch``, ``io``) so callers can
    report *why* a resume fell back to a cold start.
    """

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class CheckpointData:
    """One checkpoint's decoded contents.

    ``payload`` is the embedded ``bddio``/``zddio`` stream with roots
    labeled ``reached`` and ``frontier``; ``order`` the dumping
    manager's variable order top-to-bottom (restored before the payload
    is loaded, so the rebuilt diagrams are bit-identical to the saved
    ones); ``extra`` an open JSON dict for session telemetry.
    """

    spec_hash: str
    net_hash: str
    kind: str
    iteration: int
    order: List[str]
    payload: str
    extra: Dict[str, Any] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.extra is None:
            self.extra = {}


def net_fingerprint(net: PetriNet) -> str:
    """Digest of the net's canonical ``.pnet`` text."""
    from ..petri.parser import dumps
    return hashlib.sha256(dumps(net).encode("utf-8")).hexdigest()[:16]


def spec_fingerprint(spec: AnalysisSpec) -> str:
    """Digest of the spec's semantic fields.

    A thin alias for :meth:`AnalysisSpec.semantic_fingerprint` — the
    single definition of "the same analysis" shared with the
    ``repro.service`` result cache, so a checkpoint and a cache entry
    can never disagree about spec identity.  Durability fields (and
    ``max_iterations``, which bounds how far a run gets but not the
    trajectory it takes) are excluded: a resumed run differs from its
    checkpointing ancestor exactly in those, and resuming with a larger
    iteration allowance from a limit-aborted checkpoint is a supported
    workflow.
    """
    return spec.semantic_fingerprint()


def dump_checkpoint(data: CheckpointData) -> str:
    """Render a checkpoint to its hash-sealed text form."""
    if data.kind not in CHECKPOINT_KINDS:
        raise CheckpointError(
            f"unknown checkpoint kind {data.kind!r}; expected one of "
            f"{CHECKPOINT_KINDS}")
    meta = json.dumps({
        "spec_hash": data.spec_hash,
        "net_hash": data.net_hash,
        "kind": data.kind,
        "iteration": data.iteration,
        "order": list(data.order),
        "extra": dict(data.extra),
    }, sort_keys=True)
    body = (f"{CHECKPOINT_HEADER}\n"
            f"meta {meta}\n"
            f"{data.payload.rstrip(chr(10))}\n")
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"end {digest}\n"


def parse_checkpoint(text: str) -> CheckpointData:
    """Decode and verify a checkpoint's text form.

    Raises :class:`CheckpointError` on any damage — a missing or
    malformed trailer, a digest mismatch (truncation or bit rot
    anywhere above it), trailing garbage, a bad header or meta line.
    """
    marker = text.rfind("\nend ")
    if marker < 0:
        raise CheckpointError(
            "checkpoint has no integrity trailer (truncated write?)",
            reason="truncated")
    body, trailer = text[:marker + 1], text[marker + 1:]
    match = _TRAILER_RE.match(trailer)
    if match is None:
        raise CheckpointError(
            f"checkpoint integrity trailer is damaged: {trailer!r}",
            reason="truncated")
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != match.group(1):
        raise CheckpointError(
            "checkpoint integrity digest mismatch (truncated or "
            "corrupted contents)", reason="truncated")
    lines = body.split("\n")
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise CheckpointError(
            f"not a {CHECKPOINT_HEADER!r} stream", reason="malformed")
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise CheckpointError("checkpoint meta line missing",
                              reason="malformed")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint meta line is not valid JSON: {exc}",
            reason="malformed") from None
    try:
        data = CheckpointData(
            spec_hash=meta["spec_hash"],
            net_hash=meta["net_hash"],
            kind=meta["kind"],
            iteration=int(meta["iteration"]),
            order=list(meta["order"]),
            payload="\n".join(lines[2:]),
            extra=dict(meta.get("extra", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint meta is incomplete: {exc}",
            reason="malformed") from None
    if data.kind not in CHECKPOINT_KINDS:
        raise CheckpointError(
            f"unknown checkpoint kind {data.kind!r}", reason="malformed")
    return data


class CheckpointStore:
    """Cadence-gated atomic checkpoint writer/reader for one path.

    ``every`` saves at most once per that many completed iterations;
    ``every_seconds`` adds (or, when ``every`` is ``None``, replaces) a
    wall-clock cadence.  With neither given, every iteration saves —
    maximum durability, the right default for the slow fixpoints worth
    checkpointing.  ``clock`` injects a virtual clock for tests.
    """

    def __init__(self, path: Union[str, Path],
                 every: Optional[int] = None,
                 every_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if every is not None and every < 1:
            raise CheckpointError(
                f"checkpoint cadence must be positive, got {every}",
                reason="malformed")
        if every_seconds is not None and every_seconds <= 0:
            raise CheckpointError(
                f"checkpoint seconds cadence must be positive, got "
                f"{every_seconds}", reason="malformed")
        if every is None and every_seconds is None:
            every = 1
        self.path = Path(path)
        self.every = every
        self.every_seconds = every_seconds
        self._clock = clock
        self._last_iteration = 0
        self._last_time = clock()
        self.writes = 0

    def _sweep_stale_tmp(self) -> None:
        """Remove the ``<name>.tmp.<pid>.<serial>`` files of writers
        killed between the tmp write and the atomic rename (the unique
        suffix means no later write reuses the name).  Swept on every
        save and load; a live writer's tmp file is spared, so stores of
        two services sharing a checkpoint directory do not break each
        other's saves (:mod:`repro._atomic`)."""
        sweep_stale_tmp(self.path.parent, self.path.name + ".tmp.")

    def due(self, iteration: int) -> bool:
        """Whether the cadence calls for a save at this iteration."""
        if (self.every is not None
                and iteration - self._last_iteration >= self.every):
            return True
        if (self.every_seconds is not None
                and self._clock() - self._last_time >= self.every_seconds):
            return True
        return False

    def save(self, data: CheckpointData) -> None:
        """Write the checkpoint atomically (tmp file + rename).

        The tmp name is unique per process and write, so a crash
        between write and rename cannot be overwritten into a torn
        sealed file by a later writer — it just leaves a stale tmp,
        which :meth:`_sweep_stale_tmp` collects on the next save or
        load.
        """
        self._sweep_stale_tmp()
        try:
            write_atomically(self.path, dump_checkpoint(data))
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {exc}",
                reason="io") from None
        self.writes += 1
        self._last_iteration = data.iteration
        self._last_time = self._clock()

    def load(self) -> CheckpointData:
        """Read and verify the checkpoint on disk.

        Also sweeps stale tmp files: resume is the first thing a
        restarted run does, so a crashed ancestor's leftovers are
        collected before the new run writes its own checkpoints.
        """
        self._sweep_stale_tmp()
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint at {self.path}", reason="missing") \
                from None
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}",
                reason="io") from None
        return parse_checkpoint(text)

    def validate(self, data: CheckpointData, *, spec_hash: str,
                 net_hash: str, kind: str) -> None:
        """Reject a checkpoint that belongs to a different run.

        A stale path reused across nets, schemes or backend kinds must
        fail loudly here rather than resume into a nonsense state.
        """
        if data.kind != kind:
            raise CheckpointError(
                f"checkpoint kind {data.kind!r} does not match this "
                f"session's {kind!r} manager", reason="mismatch")
        if data.spec_hash != spec_hash:
            raise CheckpointError(
                f"checkpoint spec hash {data.spec_hash} does not match "
                f"this run's {spec_hash} (different analysis "
                f"configuration)", reason="mismatch")
        if data.net_hash != net_hash:
            raise CheckpointError(
                f"checkpoint net hash {data.net_hash} does not match "
                f"this run's {net_hash} (different net)",
                reason="mismatch")
