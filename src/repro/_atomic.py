"""Atomic file writes shared by the checkpoint store and the result cache.

A write goes to a tmp file named ``<name>.tmp.<pid>.<serial>`` next to
its target, is ``fsync``-ed and then ``os.replace``-d over the target,
so a reader sees the previous sealed file or the new one, never a torn
one.  The serial is unique within the process, so two writers of one
path never share a tmp file, even inside one process.

A writer killed between the write and the rename strands its tmp file.
:func:`sweep_stale_tmp` collects those, and only those: a tmp file whose
writer (the pid in its name) is still alive may be about to be renamed,
so it is spared unless it is older than :data:`STALE_TMP_SECONDS`.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path
from typing import Optional

#: Age past which a tmp file is collected even when a process with its
#: embedded pid is alive — pid reuse can make a long-dead writer's pid
#: look live, and no healthy write holds a tmp file for an hour.
STALE_TMP_SECONDS = 3600.0

_TMP = ".tmp."
# One counter for the whole process, not one per writer object: two
# stores of one path in one process must never pick the same tmp name.
_serials = itertools.count(1)


def _writer_pid(name: str) -> Optional[int]:
    """The pid embedded in a ``<name>.tmp.<pid>.<serial>`` file name."""
    _, _, suffix = name.rpartition(_TMP)
    try:
        return int(suffix.split(".", 1)[0])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: the process exists but isn't ours
    return True


def sweep_stale_tmp(directory: Path, prefix: str) -> None:
    """Remove the stranded tmp files in ``directory`` whose names start
    with ``prefix``: those whose writer is dead, and any over
    :data:`STALE_TMP_SECONDS` old."""
    try:
        entries = list(directory.iterdir())
    except OSError:
        return
    now = time.time()
    for entry in entries:
        if not entry.name.startswith(prefix) or _TMP not in entry.name:
            continue
        pid = _writer_pid(entry.name)
        stale = pid is not None and pid != os.getpid() \
            and not _pid_alive(pid)
        if not stale:
            try:
                stale = now - entry.stat().st_mtime > STALE_TMP_SECONDS
            except OSError:
                continue
        if stale:
            try:
                entry.unlink()
            except OSError:
                pass


def write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a unique, fsynced tmp
    file; an ``OSError`` leaves the previous file in place and removes
    the tmp file."""
    tmp = path.with_name(
        f"{path.name}{_TMP}{os.getpid()}.{next(_serials)}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
