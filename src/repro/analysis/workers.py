"""The process supervisor shared by the portfolio race and the service
pool.

The DD kernel is single-threaded, so whole analyses are the unit of
parallelism: :class:`~repro.analysis.portfolio.PortfolioSession` races
member configurations in worker processes and keeps the first verdict;
:class:`~repro.service.pool.AnalysisWorkerPool` multiplexes requests
over warm workers.  Both keep only their policy and run on the
mechanics defined once here: the injectable :class:`WorkerHarness`,
the per-worker reply pipe and crash bookkeeping of :class:`WorkerSlot`
(respawn once, then retire) and :func:`reap_processes`.

Every worker replies over its own one-way pipe, and the parent holds
only the read end.  End of file on that pipe therefore means the worker
is gone and every reply it sent has already been read; a reply that
cannot be read, or a malformed one, is likewise that worker's crash.
A worker that dies mid-reply can only break its own pipe.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, List, Optional, Sequence

__all__ = [
    "WorkerHarness", "WorkerSlot", "reap_processes",
    "POLL_INTERVAL", "MAX_RESPAWNS", "JOIN_TIMEOUT",
]

#: Longest single wait on the reply pipes (seconds).  A reply or a
#: worker's end of file wakes the wait at once, so this bounds only how
#: late a deadline check can run.
POLL_INTERVAL = 0.1
#: Times a crashed worker slot is restarted before it is retired.
MAX_RESPAWNS = 1
#: Seconds a stopping worker gets after ``terminate()`` before ``kill()``.
JOIN_TIMEOUT = 2.0


class WorkerHarness:
    """The process primitives a supervisor runs on — the injection seam.

    The default spawns daemonic ``multiprocessing`` processes; tests
    substitute fakes on a virtual clock.  ``spawn`` returns a
    process-like handle (``is_alive()``, ``exitcode``, ``pid``,
    ``terminate()``, ``kill()``, ``join(timeout)``) and the read end of
    the worker's reply pipe (``recv()``, ``close()``); ``wait`` blocks
    until some of those read ends are readable; ``create_queue()``
    returns a task queue (``put``) for workers that take requests.
    """

    def __init__(self, start_method: Optional[str] = None) -> None:
        self.start_method = start_method
        self._ctx = None

    def _context(self):
        if self._ctx is None:
            import multiprocessing
            self._ctx = (multiprocessing.get_context(self.start_method)
                         if self.start_method
                         else multiprocessing.get_context())
        return self._ctx

    def available(self) -> bool:
        """Whether worker processes can run here.

        Daemonic parents (a portfolio member, a service worker) cannot
        have children, and sandboxes commonly refuse the semaphores a
        ``multiprocessing.Queue`` needs; the owner then degrades to
        in-process work instead of failing mid-spawn.
        """
        try:
            import multiprocessing
            if multiprocessing.current_process().daemon:
                return False
            probe = self._context().Queue()
        except Exception:
            return False
        # Release the probe's feeder thread; some platforms leak it
        # otherwise.
        try:
            probe.close()
            probe.join_thread()
        except Exception:
            pass
        return True

    def create_queue(self):
        return self._context().Queue()

    def spawn(self, label: str, target, args):
        """Start ``target(*args, reply)`` and return ``(process,
        reader)``, where ``reply`` is the write end of a fresh one-way
        pipe and ``reader`` its read end.

        The parent closes its copy of the write end once the child has
        it, so the reader sees end of file exactly when the worker is
        gone, whatever the start method.
        """
        reader, writer = self._context().Pipe(duplex=False)
        try:
            process = self._context().Process(
                target=target, args=(*args, writer),
                name=f"repro-{label}", daemon=True)
            process.start()
        finally:
            writer.close()
        return process, reader

    def wait(self, readers: Sequence, timeout: float) -> List:
        """The readers with a reply or end of file pending, after at
        most ``timeout`` seconds."""
        from multiprocessing.connection import wait
        return wait(readers, timeout)

    def now(self) -> float:
        return time.monotonic()

    def poll_interval(self) -> float:
        return POLL_INTERVAL


class WorkerSlot:
    """One supervised worker: its process handle, the read end of its
    reply pipe and its crash bookkeeping.

    ``process`` and ``reply`` are ``None`` before the first spawn (and
    while a race member waits for a restart).  Owners subclass it for
    their ledger.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.process = None
        self.reply = None
        self.respawns = 0
        self.retired = False

    def spawn(self, harness: WorkerHarness, target, args):
        """Start (or restart) this slot's worker through ``harness``."""
        self.process, self.reply = harness.spawn(self.label, target, args)
        return self.process

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def receive(self) -> Any:
        """The worker's next reply, or ``None`` when its pipe is at end
        of file or the reply cannot be read; either way the owner books
        the worker's crash.  Call only when :meth:`WorkerHarness.wait`
        reported the pipe readable."""
        try:
            return self.reply.recv()
        except Exception:
            return None

    def stop(self) -> None:
        """Close the reply pipe and end the worker: terminate it if it
        still runs, then join it, so its ``exitcode`` is final."""
        if self.reply is not None:
            self.reply.close()
            self.reply = None
        if self.process is not None:
            reap_processes([self.process])

    def recover(self) -> str:
        """Book one crash: ``"respawn"`` while the slot has restarts
        left (:data:`MAX_RESPAWNS`), else ``"retire"``."""
        if self.respawns < MAX_RESPAWNS:
            self.respawns += 1
            return "respawn"
        self.retired = True
        return "retire"


def reap_processes(processes: Iterable) -> None:
    """Terminate → join-grace → kill every process (finalizer-safe)."""
    processes = list(processes)
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(JOIN_TIMEOUT)
        except Exception:
            pass
