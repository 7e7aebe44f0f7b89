"""The process supervisor shared by the portfolio race and the service
pool.

The DD kernel is single-threaded, so whole analyses are the unit of
parallelism: :class:`~repro.analysis.portfolio.PortfolioSession` races
member configurations in worker processes and keeps the first verdict;
:class:`~repro.service.pool.AnalysisWorkerPool` multiplexes requests
over warm workers.  Both keep only their policy and run on the
mechanics defined once here: the injectable :class:`WorkerHarness`,
the crash bookkeeping of :class:`WorkerSlot` (dead-worker grace,
respawn once, then retire) and :func:`reap_processes`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

__all__ = [
    "WorkerHarness", "WorkerSlot", "reap_processes",
    "POLL_INTERVAL", "DEAD_WORKER_GRACE_POLLS", "MAX_QUEUE_POISON",
    "MAX_RESPAWNS", "JOIN_TIMEOUT",
]

#: How long a supervisor blocks on the result queue per poll (seconds):
#: bounds the latency of crash and deadline detection, not of reply
#: delivery (a reply wakes the ``get`` immediately).
POLL_INTERVAL = 0.1
#: Further polls a worker seen dead is given before it counts as
#: crashed, so a reply it flushed on the way out is still delivered.
DEAD_WORKER_GRACE_POLLS = 2
#: Unreadable or malformed replies tolerated before the result queue is
#: considered unusable.
MAX_QUEUE_POISON = 3
#: Times a crashed worker slot is restarted before it is retired.
MAX_RESPAWNS = 1
#: Seconds a stopping worker gets after ``terminate()`` before ``kill()``.
JOIN_TIMEOUT = 2.0


class WorkerHarness:
    """The process primitives a supervisor runs on — the injection seam.

    The default spawns daemonic ``multiprocessing`` processes; tests
    substitute fakes on a virtual clock.  ``create_queue()`` returns a
    queue whose ``get(timeout=...)`` raises ``queue.Empty`` on timeout
    (any other exception is queue poison); ``spawn`` returns a
    process-like handle (``is_alive()``, ``exitcode``, ``pid``,
    ``terminate()``, ``kill()``, ``join(timeout)``).
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
        process = self._context().Process(
            target=target, args=args, name=f"repro-{label}", daemon=True)
        process.start()
        return process

    def now(self) -> float:
        return time.monotonic()

    def poll_interval(self) -> float:
        return POLL_INTERVAL


class WorkerSlot:
    """One supervised worker: its process handle and crash bookkeeping.

    ``process`` is ``None`` before the first spawn (and while a race
    member waits for a restart).  Owners subclass it for their ledger.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.process = None
        self.dead_polls = 0
        self.respawns = 0
        self.retired = False

    def spawn(self, harness: WorkerHarness, target, args):
        """Start (or restart) this slot's worker through ``harness``."""
        self.process = harness.spawn(self.label, target, args)
        self.dead_polls = 0
        return self.process

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def crashed(self) -> bool:
        """The dead-worker grace rule; call once per supervisor poll.

        A worker seen dead gets :data:`DEAD_WORKER_GRACE_POLLS` further
        polls, since a reply it flushed just before exiting may still
        sit in the queue; it is a crash on the poll after that grace.
        """
        if self.process is None or self.process.is_alive():
            self.dead_polls = 0
            return False
        self.dead_polls += 1
        return self.dead_polls > DEAD_WORKER_GRACE_POLLS

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
