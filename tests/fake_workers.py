"""Worker doubles for the supervisor tests (:mod:`repro.analysis.workers`).

:class:`FakeHarness` runs the portfolio race and the service pool on a
virtual clock without a single real process.  Each spawn of a worker
label plays a *script*: a list of ``(time, item)`` pairs, where
``item`` is a reply message, an :class:`Exit` (the worker exits; its
pipe reads end of file from then on; :data:`EOF` exits with code 0) or
:data:`GARBAGE` (a reply that cannot be unpickled).  A worker whose
script runs out stays alive and silent.

:class:`MidReplyKillHarness` spawns real workers and makes one of them
write half a reply frame and SIGKILL itself.

``tests/`` is on ``sys.path`` through its ``conftest.py``, so every test
module imports this one as ``fake_workers``, and so do workers started
with the ``spawn`` method, which unpickle :func:`die_mid_reply` by name.
"""

import os
import pickle
import signal
import struct
from dataclasses import dataclass

from repro.analysis.workers import WorkerHarness


@dataclass(frozen=True)
class Exit:
    """Script item: the worker exits with ``exitcode``."""

    exitcode: int = 0


#: Script item: the worker exits cleanly.
EOF = Exit(0)


class _Garbage:
    def __repr__(self):
        return "GARBAGE"


#: Script item: a reply that cannot be unpickled.
GARBAGE = _Garbage()


class Runs(list):
    """One script per spawn of a label: a respawned worker plays the
    next one (and stays silent once they run out)."""

    def __init__(self, *scripts):
        super().__init__(scripts)


class VirtualClock:
    def __init__(self):
        self.t = 0.0


class FakeProcess:
    """A process handle whose liveness follows its script on the
    virtual clock."""

    def __init__(self, clock, exit_item=None, exits_at=None):
        self.clock = clock
        self.exits_at = exits_at
        self.natural_exitcode = exit_item.exitcode if exit_item else None
        self.terminated = False
        self.killed = False
        self.joined = False
        self.pid = None

    def is_alive(self):
        if self.terminated or self.killed:
            return False
        return self.exits_at is None or self.clock.t < self.exits_at

    @property
    def exitcode(self):
        if self.is_alive():
            return None
        if self.killed:
            return -signal.SIGKILL
        if self.terminated:
            return -signal.SIGTERM
        return self.natural_exitcode

    def terminate(self):
        if self.is_alive():
            self.terminated = True

    def kill(self):
        if self.is_alive():
            self.killed = True

    def join(self, timeout=None):
        self.joined = True


class FakeReader:
    """The read end of a fake reply pipe: the script's items in time
    order, then end of file for good once the worker has exited."""

    def __init__(self, clock, process, script):
        self.clock = clock
        self.process = process
        self.items = list(script)
        self.closed = False

    def ready_at(self):
        """When the next ``recv`` stops blocking (``None``: never)."""
        if self.items:
            return self.items[0][0]
        if not self.process.is_alive():
            return self.clock.t  # stopped by the parent: end of file
        return None

    def recv(self):
        assert not self.closed, "read from a closed reply pipe"
        if not self.items:
            raise EOFError
        at, item = self.items[0]
        assert at <= self.clock.t, "recv would block"
        if isinstance(item, Exit):
            raise EOFError  # stays at end of file
        self.items.pop(0)
        if item is GARBAGE:
            raise pickle.UnpicklingError("invalid load key, 'x'")
        return item

    def close(self):
        self.closed = True


class FakeQueue:
    """A task queue that only records what the parent puts."""

    def __init__(self):
        self.items = []
        self.closed = False
        self.joined = False

    def put(self, item):
        self.items.append(item)

    def close(self):
        self.closed = True

    def join_thread(self):
        assert self.closed, "join_thread() before close()"
        self.joined = True


class FakeHarness(WorkerHarness):
    """Scripted workers on a virtual clock; never touches
    multiprocessing.

    ``scripts`` maps a worker label (a member id, ``service-<n>``) to
    the script of its first spawn, or to :class:`Runs` with one script
    per spawn.  ``spawn_cost`` advances the clock on every spawn.
    """

    def __init__(self, scripts=None, spawn_cost=0.0, poll_interval=0.05):
        super().__init__()
        self.clock = VirtualClock()
        self.scripts = dict(scripts or {})
        self.spawn_cost = spawn_cost
        self.interval = poll_interval
        self.spawned = []     # labels, in spawn order
        self.processes = {}   # label -> its latest FakeProcess
        self.workers = []     # (label, process, reader) of every spawn

    def available(self):
        return True

    def create_queue(self):
        return FakeQueue()

    def spawn(self, label, target, args):
        self.clock.t += self.spawn_cost
        runs = self.scripts.get(label, [])
        if isinstance(runs, Runs):
            script = runs.pop(0) if runs else []
        else:
            script = runs
            self.scripts[label] = []
        script = sorted(script, key=lambda entry: entry[0])
        exits = [(at, item) for at, item in script
                 if isinstance(item, Exit)]
        exits_at, exit_item = exits[0] if exits else (None, None)
        process = FakeProcess(self.clock, exit_item, exits_at)
        reader = FakeReader(self.clock, process, script)
        self.spawned.append(label)
        self.processes[label] = process
        self.workers.append((label, process, reader))
        return process, reader

    def wait(self, readers, timeout):
        due = [at for at in (r.ready_at() for r in readers)
               if at is not None]
        if due and min(due) <= self.clock.t + timeout:
            self.clock.t = max(self.clock.t, min(due))
            return [r for r in readers
                    if r.ready_at() is not None
                    and r.ready_at() <= self.clock.t]
        self.clock.t += timeout
        return []

    def now(self):
        return self.clock.t

    def poll_interval(self):
        return self.interval

    def assert_no_orphans(self):
        """Every spawned worker ended dead and joined, and every reply
        pipe the parent was handed is closed."""
        for label, process, reader in self.workers:
            assert not process.is_alive(), label
            assert process.joined, label
            assert reader.closed, label


class NoWorkersHarness(WorkerHarness):
    """Rules worker processes out, which pins the serial degradation:
    no process is ever spawned."""

    def available(self):
        return False


# ----------------------------------------------------------------------
# Real workers that die mid-reply
# ----------------------------------------------------------------------


class _HalfFrame:
    """A reply pipe whose ``send`` writes the length header and half of
    the pickled reply, then SIGKILLs the worker."""

    def __init__(self, reply):
        self.reply = reply

    def send(self, message):
        payload = pickle.dumps(message)
        os.write(self.reply.fileno(),
                 struct.pack("!i", len(payload))
                 + payload[:len(payload) // 2])
        os.kill(os.getpid(), signal.SIGKILL)


def die_mid_reply(target, *args):
    """Worker entry point: run ``target`` with the reply pipe (the last
    argument) swapped for one whose first reply is cut off by a
    SIGKILL.  ``target=None`` cuts off a reply at once."""
    *args, reply = args
    reply = _HalfFrame(reply)
    if target is None:
        reply.send(("result", {}, 0.0))  # does not return
    target(*args, reply)


class MidReplyKillHarness(WorkerHarness):
    """Real workers; the first one spawned under ``victim`` dies in the
    middle of its first reply.  With ``serve=False`` it does not run its
    target at all: it cuts off a reply as soon as it starts, and
    ``spawn`` returns only once it has died, so its cut reply and end of
    file are on the pipe before any later worker can reply."""

    def __init__(self, victim, start_method=None, serve=True):
        super().__init__(start_method)
        self.victim = victim
        self.serve = serve

    def spawn(self, label, target, args):
        if label != self.victim:
            return super().spawn(label, target, args)
        self.victim = None
        process, reader = super().spawn(
            label, die_mid_reply, (target if self.serve else None, *args))
        if not self.serve:
            process.join(60)
        return process, reader
