"""Portfolio backend: race heterogeneous solvers, first verdict wins.

No single engine wins everywhere — the paper's encodings make different
nets cheap for different methods — so the portfolio spawns several
member configurations (:data:`~repro.analysis.spec.PORTFOLIO_MEMBERS`)
as ``multiprocessing`` worker processes, streams their verdicts over a
``Queue``, answers with the first complete
:class:`~repro.analysis.result.AnalysisResult` and terminates the
losers (the SMPT ``Parallelizer`` pattern).

Process mechanics — the injectable :class:`~repro.analysis.workers.
WorkerHarness`, crash detection, reaping — are the shared supervisor's
(:mod:`repro.analysis.workers`); this module keeps the race policy:

* **Timeouts** — a member past ``spec.member_timeout`` is terminated
  and recorded as a :class:`MemberFailure`, the race continuing with
  the survivors; past ``spec.timeout`` the whole race fails.
* **Failures** — crashes (with their exit code), member errors and
  unreadable or malformed queue payloads become structured
  :class:`MemberFailure` records; a queue that keeps delivering poison
  aborts the race cleanly.
* **Checkpoint-resume retries** — with ``spec.checkpoint_path`` set,
  every member checkpoints to :func:`member_checkpoint_path`; a member
  that crashes or times out while that file exists is restarted from
  it, up to :data:`MEMBER_MAX_RETRIES` times with linear backoff
  (``extras["portfolio"]["retries"]``).
* **Serial degradation** — when worker processes are ruled out, members
  run one at a time in process and the first success wins (timeouts
  cannot be enforced there).

Every spawned worker is reaped before the race returns.  The
fault-injection suite (``tests/analysis/test_portfolio_faults.py``)
drives all of this on a virtual clock through a fake harness.

The winning member's result is returned with portfolio extras::

    result.extras["portfolio"] == {
        "winner": "zdd-chained",          # member id
        "mode": "process",                 # or "serial"
        "members": [{"member": ..., "outcome": "won" | "cancelled" |
                     "crash" | "timeout" | "error" | "spawn" |
                     "skipped", "seconds": ..., "attempts": ...}, ...],
        "failures": [MemberFailure.to_dict(), ...],
        "retries": [{"member": ..., "attempt": ..., "reason": ...,
                     "backoff": ..., "checkpoint": ...}, ...],
    }
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..petri.net import PetriNet
from ..petri.parser import dumps, loads
from .backends import SolverSession, open_session
from .result import AnalysisResult
from .spec import PORTFOLIO_MEMBERS, AnalysisSpec, SpecError
from .workers import (MAX_QUEUE_POISON, WorkerHarness, WorkerSlot,
                      reap_processes)

__all__ = [
    "PortfolioSession", "PortfolioError", "MemberFailure",
    "WorkerHarness", "member_spec", "member_checkpoint_path",
]

# When the portfolio checkpoints (``spec.checkpoint_path``), a member
# that crashes or times out while holding a checkpoint is restarted
# from it — at most this many times, with a linear backoff per attempt.
MEMBER_MAX_RETRIES = 2
RETRY_BACKOFF_SECONDS = 0.5


class PortfolioError(RuntimeError):
    """The race produced no verdict: every member failed or timed out.

    ``failures`` carries the structured :class:`MemberFailure` records.
    """

    def __init__(self, message: str,
                 failures: Sequence["MemberFailure"] = ()) -> None:
        super().__init__(message)
        self.failures: Tuple[MemberFailure, ...] = tuple(failures)


@dataclass(frozen=True)
class MemberFailure:
    """One member's structured failure record.

    ``member`` is the member id (``None`` when the failure cannot be
    attributed, e.g. a poisoned queue payload), ``kind`` one of
    ``crash`` (died without reporting; ``exitcode`` set), ``timeout``
    (per-member or global deadline), ``error`` (the member raised and
    reported it), ``spawn`` (the worker never started) or ``queue``
    (unreadable or malformed queue payload).
    """

    member: Optional[str]
    kind: str
    detail: str = ""
    exitcode: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"member": self.member, "kind": self.kind,
                "detail": self.detail, "exitcode": self.exitcode}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MemberFailure":
        return cls(member=data.get("member"), kind=data["kind"],
                   detail=data.get("detail", ""),
                   exitcode=data.get("exitcode"))


def _crash(member: str, exitcode: Optional[int]) -> MemberFailure:
    return MemberFailure(member, "crash", f"worker died without reporting "
                                          f"(exitcode {exitcode})",
                         exitcode=exitcode)


_QUEUE_UNUSABLE = "race aborted: result queue unusable"


# ----------------------------------------------------------------------
# Member catalog
# ----------------------------------------------------------------------

def member_checkpoint_path(spec: AnalysisSpec,
                           member: str) -> Optional[str]:
    """Where one member checkpoints: ``<portfolio path>.<member>``.

    Members race in separate processes, so they cannot share one file;
    suffixing the portfolio's ``checkpoint_path`` keeps every member's
    checkpoint alongside it and lets the race resume a crashed member
    from *its own* last safe point.
    """
    if spec.checkpoint_path is None:
        return None
    return f"{spec.checkpoint_path}.{member}"


def member_spec(spec: AnalysisSpec, member: str) -> AnalysisSpec:
    """The single-engine spec a portfolio member runs.

    Options meaningful to a member are threaded through from the
    portfolio spec (the scheme for the BDD members, the
    functional sweep knobs for ``bdd-functional``, ``k_bound`` for
    ``kbounded``, reordering and ``max_iterations`` for everyone).
    Durability knobs thread through too: each member checkpoints to
    :func:`member_checkpoint_path` on the portfolio's cadence.
    """
    shared: Dict[str, Any] = dict(
        reorder=spec.reorder, reorder_threshold=spec.reorder_threshold,
        max_iterations=spec.max_iterations,
        checkpoint_path=member_checkpoint_path(spec, member),
        checkpoint_every=spec.checkpoint_every,
        checkpoint_every_seconds=spec.checkpoint_every_seconds,
        resume=spec.resume)
    bdd: Dict[str, Any] = dict(scheme=spec.scheme, **shared)
    if member == "bdd-functional":
        return AnalysisSpec(strategy=spec.strategy,
                            use_toggle=spec.use_toggle, **bdd)
    if member in ("bdd-chained", "bdd-monolithic"):
        return AnalysisSpec(form="relational",
                            engine=member.split("-", 1)[1], **bdd)
    if member == "zdd-chained":
        return AnalysisSpec(backend="zdd", form="relational",
                            engine="chained", **shared)
    if member == "zdd-classic":
        return AnalysisSpec(backend="zdd", form="functional", **shared)
    if member == "kbounded":
        # A 1-safe net is in particular 1-bounded, so the default bound
        # keeps the member's verdict comparable to the safe-net members.
        return AnalysisSpec(k_bound=spec.k_bound or 1, **shared)
    raise SpecError(f"unknown portfolio member {member!r}; expected one "
                    f"of {PORTFOLIO_MEMBERS}")


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------

def _worker_main(member: str, net_text: str, spec_values: Dict[str, Any],
                 result_queue) -> None:
    """Run one member to completion inside a worker process.

    The net travels as ``.pnet`` text and the spec as its ``to_dict``
    form, so the payload pickles under every start method.  Success
    reports ``("result", member, result.to_dict(), seconds)``; an
    exception reports ``("error", member, detail)``.  A worker that
    dies without reporting is the parent's crash-detection case.
    """
    try:
        from .facade import analyze  # local: workers import lazily
        net = loads(net_text)
        spec = AnalysisSpec.from_dict(spec_values)
        start = time.perf_counter()
        result = analyze(net, spec)
        result_queue.put(("result", member, result.to_dict(),
                          time.perf_counter() - start))
    except BaseException as exc:  # report everything, then exit 0
        try:
            result_queue.put(
                ("error", member, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass  # unreportable: the parent sees a silent exit


# ----------------------------------------------------------------------
# The race
# ----------------------------------------------------------------------

class _MemberState(WorkerSlot):
    """Book-keeping for one raced member.

    ``process is None`` with ``outcome is None`` means the member is
    awaiting a checkpoint-resume restart at ``restart_at``; ``attempt``
    counts launches (1 = the original run).
    """

    def __init__(self, member: str) -> None:
        super().__init__(member)
        self.member = member
        self.started = 0.0
        self.deadline: Optional[float] = None
        self.outcome: Optional[str] = None
        self.seconds: Optional[float] = None
        self.attempt = 1
        self.restart_at: Optional[float] = None

    def resolve(self, outcome: str, now: float) -> None:
        self.outcome = outcome
        self.seconds = now - self.started


class _Race:
    """One portfolio race over worker processes."""

    def __init__(self, net: PetriNet, spec: AnalysisSpec,
                 harness: WorkerHarness) -> None:
        self.net = net
        self.spec = spec
        self.harness = harness
        self.members = spec.resolved_members
        self.failures: List[MemberFailure] = []
        self.outcomes: List[Dict[str, Any]] = []
        self.retries: List[Dict[str, Any]] = []
        self._processes: List[Any] = []  # every worker ever spawned
        self.winner: Optional[str] = None
        self.winner_result: Optional[AnalysisResult] = None
        self.mode = "process"
        self.seconds = 0.0

    # -- process mode --------------------------------------------------

    def run(self) -> None:
        if not self.harness.available():
            self._run_serial()
            return
        try:
            result_queue = self.harness.create_queue()
        except Exception:
            self._run_serial()
            return
        start = self.harness.now()
        states = {member: _MemberState(member) for member in self.members}
        for state in states.values():
            self._launch(state, result_queue)
        if not any(s.outcome is None for s in states.values()):
            # Every spawn failed before a single worker ran: the
            # platform ruled processes out after all — degrade.
            self.failures.clear()
            self._run_serial()
            return
        try:
            self._drive(result_queue, states, start)
            self._classify_unresolved(states)
        finally:
            reap_processes(self._processes)
        self.seconds = self.harness.now() - start
        self.outcomes = [
            {"member": s.member, "outcome": s.outcome or "cancelled",
             "seconds": s.seconds, "attempts": s.attempt}
            for s in states.values()]

    def _launch(self, state: _MemberState, result_queue,
                resume: bool = False) -> None:
        """Start a member's worker (``resume``: restart it from its
        checkpoint) with a fresh member deadline; a spawn failure
        resolves the member."""
        mspec = member_spec(self.spec, state.member)
        if resume:
            mspec = mspec.replace(resume=True)
        now = state.started = self.harness.now()
        state.restart_at = None
        state.deadline = (now + self.spec.member_timeout
                          if self.spec.member_timeout else None)
        try:
            self._processes.append(state.spawn(
                self.harness, _worker_main,
                (state.member, dumps(self.net), mspec.to_dict(),
                 result_queue)))
        except Exception as exc:
            self.failures.append(MemberFailure(
                state.member, "spawn", f"{type(exc).__name__}: {exc}"))
            state.resolve("spawn", now)

    def _drive(self, result_queue, states: Dict[str, _MemberState],
               start: float) -> None:
        global_deadline = (start + self.spec.timeout
                           if self.spec.timeout else None)
        poison = 0
        while self.winner is None:
            now = self.harness.now()
            for state in states.values():
                if (state.outcome is None and state.process is None
                        and state.restart_at is not None
                        and now >= state.restart_at):
                    self._launch(state, result_queue, resume=True)
            live = [s for s in states.values() if s.outcome is None]
            if not live:
                break
            if global_deadline is not None and now >= global_deadline:
                self._end_live(states, "timeout", f"global timeout after "
                                                  f"{self.spec.timeout}s")
                break
            timeout = self.harness.poll_interval()
            if global_deadline is not None:
                timeout = min(timeout, global_deadline - now)
            for state in live:
                if state.deadline is not None:
                    timeout = min(timeout, state.deadline - now)
                if state.restart_at is not None:
                    timeout = min(timeout, state.restart_at - now)
            try:
                message = result_queue.get(timeout=max(timeout, 0.005))
            except queue_module.Empty:
                message = None
            except Exception as exc:
                poison += 1
                self.failures.append(MemberFailure(
                    None, "queue",
                    f"unreadable queue payload: "
                    f"{type(exc).__name__}: {exc}"))
                if poison >= MAX_QUEUE_POISON:
                    self._end_live(states, "error", _QUEUE_UNUSABLE)
                    break
                continue
            if message is not None and not self._dispatch(message, states):
                poison += 1
                if poison >= MAX_QUEUE_POISON:
                    self._end_live(states, "error", _QUEUE_UNUSABLE)
                    break
            self._check_deadlines_and_crashes(states)

    def _end_live(self, states: Dict[str, _MemberState], kind: str,
                  detail: str) -> None:
        """Stop every unresolved member and record why (global timeout,
        or a queue too poisoned to deliver any further verdict)."""
        now = self.harness.now()
        for state in states.values():
            if state.outcome is None:
                if state.process is not None:
                    state.process.terminate()
                state.resolve(kind, now)
                self.failures.append(MemberFailure(state.member, kind,
                                                   detail))

    def _schedule_retry(self, state: _MemberState, reason: str,
                        now: float) -> bool:
        """Queue a checkpoint-resume restart for a failed member.

        Only fires when the member actually has a checkpoint to resume
        from (the file under :func:`member_checkpoint_path` exists) and
        its retry budget (:data:`MEMBER_MAX_RETRIES`) is not exhausted.
        Returns whether a restart was scheduled; the caller keeps the
        :class:`MemberFailure` record either way, so retried attempts
        stay visible in the telemetry.
        """
        path = member_checkpoint_path(self.spec, state.member)
        if path is None or not os.path.exists(path):
            return False
        if state.attempt > MEMBER_MAX_RETRIES:
            return False
        backoff = RETRY_BACKOFF_SECONDS * state.attempt
        state.process = None
        state.deadline = None
        state.restart_at = now + backoff
        self.retries.append({
            "member": state.member, "attempt": state.attempt,
            "reason": reason, "backoff": backoff,
            "checkpoint": path})
        state.attempt += 1
        return True

    def _dispatch(self, message, states: Dict[str, _MemberState]) -> bool:
        """Apply one queue message; ``False`` if it was malformed."""
        now = self.harness.now()
        if (not isinstance(message, (tuple, list)) or len(message) < 3
                or message[0] not in ("result", "error")
                or message[1] not in states):
            self.failures.append(MemberFailure(
                None, "queue", f"malformed queue payload: {message!r}"))
            return False
        kind, member = message[0], message[1]
        state = states[member]
        if state.outcome is not None:
            return True  # late message from an already-resolved member
        if kind == "error":
            state.resolve("error", now)
            self.failures.append(MemberFailure(
                member, "error", str(message[2])))
            return True
        try:
            result = AnalysisResult.from_dict(message[2])
        except Exception as exc:
            state.resolve("error", now)
            self.failures.append(MemberFailure(
                member, "error",
                f"undecodable result payload: "
                f"{type(exc).__name__}: {exc}"))
            return False
        state.resolve("won", now)
        self.winner = member
        self.winner_result = result
        return True

    def _check_deadlines_and_crashes(
            self, states: Dict[str, _MemberState]) -> None:
        now = self.harness.now()
        for state in states.values():
            if state.outcome is not None or state.process is None:
                continue
            if state.deadline is not None and now >= state.deadline:
                state.process.terminate()
                self.failures.append(MemberFailure(
                    state.member, "timeout",
                    f"member timeout after "
                    f"{self.spec.member_timeout}s"))
                if not self._schedule_retry(state, "timeout", now):
                    state.resolve("timeout", now)
            elif state.crashed():
                self.failures.append(
                    _crash(state.member, state.process.exitcode))
                if not self._schedule_retry(state, "crash", now):
                    state.resolve("crash", now)

    def _classify_unresolved(self, states: Dict[str, _MemberState]) -> None:
        """Settle members the verdict outran.

        A loser still running is ``cancelled``.  One that already died
        with a non-zero exit code crashed — the winner merely arrived
        before the grace polls did — so its exit code is still surfaced
        as a structured failure.
        """
        now = self.harness.now()
        for state in states.values():
            if state.outcome is not None:
                continue
            if state.process is None:
                # Awaiting a checkpoint-resume restart when the verdict
                # arrived: the retry is moot, not a failure.
                state.resolve("cancelled", now)
                continue
            exitcode = None if state.process.is_alive() \
                else state.process.exitcode
            if exitcode not in (None, 0):
                state.resolve("crash", now)
                self.failures.append(_crash(state.member, exitcode))
            else:
                state.resolve("cancelled", now)

    # -- serial degraded mode ------------------------------------------

    def _run_serial(self) -> None:
        """In-process fallback: members run one at a time, first
        success wins.  Timeouts cannot be enforced here (a Python
        fixpoint cannot be preempted); members after the winner are
        reported as ``skipped``."""
        self.mode = "serial"
        start = time.perf_counter()
        self.winning_session: Optional[SolverSession] = None
        for index, member in enumerate(self.members):
            mspec = member_spec(self.spec, member)
            member_start = time.perf_counter()
            try:
                session = open_session(self.net, mspec)
                result = session.run()
            except Exception as exc:
                self.failures.append(MemberFailure(
                    member, "error", f"{type(exc).__name__}: {exc}"))
                self.outcomes.append(
                    {"member": member, "outcome": "error",
                     "seconds": time.perf_counter() - member_start})
                continue
            self.outcomes.append(
                {"member": member, "outcome": "won",
                 "seconds": time.perf_counter() - member_start})
            self.outcomes.extend(
                {"member": later, "outcome": "skipped", "seconds": None}
                for later in self.members[index + 1:])
            self.winner = member
            self.winner_result = result
            self.winning_session = session
            break
        self.seconds = time.perf_counter() - start


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------

class PortfolioSession(SolverSession):
    """One race, surfaced through the uniform session protocol.

    The race is one indivisible "iteration": :meth:`step` runs it to
    the first verdict, after which the session is exhausted.  The
    result's ``iterations`` field reports the *winner's* fixpoint
    iterations, not the parent's single step.

    ``harness`` injects the :class:`WorkerHarness` the race runs on —
    the fault-injection seam; ``None`` spawns real worker processes.
    """

    name = "portfolio"
    own_representation = ("portfolio members build their own "
                          "representations in their worker processes")

    def __init__(self, net: PetriNet, spec: AnalysisSpec,
                 harness: Optional[WorkerHarness] = None) -> None:
        self.symbolic_net = None
        self._race = _Race(net, spec, harness or WorkerHarness())
        super().__init__(spec, build_seconds=0.0)

    def at_fixpoint(self) -> bool:
        return self._race.winner_result is not None

    def _advance(self) -> None:
        race = self._race
        race.run()
        if race.winner_result is None:
            detail = "; ".join(
                f"{f.member or 'queue'}: {f.kind} ({f.detail})"
                for f in race.failures) or "no members ran"
            raise PortfolioError(
                f"portfolio race produced no verdict — {detail}",
                race.failures)
        # Serial mode keeps the winning in-process session alive, so
        # the reachable handle and model checking stay usable exactly
        # as if that backend had been run directly.
        session = getattr(race, "winning_session", None)
        if session is not None:
            self.symbolic_net = session.symbolic_net
            self.supports_model_checking = session.supports_model_checking

    def _peak_nodes(self) -> int:
        result = self._race.winner_result
        return result.peak_nodes if result is not None else 0

    def _finish(self) -> AnalysisResult:
        race = self._race
        winner = race.winner_result
        extras = {
            "portfolio": {
                "winner": race.winner,
                "mode": race.mode,
                "members": race.outcomes,
                "failures": [f.to_dict() for f in race.failures],
                "retries": list(race.retries),
            },
            "winner_extras": dict(winner.extras),
            "build_seconds": winner.extras.get("build_seconds", 0.0),
            "fixpoint_seconds": winner.extras.get("fixpoint_seconds",
                                                  0.0),
        }
        return AnalysisResult(
            spec=self.spec,
            engine=f"portfolio/{race.winner}",
            markings=winner.markings,
            iterations=winner.iterations,
            variables=winner.variables,
            final_nodes=winner.final_nodes,
            peak_nodes=winner.peak_nodes,
            seconds=race.seconds,
            reorder_count=winner.reorder_count,
            reachable=winner.reachable,
            extras=extras)
