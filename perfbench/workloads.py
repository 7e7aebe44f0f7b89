"""The four workloads, their inputs and their known answers.

Each workload function runs one repetition through a public entry
point of the library and returns its clocks, the answers it observed
and every answer check it made.  A check that fails (wrong count or
verdict, partial result, exception) is a failed operation, never a
pass.

* ``reach-phil10``: ``Analysis`` driven with ``step()`` to the fixpoint,
  then the marking count.  Dynamic reordering does most of the work.
* ``check-phil8``: the fixpoint, then three ``checker()`` queries.  The
  query phase does no sifting; it exercises apply/restrict/preimage.
* ``service-mix``: one closed-loop client keeping two requests in
  flight against ``AnalysisService(workers=2)`` over a Zipf-weighted
  stream of catalogue keys.  The only workload that runs the cache, the
  worker pool, checkpoints and the ZDD and relational engines.
* ``race-suite``: portfolio races on nets whose winner never flips.
  The only workload that runs the portfolio's worker harness.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("reach-phil10", "check-phil8", "service-mix", "race-suite")

#: Reachable marking counts.  The catalogue nets were cross-checked
#: against the explicit-state oracle (``test_perfbench.py``); phil-8 and
#: phil-10 are the paper's figures.
KNOWN_MARKINGS = {
    "phil-4": 466, "phil-5": 2164, "phil-6": 10054, "phil-7": 46708,
    "phil-8": 216994, "phil-10": 4683382,
    "slot-2": 40, "slot-3": 224, "slot-4": 1328,
    "muller-3": 30, "muller-5": 420, "muller-6": 990, "muller-8": 16016,
    "dme-3": 189, "dme-4": 756,
}

#: The three ``check-phil8`` verdicts, as the seed code gives them:
#: ``find_deadlocks()`` (holds, detail); ``AG !deadlock`` (holds at the
#: initial marking, markings satisfying it); ``AG EF initial`` (holds).
KNOWN_VERDICTS = {
    "phil-8": {"deadlock": [True, "2 deadlocked marking(s)"],
               "ag_not_deadlock": [False, 0], "home": False},
    "phil-4": {"deadlock": [True, "2 deadlocked marking(s)"],
               "ag_not_deadlock": [False, 0], "home": False},
}

#: Service catalogue specs, as ``AnalysisSpec`` keyword overrides.
SPECS = {"bdd": {}, "zdd": {"backend": "zdd"},
         "relational": {"form": "relational"}}

#: The portfolio every race runs.
RACE_MEMBERS = ("bdd-functional", "zdd-chained")

#: Requests the service-mix client keeps in flight (= the pool size).
CLIENTS = 2

#: Nets that warm the pool up before the stream starts; not in the
#: catalogue, so they never turn a catalogue request into a hit.
WARMUP_NETS = ("muller-2", "muller-3")


@dataclass(frozen=True)
class Sizes:
    reach: str
    check: str
    service_nets: Tuple[str, ...]
    service_requests: int
    race_nets: Tuple[str, ...]


FULL = Sizes(
    reach="phil-10", check="phil-8",
    service_nets=("phil-5", "phil-6", "phil-7", "slot-2", "slot-3",
                  "slot-4", "muller-5", "muller-6", "dme-3", "dme-4"),
    service_requests=160,
    # phil-8: the ZDD member wins; muller-8: the BDD member wins.  Both
    # by a wide margin, so the winner never flips between runs.
    race_nets=("phil-8", "muller-8"))

#: Toy sizes for the benchmark's own tests.
QUICK = Sizes(reach="slot-3", check="phil-4",
              service_nets=("slot-2", "phil-4"), service_requests=10,
              race_nets=("phil-4",))

FAMILIES = {"phil": "philosophers", "slot": "slotted_ring",
            "muller": "muller", "dme": "dme_spec"}


def make_net(name: str):
    """Generate ``family-size`` through ``repro.petri.generators``.

    The generator is looked up on the module at call time so a traced
    run's wrapper sees the call.
    """
    import repro.petri.generators as generators
    family, size = name.rsplit("-", 1)
    return getattr(generators, FAMILIES[family])(int(size))


class Checks:
    """Counts answer checks; every mismatch or exception is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, what: str, got, want) -> bool:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, expected {want!r}")
            return False
        return True

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _complete(checks: Checks, what: str, result) -> None:
    checks.expect(f"{what} status", result.status, "complete")


# ----------------------------------------------------------------------
# reach-phil10
# ----------------------------------------------------------------------

def reach(sizes: Sizes, seed: int, phase, known=KNOWN_MARKINGS) -> Dict:
    from repro.analysis import Analysis
    checks = Checks()
    net = make_net(sizes.reach)
    analysis = Analysis(net)
    ready = time.perf_counter()
    while analysis.step():
        pass
    result = analysis.run()
    _complete(checks, sizes.reach, result)
    checks.expect(f"{sizes.reach} markings", result.markings,
                  known[sizes.reach])
    done = time.perf_counter()
    return {"ready": ready, "done": done, "checks": checks,
            "peak_nodes": result.peak_nodes,
            "managers": [analysis.symbolic_net.bdd],
            "results": [result.to_dict()],
            "answers": {"markings": result.markings}}


# ----------------------------------------------------------------------
# check-phil8
# ----------------------------------------------------------------------

def check(sizes: Sizes, seed: int, phase, known=KNOWN_MARKINGS,
          verdicts=KNOWN_VERDICTS) -> Dict:
    from repro.analysis import Analysis
    checks = Checks()
    name = sizes.check
    analysis = Analysis(make_net(name))
    ready = time.perf_counter()
    while analysis.step():
        pass
    result = analysis.run()
    _complete(checks, name, result)
    checks.expect(f"{name} markings", result.markings, known[name])
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    deadlock = checker.find_deadlocks()
    safe = checker.ag(~symnet.deadlock_condition())
    home = checker.can_always_recover(symnet.initial)
    answers = {
        "markings": result.markings,
        "deadlock": [deadlock.holds, deadlock.detail],
        "ag_not_deadlock": [not (safe & symnet.initial).is_zero(),
                            symnet.count_markings(safe)],
        "home": home.holds,
    }
    for query in ("deadlock", "ag_not_deadlock", "home"):
        checks.expect(f"{name} {query}", answers[query],
                      verdicts[name][query])
    done = time.perf_counter()
    bdd = symnet.bdd
    bdd.live_nodes()  # fold the query phase into the peak
    return {"ready": ready, "done": done, "checks": checks,
            "peak_nodes": max(result.peak_nodes, bdd.peak_live_nodes),
            "managers": [bdd], "results": [result.to_dict()],
            "answers": answers}


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

def request_stream(keys: Sequence, total: int, rng: random.Random) -> List:
    """Every key once plus Zipf-weighted repeats, in seeded order.

    Asking every key once makes the set of solves, and with it the
    solver work, the same for every seed; the seed decides which keys
    are popular and the order requests arrive in.
    """
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    stream = list(keys) + rng.choices(ranked, weights,
                                      k=max(0, total - len(keys)))
    rng.shuffle(stream)
    return stream


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def service(sizes: Sizes, seed: int, phase, known=KNOWN_MARKINGS,
            workdir: Optional[str] = None) -> Dict:
    from repro.service import AnalysisService
    checks = Checks()
    rng = random.Random(seed)
    nets = {name: make_net(name)
            for name in sizes.service_nets + WARMUP_NETS}
    keys = [(net, spec) for net in sizes.service_nets for spec in SPECS]
    stream = request_stream(keys, sizes.service_requests, rng)
    scratch = tempfile.mkdtemp(prefix="service-", dir=workdir)
    records: List[Dict] = []
    first_payload: Dict[Tuple, str] = {}
    pending: deque = deque()

    def collect(entry) -> None:
        handle, submitted, (net, spec) = entry
        what = f"{net}/{spec}"
        try:
            payload = handle.result_dict()
        except Exception as exc:  # a failed request is counted, not fatal
            checks.error(what, exc)
            records.append({"latency": time.perf_counter() - submitted,
                            "hit": False})
            return
        finished = time.perf_counter()
        hit = handle.info["cache"] == "hit"
        records.append({"latency": finished - submitted, "hit": hit,
                        "dedup": handle.info["dedup"],
                        "peak_nodes": payload["peak_nodes"],
                        "payload": None if hit or handle.info["dedup"]
                        else payload})
        checks.expect(f"{what} status", payload["status"], "complete")
        checks.expect(f"{what} markings", payload["markings"], known[net])
        text = _canonical(payload)
        if hit:
            checks.expect(f"{what} hit payload", text,
                          first_payload.get(handle.key))
        else:
            first_payload.setdefault(handle.key, text)

    try:
        start = time.perf_counter()
        svc = AnalysisService(cache_dir=os.path.join(scratch, "cache"),
                              workers=CLIENTS,
                              checkpoint_dir=os.path.join(scratch, "ckpt"))
        try:
            # Two concurrent submits land on both workers: the pool is
            # spawned and each worker has run a solve before timing.
            warm = [svc.submit(nets[name]) for name in WARMUP_NETS]
            for handle in warm:
                handle.result_dict()
            baseline = svc.stats()
            ready = time.perf_counter()
            requests = iter(stream)
            more = True
            while True:
                while more and len(pending) < CLIENTS:
                    key = next(requests, None)
                    if key is None:
                        more = False
                        break
                    submitted = time.perf_counter()
                    handle = svc.submit(nets[key[0]], **SPECS[key[1]])
                    entry = (handle, submitted, key)
                    if handle.done():
                        collect(entry)
                    else:
                        pending.append(entry)
                if not pending:
                    break
                collect(pending.popleft())
                for entry in [e for e in pending if e[0].done()]:
                    pending.remove(entry)
                    collect(entry)
            done = time.perf_counter()
            stats = svc.stats()
        finally:
            svc.close()
        checkpoint_bytes = sum(
            entry.stat().st_size
            for entry in os.scandir(os.path.join(scratch, "ckpt"))
            if entry.is_file())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for field in ("pool_solves", "serial_solves", "errors", "cache_hits",
                  "dedup_hits"):
        stats[field] -= baseline[field]
    cache, warm_cache = stats["cache"], baseline["cache"]
    misses = sum(cache["misses"].values()) - sum(
        warm_cache["misses"].values())
    hits = (cache["hits_memory"] + cache["hits_disk"]
            - warm_cache["hits_memory"] - warm_cache["hits_disk"])
    stats["cache_hit_ratio"] = hits / (hits + misses) if hits else 0.0
    solved = [r["payload"] for r in records if r.get("payload")]
    return {"setup_start": start, "ready": ready, "done": done,
            "checks": checks,
            "peak_nodes": max((r["peak_nodes"] for r in records
                               if "peak_nodes" in r), default=0),
            "managers": [], "results": solved,
            "service": {"records": [{k: r.get(k) for k in
                                     ("latency", "hit", "dedup")}
                                    for r in records],
                        "stats": stats,
                        "checkpoint_bytes": checkpoint_bytes},
            "answers": {"requests": len(records),
                        "hits": sum(1 for r in records if r["hit"])}}


# ----------------------------------------------------------------------
# race-suite
# ----------------------------------------------------------------------

def race(sizes: Sizes, seed: int, phase, known=KNOWN_MARKINGS) -> Dict:
    from repro.analysis import analyze
    checks = Checks()
    order = list(sizes.race_nets)
    random.Random(seed).shuffle(order)
    nets = {name: make_net(name) for name in order}
    ready = time.perf_counter()
    walls, results, winners = [], [], {}
    for name in order:
        started = time.perf_counter()
        try:
            with phase("portfolio.race"):
                result = analyze(nets[name], backend="portfolio",
                                 portfolio_members=RACE_MEMBERS)
        except Exception as exc:
            checks.error(f"{name} race", exc)
            continue
        walls.append(time.perf_counter() - started)
        _complete(checks, name, result)
        checks.expect(f"{name} markings", result.markings, known[name])
        winners[name] = result.extras["portfolio"]["winner"]
        results.append(result.to_dict())
    done = time.perf_counter()
    return {"ready": ready, "done": done, "checks": checks,
            "peak_nodes": max((r["peak_nodes"] for r in results),
                              default=0),
            "managers": [], "results": results, "race_walls": walls,
            "answers": {"winners": winners}}


RUNNERS: Dict[str, Callable] = {
    "reach-phil10": reach,
    "check-phil8": check,
    "service-mix": service,
    "race-suite": race,
}


def run(workload: str, sizes: Sizes, seed: int, phase=None,
        **options) -> Dict:
    """One repetition of ``workload``.

    ``options`` are the workload function's keyword arguments: answer
    tables to check against, and ``workdir`` for the service's scratch
    directories.
    """
    if phase is None:
        phase = lambda name: nullcontext()  # noqa: E731
    return RUNNERS[workload](sizes, seed, phase, **options)
