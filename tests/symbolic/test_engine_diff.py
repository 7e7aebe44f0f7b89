"""Cross-engine differential harness: every engine, same marking sets.

Runs each generator family through the BDD relational form
(saturation over ``RelationalNet``) and every ZDD engine (classic
per-transition plus saturation and the chained sweep over
``ZddRelationalNet``), all through ``analyze()``, and asserts they
compute *identical* reachable sets — identical counts and identical
marking sets — against the explicit-enumeration oracle.

Set identity, not just cardinality: the ZDD families are decoded to
marking supports and compared exactly; the BDD sets are checked by
containment of every explicit marking's cube, which together with the
count match pins the set.

Small instances run in tier-1; the large configurations are marked
``slow`` (run with ``-m slow``, as the CI workflow does).
"""

import pytest

from repro.analysis import (DEFAULT_PORTFOLIO_MEMBERS, RELATIONAL_ENGINES,
                            ZDD_RELATIONAL_ENGINES, Analysis, AnalysisSpec,
                            PortfolioSession, WorkerHarness, analyze,
                            member_spec)
from repro.bdd import cube
from repro.petri import Marking, ReachabilityGraph
from repro.symbolic.checker import ModelChecker

# Every generator family in tier-1 reach, at small sizes.
SMALL_NETS = ["figure1", "phil3", "slot2", "muller3", "dme2", "jjreg-a2"]
# Larger configurations of the same families, outside tier-1.
LARGE_NETS = ["phil6", "slot3", "muller5", "dme3", "dmecir2", "jjreg-a3"]

# Every surviving configuration on a fixed variable order; the reorder
# variants below switch sifting on.
BDD_RELATIONAL = AnalysisSpec(form="relational", reorder=False)
ZDD_CLASSIC = AnalysisSpec(backend="zdd", form="functional",
                           reorder=False)
ZDD_RELATIONAL = AnalysisSpec(backend="zdd", form="relational",
                              reorder=False)


def explicit_marking_set(net):
    graph = ReachabilityGraph(net, max_markings=200_000)
    return {m.support for m in graph.markings}


def assert_bdd_set_matches(relnet, reached, count, explicit, context):
    """Count match + containment of every explicit marking == identity."""
    assert count == len(explicit), context
    bdd = relnet.bdd
    for support in sorted(explicit):
        assignment = relnet.encoding.marking_to_assignment(
            Marking(sorted(support)))
        marking_cube = cube(bdd, assignment)
        assert (marking_cube & reached) == marking_cube, \
            (context, sorted(support))


def assert_bdd_run_matches(net, spec, explicit, context):
    analysis = Analysis(net, spec)
    result = analysis.run()
    assert_bdd_set_matches(analysis.symbolic_net, result.reachable,
                           result.markings, explicit, context)
    return analysis


def assert_zdd_run_matches(net, spec, explicit, context):
    analysis = Analysis(net, spec)
    result = analysis.run()
    assert result.markings == len(explicit), context
    decoded = {m.support for m in
               analysis.symbolic_net.markings_of(result.reachable)}
    assert decoded == explicit, context
    return analysis


def run_differential_matrix(name, make_net):
    # One explicit enumeration per net serves as both the marking-set
    # oracle and (via len) the count oracle.
    net = make_net(name)
    explicit = explicit_marking_set(net)
    assert explicit

    for engine in RELATIONAL_ENGINES:
        assert_bdd_run_matches(make_net(name),
                               BDD_RELATIONAL.replace(engine=engine),
                               explicit, (name, f"bdd/{engine}"))

    assert_zdd_run_matches(make_net(name), ZDD_CLASSIC, explicit,
                           (name, "zdd/classic"))

    for engine in ZDD_RELATIONAL_ENGINES:
        assert_zdd_run_matches(make_net(name),
                               ZDD_RELATIONAL.replace(engine=engine),
                               explicit, (name, f"zdd/{engine}"))


@pytest.mark.parametrize("name", SMALL_NETS)
def test_engines_agree_small(name, make_net):
    run_differential_matrix(name, make_net)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_NETS)
def test_engines_agree_large(name, make_net):
    run_differential_matrix(name, make_net)


@pytest.mark.parametrize("name", SMALL_NETS)
def test_zdd_engines_agree_with_reorder_enabled(name, make_net):
    """Acceptance for the shared DD kernel: every ZDD engine with
    dynamic reordering on (pair-grouped sifting for the relational
    engines, per-element sifting for classic) pins the identical
    marking *sets* against the explicit oracle — sifting, GC and the
    sweep re-sorting its partition after a reorder must never change
    the computed family."""
    net = make_net(name)
    explicit = explicit_marking_set(net)
    assert explicit

    sifting = dict(reorder=True, reorder_threshold=50)
    assert_zdd_run_matches(make_net(name), ZDD_CLASSIC.replace(**sifting),
                           explicit, (name, "zdd/classic+reorder"))

    for engine in ZDD_RELATIONAL_ENGINES:
        assert_zdd_run_matches(
            make_net(name), ZDD_RELATIONAL.replace(engine=engine, **sifting),
            explicit, (name, f"zdd/{engine}+reorder"))


# ---------------------------------------------------------------------------
# Portfolio differential: the race's verdict vs every member's.


class _SerialOnlyHarness(WorkerHarness):
    """Forces the in-process serial path: the first member always wins,
    which lets the matrix below pin *every* possible winner
    deterministically instead of whoever happens to finish first."""

    def available(self):
        return False


def _forced_winner_result(net, members):
    spec = AnalysisSpec(backend="portfolio", portfolio_members=members)
    session = PortfolioSession(net, spec, harness=_SerialOnlyHarness())
    return session, session.run()


@pytest.mark.parametrize("name", SMALL_NETS)
def test_portfolio_agrees_with_every_member(name, make_net,
                                            explicit_counts):
    """Every member individually, then the portfolio with each member
    forced to win, all against the explicit oracle — a wrong verdict
    from any engine or any mixup in the race plumbing fails here."""
    expected = explicit_counts[name]
    parent = AnalysisSpec(backend="portfolio")

    # Each member run directly computes the oracle count.
    for member in DEFAULT_PORTFOLIO_MEMBERS:
        result = analyze(make_net(name), member_spec(parent, member))
        assert result.markings == expected, (name, member)

    # Each possible forced winner reports the same count, attributed
    # to the right member.
    n = len(DEFAULT_PORTFOLIO_MEMBERS)
    for shift in range(n):
        rotation = tuple(DEFAULT_PORTFOLIO_MEMBERS[(shift + i) % n]
                         for i in range(n))
        _, result = _forced_winner_result(make_net(name), rotation)
        race = result.extras["portfolio"]
        assert race["winner"] == rotation[0], (name, rotation)
        assert result.markings == expected, (name, rotation)


@pytest.mark.parametrize("name", ["figure1", "muller3"])
def test_portfolio_checker_answers_match_direct_run(name, make_net):
    """With a BDD-functional winner the portfolio session supports
    model checking; its deadlock answer must equal a direct run's."""
    session, result = _forced_winner_result(
        make_net(name), ("bdd-functional", "zdd-chained"))
    assert session.supports_model_checking
    portfolio_deadlocks = ModelChecker(
        session.symbolic_net,
        reachable=result.reachable).find_deadlocks()

    direct = Analysis(make_net(name), AnalysisSpec(form="functional"))
    direct_deadlocks = direct.checker().find_deadlocks()

    assert portfolio_deadlocks.holds == direct_deadlocks.holds
    assert result.markings == direct.result.markings


@pytest.mark.slow
def test_portfolio_process_race_agrees_large(make_net, explicit_counts):
    """A real worker-process race on phil6 lands on the oracle count
    no matter which member wins."""
    result = analyze(make_net("phil6"),
                     AnalysisSpec(backend="portfolio", timeout=300.0))
    assert result.markings == explicit_counts["phil6"]
    assert result.extras["portfolio"]["winner"] in \
        DEFAULT_PORTFOLIO_MEMBERS


# ---------------------------------------------------------------------------
# Kill-and-resume: a SIGKILLed analysis resumes to the oracle set.

import os
import signal
import time as _time


def _slow_checkpointing_worker(net_text, spec_values, delay):
    """Top-level so it pickles under every start method: steps the
    fixpoint with a sleep after each safe point, so the parent can
    SIGKILL it mid-fixpoint with a completed checkpoint on disk."""
    from repro.analysis import AnalysisSpec
    from repro.analysis.backends import open_session
    from repro.petri.parser import loads
    net = loads(net_text)
    spec = AnalysisSpec.from_dict(spec_values)
    session = open_session(net, spec)
    while not session.at_fixpoint():
        session.step()
        _time.sleep(delay)
    session.run()


def _workers_available():
    import multiprocessing
    try:
        probe = multiprocessing.get_context().Queue()
        probe.close()
        probe.join_thread()
    except Exception:
        return False
    return True


@pytest.mark.parametrize("name", SMALL_NETS)
def test_kill_and_resume_matches_oracle(name, make_net, explicit_counts,
                                        tmp_path):
    """Satellite acceptance: SIGKILL a real worker process mid-fixpoint,
    resume from its checkpoint in-process, and land exactly on the
    uninterrupted explicit-enumeration oracle — on every generator
    family."""
    import multiprocessing
    if not _workers_available():
        pytest.skip("multiprocessing unavailable in this environment")
    from repro.petri.parser import dumps
    path = str(tmp_path / f"{name}.ckpt")
    spec = AnalysisSpec(backend="zdd", engine="chained",
                        checkpoint_path=path)
    process = multiprocessing.get_context().Process(
        target=_slow_checkpointing_worker,
        args=(dumps(make_net(name)), spec.to_dict(), 0.2),
        daemon=True)
    process.start()
    try:
        deadline = _time.monotonic() + 30.0
        # The checkpoint is renamed into place atomically, so existence
        # means a complete, sealed file — safe to kill any time after.
        while not os.path.exists(path) \
                and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert os.path.exists(path), "worker never reached a checkpoint"
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.join(10.0)

    resumed = analyze(make_net(name), spec.replace(resume=True))
    assert resumed.extras["resume"]["status"] == "resumed"
    assert resumed.markings == explicit_counts[name]
    assert resumed.status == "complete"


# ---------------------------------------------------------------------------
# Finest disjunctive partition: one block per transition (Eq. 3), swept
# serially by the chained ZDD engine — the configuration that runs in
# place of the removed multiprocess and per-block union sweeps.


@pytest.mark.parametrize("name", SMALL_NETS)
def test_per_transition_partition_agrees_small(name, make_net):
    """Every transition is its own block, so the chained sweep feeds
    the most independent per-block images to each other; the ZDD
    engine must still land on the explicit oracle's marking *set*, and
    the default (reordering) spec reports the same count."""
    net = make_net(name)
    explicit = explicit_marking_set(net)
    assert explicit

    analysis = assert_zdd_run_matches(
        make_net(name), ZDD_RELATIONAL.replace(engine="chained"),
        explicit, (name, "zdd/chained"))
    assert sorted(block.transition
                  for block in analysis.symbolic_net.partitions()) \
        == sorted(net.transitions)

    spec = AnalysisSpec(backend="zdd", engine="chained")
    migrated = analyze(make_net(name), spec)
    assert migrated.engine == spec.engine_id
    assert migrated.markings == len(explicit), name
