"""analyze()/Analysis: cross-backend agreement with the explicit
oracle, session reuse, and the backend protocol surface."""

import pytest

from repro.analysis import (Analysis, AnalysisSpec, KBoundedBackend,
                            SpecError, ZddBackend, analyze, backend_for)
from repro.encoding import ImprovedEncoding
from repro.petri import ReachabilityGraph
from repro.symbolic import (RelationalNet, SymbolicNet, ZddNet,
                            ZddRelationalNet)

NETS = ("figure1", "phil4")

SPECS = {
    "functional": AnalysisSpec(),
    "functional-sparse-bfs": AnalysisSpec(scheme="sparse",
                                          strategy="bfs"),
    "rel-monolithic": AnalysisSpec(form="relational",
                                   engine="monolithic"),
    "rel-chained-2": AnalysisSpec(form="relational", engine="chained",
                                  cluster_size=2),
    "rel-chained-auto": AnalysisSpec(form="relational", engine="chained",
                                     cluster_size="auto"),
    "zdd-classic": AnalysisSpec(backend="zdd", form="functional"),
    "zdd-chained": AnalysisSpec(backend="zdd"),
    "kbounded": AnalysisSpec(k_bound=1),
}


def marking_sets(symbolic_net, reachable):
    return {frozenset(m.support) for m in
            symbolic_net.markings_of(reachable)}


def explicit_set(net):
    return {frozenset(m.support) for m in ReachabilityGraph(net).markings}


class TestCrossBackend:
    @pytest.mark.parametrize("net_name", NETS)
    @pytest.mark.parametrize("label", sorted(SPECS))
    def test_analyze_matches_explicit_oracle(self, make_net,
                                             explicit_counts, net_name,
                                             label):
        result = analyze(make_net(net_name), SPECS[label])
        assert result.markings == explicit_counts[net_name]
        assert result.engine == SPECS[label].engine_id

    @pytest.mark.parametrize("net_name", NETS)
    def test_functional_matches_explicit_set(self, make_net, net_name):
        net = make_net(net_name)
        analysis = Analysis(net, AnalysisSpec(reorder=False))
        result = analysis.run()
        assert marking_sets(analysis.symbolic_net, result.reachable) \
            == explicit_set(net)

    @pytest.mark.parametrize("net_name", NETS)
    def test_relational_matches_explicit_count(self, make_net, net_name,
                                               explicit_counts):
        net = make_net(net_name)
        analysis = Analysis(net, AnalysisSpec(form="relational",
                                              engine="chained",
                                              cluster_size="auto",
                                              reorder=False))
        result = analysis.run()
        # RelationalNet exposes no marking decoder; count equality here,
        # set-level equality across engines is pinned by the
        # differential harness (tests/symbolic/test_engine_diff.py).
        assert result.markings == explicit_counts[net_name]
        assert result.variables == ImprovedEncoding(net).num_variables
        assert result.engine == "relational/chained"

    @pytest.mark.parametrize("net_name", NETS)
    @pytest.mark.parametrize("spec", [
        AnalysisSpec(backend="zdd", form="functional", reorder=False),
        AnalysisSpec(backend="zdd", cluster_size="auto", reorder=False)],
        ids=["classic", "chained"])
    def test_zdd_matches_explicit_set(self, make_net, net_name, spec):
        net = make_net(net_name)
        analysis = Analysis(net, spec)
        result = analysis.run()
        assert marking_sets(analysis.symbolic_net, result.reachable) \
            == explicit_set(net)
        assert result.peak_nodes > 0


class TestSession:
    def test_manual_stepping_reaches_the_same_fixpoint(self, make_net,
                                                       explicit_counts):
        analysis = Analysis(make_net("figure1"), AnalysisSpec())
        steps = 0
        while analysis.step():
            steps += 1
        assert analysis.stats()["at_fixpoint"]
        result = analysis.run()
        assert result.iterations == steps
        assert result.markings == explicit_counts["figure1"]

    def test_run_is_cached(self, make_net):
        analysis = Analysis(make_net("figure1"), AnalysisSpec())
        assert analysis.run() is analysis.run()
        assert analysis.result is analysis.run()

    def test_stats_shape(self, make_net):
        analysis = Analysis(make_net("figure1"),
                            AnalysisSpec(backend="zdd"))
        stats = analysis.stats()
        for key in ("backend", "engine", "iterations", "at_fixpoint",
                    "peak_nodes", "build_seconds", "fixpoint_seconds"):
            assert key in stats
        assert stats["engine"] == "zdd/chained"
        assert stats["iterations"] == 0

    def test_checker_reuses_the_computed_reachable_set(self, make_net):
        analysis = Analysis(make_net("phil3"), AnalysisSpec())
        result = analysis.run()
        checker = analysis.checker()
        assert checker.reachable is result.reachable
        assert checker.find_deadlocks().holds  # philosophers deadlock

    @pytest.mark.parametrize("spec", [
        AnalysisSpec(form="relational"),
        AnalysisSpec(backend="zdd"),
        AnalysisSpec(k_bound=2),
    ])
    def test_checker_requires_functional_bdd(self, make_net, spec):
        analysis = Analysis(make_net("figure1"), spec)
        with pytest.raises(SpecError, match="functional BDD"):
            analysis.checker()

    def test_keyword_overrides_build_a_spec(self, make_net,
                                            explicit_counts):
        result = analyze(make_net("figure1"), scheme="sparse",
                         reorder=False)
        assert result.spec == AnalysisSpec(scheme="sparse",
                                           reorder=False)
        assert result.markings == explicit_counts["figure1"]

    def test_max_iterations_aborts(self, make_net):
        with pytest.raises(RuntimeError, match="exceeded 1 iteration"):
            analyze(make_net("phil3"), AnalysisSpec(strategy="bfs"),
                    max_iterations=1)

    def test_encoding_factory_rejected_off_the_bdd_backends(self,
                                                            make_net):
        net = make_net("figure1")
        with pytest.raises(SpecError, match="encoding_factory"):
            Analysis(net, AnalysisSpec(backend="zdd"),
                     encoding_factory=ImprovedEncoding)
        with pytest.raises(SpecError, match="encoding_factory"):
            Analysis(net, AnalysisSpec(k_bound=2),
                     encoding_factory=ImprovedEncoding)


class TestBackendRouting:
    def test_backend_for(self):
        assert backend_for(AnalysisSpec()).name == "bdd-functional"
        assert backend_for(
            AnalysisSpec(form="relational")).name == "bdd-relational"
        assert isinstance(backend_for(AnalysisSpec(backend="zdd")),
                          ZddBackend)
        assert isinstance(backend_for(AnalysisSpec(k_bound=2)),
                          KBoundedBackend)

    def test_sessions_expose_the_wrapped_net(self, make_net):
        net = make_net("figure1")
        assert isinstance(Analysis(net, AnalysisSpec()).symbolic_net,
                          SymbolicNet)
        assert isinstance(
            Analysis(net, AnalysisSpec(form="relational")).symbolic_net,
            RelationalNet)
        assert isinstance(
            Analysis(net, AnalysisSpec(backend="zdd",
                                       form="functional")).symbolic_net,
            ZddNet)


class TestSiftingTrajectory:
    """A relational session holds only its new roots through each safe
    point.  What stays referenced there decides what the collection
    frees, and with sifting on that moves the whole trajectory, so each
    session is stepped against a reference loop that drops the swept
    set before ``checkpoint()``."""

    @staticmethod
    def bdd_reference(net, threshold):
        relnet = RelationalNet(ImprovedEncoding(net), auto_reorder=True,
                               reorder_threshold=threshold)
        bdd = relnet.bdd
        reached = frontier = relnet.initial
        iterations = 0
        while not frontier.is_zero():
            swept = relnet.image_chained(
                frontier, relnet.partitions("auto"), reached=reached)
            reached, frontier = reached | swept, swept - reached
            del swept
            bdd.checkpoint()
            iterations += 1
        return (iterations, bdd.peak_live_nodes, bdd.reorder_count,
                reached.node)

    @staticmethod
    def zdd_reference(net, threshold):
        relnet = ZddRelationalNet(net, auto_reorder=True,
                                  reorder_threshold=threshold)
        zdd = relnet.zdd
        reached = zdd.ref(relnet.initial)
        frontier = zdd.ref(relnet.initial)
        iterations = 0
        while frontier != zdd.empty():
            swept = relnet.image_chained(
                frontier, relnet.partitions("auto"), reached=reached)
            new_reached = zdd.ref(zdd.union(reached, swept))
            new_frontier = zdd.ref(zdd.diff(swept, reached))
            zdd.deref(reached)
            zdd.deref(frontier)
            reached, frontier = new_reached, new_frontier
            zdd.checkpoint()
            iterations += 1
        zdd.live_nodes()
        return (iterations, zdd.peak_live_nodes, zdd.reorder_count,
                reached)

    @pytest.mark.parametrize("net_name, spec", [
        ("slot4", AnalysisSpec(form="relational")),
        ("phil6", AnalysisSpec(form="relational")),
        ("dme3", AnalysisSpec(backend="zdd"))],
        ids=["slot4-relational", "phil6-relational", "dme3-zdd"])
    def test_session_matches_the_reference_loop(self, make_net, net_name,
                                                spec):
        result = Analysis(make_net(net_name), spec).run()
        assert result.reorder_count > 0
        reference = (self.zdd_reference if spec.backend == "zdd"
                     else self.bdd_reference)(make_net(net_name),
                                              spec.reorder_threshold)
        reached = result.reachable
        assert (result.iterations, result.peak_nodes,
                result.reorder_count,
                getattr(reached, "node", reached)) == reference


class TestRunnerIntegration:
    def test_run_reports_peak_nodes_and_labels(self, make_net,
                                               explicit_counts):
        from repro.experiments.runner import engine_label, run
        net = make_net("figure1")
        for spec, label in [
                (AnalysisSpec(scheme="sparse"), "sparse"),
                (AnalysisSpec(scheme="dense"), "covering"),
                (AnalysisSpec(), "dense"),
                (AnalysisSpec(form="relational"), "rel-chained"),
                (AnalysisSpec(backend="zdd", form="functional"), "zdd"),
                (AnalysisSpec(backend="zdd"), "zdd-chained"),
                (AnalysisSpec(k_bound=2), "k2")]:
            assert engine_label(spec) == label
            row = run("fig1", net, spec)
            assert row.engine == label
            assert row.markings == explicit_counts["figure1"]
            assert row.peak_nodes > 0
