"""analyze()/Analysis: cross-backend agreement with the explicit
oracle, session reuse, and the session routing surface."""

import pytest

from repro.analysis import (Analysis, AnalysisSpec, SpecError, analyze,
                            open_session)
from repro.analysis.backends import SATURATION_BANDS
from repro.bdd import Function
from repro.encoding import ImprovedEncoding
from repro.petri import ReachabilityGraph
from repro.petri.generators import figure1_net
from repro.symbolic import (RelationalNet, SymbolicNet, ZddNet,
                            ZddRelationalNet)

NETS = ("figure1", "phil4", "primes")

SPECS = {
    "functional": AnalysisSpec(),
    "functional-sparse-bfs": AnalysisSpec(scheme="sparse",
                                          strategy="bfs"),
    "rel-saturation": AnalysisSpec(form="relational"),
    "rel-saturation-fixed": AnalysisSpec(form="relational", reorder=False),
    "rel-saturation-sifted": AnalysisSpec(form="relational",
                                          reorder_threshold=20),
    "rel-saturation-sparse": AnalysisSpec(form="relational",
                                          scheme="sparse"),
    "rel-saturation-dense": AnalysisSpec(form="relational",
                                         scheme="dense"),
    "zdd-classic": AnalysisSpec(backend="zdd", form="functional"),
    "zdd-chained": AnalysisSpec(backend="zdd", engine="chained"),
    # A low threshold makes sifting fire, so the sweep's re-sort by the
    # new order after every reorder sits on the path these runs take.
    "zdd-chained-sifted": AnalysisSpec(backend="zdd", engine="chained",
                                       reorder_threshold=20),
    "zdd-saturation": AnalysisSpec(backend="zdd"),
    "zdd-saturation-sifted": AnalysisSpec(backend="zdd",
                                          reorder_threshold=20),
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
                                              reorder=False))
        result = analysis.run()
        # RelationalNet exposes no marking decoder; count equality here,
        # set-level equality across engines is pinned by the
        # differential harness (tests/symbolic/test_engine_diff.py).
        assert result.markings == explicit_counts[net_name]
        assert result.variables == ImprovedEncoding(net).num_variables
        assert result.engine == "relational/saturation"

    @pytest.mark.parametrize("net_name", NETS)
    @pytest.mark.parametrize("spec", [
        AnalysisSpec(backend="zdd", form="functional", reorder=False),
        AnalysisSpec(backend="zdd", engine="chained", reorder=False),
        AnalysisSpec(backend="zdd", reorder=False)],
        ids=["classic", "chained", "saturation"])
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
        assert stats["engine"] == "zdd/saturation"
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


# (spec overrides, session name, result engine).  The portfolio's
# engine names its winner, so it is matched on the prefix.
ROUTES = {
    "functional": ({}, "bdd-functional", "functional"),
    "relational": ({"form": "relational"}, "bdd-relational",
                   "relational/saturation"),
    "zdd": ({"backend": "zdd"}, "zdd", "zdd/saturation"),
    "kbounded": ({"k_bound": 2}, "kbounded", "kbounded/2"),
    # k_bound parameterizes the portfolio's kbounded member; it must
    # not reroute the spec to the k-bounded session.
    "portfolio": ({"backend": "portfolio", "k_bound": 2,
                   "timeout": 60.0}, "portfolio", "portfolio/"),
}

FACTORY_REFUSALS = {
    "zdd": ({"backend": "zdd"},
            "the zdd backend builds its own representation"),
    "kbounded": ({"k_bound": 2},
                 "the kbounded backend builds its own representation"),
    "portfolio": ({"backend": "portfolio"},
                  "portfolio members build their own representations in "
                  "their worker processes"),
}


class TestBackendRouting:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_open_session(self, route):
        overrides, name, engine = ROUTES[route]
        session = open_session(figure1_net(), AnalysisSpec(**overrides))
        assert session.name == name
        assert session.stats()["backend"] == name
        result = session.run()
        assert result.markings == 8
        if name == "portfolio":
            winner = result.extras["portfolio"]["winner"]
            assert result.engine == engine + winner
        else:
            assert result.engine == engine

    @pytest.mark.parametrize("route", sorted(FACTORY_REFUSALS))
    def test_encoding_factory_refused_with_the_sessions_reason(self,
                                                                route):
        overrides, reason = FACTORY_REFUSALS[route]
        with pytest.raises(SpecError, match=reason):
            open_session(figure1_net(), AnalysisSpec(**overrides),
                         encoding_factory=ImprovedEncoding)

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
    session is stepped against a reference loop that drops what it
    replaced before ``checkpoint()``."""

    @staticmethod
    def bdd_reference(net, threshold):
        relnet = RelationalNet(ImprovedEncoding(net), auto_reorder=True,
                               reorder_threshold=threshold)
        bdd = relnet.bdd
        events = relnet.saturation_events()
        reached = relnet.initial
        for band in range(SATURATION_BANDS):
            min_top = (bdd.num_vars * (SATURATION_BANDS - 1 - band)
                       // SATURATION_BANDS)
            reached = Function(bdd, bdd.saturate_post(reached.node, events,
                                                      min_top))
            bdd.checkpoint()
        return (SATURATION_BANDS, bdd.peak_live_nodes, bdd.reorder_count,
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
            swept = relnet.image_chained(frontier, reached=reached)
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

    # The live diagram of these nets stays under the default trigger
    # once the safe point collects, so the threshold is lowered to one
    # at which sifting fires.
    @pytest.mark.parametrize("net_name, spec", [
        ("slot4", AnalysisSpec(form="relational", reorder_threshold=200)),
        ("phil6", AnalysisSpec(form="relational", reorder_threshold=200)),
        ("dme3", AnalysisSpec(backend="zdd", engine="chained",
                              reorder_threshold=200))],
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
                (AnalysisSpec(form="relational"), "rel-saturation"),
                (AnalysisSpec(backend="zdd", form="functional"), "zdd"),
                (AnalysisSpec(backend="zdd"), "zdd-saturation"),
                (AnalysisSpec(backend="zdd", engine="chained"),
                 "zdd-chained"),
                (AnalysisSpec(k_bound=2), "k2")]:
            assert engine_label(spec) == label
            row = run("fig1", net, spec)
            assert row.engine == label
            assert row.markings == explicit_counts["figure1"]
            assert row.peak_nodes > 0
