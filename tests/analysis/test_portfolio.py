"""PortfolioSession: member catalog, racing, serial degradation."""

import pytest

from repro.analysis import (DEFAULT_PORTFOLIO_MEMBERS, PORTFOLIO_MEMBERS,
                            Analysis, AnalysisSpec, MemberFailure,
                            PortfolioSession, SpecError, WorkerHarness,
                            analyze, member_spec, open_session)
from repro.petri.generators import figure1_net


class SerialOnlyHarness(WorkerHarness):
    """Rules worker processes out: forces the degraded serial mode."""

    def available(self):
        return False


def serial_result(net, **spec_overrides):
    spec = AnalysisSpec(backend="portfolio", **spec_overrides)
    return PortfolioSession(net, spec, harness=SerialOnlyHarness()), spec


class TestMemberCatalog:
    def test_every_catalog_member_builds_a_valid_spec(self):
        parent = AnalysisSpec(backend="portfolio")
        for member in PORTFOLIO_MEMBERS:
            spec = member_spec(parent, member)
            assert spec.backend != "portfolio"  # no recursive races
            assert open_session(figure1_net(), spec).name != "portfolio"

    def test_unknown_member_rejected(self):
        with pytest.raises(SpecError, match="unknown portfolio member"):
            member_spec(AnalysisSpec(backend="portfolio"), "sat-solver")

    def test_options_thread_through_to_members(self):
        parent = AnalysisSpec(backend="portfolio", scheme="sparse",
                              strategy="bfs", use_toggle=False,
                              reorder=False, max_iterations=50, k_bound=2)
        functional = member_spec(parent, "bdd-functional")
        assert functional.scheme == "sparse"
        assert functional.strategy == "bfs"
        assert functional.use_toggle is False
        chained = member_spec(parent, "zdd-chained")
        assert chained.engine == "chained"
        assert chained.reorder is False
        kbounded = member_spec(parent, "kbounded")
        assert kbounded.k_bound == 2
        for member in PORTFOLIO_MEMBERS:
            assert member_spec(parent, member).max_iterations == 50

    def test_kbounded_member_defaults_to_bound_one(self):
        spec = member_spec(AnalysisSpec(backend="portfolio"), "kbounded")
        assert spec.k_bound == 1


class TestSerialDegradation:
    def test_first_member_wins_serially(self):
        session, _ = serial_result(figure1_net())
        result = session.run()
        race = result.extras["portfolio"]
        assert race["mode"] == "serial"
        assert race["winner"] == DEFAULT_PORTFOLIO_MEMBERS[0]
        assert result.markings == 8
        outcomes = [row["outcome"] for row in race["members"]]
        assert outcomes == ["won"] + ["skipped"] * (
            len(DEFAULT_PORTFOLIO_MEMBERS) - 1)

    def test_serial_winner_keeps_reachable_and_checker(self):
        session, _ = serial_result(
            figure1_net(), portfolio_members=("bdd-functional",
                                              "zdd-chained"))
        result = session.run()
        # The winning in-process session stays alive: the reachable
        # handle and model checking work as if run directly.
        assert result.reachable is not None
        assert session.supports_model_checking
        from repro.symbolic.checker import ModelChecker
        checker = ModelChecker(session.symbolic_net,
                               reachable=result.reachable)
        assert checker.find_deadlocks().holds is False

    def test_serial_skips_failing_member(self, monkeypatch):
        def exploding_session(net, spec):
            raise MemoryError("node table exploded")

        monkeypatch.setattr("repro.analysis.backends._ZddSession",
                            exploding_session)
        session, _ = serial_result(
            figure1_net(), portfolio_members=("zdd-chained",
                                              "bdd-functional"))
        result = session.run()
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-functional"
        assert result.markings == 8
        failure = MemberFailure.from_dict(race["failures"][0])
        assert failure.member == "zdd-chained"
        assert failure.kind == "error"
        assert "node table exploded" in failure.detail


class TestResultShape:
    @pytest.fixture(scope="class")
    def result(self):
        return analyze(figure1_net(),
                       AnalysisSpec(backend="portfolio", timeout=60.0))

    def test_verdict_matches_every_member(self, result):
        assert result.markings == 8
        parent = AnalysisSpec(backend="portfolio")
        for member in DEFAULT_PORTFOLIO_MEMBERS:
            assert analyze(figure1_net(),
                           member_spec(parent, member)).markings == 8

    def test_engine_names_the_winner(self, result):
        winner = result.extras["portfolio"]["winner"]
        assert result.engine == f"portfolio/{winner}"
        assert winner in DEFAULT_PORTFOLIO_MEMBERS

    def test_per_member_outcomes_and_times(self, result):
        race = result.extras["portfolio"]
        rows = {row["member"]: row for row in race["members"]}
        assert set(rows) == set(DEFAULT_PORTFOLIO_MEMBERS)
        winner_row = rows[race["winner"]]
        assert winner_row["outcome"] == "won"
        assert winner_row["seconds"] > 0
        for row in rows.values():
            assert row["outcome"] in ("won", "cancelled", "crash",
                                      "timeout", "error", "spawn",
                                      "skipped")

    def test_winner_extras_preserved(self, result):
        assert "winner_extras" in result.extras
        assert result.extras["build_seconds"] >= 0
        assert result.extras["fixpoint_seconds"] >= 0

    def test_facade_session_surface(self):
        analysis = Analysis(figure1_net(),
                            AnalysisSpec(backend="portfolio",
                                         timeout=60.0))
        assert analysis.step() is True   # the race is one step
        assert analysis.step() is False  # then the session is exhausted
        stats = analysis.stats()
        assert stats["backend"] == "portfolio"
        assert stats["at_fixpoint"] is True
        assert analysis.result.markings == 8
