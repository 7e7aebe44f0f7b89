"""AnalysisSpec: validation, defaults, warnings, serialization."""

import pytest

from repro.analysis import (DEFAULT_CLUSTER_SIZE,
                            DEFAULT_PORTFOLIO_MEMBERS,
                            DEFAULT_RELATIONAL_ENGINE, AnalysisSpec,
                            SpecError, SpecWarning)
from repro.cli import _build_parser


class TestDefaults:
    def test_bdd_defaults_to_functional(self):
        spec = AnalysisSpec()
        assert spec.resolved_form == "functional"
        assert spec.resolved_engine == "functional"
        assert spec.engine_id == "functional"
        assert spec.scheme == "improved"
        assert spec.reorder is True

    def test_zdd_defaults_to_chained_relational(self):
        spec = AnalysisSpec(backend="zdd")
        assert spec.resolved_form == "relational"
        assert spec.resolved_engine == DEFAULT_RELATIONAL_ENGINE
        assert spec.engine_id == "zdd/chained"

    def test_relational_engine_default_is_shared(self):
        # One default, defined once: both backends resolve the same
        # relational engine when none is named.
        bdd = AnalysisSpec(form="relational")
        zdd = AnalysisSpec(backend="zdd", form="relational")
        assert bdd.resolved_engine == zdd.resolved_engine == "chained"
        assert bdd.resolved_cluster_size == zdd.resolved_cluster_size \
            == DEFAULT_CLUSTER_SIZE

    def test_runner_default_matches_spec_default(self):
        # The historical skew: runner.run_zdd defaulted to classic
        # while the CLI favored the chained path.  Both now resolve
        # through AnalysisSpec.
        from repro.experiments.runner import engine_label, run_zdd
        from repro.petri.generators import figure1_net
        row = run_zdd("fig1", figure1_net())
        assert row.engine == engine_label(AnalysisSpec(backend="zdd"))

    def test_cli_default_matches_spec_default(self):
        args = _build_parser().parse_args(["analyze", "x.pnet"])
        assert AnalysisSpec.from_args(args) == AnalysisSpec()
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--engine", "zdd"])
        assert AnalysisSpec.from_args(args) == AnalysisSpec(backend="zdd")

    def test_k_bound_resolution(self):
        spec = AnalysisSpec(k_bound=3)
        assert spec.resolved_engine == "kbounded"
        assert spec.engine_id == "kbounded/3"


class TestValidationErrors:
    @pytest.mark.parametrize("kwargs", [
        {"scheme": "huffman"},
        {"backend": "mdd"},
        {"form": "algebraic"},
        {"engine": "quantum"},
        {"strategy": "dfs"},
        {"chain_order": "random"},
        {"engine": "chained"},                       # functional form
        {"form": "functional", "engine": "chained"},
        {"cluster_size": 4},                         # functional form
        {"cluster_size": 0, "form": "relational"},
        {"cluster_size": -2, "form": "relational"},
        {"cluster_size": "big", "form": "relational"},
        {"backend": "zdd", "k_bound": 2},
        {"k_bound": 0},
        {"k_bound": 2, "form": "relational"},
        {"k_bound": 2, "cluster_size": 4},
        {"reorder_threshold": 0},
        {"max_iterations": 0},
        {"backend": "portfolio", "engine": "chained"},
        {"backend": "portfolio", "form": "relational"},
        {"backend": "portfolio", "cluster_size": 4},
        {"portfolio_members": ("bdd-chained",)},     # bdd backend
        {"backend": "portfolio", "portfolio_members": ()},
        {"backend": "portfolio", "portfolio_members": ("sat-solver",)},
        {"backend": "portfolio",
         "portfolio_members": ("bdd-chained", "bdd-chained")},
        {"timeout": 60.0},                           # bdd backend
        {"backend": "zdd", "member_timeout": 5.0},
        {"backend": "portfolio", "timeout": 0},
        {"backend": "portfolio", "member_timeout": -1.0},
    ])
    def test_bad_combinations_raise(self, kwargs):
        with pytest.raises(SpecError):
            AnalysisSpec(**kwargs)

    def test_error_message_names_the_fix(self):
        with pytest.raises(SpecError, match="form='relational'"):
            AnalysisSpec(engine="partitioned")
        with pytest.raises(SpecError, match="no partitions to cluster"):
            AnalysisSpec(cluster_size=8)


class TestWarnings:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"form": "relational"},
        {"backend": "zdd"},
        {"backend": "zdd", "form": "functional"},
        {"k_bound": 2},
    ])
    def test_default_specs_are_silent(self, kwargs):
        assert AnalysisSpec(**kwargs).warnings() == ()

    def test_warnings_are_structured_not_printed(self, capsys):
        # reorder=False no longer warns on zdd: the shared repro.dd
        # kernel made reordering real for the ZDD manager.
        spec = AnalysisSpec(backend="zdd", scheme="sparse",
                            reorder=False, simplify_frontier=True)
        warnings = spec.warnings()
        assert capsys.readouterr() == ("", "")
        assert all(isinstance(w, SpecWarning) for w in warnings)
        assert {w.option for w in warnings} == {
            "scheme", "simplify_frontier"}
        sparse = next(w for w in warnings if w.option == "scheme")
        assert sparse.value == "sparse"
        assert "element per place" in sparse.reason
        assert "scheme='sparse' ignored" in sparse.render()

    def test_strategy_warns_off_the_functional_path(self):
        spec = AnalysisSpec(form="relational", strategy="bfs",
                            chain_order="net")
        assert {w.option for w in spec.warnings()} == {"strategy",
                                                       "chain_order"}
        assert AnalysisSpec(strategy="bfs").warnings() == ()

    def test_monolithic_cluster_size_warns(self):
        spec = AnalysisSpec(form="relational", engine="monolithic",
                            cluster_size=4)
        assert [w.option for w in spec.warnings()] == ["cluster_size"]

    def test_k_bound_warns_on_inapplicable_options(self):
        spec = AnalysisSpec(k_bound=2, scheme="sparse", reorder=False,
                            simplify_frontier=True, strategy="bfs")
        assert {w.option for w in spec.warnings()} == {
            "scheme", "reorder", "simplify_frontier", "strategy"}


class TestPortfolioSpec:
    def test_resolved_members_default(self):
        spec = AnalysisSpec(backend="portfolio")
        assert spec.resolved_members == DEFAULT_PORTFOLIO_MEMBERS
        assert spec.resolved_form == "portfolio"
        assert spec.resolved_engine == "portfolio"
        assert spec.engine_id == "portfolio"
        assert spec.warnings() == ()

    def test_members_list_normalized_to_tuple(self):
        # from_dict hands back JSON lists; the frozen spec must still
        # hash and compare like its tuple-built twin.
        spec = AnalysisSpec(backend="portfolio",
                            portfolio_members=["zdd-chained",
                                               "bdd-chained"])
        assert spec.portfolio_members == ("zdd-chained", "bdd-chained")
        assert spec == AnalysisSpec(
            backend="portfolio",
            portfolio_members=("zdd-chained", "bdd-chained"))

    def test_error_messages_name_the_fix(self):
        with pytest.raises(SpecError, match="races its members"):
            AnalysisSpec(backend="portfolio", engine="chained")
        with pytest.raises(SpecError, match="unknown portfolio member"):
            AnalysisSpec(backend="portfolio",
                         portfolio_members=("sat-solver",))
        with pytest.raises(SpecError, match="worker processes"):
            AnalysisSpec(timeout=30.0)

    def test_one_member_portfolio_warns(self):
        spec = AnalysisSpec(backend="portfolio",
                            portfolio_members=("bdd-chained",))
        assert [w.option for w in spec.warnings()] == \
            ["portfolio_members"]

    def test_member_option_warnings_follow_the_roster(self):
        # scheme applies to the BDD members of the default roster: no
        # warning; on an all-ZDD/kbounded roster it is dead weight.
        assert AnalysisSpec(backend="portfolio",
                            scheme="sparse").warnings() == ()
        spec = AnalysisSpec(backend="portfolio", scheme="sparse",
                            portfolio_members=("zdd-chained",
                                               "kbounded"))
        assert "scheme" in {w.option for w in spec.warnings()}

    def test_k_bound_parameterizes_the_kbounded_member(self):
        assert AnalysisSpec(backend="portfolio",
                            k_bound=2).warnings() == ()
        spec = AnalysisSpec(backend="portfolio", k_bound=2,
                            portfolio_members=("bdd-chained",
                                               "zdd-chained"))
        assert "k_bound" in {w.option for w in spec.warnings()}

    def test_round_trip_with_members(self):
        import json
        spec = AnalysisSpec(backend="portfolio",
                            portfolio_members=("bdd-functional",
                                               "kbounded"),
                            timeout=120.0, member_timeout=30.0)
        payload = json.loads(json.dumps(spec.to_dict()))
        assert AnalysisSpec.from_dict(payload) == spec

    def test_from_args(self):
        args = _build_parser().parse_args(
            ["analyze", "--net", "phil", "--n", "3",
             "--backend", "portfolio",
             "--portfolio-members", "bdd-chained,zdd-chained",
             "--timeout", "60", "--member-timeout", "20"])
        spec = AnalysisSpec.from_args(args)
        assert spec == AnalysisSpec(
            backend="portfolio",
            portfolio_members=("bdd-chained", "zdd-chained"),
            timeout=60.0, member_timeout=20.0)

    def test_from_args_member_flags_need_portfolio_backend(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--portfolio-members", "bdd-chained"])
        with pytest.raises(SpecError):
            AnalysisSpec.from_args(args)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        AnalysisSpec(),
        AnalysisSpec(backend="zdd"),
        AnalysisSpec(form="relational", engine="partitioned",
                     cluster_size=2, simplify_frontier=True,
                     reorder=False),
        AnalysisSpec(k_bound=3, max_iterations=50),
    ])
    def test_round_trip(self, spec):
        import json
        payload = json.loads(json.dumps(spec.to_dict()))
        assert AnalysisSpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            AnalysisSpec.from_dict({"scheme": "improved", "speed": 11})

    def test_replace_revalidates(self):
        spec = AnalysisSpec(form="relational", cluster_size=2)
        assert spec.replace(cluster_size=8).cluster_size == 8
        with pytest.raises(SpecError):
            spec.replace(form="functional")


class TestFromArgs:
    def test_full_relational_namespace(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--scheme", "dense", "--image",
             "partitioned", "--cluster-size", "auto", "--no-reorder",
             "--simplify-frontier"])
        spec = AnalysisSpec.from_args(args)
        assert spec == AnalysisSpec(scheme="dense", form="relational",
                                    engine="partitioned",
                                    cluster_size="auto", reorder=False,
                                    simplify_frontier=True)

    def test_explicit_functional_image(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--engine", "zdd", "--image",
             "functional"])
        spec = AnalysisSpec.from_args(args)
        assert spec.engine_id == "zdd/classic"

    def test_k_bound_flag(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--k-bound", "4"])
        assert AnalysisSpec.from_args(args).k_bound == 4

    def test_invalid_combination_surfaces_as_spec_error(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--cluster-size", "4"])
        with pytest.raises(SpecError):
            AnalysisSpec.from_args(args)


class TestFieldClassification:
    """Every spec field is explicitly semantic or not — the one split
    both the checkpoint headers and the service cache key rely on.

    A new field added without classifying it fails the import-time
    check in :mod:`repro.analysis.spec`; a new field classified
    *wrongly* fails here, because this test enumerates the expected
    split by hand.
    """

    EXPECTED_SEMANTIC = {
        "scheme", "backend", "form", "engine", "cluster_size",
        "strategy", "chain_order", "use_toggle", "reorder",
        "reorder_threshold", "simplify_frontier", "k_bound",
        "portfolio_members",
    }
    EXPECTED_NONSEMANTIC = {
        "checkpoint_path", "checkpoint_every", "checkpoint_every_seconds",
        "resume", "node_budget", "deadline", "max_iterations",
        "timeout", "member_timeout",
    }

    def test_every_field_classified_exactly_once(self):
        import dataclasses

        from repro.analysis import NONSEMANTIC_FIELDS, SEMANTIC_FIELDS
        all_fields = {f.name for f in dataclasses.fields(AnalysisSpec)}
        assert set(SEMANTIC_FIELDS) == self.EXPECTED_SEMANTIC
        assert set(NONSEMANTIC_FIELDS) == self.EXPECTED_NONSEMANTIC
        assert set(SEMANTIC_FIELDS) | set(NONSEMANTIC_FIELDS) == all_fields
        assert not set(SEMANTIC_FIELDS) & set(NONSEMANTIC_FIELDS)

    def test_nonsemantic_fields_do_not_change_the_fingerprint(self):
        base = AnalysisSpec()
        varied = AnalysisSpec(
            checkpoint_path="/tmp/x.ckpt", checkpoint_every=7,
            checkpoint_every_seconds=1.5, resume=True,
            node_budget=10_000, deadline=3.0, max_iterations=5,
            form="relational", engine="partitioned")
        # Same semantics modulo the relational switch...
        rel = AnalysisSpec(form="relational", engine="partitioned")
        assert varied.semantic_fingerprint() == rel.semantic_fingerprint()
        # ...and the durability knobs alone change nothing.
        assert base.semantic_fingerprint() == AnalysisSpec(
            resume=True, checkpoint_path="a.ckpt",
            max_iterations=9).semantic_fingerprint()
        assert base.semantic_fingerprint() != rel.semantic_fingerprint()

    def test_every_semantic_field_fractures_the_fingerprint(self):
        # Per-field valid spec pairs differing only in that field (some
        # values need supporting fields: relational engines need the
        # relational form, members the portfolio backend).
        pairs = {
            "scheme": (dict(), dict(scheme="sparse")),
            "backend": (dict(), dict(backend="zdd")),
            "form": (dict(), dict(form="relational")),
            "engine": (dict(form="relational"),
                       dict(form="relational", engine="partitioned")),
            "cluster_size": (dict(form="relational", engine="chained"),
                             dict(form="relational", engine="chained",
                                  cluster_size=3)),
            "strategy": (dict(), dict(strategy="bfs")),
            "chain_order": (dict(), dict(chain_order="net")),
            "use_toggle": (dict(), dict(use_toggle=False)),
            "reorder": (dict(), dict(reorder=False)),
            "reorder_threshold": (dict(), dict(reorder_threshold=999)),
            "simplify_frontier": (dict(), dict(simplify_frontier=True)),
            "k_bound": (dict(), dict(k_bound=3)),
            "portfolio_members": (
                dict(backend="portfolio"),
                dict(backend="portfolio",
                     portfolio_members=("bdd-functional",
                                        "zdd-chained"))),
        }
        from repro.analysis import SEMANTIC_FIELDS
        assert set(pairs) == set(SEMANTIC_FIELDS)
        for field, (left, right) in pairs.items():
            a = AnalysisSpec(**left).semantic_fingerprint()
            b = AnalysisSpec(**right).semantic_fingerprint()
            assert a != b, field

    def test_checkpoint_fingerprint_is_the_same_definition(self):
        from repro.analysis import spec_fingerprint
        spec = AnalysisSpec(backend="zdd")
        assert spec_fingerprint(spec) == spec.semantic_fingerprint()


class TestIdentityAcrossFieldRemoval:
    """Removing the non-semantic ``workers`` field must not move cache
    or checkpoint identity: entries written before the removal stay
    valid."""

    # semantic_fingerprint() values recorded while the spec still had
    # the ``workers`` field.
    PINNED = [
        (dict(), "d7b8967606abd9af"),
        (dict(backend="zdd"), "e269d4c0f6edbfc6"),
        (dict(form="relational"), "1dfd5f449f324cf9"),
        (dict(backend="portfolio"), "e8c589da453b9cd3"),
    ]

    @pytest.mark.parametrize("overrides,fingerprint", PINNED)
    def test_fingerprint_is_unchanged(self, overrides, fingerprint):
        from repro.analysis import spec_fingerprint
        spec = AnalysisSpec(**overrides)
        assert spec.semantic_fingerprint() == fingerprint
        assert spec_fingerprint(spec) == fingerprint

    def test_result_written_with_workers_field_still_loads(self):
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec().to_dict(), workers=None)
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "functional", "markings": 8, "iterations": 2,
            "variables": 4, "final_nodes": 8, "peak_nodes": 48,
            "seconds": 0.01, "reorder_count": 0, "status": "complete",
            "extras": {"strategy": "chaining", "chain_order": "support",
                       "use_toggle": True, "build_seconds": 0.005,
                       "fixpoint_seconds": 0.005},
        }
        result = AnalysisResult.from_dict(payload)
        assert result.spec == AnalysisSpec()
        assert result.spec.semantic_fingerprint() == "d7b8967606abd9af"
        assert result.markings == 8
        assert "workers" not in result.to_dict()["spec"]


class TestSerialEngineCatalogue:
    """The multiprocess partition sweep and its ``workers`` field are
    gone: the engine catalogues are serial and asking for ``workers``
    on an analysis fails loudly instead of being silently ignored."""

    def test_engine_catalogues_are_serial(self):
        from repro.analysis import PORTFOLIO_MEMBERS, RELATIONAL_ENGINES
        from repro.symbolic import IMAGE_ENGINES, ZDD_IMAGE_ENGINES
        serial = ("monolithic", "partitioned", "chained")
        assert RELATIONAL_ENGINES == serial
        assert IMAGE_ENGINES == serial
        assert ZDD_IMAGE_ENGINES == ("classic",) + serial
        assert not [m for m in PORTFOLIO_MEMBERS if m.endswith("-mp")]

    def test_workers_is_not_a_spec_field(self):
        with pytest.raises(TypeError):
            AnalysisSpec(workers=2)
        with pytest.raises(SpecError, match="unknown spec fields"):
            AnalysisSpec.from_dict(dict(AnalysisSpec().to_dict(),
                                        workers=2))

    def test_analyze_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["analyze", "x.pnet", "--workers", "2"])

    @pytest.mark.parametrize("argv", [["batch", "requests.jsonl"],
                                      ["serve"]])
    def test_service_commands_keep_their_workers_flag(self, argv):
        args = _build_parser().parse_args(argv + ["--workers", "2"])
        assert args.workers == 2
