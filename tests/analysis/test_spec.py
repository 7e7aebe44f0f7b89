"""AnalysisSpec: validation, defaults, warnings, serialization."""

import pytest

from repro.analysis import (DEFAULT_PORTFOLIO_MEMBERS,
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

    def test_zdd_defaults_to_saturation_relational(self):
        spec = AnalysisSpec(backend="zdd")
        assert spec.resolved_form == "relational"
        assert spec.resolved_engine == DEFAULT_RELATIONAL_ENGINE
        assert spec.engine_id == "zdd/saturation"

    def test_relational_engine_default_is_shared(self):
        # One default, defined once: both backends resolve the same
        # relational engine when none is named.
        bdd = AnalysisSpec(form="relational")
        zdd = AnalysisSpec(backend="zdd", form="relational")
        assert bdd.resolved_engine == zdd.resolved_engine == "saturation"

    def test_runner_default_matches_spec_default(self):
        # The historical skew: the runner's ZDD wrapper defaulted to
        # classic while the CLI favored the chained path.  Both now
        # resolve through AnalysisSpec.
        from repro.experiments.runner import engine_label, run
        from repro.petri.generators import figure1_net
        spec = AnalysisSpec(backend="zdd")
        row = run("fig1", figure1_net(), spec)
        assert row.engine == engine_label(spec) == "zdd-saturation"

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
        {"engine": "chained"},                       # functional form
        {"form": "functional", "engine": "chained"},
        {"backend": "zdd", "k_bound": 2},
        {"k_bound": 0},
        {"k_bound": 2, "form": "relational"},
        {"reorder_threshold": 0},
        {"max_iterations": 0},
        {"backend": "portfolio", "engine": "chained"},
        {"backend": "portfolio", "form": "relational"},
        {"portfolio_members": ("bdd-functional",)},     # bdd backend
        {"backend": "portfolio", "portfolio_members": ()},
        {"backend": "portfolio", "portfolio_members": ("sat-solver",)},
        {"backend": "portfolio",
         "portfolio_members": ("bdd-functional", "bdd-functional")},
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
            AnalysisSpec(engine="saturation")


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
                            reorder=False, strategy="bfs")
        warnings = spec.warnings()
        assert capsys.readouterr() == ("", "")
        assert all(isinstance(w, SpecWarning) for w in warnings)
        assert {w.option for w in warnings} == {"scheme", "strategy"}
        sparse = next(w for w in warnings if w.option == "scheme")
        assert sparse.value == "sparse"
        assert "element per place" in sparse.reason
        assert "scheme='sparse' ignored" in sparse.render()

    def test_strategy_warns_off_the_functional_path(self):
        spec = AnalysisSpec(form="relational", strategy="bfs")
        assert {w.option for w in spec.warnings()} == {"strategy"}
        assert AnalysisSpec(strategy="bfs").warnings() == ()

    def test_strategy_warning_reads_the_field_default(self):
        # Only a strategy moved off the default warns off the
        # functional path, whichever strategy the default is.
        assert AnalysisSpec().strategy == "saturation"
        assert AnalysisSpec(form="relational").warnings() == ()
        spec = AnalysisSpec(form="relational", strategy="bfs")
        assert [w.option for w in spec.warnings()] == ["strategy"]

    def test_use_toggle_does_not_apply_to_saturation(self):
        (warning,) = AnalysisSpec(use_toggle=False).warnings()
        assert warning.option == "use_toggle"
        assert warning.value is False
        assert "force events" in warning.reason
        assert AnalysisSpec(strategy="bfs", use_toggle=False).warnings() \
            == ()

    def test_k_bound_warns_on_inapplicable_options(self):
        spec = AnalysisSpec(k_bound=2, scheme="sparse", reorder=False,
                            strategy="bfs")
        assert {w.option for w in spec.warnings()} == {
            "scheme", "reorder", "strategy"}


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
                                               "bdd-functional"])
        assert spec.portfolio_members == ("zdd-chained", "bdd-functional")
        assert spec == AnalysisSpec(
            backend="portfolio",
            portfolio_members=("zdd-chained", "bdd-functional"))

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
                            portfolio_members=("bdd-functional",))
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
                            portfolio_members=("bdd-functional",
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
             "--portfolio-members", "bdd-functional,zdd-chained",
             "--timeout", "60", "--member-timeout", "20"])
        spec = AnalysisSpec.from_args(args)
        assert spec == AnalysisSpec(
            backend="portfolio",
            portfolio_members=("bdd-functional", "zdd-chained"),
            timeout=60.0, member_timeout=20.0)

    def test_from_args_member_flags_need_portfolio_backend(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--portfolio-members", "bdd-functional"])
        with pytest.raises(SpecError):
            AnalysisSpec.from_args(args)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        AnalysisSpec(),
        AnalysisSpec(backend="zdd"),
        AnalysisSpec(form="relational", engine="saturation", reorder=False),
        AnalysisSpec(backend="zdd", engine="chained", reorder=False),
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
        spec = AnalysisSpec(form="relational", engine="saturation")
        assert spec.replace(reorder_threshold=800).reorder_threshold == 800
        with pytest.raises(SpecError):
            spec.replace(form="functional")


class TestFromArgs:
    def test_full_relational_namespace(self):
        args = _build_parser().parse_args(
            ["analyze", "x.pnet", "--scheme", "dense", "--image",
             "saturation", "--no-reorder"])
        spec = AnalysisSpec.from_args(args)
        assert spec == AnalysisSpec(scheme="dense", form="relational",
                                    engine="saturation", reorder=False)

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
            ["analyze", "x.pnet", "--engine", "zdd", "--k-bound", "2"])
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
        "scheme", "backend", "form", "engine",
        "strategy", "use_toggle", "reorder",
        "reorder_threshold", "k_bound", "portfolio_members",
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
            form="relational")
        # Same semantics modulo the relational switch...
        rel = AnalysisSpec(form="relational")
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
            "engine": (dict(backend="zdd"),
                       dict(backend="zdd", engine="chained")),
            "strategy": (dict(), dict(strategy="bfs")),
            "use_toggle": (dict(), dict(use_toggle=False)),
            "reorder": (dict(), dict(reorder=False)),
            "reorder_threshold": (dict(), dict(reorder_threshold=999)),
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
    """Removing the non-semantic ``workers`` field and the retired
    semantic ``simplify_frontier`` and ``cluster_size`` fields must not
    move cache or checkpoint identity: entries written before the
    removals stay valid."""

    # semantic_fingerprint() values of ``strategy="bfs"`` specs, the
    # paper's traversal.  The bdd and zdd rows are the values the spec
    # gave while it still had the ``workers`` and ``simplify_frontier``
    # fields; the zdd row names the chained engine it was written for.
    # The portfolio row is the one recorded once the portfolio keyed on
    # its resolved roster, before ``chaining`` was retired.  (These rows
    # pinned ``strategy="chaining"`` specs until that retirement.)
    PINNED = [
        (dict(strategy="bfs"), "3ca14e830475dc12"),
        (dict(strategy="bfs", backend="zdd", engine="chained"),
         "d523e3a0aab219c6"),
        (dict(strategy="bfs", backend="portfolio"), "08d74d0c3d9c9eab"),
    ]

    @pytest.mark.parametrize("overrides,fingerprint", PINNED)
    def test_fingerprint_is_unchanged(self, overrides, fingerprint):
        from repro.analysis import spec_fingerprint
        spec = AnalysisSpec(**overrides)
        assert spec.semantic_fingerprint() == fingerprint
        assert spec_fingerprint(spec) == fingerprint

    # The default specs since saturation became the default strategy
    # (``strategy`` is semantic on every backend, so all four moved),
    # the zdd and relational ones again since saturation became the
    # default relational engine (``dcdd60c6c52aac2c`` and
    # ``e66704f57edd1813`` before), and the portfolio one again since
    # the portfolio keys on its resolved roster (``6d6fc1d0042e35c4``
    # before).
    DEFAULTS = [
        (dict(), "13dab6090abf8970"),
        (dict(backend="zdd"), "e51dca522beb3476"),
        (dict(form="relational"), "054ef09cf3517ef5"),
        (dict(backend="portfolio"), "c9e48e13976ce59e"),
    ]

    @pytest.mark.parametrize("overrides,fingerprint", DEFAULTS)
    def test_default_fingerprint_is_pinned(self, overrides, fingerprint):
        from repro.analysis import spec_fingerprint
        spec = AnalysisSpec(**overrides)
        assert spec.strategy == "saturation"
        assert spec.semantic_fingerprint() == fingerprint
        assert spec_fingerprint(spec) == fingerprint

    # Explicit engines and the specs that resolve no relational engine
    # keep the keys they had before the relational form started keying
    # on its resolved engine.
    UNMOVED = [
        (dict(backend="zdd", engine="chained"), "0520ab3981e6cf5a"),
        (dict(backend="zdd", form="functional"), "fa6f7a526515e427"),
        (dict(k_bound=2), "33fe52d503a30db2"),
    ]

    @pytest.mark.parametrize("overrides,fingerprint", UNMOVED)
    def test_explicit_engine_fingerprint_is_unchanged(self, overrides,
                                                      fingerprint):
        assert AnalysisSpec(**overrides).semantic_fingerprint() \
            == fingerprint

    @pytest.mark.parametrize("backend", ["bdd", "zdd"])
    def test_default_engine_shares_the_saturation_identity(self, backend):
        """``engine=None`` runs saturation, so it keys the same cache
        entries and checkpoints as naming it."""
        default = AnalysisSpec(backend=backend, form="relational")
        named = default.replace(engine="saturation")
        assert default != named
        assert (default.semantic_fingerprint()
                == named.semantic_fingerprint())

    def test_zdd_default_engine_keys_apart_from_chained(self):
        default = AnalysisSpec(backend="zdd")
        assert (default.semantic_fingerprint()
                != default.replace(engine="chained").semantic_fingerprint())

    def test_portfolio_keys_on_its_resolved_roster(self):
        """``portfolio_members=None`` races the default roster, so it
        keys the same cache entries as naming that roster; another
        roster keys apart."""
        default = AnalysisSpec(backend="portfolio")
        named = default.replace(portfolio_members=DEFAULT_PORTFOLIO_MEMBERS)
        assert default != named
        assert (default.semantic_fingerprint()
                == named.semantic_fingerprint())
        other = default.replace(portfolio_members=("bdd-functional",
                                                   "zdd-chained"))
        assert (other.semantic_fingerprint()
                != default.semantic_fingerprint())

    def test_result_written_with_workers_field_still_loads(self):
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec(strategy="bfs").to_dict(),
                           workers=None)
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "functional", "markings": 8, "iterations": 2,
            "variables": 4, "final_nodes": 8, "peak_nodes": 48,
            "seconds": 0.01, "reorder_count": 0, "status": "complete",
            "extras": {"strategy": "bfs", "chain_order": "support",
                       "use_toggle": True, "build_seconds": 0.005,
                       "fixpoint_seconds": 0.005},
        }
        result = AnalysisResult.from_dict(payload)
        assert result.spec == AnalysisSpec(strategy="bfs")
        assert result.spec.semantic_fingerprint() == "3ca14e830475dc12"
        assert result.markings == 8
        assert "workers" not in result.to_dict()["spec"]

    # Retired semantic fields at the one value that still loads, as a
    # build from before each retirement wrote them.
    RETIRED_OFF = [("simplify_frontier", False), ("cluster_size", None)]
    # Retired fields at values this build cannot reproduce, each with
    # the advice its SpecError gives.
    RETIRED_ON = [
        ("simplify_frontier", True, "default saturation engine"),
        ("cluster_size", "auto", "one sparse relation per transition"),
        ("cluster_size", 4, "one sparse relation per transition"),
        ("cluster_size", 1, "one sparse relation per transition"),
    ]

    @pytest.mark.parametrize("field,value", RETIRED_OFF)
    @pytest.mark.parametrize("overrides,fingerprint", PINNED)
    def test_spec_written_with_retired_field_off_still_loads(
            self, overrides, fingerprint, field, value):
        spec_fields = dict(AnalysisSpec(**overrides).to_dict(),
                           **{field: value})
        loaded = AnalysisSpec.from_dict(spec_fields)
        assert loaded == AnalysisSpec(**overrides)
        assert loaded.semantic_fingerprint() == fingerprint

    @pytest.mark.parametrize("field,value", RETIRED_OFF)
    def test_result_written_with_retired_field_off_still_loads(
            self, field, value):
        """A relational result as the build before the retirement wrote
        it (its extras name the partition granularity it ran)."""
        from repro.analysis import AnalysisResult
        relational = AnalysisSpec(strategy="bfs", backend="zdd",
                                  engine="chained")
        spec_fields = dict(relational.to_dict(), **{field: value})
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "zdd/chained", "markings": 8,
            "iterations": 2, "variables": 4, "final_nodes": 8,
            "peak_nodes": 48, "seconds": 0.01, "reorder_count": 0,
            "status": "complete",
            "extras": {"cluster_size": "auto", "build_seconds": 0.005,
                       "fixpoint_seconds": 0.005},
        }
        result = AnalysisResult.from_dict(payload)
        assert result.spec == relational
        assert result.spec.semantic_fingerprint() == "d523e3a0aab219c6"
        assert field not in result.to_dict()["spec"]

    @pytest.mark.parametrize("ignore_unknown", [False, True])
    @pytest.mark.parametrize("field,value,advice", RETIRED_ON)
    def test_spec_with_retired_field_on_fails_loudly(
            self, field, value, advice, ignore_unknown):
        """Dropping the field would load a spec that claims the wrong
        run, so a stored non-default value is refused even in the
        forward-compatible mode."""
        spec_fields = dict(AnalysisSpec(form="relational").to_dict(),
                           **{field: value})
        with pytest.raises(SpecError,
                           match=f"'{field}' is retired.*{advice}"):
            AnalysisSpec.from_dict(spec_fields,
                                   ignore_unknown=ignore_unknown)

    @pytest.mark.parametrize("field,value,advice", RETIRED_ON)
    def test_result_with_retired_field_on_fails_loudly(self, field, value,
                                                       advice):
        from repro.analysis import AnalysisResult
        payload = {
            "schema": 1, "schema_minor": 1,
            "spec": dict(AnalysisSpec(form="relational").to_dict(),
                         **{field: value}),
            "engine": "relational/saturation", "markings": 8,
            "iterations": 2, "variables": 4, "final_nodes": 8,
            "peak_nodes": 48, "seconds": 0.01, "reorder_count": 0,
            "status": "complete", "extras": {},
        }
        with pytest.raises(SpecError,
                           match=f"'{field}' is retired.*{advice}"):
            AnalysisResult.from_dict(payload)


class TestRetiredBddSweeps:
    """The BDD relational ``monolithic`` and ``chained`` sweeps and the
    ``bdd-chained`` member lost every benchmarked net to saturation and
    were retired; ZDD ``chained`` stays."""

    @pytest.mark.parametrize("engine", ["monolithic", "chained"])
    def test_spec_rejects_retired_bdd_engine(self, engine):
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisSpec(form="relational", engine=engine)

    def test_zdd_keeps_its_chained_engine(self):
        assert AnalysisSpec(backend="zdd",
                            engine="chained").engine_id == "zdd/chained"

    def test_spec_rejects_retired_member(self):
        with pytest.raises(SpecError, match="retired.*'bdd-functional'"):
            AnalysisSpec(backend="portfolio",
                         portfolio_members=("bdd-chained", "zdd-chained"))

    @pytest.mark.parametrize("engine", ["monolithic", "chained"])
    def test_result_naming_a_retired_bdd_engine_raises_spec_error(
            self, engine):
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec().to_dict(), form="relational",
                           engine=engine)
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": f"relational/{engine}", "markings": 8,
            "iterations": 4, "variables": 4, "final_nodes": 8,
            "peak_nodes": 48, "seconds": 0.01, "reorder_count": 0,
            "status": "complete", "extras": {},
        }
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisResult.from_dict(payload)

    def test_result_naming_the_retired_member_raises_spec_error(self):
        """A portfolio result whose roster raced ``bdd-chained``."""
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec().to_dict(), backend="portfolio",
                           portfolio_members=["bdd-chained",
                                              "zdd-chained"])
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "portfolio/bdd-chained", "markings": 8,
            "iterations": 4, "variables": 4, "final_nodes": 8,
            "peak_nodes": 48, "seconds": 0.01, "reorder_count": 0,
            "status": "complete", "extras": {},
        }
        with pytest.raises(SpecError, match="retired.*'bdd-functional'"):
            AnalysisResult.from_dict(payload)

    def test_cli_rejects_retired_bdd_images(self, capsys):
        from repro.cli import main
        argv = ["analyze", "--net", "muller", "--n", "2"]
        assert main(argv + ["--image", "chained"]) == 2
        assert "'saturation'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--image", "monolithic"])
        assert excinfo.value.code == 2
        assert main(argv + ["--engine", "zdd", "--image", "chained"]) == 0


class TestRetiredChainingStrategy:
    """The functional ``chaining`` sweep lost every benchmarked net to
    saturation and was retired; ``bfs``, the paper's traversal, stays."""

    def test_spec_rejects_chaining(self):
        from repro.analysis import STRATEGIES
        assert STRATEGIES == ("bfs", "saturation")
        with pytest.raises(SpecError, match="strategy 'chaining' is "
                                            "retired.*'saturation'"):
            AnalysisSpec(strategy="chaining")

    @pytest.mark.parametrize("ignore_unknown", [False, True])
    def test_stored_spec_naming_chaining_fails_loudly(self,
                                                      ignore_unknown):
        spec_fields = dict(AnalysisSpec().to_dict(), strategy="chaining")
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisSpec.from_dict(spec_fields,
                                   ignore_unknown=ignore_unknown)

    def test_result_naming_chaining_raises_spec_error(self):
        """A result an older build wrote for ``strategy="chaining"``
        fails to load with the retirement error."""
        from repro.analysis import AnalysisResult
        payload = {
            "schema": 1, "schema_minor": 1,
            "spec": dict(AnalysisSpec().to_dict(), strategy="chaining"),
            "engine": "functional", "markings": 8, "iterations": 2,
            "variables": 4, "final_nodes": 8, "peak_nodes": 48,
            "seconds": 0.01, "reorder_count": 0, "status": "complete",
            "extras": {"strategy": "chaining", "use_toggle": True},
        }
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisResult.from_dict(payload)


class TestSerialEngineCatalogue:
    """The multiprocess partition sweep and its ``workers`` field are
    gone: the engine catalogue is serial and asking for ``workers``
    on an analysis fails loudly instead of being silently ignored."""

    def test_engine_catalogues_are_serial(self):
        import repro.symbolic
        from repro.analysis import (PORTFOLIO_MEMBERS, RELATIONAL_ENGINES,
                                    ZDD_RELATIONAL_ENGINES)
        # One catalogue, defined in the spec that validates it.
        assert RELATIONAL_ENGINES == ("saturation",)
        assert ZDD_RELATIONAL_ENGINES == ("chained", "saturation")
        assert not hasattr(repro.symbolic, "IMAGE_ENGINES")
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


class TestRetiredZddEngines:
    """ZDD ``monolithic`` and ``partitioned`` lost every benchmark row
    to ``chained`` and were retired: the ZDD backend accepts only the
    chained relational engine (or the classic functional form)."""

    @pytest.mark.parametrize("engine", ["monolithic", "partitioned"])
    def test_spec_rejects_retired_zdd_engine(self, engine):
        with pytest.raises(SpecError, match="retired"):
            AnalysisSpec(backend="zdd", form="relational", engine=engine)

    def test_cli_rejects_retired_zdd_engine(self, tmp_path):
        from repro.cli import main
        path = tmp_path / "muller2.pnet"
        assert main(["generate", "muller", "2", "-o", str(path)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(path), "--engine", "zdd",
                  "--image", "monolithic"])
        assert excinfo.value.code == 2

    def test_result_naming_a_retired_engine_raises_spec_error(self):
        """A result an older build wrote for ``engine="partitioned"``
        on the ZDD backend fails to load with the spec's own error, not
        a ``TypeError``/``KeyError`` from deeper down."""
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec().to_dict(), backend="zdd",
                           engine="partitioned")
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "zdd/partitioned", "markings": 8, "iterations": 4,
            "variables": 7, "final_nodes": 12, "peak_nodes": 59,
            "seconds": 0.0014, "reorder_count": 0, "status": "complete",
            "extras": {"total_nodes": 59, "ae_calls": 11,
                       "ae_cache_hits": 0, "build_seconds": 0.0004,
                       "fixpoint_seconds": 0.0009},
        }
        with pytest.raises(SpecError, match="retired"):
            AnalysisResult.from_dict(payload)


class TestRetiredPartitionedEngine:
    """The BDD ``partitioned`` engine, its ``bdd-partitioned`` portfolio
    member and the ``simplify_frontier`` option won no benchmark row on
    the structural order and were retired: naming one fails loudly and
    points at the engine that replaced it."""

    def test_spec_rejects_partitioned_engine(self):
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisSpec(form="relational", engine="partitioned")

    def test_spec_rejects_partitioned_member(self):
        with pytest.raises(SpecError, match="retired.*'bdd-functional'"):
            AnalysisSpec(backend="portfolio",
                         portfolio_members=("bdd-partitioned",))

    @pytest.mark.parametrize("member, replacement", [
        ("bdd-monolithic", "bdd-functional"),
        ("zdd-classic", "zdd-chained")])
    def test_spec_rejects_members_no_race_ran(self, member, replacement):
        """No default, workload, experiment or benchmark raced these two
        members; the race rosters point on."""
        with pytest.raises(SpecError, match=f"retired.*'{replacement}'"):
            AnalysisSpec(backend="portfolio", portfolio_members=(member,))

    def test_result_naming_partitioned_engine_raises_spec_error(self):
        """A result an older build wrote for the BDD ``partitioned``
        engine fails to load and points at ``saturation``."""
        from repro.analysis import AnalysisResult
        spec_fields = dict(AnalysisSpec().to_dict(), form="relational",
                           engine="partitioned", simplify_frontier=False)
        payload = {
            "schema": 1, "schema_minor": 1, "spec": spec_fields,
            "engine": "relational/partitioned", "markings": 8,
            "iterations": 4, "variables": 4, "final_nodes": 8,
            "peak_nodes": 48, "seconds": 0.01, "reorder_count": 0,
            "status": "complete", "extras": {},
        }
        with pytest.raises(SpecError, match="retired.*'saturation'"):
            AnalysisResult.from_dict(payload)

    @pytest.mark.parametrize("field,value", [
        ("simplify_frontier", True), ("cluster_size", 4)])
    def test_retired_field_is_not_a_spec_field(self, field, value):
        with pytest.raises(TypeError):
            AnalysisSpec(form="relational", **{field: value})
        assert field not in AnalysisSpec().to_dict()

    @pytest.mark.parametrize("flags", [["--image", "partitioned"],
                                       ["--simplify-frontier"],
                                       ["--chain-order", "support"],
                                       ["--cluster-size", "4"]])
    def test_cli_rejects_retired_flags(self, flags, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--net", "muller", "--n", "2"] + flags)
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestRetiredChainOrder:
    """``chain_order`` had one value in use: the retired chaining sweep
    always fired in support-sorted order.  A stored ``"support"`` still
    loads with its old fingerprint; a stored ``"net"`` describes a run
    this build cannot reproduce and fails with advice of its own."""

    def test_chain_order_is_not_a_spec_field(self):
        with pytest.raises(TypeError):
            AnalysisSpec(chain_order="support")
        assert "chain_order" not in AnalysisSpec().to_dict()

    def test_stored_support_loads_with_the_default_fingerprint(self):
        bfs = AnalysisSpec(strategy="bfs")
        loaded = AnalysisSpec.from_dict(
            dict(bfs.to_dict(), chain_order="support"))
        assert loaded == bfs
        assert loaded.semantic_fingerprint() == "3ca14e830475dc12"

    @pytest.mark.parametrize("ignore_unknown", [False, True])
    def test_stored_net_order_fails_naming_the_field(self,
                                                     ignore_unknown):
        spec_fields = dict(AnalysisSpec(strategy="bfs").to_dict(),
                           chain_order="net")
        with pytest.raises(SpecError, match="'chain_order' is retired"
                           ) as excinfo:
            AnalysisSpec.from_dict(spec_fields,
                                   ignore_unknown=ignore_unknown)
        # Each retired field gives its own advice.
        assert "support-sorted" in str(excinfo.value)
        assert "chained relational" not in str(excinfo.value)

    def test_result_with_net_order_fails_loudly(self):
        from repro.analysis import AnalysisResult
        payload = {
            "schema": 1, "schema_minor": 1,
            "spec": dict(AnalysisSpec().to_dict(), chain_order="net"),
            "engine": "functional", "markings": 8, "iterations": 2,
            "variables": 4, "final_nodes": 8, "peak_nodes": 48,
            "seconds": 0.01, "reorder_count": 0, "status": "complete",
            "extras": {"strategy": "saturation", "chain_order": "net",
                       "use_toggle": True},
        }
        with pytest.raises(SpecError, match="'chain_order' is retired"):
            AnalysisResult.from_dict(payload)
