"""AnalysisResult: the unified schema and its JSON round trip."""

import json

import pytest

from repro.analysis import (SCHEMA_VERSION, AnalysisResult, AnalysisSpec,
                            analyze)
from repro.petri.generators import figure1_net


def sample_result(**overrides):
    values = dict(
        spec=AnalysisSpec(form="relational", engine="chained"),
        engine="relational/chained",
        markings=8,
        iterations=4,
        variables=4,
        final_nodes=11,
        peak_nodes=184,
        seconds=0.125,
        reorder_count=1,
        extras={"ae_calls": 11, "build_seconds": 0.01},
        reachable=object(),
    )
    values.update(overrides)
    return AnalysisResult(**values)


class TestRoundTrip:
    def test_json_round_trip_preserves_everything_but_reachable(self):
        result = sample_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = AnalysisResult.from_dict(payload)
        assert restored.reachable is None
        assert restored.spec == result.spec
        for field in ("engine", "markings", "iterations", "variables",
                      "final_nodes", "peak_nodes", "seconds",
                      "reorder_count", "extras"):
            assert getattr(restored, field) == getattr(result, field)
        # And the dict itself is stable under a second round trip.
        assert restored.to_dict() == result.to_dict()

    def test_schema_version_stamped(self):
        assert sample_result().to_dict()["schema"] == SCHEMA_VERSION

    @pytest.mark.parametrize("schema", [None, 0, SCHEMA_VERSION + 1])
    def test_wrong_schema_rejected(self, schema):
        payload = sample_result().to_dict()
        if schema is None:
            del payload["schema"]
        else:
            payload["schema"] = schema
        with pytest.raises(ValueError, match="schema"):
            AnalysisResult.from_dict(payload)

    def test_reachable_never_serialized(self):
        assert "reachable" not in sample_result().to_dict()


class TestLiveResults:
    @pytest.mark.parametrize("spec", [
        AnalysisSpec(),
        AnalysisSpec(form="relational"),
        AnalysisSpec(backend="zdd"),
        AnalysisSpec(backend="zdd", form="functional"),
        AnalysisSpec(k_bound=2),
    ])
    def test_every_backend_serializes(self, spec):
        result = analyze(figure1_net(), spec)
        restored = AnalysisResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert restored.markings == result.markings == 8
        assert restored.engine == spec.engine_id
        assert restored.peak_nodes > 0
        assert restored.extras["build_seconds"] >= 0
        assert restored.extras["fixpoint_seconds"] >= 0

    def test_seconds_is_build_plus_fixpoint(self):
        result = analyze(figure1_net(), AnalysisSpec())
        assert result.seconds == pytest.approx(
            result.extras["build_seconds"]
            + result.extras["fixpoint_seconds"])


class TestRegressionGateSchema:
    def test_check_regression_reads_both_row_shapes(self):
        # The CI gate accepts native bench rows and serialized
        # AnalysisResult dicts interchangeably.
        import os
        import sys
        sys.path.insert(0, os.path.join(os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "benchmarks"))
        try:
            from check_regression import image_seconds
        finally:
            sys.path.pop(0)
        assert image_seconds({"image_seconds": 1.5}) == 1.5
        result = analyze(figure1_net(), AnalysisSpec(form="relational"))
        entry = result.to_dict()
        assert image_seconds(entry) == pytest.approx(
            result.extras["fixpoint_seconds"])
        # Forward compatibility: a newer schema (or one without the
        # extras breakdown) still yields a timing instead of crashing
        # the gate.
        assert image_seconds({"schema": 99, "seconds": 2.5}) == 2.5


class TestForwardCompatibility:
    """Payloads from a newer build must not poison an older reader.

    The service's result cache is shared between builds; only a
    *major* schema change may refuse a payload.
    """

    def test_newer_minor_schema_tolerated_and_logged(self, caplog):
        import logging

        from repro.analysis import SCHEMA_MINOR
        payload = sample_result().to_dict()
        payload["schema_minor"] = SCHEMA_MINOR + 3
        with caplog.at_level(logging.WARNING, "repro.analysis.result"):
            restored = AnalysisResult.from_dict(payload)
        assert restored.markings == 8
        assert any("schema minor" in record.message
                   for record in caplog.records)

    def test_unknown_top_level_keys_kept_and_reemitted(self, caplog):
        import logging
        payload = sample_result().to_dict()
        payload["proof_certificate"] = {"kind": "inductive"}
        with caplog.at_level(logging.WARNING, "repro.analysis.result"):
            restored = AnalysisResult.from_dict(payload)
        assert restored.foreign == {
            "proof_certificate": {"kind": "inductive"}}
        assert any("unknown fields" in record.message
                   for record in caplog.records)
        # Round trip: the foreign field survives re-serialization ...
        again = restored.to_dict()
        assert again["proof_certificate"] == {"kind": "inductive"}
        # ... without clobbering owned keys or fracturing a re-read.
        assert AnalysisResult.from_dict(again).markings == 8

    def test_unknown_extras_keys_kept_silently(self):
        payload = sample_result().to_dict()
        payload["extras"]["experimental_counter"] = 42
        restored = AnalysisResult.from_dict(payload)
        assert restored.extras["experimental_counter"] == 42

    def test_unknown_spec_fields_tolerated(self, caplog):
        import logging
        payload = sample_result().to_dict()
        payload["spec"]["holographic_mode"] = True
        with caplog.at_level(logging.WARNING, "repro.analysis.spec"):
            restored = AnalysisResult.from_dict(payload)
        assert restored.spec.engine_id == "relational/chained"
        assert any("unknown spec fields" in record.message
                   for record in caplog.records)

    def test_major_mismatch_still_rejected(self):
        payload = sample_result().to_dict()
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            AnalysisResult.from_dict(payload)

    def test_default_foreign_is_empty_and_not_serialized(self):
        payload = sample_result().to_dict()
        restored = AnalysisResult.from_dict(payload)
        assert restored.foreign == {}
        assert set(payload) == {
            "schema", "schema_minor", "spec", "engine", "markings",
            "iterations", "variables", "final_nodes", "peak_nodes",
            "seconds", "reorder_count", "status", "extras"}
