"""Durability tests: checkpoint format, resume, budgets, crash safety.

Covers the whole checkpoint/resume surface:

* the hash-sealed file format (round trips, rejection of every damage
  class, truncation at *every* byte boundary — the crash-consistency
  pin),
* the :class:`CheckpointStore` cadence and atomic-write behavior,
* mid-flight and final-checkpoint resume on every backend, pinned to
  the explicit-enumeration oracle,
* cold-start fallback on corrupt or mismatched checkpoints (a resume
  must never be *less* robust than a fresh run),
* resource budgets: exhaustion yields a ``partial`` result with a
  final checkpoint on disk, and resuming from it completes to the
  oracle count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from interleaved import InterleavedNet

from repro.analysis import (Analysis, AnalysisSpec, CheckpointData,
                            CheckpointError, CheckpointStore, SpecError,
                            TraversalLimitError, analyze, net_fingerprint,
                            spec_fingerprint)
from repro.analysis.checkpoint import dump_checkpoint, parse_checkpoint
from repro.bdd.io import dump_functions, dump_zdd_nodes, load_functions
from repro.encoding import ImprovedEncoding
from repro.encoding.characteristic import order_hyperedges
from repro.petri import force_order
from repro.petri.generators import dme_spec, philosophers
from repro.symbolic import ZddRelationalNet

SRC = Path(__file__).resolve().parents[2] / "src"

# One spec per backend family; every one must checkpoint and resume.
# The relational and ZDD defaults saturate: their first step is a whole
# band, so a mid-flight resume picks up after band 1.  The functional
# breadth-first sweeps, toggle and quantify-force, carry a frontier
# apart from the reached set, which a mid-flight resume must restore too.
BACKEND_SPECS = {
    "bdd-functional": dict(),
    "bdd-bfs": dict(strategy="bfs"),
    "bdd-bfs-quantify": dict(strategy="bfs", use_toggle=False),
    "bdd-relational": dict(form="relational"),
    "zdd": dict(backend="zdd"),
    "zdd-chained": dict(backend="zdd", form="relational",
                        engine="chained"),
    "zdd-classic": dict(backend="zdd", form="functional"),
    "kbounded": dict(k_bound=1),
}


def sample_data(**overrides):
    values = dict(
        spec_hash="a" * 16, net_hash="b" * 16, kind="bdd", iteration=7,
        order=["x0", "x1"],
        payload="bddio 1\nvar 0 x0\nnode 2 0 0 1\nroot reached 2\n"
                "root frontier 2",
        extra={"backend": "bdd"})
    values.update(overrides)
    return CheckpointData(**values)


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------


class TestFormat:
    def test_round_trip(self):
        data = sample_data()
        loaded = parse_checkpoint(dump_checkpoint(data))
        assert loaded.spec_hash == data.spec_hash
        assert loaded.net_hash == data.net_hash
        assert loaded.kind == data.kind
        assert loaded.iteration == data.iteration
        assert loaded.order == data.order
        assert loaded.payload.rstrip("\n") == data.payload.rstrip("\n")
        assert loaded.extra == data.extra

    def test_missing_trailer(self):
        with pytest.raises(CheckpointError) as excinfo:
            parse_checkpoint("repro-checkpoint 1\nmeta {}\npayload\n")
        assert excinfo.value.reason == "truncated"

    def test_digest_mismatch(self):
        text = dump_checkpoint(sample_data())
        tampered = text.replace("iteration", "iterazione")
        with pytest.raises(CheckpointError) as excinfo:
            parse_checkpoint(tampered)
        assert excinfo.value.reason == "truncated"

    def test_wrong_header(self):
        body = dump_checkpoint(sample_data())
        wrong = "not-a-checkpoint" + body[len("repro-checkpoint 1"):]
        with pytest.raises(CheckpointError):
            parse_checkpoint(wrong)

    def test_unknown_kind_rejected_on_dump(self):
        with pytest.raises(CheckpointError):
            dump_checkpoint(sample_data(kind="mtbdd"))

    def test_meta_not_json(self):
        # Rebuild a sealed file whose meta line is garbage: the digest
        # is valid, so the parse must fail on the meta itself.
        import hashlib
        body = "repro-checkpoint 1\nmeta {not json\npayload\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(CheckpointError) as excinfo:
            parse_checkpoint(body + f"end {digest}\n")
        assert excinfo.value.reason == "malformed"

    def test_meta_missing_keys(self):
        import hashlib
        import json
        meta = json.dumps({"kind": "bdd"})
        body = f"repro-checkpoint 1\nmeta {meta}\npayload\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(CheckpointError) as excinfo:
            parse_checkpoint(body + f"end {digest}\n")
        assert excinfo.value.reason == "malformed"

    def test_truncation_at_every_byte_boundary(self):
        """Crash consistency: any prefix either parses to the TRUE
        contents or raises a structured CheckpointError — never
        garbage, never a crash.  (The one prefix that may legitimately
        parse is the file minus its final newline: every byte of
        content survived, and the digest proves it.)"""
        data = sample_data()
        text = dump_checkpoint(data)
        raw = text.encode("utf-8")
        for cut in range(len(raw)):
            prefix = raw[:cut].decode("utf-8", errors="replace")
            try:
                loaded = parse_checkpoint(prefix)
            except CheckpointError:
                continue
            assert loaded.iteration == data.iteration
            assert loaded.payload.rstrip("\n") == \
                data.payload.rstrip("\n")
            assert cut >= len(raw) - 1  # only a lost final newline
        assert parse_checkpoint(text).iteration == 7

    def test_appended_garbage_is_detected(self):
        text = dump_checkpoint(sample_data())
        with pytest.raises(CheckpointError):
            parse_checkpoint(text + "trailing garbage\n")


# ----------------------------------------------------------------------
# Store: cadence, atomicity, validation
# ----------------------------------------------------------------------


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save(sample_data())
        loaded = store.load()
        assert loaded.iteration == 7
        assert store.writes == 1
        # Atomic write: the temp file never survives a completed save.
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ckpt"]

    def test_load_missing(self, tmp_path):
        store = CheckpointStore(tmp_path / "absent.ckpt")
        with pytest.raises(CheckpointError) as excinfo:
            store.load()
        assert excinfo.value.reason == "missing"

    def test_crash_between_tmp_write_and_rename_is_swept(self, tmp_path):
        """Crash simulation: a writer process dies after writing the tmp
        file but before the atomic rename.  The stale tmp must not
        damage the sealed checkpoint and must be swept by the next
        writer (the restarted process)."""
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).save(sample_data(iteration=3))
        crash = (
            "import os, sys\n"
            "from repro.analysis import CheckpointStore\n"
            "from repro.analysis.checkpoint import parse_checkpoint\n"
            "data = parse_checkpoint(sys.stdin.read())\n"
            "os.replace = lambda src, dst: os._exit(9)\n"
            "CheckpointStore(sys.argv[1]).save(data)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        died = subprocess.run(
            [sys.executable, "-c", crash, str(path)], env=env,
            input=dump_checkpoint(sample_data(iteration=9)), text=True,
            timeout=120)
        assert died.returncode == 9
        stale = [p.name for p in tmp_path.iterdir()
                 if p.name.startswith("run.ckpt.tmp")]
        assert stale, "the simulated crash should strand a tmp file"
        # The sealed checkpoint survived the crash untouched.
        assert parse_checkpoint(path.read_text()).iteration == 3

        # The restarted process sweeps the leftovers on its first save.
        restarted = CheckpointStore(path)
        restarted.save(sample_data(iteration=11))
        assert list(tmp_path.iterdir()) == [path]
        assert restarted.load().iteration == 11

    def test_second_store_saving_inside_a_write_spares_its_tmp(
            self, tmp_path, monkeypatch):
        """Two stores on one path (two services sharing a checkpoint
        directory): the second saves between the first's ``fsync`` and
        its rename.  Its sweep must leave the live writer's tmp file
        alone, so both saves succeed and the later rename wins."""
        path = tmp_path / "run.ckpt"
        first, second = CheckpointStore(path), CheckpointStore(path)
        real_replace = os.replace
        renames = []

        def replace(src, dst):
            renames.append(src)
            if len(renames) == 1:
                second.save(sample_data(iteration=5))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        first.save(sample_data(iteration=3))
        monkeypatch.undo()
        assert len(set(renames)) == 2
        assert first.writes == second.writes == 1
        assert parse_checkpoint(path.read_text()).iteration == 3
        assert list(tmp_path.iterdir()) == [path]

    def test_stale_tmp_swept_on_resume_load(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).save(sample_data(iteration=5))
        # pids stay below pid_max, whose ceiling is 2**22: no live
        # process wrote this tmp file.
        (tmp_path / f"run.ckpt.tmp.{2 ** 22}.7").write_text("torn leftovers")
        loaded = CheckpointStore(path).load()
        assert loaded.iteration == 5
        assert list(tmp_path.iterdir()) == [path]

    def test_tmp_sweep_leaves_unrelated_files_alone(self, tmp_path):
        path = tmp_path / "run.ckpt"
        other = tmp_path / "other.ckpt.tmp.1.1"
        other.write_text("someone else's tmp")
        sibling = tmp_path / "run.ckpt2"
        sibling.write_text("a different checkpoint")
        CheckpointStore(path).save(sample_data())
        survivors = {p.name for p in tmp_path.iterdir()}
        assert survivors == {"run.ckpt", "other.ckpt.tmp.1.1",
                             "run.ckpt2"}

    def test_iteration_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt", every=3)
        assert not store.due(1)
        assert not store.due(2)
        assert store.due(3)
        store.save(sample_data(iteration=3))
        assert not store.due(4)
        assert store.due(6)

    def test_seconds_cadence_on_virtual_clock(self, tmp_path):
        clock = {"t": 0.0}
        store = CheckpointStore(tmp_path / "run.ckpt",
                                every_seconds=5.0,
                                clock=lambda: clock["t"])
        assert not store.due(100)  # iteration cadence is off
        clock["t"] = 5.1
        assert store.due(100)
        store.save(sample_data())
        assert not store.due(200)
        clock["t"] = 10.5
        assert store.due(200)

    def test_default_cadence_is_every_iteration(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        assert store.every == 1
        assert store.due(1)

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "x", every=0)
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "x", every_seconds=-1.0)

    def test_validate_rejects_mismatches(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        data = sample_data()
        kwargs = dict(spec_hash=data.spec_hash, net_hash=data.net_hash,
                      kind=data.kind)
        store.validate(data, **kwargs)  # a match passes silently
        for field, bad in [("spec_hash", "f" * 16),
                           ("net_hash", "f" * 16), ("kind", "zdd")]:
            with pytest.raises(CheckpointError) as excinfo:
                store.validate(data, **{**kwargs, field: bad})
            assert excinfo.value.reason == "mismatch"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_durability_knobs_do_not_change_the_spec_hash(self, tmp_path):
        base = AnalysisSpec()
        resumed = AnalysisSpec(checkpoint_path=str(tmp_path / "c"),
                               checkpoint_every=5, resume=True,
                               node_budget=10, deadline=60.0,
                               max_iterations=3)
        assert spec_fingerprint(base) == spec_fingerprint(resumed)

    def test_semantic_fields_do_change_the_spec_hash(self):
        assert (spec_fingerprint(AnalysisSpec(scheme="sparse"))
                != spec_fingerprint(AnalysisSpec(scheme="improved")))

    def test_net_fingerprint_tracks_the_net(self, make_net):
        assert (net_fingerprint(make_net("phil3"))
                == net_fingerprint(make_net("phil3")))
        assert (net_fingerprint(make_net("phil3"))
                != net_fingerprint(make_net("phil4")))


# ----------------------------------------------------------------------
# Spec validation for the new fields
# ----------------------------------------------------------------------


class TestSpecValidation:
    def test_cadence_requires_a_path(self):
        with pytest.raises(SpecError):
            AnalysisSpec(checkpoint_every=5)
        with pytest.raises(SpecError):
            AnalysisSpec(checkpoint_every_seconds=5.0)

    def test_resume_requires_a_path(self):
        with pytest.raises(SpecError):
            AnalysisSpec(resume=True)

    def test_budgets_rejected_on_portfolio(self):
        with pytest.raises(SpecError):
            AnalysisSpec(backend="portfolio", node_budget=100)
        with pytest.raises(SpecError):
            AnalysisSpec(backend="portfolio", deadline=5.0)

    def test_positive_knobs(self, tmp_path):
        path = str(tmp_path / "c")
        with pytest.raises(SpecError):
            AnalysisSpec(checkpoint_path=path, checkpoint_every=0)
        with pytest.raises(SpecError):
            AnalysisSpec(node_budget=0)
        with pytest.raises(SpecError):
            AnalysisSpec(deadline=0.0)


# ----------------------------------------------------------------------
# Resume, per backend, against the oracle
# ----------------------------------------------------------------------


class TestResumeEveryBackend:
    @pytest.mark.parametrize("config", sorted(BACKEND_SPECS))
    def test_final_checkpoint_resume_matches_oracle(
            self, config, tmp_path, make_net, explicit_counts):
        net = make_net("phil4")
        path = str(tmp_path / f"{config}.ckpt")
        spec = AnalysisSpec(checkpoint_path=path,
                            **BACKEND_SPECS[config])
        cold = analyze(net, spec)
        assert cold.markings == explicit_counts["phil4"]
        assert os.path.exists(path)
        assert cold.extras["checkpoint"]["writes"] >= 1

        warm = analyze(net, spec.replace(resume=True))
        assert warm.markings == explicit_counts["phil4"]
        assert warm.extras["resume"]["status"] == "resumed"
        assert warm.extras["resume"]["iteration"] == cold.iterations
        assert warm.status == "complete"

    @pytest.mark.parametrize("config", sorted(BACKEND_SPECS))
    def test_mid_flight_resume_matches_oracle(
            self, config, tmp_path, make_net, explicit_counts):
        # Abort the cold run early via max_iterations — the overrun
        # writes a final checkpoint before raising — then resume with
        # the limit lifted and land exactly on the oracle count.
        net = make_net("phil4")
        path = str(tmp_path / f"{config}.ckpt")
        spec = AnalysisSpec(checkpoint_path=path,
                            **BACKEND_SPECS[config])
        with pytest.raises(TraversalLimitError) as excinfo:
            analyze(net, spec.replace(max_iterations=1))
        assert excinfo.value.iterations == 1
        assert excinfo.value.reached is not None
        assert os.path.exists(path)

        warm = analyze(net, spec.replace(resume=True))
        assert warm.extras["resume"]["status"] == "resumed"
        assert warm.extras["resume"]["iteration"] == 1
        assert warm.markings == explicit_counts["phil4"]

    def test_resume_from_a_declaration_order_checkpoint(self, tmp_path):
        """A checkpoint whose header order is the encoding's naming
        order (the layout written before the structural initial order)
        still resumes: the saved order is restored before the payload.
        No sifting, so the header keeps exactly that order."""
        net = philosophers(6)
        path = str(tmp_path / "phil6.ckpt")
        spec = AnalysisSpec(checkpoint_path=path, reorder=False)
        old = Analysis(net, spec)
        variables = old.symbolic_net.encoding.variables
        assert tuple(old.symbolic_net.bdd.order()) != variables
        old.symbolic_net.bdd.set_order(variables)
        assert old.step() and old.step()
        with open(path) as handle:
            data = parse_checkpoint(handle.read())
        assert data.order == list(variables)
        assert data.iteration == 2

        warm = analyze(net, spec.replace(resume=True))
        assert warm.extras["resume"]["status"] == "resumed"
        assert warm.extras["resume"]["iteration"] == 2
        assert warm.markings == analyze(net).markings == 10_054

    def test_resume_from_a_naming_force_order_checkpoint(self, tmp_path):
        """A checkpoint written in the order FORCE finds from the naming
        order alone (DME's role-grouped order, which managers declared
        before the place-order start) resumes in that order and lands on
        the edge of an uninterrupted run in it."""
        net = dme_spec(4)
        path = str(tmp_path / "dme4.ckpt")
        spec = AnalysisSpec(checkpoint_path=path, reorder=False)
        reference = Analysis(net, reorder=False)
        encoding = reference.symbolic_net.encoding
        naming_force = list(force_order(encoding.variables,
                                        order_hyperedges(encoding)))
        assert reference.symbolic_net.bdd.order() != naming_force
        reference.symbolic_net.bdd.set_order(naming_force)
        expected = dump_functions({"reached": reference.reachable})

        old = Analysis(net, spec)
        old.symbolic_net.bdd.set_order(naming_force)
        assert old.step()
        with open(path) as handle:
            data = parse_checkpoint(handle.read())
        assert data.order == naming_force
        assert data.iteration == 1

        warm = Analysis(net, spec.replace(resume=True))
        result = warm.run()
        assert result.extras["resume"]["status"] == "resumed"
        assert result.extras["resume"]["iteration"] == 1
        bdd = warm.symbolic_net.bdd
        assert bdd.order() == naming_force
        assert load_functions(expected, bdd)["reached"].node \
            == warm.reachable.node
        assert result.markings == reference.result.markings == 756


class TestColdStartFallback:
    def test_corrupt_checkpoint_falls_back(self, tmp_path, make_net,
                                           explicit_counts):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint at all\n")
        spec = AnalysisSpec(checkpoint_path=str(path), resume=True)
        result = analyze(make_net("phil3"), spec)
        assert result.markings == explicit_counts["phil3"]
        resume = result.extras["resume"]
        assert resume["status"] == "cold-start"
        assert resume["reason"] == "truncated"

    def test_missing_checkpoint_falls_back(self, tmp_path, make_net,
                                           explicit_counts):
        spec = AnalysisSpec(checkpoint_path=str(tmp_path / "absent"),
                            resume=True)
        result = analyze(make_net("phil3"), spec)
        assert result.markings == explicit_counts["phil3"]
        assert result.extras["resume"]["reason"] == "missing"

    def test_other_nets_checkpoint_falls_back(self, tmp_path, make_net,
                                              explicit_counts):
        path = str(tmp_path / "run.ckpt")
        analyze(make_net("phil4"), AnalysisSpec(checkpoint_path=path))
        result = analyze(make_net("phil3"),
                         AnalysisSpec(checkpoint_path=path, resume=True))
        assert result.markings == explicit_counts["phil3"]
        assert result.extras["resume"]["status"] == "cold-start"
        assert result.extras["resume"]["reason"] == "mismatch"

    def test_other_backends_checkpoint_falls_back(self, tmp_path,
                                                  make_net,
                                                  explicit_counts):
        # A BDD checkpoint offered to the ZDD session: kind mismatch.
        path = str(tmp_path / "run.ckpt")
        analyze(make_net("phil3"), AnalysisSpec(checkpoint_path=path))
        result = analyze(
            make_net("phil3"),
            AnalysisSpec(backend="zdd", checkpoint_path=path,
                         resume=True))
        assert result.markings == explicit_counts["phil3"]
        assert result.extras["resume"]["status"] == "cold-start"
        assert result.extras["resume"]["reason"] == "mismatch"

    @pytest.mark.parametrize("overrides, kind", [
        (dict(form="relational"), "bdd"),
        (dict(backend="zdd"), "zdd")], ids=["bdd-relational", "zdd"])
    def test_checkpoint_naming_next_state_copies_starts_cold(
            self, tmp_path, make_net, explicit_counts, overrides, kind):
        """The relational BDD form and the ZDD default once declared a
        next-state copy of every variable, and their checkpoints name
        the copies in the saved order.  Spec and net still match, so
        such a file reaches the order check, which sends it to a cold
        start instead of raising."""
        net = make_net("phil3")
        path = tmp_path / "old-layout.ckpt"
        spec = AnalysisSpec(checkpoint_path=str(path), resume=True,
                            **overrides)
        if kind == "bdd":
            old = InterleavedNet(ImprovedEncoding(net))
            order = old.bdd.order()
            payload = dump_functions({"reached": old.initial,
                                      "frontier": old.initial})
        else:
            old = ZddRelationalNet(net)
            order = old.zdd.order()
            payload = dump_zdd_nodes(old.zdd, {"reached": old.initial,
                                               "frontier": old.initial})
        assert any(name.endswith("'") for name in order)
        path.write_text(dump_checkpoint(CheckpointData(
            spec_hash=spec_fingerprint(spec), net_hash=net_fingerprint(net),
            kind=kind, iteration=1, order=order, payload=payload,
            extra={"engine": spec.engine_id, "at_fixpoint": False})))
        result = analyze(net, spec)
        assert result.extras["resume"]["status"] == "cold-start"
        assert result.extras["resume"]["reason"] == "mismatch"
        assert result.iterations == 2
        assert result.markings == explicit_counts["phil3"]


# ----------------------------------------------------------------------
# Resource budgets through the facade
# ----------------------------------------------------------------------


# The default spec of each saturating session: budgets are enforced at
# the safe point after each band.
DEFAULT_SPECS = {"bdd": dict(), "relational": dict(form="relational"),
                 "zdd": dict(backend="zdd")}


class TestBudgets:
    @pytest.mark.parametrize("config", sorted(DEFAULT_SPECS))
    def test_node_budget_yields_partial_with_checkpoint(
            self, tmp_path, make_net, explicit_counts, config):
        net = make_net("phil6")
        path = str(tmp_path / "phil6.ckpt")
        partial = analyze(net, AnalysisSpec(checkpoint_path=path,
                                            node_budget=50,
                                            **DEFAULT_SPECS[config]))
        assert partial.status == "partial"
        budget = partial.extras["budget"]
        assert budget["kind"] == "nodes"
        assert budget["node_budget"] == 50
        assert budget["reorder_forced"]
        # Partial means under-approximation, never over.
        assert 0 < partial.markings <= explicit_counts["phil6"]
        # Acceptance: the final checkpoint is on disk…
        assert os.path.exists(path)
        # …and resuming with the budget lifted completes to the oracle.
        done = analyze(net, AnalysisSpec(checkpoint_path=path,
                                         resume=True,
                                         **DEFAULT_SPECS[config]))
        assert done.status == "complete"
        assert done.extras["resume"]["status"] == "resumed"
        assert done.markings == explicit_counts["phil6"]

    @pytest.mark.parametrize("config", sorted(DEFAULT_SPECS))
    def test_deadline_yields_partial(self, make_net, config):
        result = analyze(make_net("phil6"),
                         AnalysisSpec(deadline=1e-6,
                                      **DEFAULT_SPECS[config]))
        assert result.status == "partial"
        assert result.extras["budget"]["kind"] == "deadline"

    def test_budget_without_checkpoint_still_partial(self, make_net):
        result = analyze(make_net("phil4"), AnalysisSpec(node_budget=1))
        assert result.status == "partial"
        assert "checkpoint" not in result.extras

    def test_generous_budget_changes_nothing(self, make_net,
                                             explicit_counts):
        result = analyze(make_net("phil4"),
                         AnalysisSpec(node_budget=10_000_000,
                                      deadline=3600.0))
        assert result.status == "complete"
        assert result.markings == explicit_counts["phil4"]
