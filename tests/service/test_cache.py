"""ResultCache: key contract, tiers, durability, telemetry."""

import json
import subprocess
import sys
import time

import pytest

from repro.analysis import AnalysisSpec, analyze
from repro.service import ResultCache, cache_key
from repro.service.cache import MEMORY_ENTRIES


@pytest.fixture(scope="module")
def solved(request):
    """One real solved result to cache (figure1: cheap, deterministic)."""
    from repro.petri.generators import figure1_net
    net = figure1_net()
    spec = AnalysisSpec()
    return net, spec, analyze(net, spec).to_dict()


# ---------------------------------------------------------------------------
# Key contract


class TestKey:
    def test_key_is_net_and_semantic_spec_fingerprint(self, solved):
        net, spec, _ = solved
        from repro.analysis import net_fingerprint, spec_fingerprint
        assert cache_key(net, spec) == (net_fingerprint(net),
                                        spec_fingerprint(spec))

    def test_nonsemantic_fields_share_one_entry(self, solved, tmp_path):
        """Checkpoints / budgets must not fracture the key."""
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        cache.put(cache_key(net, spec), payload)
        for variant in (
                spec.replace(checkpoint_path="x.ckpt", resume=True),
                spec.replace(node_budget=10_000, deadline=60.0),
                spec.replace(max_iterations=3)):
            lookup = cache.get(cache_key(net, variant))
            assert lookup.hit, variant
            assert lookup.result == payload

    def test_semantic_change_misses(self, solved, tmp_path):
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        cache.put(cache_key(net, spec), payload)
        for variant in (spec.replace(backend="zdd"),
                        spec.replace(scheme="sparse")):
            assert not cache.get(cache_key(net, variant)).hit


# ---------------------------------------------------------------------------
# Tiers


class TestTiers:
    def test_memory_hit_after_put(self, solved, tmp_path):
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        cache.put(cache_key(net, spec), payload)
        lookup = cache.get(cache_key(net, spec))
        assert lookup.hit and lookup.tier == "memory"

    def test_disk_hit_survives_restart_and_promotes(self, solved,
                                                    tmp_path):
        net, spec, payload = solved
        ResultCache(directory=tmp_path).put(cache_key(net, spec), payload)
        fresh = ResultCache(directory=tmp_path)  # new "process"
        first = fresh.get(cache_key(net, spec))
        assert first.hit and first.tier == "disk"
        assert first.result == payload
        second = fresh.get(cache_key(net, spec))  # promoted
        assert second.tier == "memory"
        assert fresh.stats()["hits_disk"] == 1
        assert fresh.stats()["hits_memory"] == 1

    def test_memory_only_cache_works_without_directory(self, solved):
        net, spec, payload = solved
        cache = ResultCache(directory=None)
        cache.put(cache_key(net, spec), payload)
        assert cache.get(cache_key(net, spec)).hit
        assert cache.entry_path(cache_key(net, spec)) is None

    def test_memory_tier_is_lru_bounded(self, solved):
        net, spec, payload = solved
        cache = ResultCache(directory=None)
        for i in range(MEMORY_ENTRIES):
            cache.put((f"n{i}", "s"), payload)
        cache.get(("n0", "s"))              # refresh n0
        cache.put(("new", "s"), payload)    # drops n1, the LRU entry
        assert cache.get(("n0", "s")).hit
        assert not cache.get(("n1", "s")).hit
        assert cache.get(("new", "s")).hit
        assert cache.stats()["memory_entries"] == MEMORY_ENTRIES


# ---------------------------------------------------------------------------
# Durability: every damaged entry recomputes, with a structured reason


class TestDurability:
    def entry(self, cache, solved):
        net, spec, payload = solved
        cache.put(cache_key(net, spec), payload)
        return cache.entry_path(cache_key(net, spec))

    def fresh_lookup(self, tmp_path, solved):
        """Look up through a cold cache (no memory tier to mask disk)."""
        net, spec, _ = solved
        return ResultCache(directory=tmp_path).get(cache_key(net, spec))

    def test_truncation_at_every_byte_boundary(self, solved, tmp_path):
        """A torn disk entry is never served, wherever the tear is."""
        cache = ResultCache(directory=tmp_path)
        path = self.entry(cache, solved)
        blob = path.read_bytes()
        step = max(1, len(blob) // 79)  # ~80 cut points incl. 0 and end-1
        for cut in list(range(0, len(blob), step)) + [len(blob) - 1]:
            path.write_bytes(blob[:cut])
            lookup = self.fresh_lookup(tmp_path, solved)
            assert not lookup.hit, f"served a {cut}-byte prefix"
            assert lookup.reason in ("corrupt", "schema"), cut
        path.write_bytes(blob)
        assert self.fresh_lookup(tmp_path, solved).hit

    def test_bit_rot_in_payload_detected(self, solved, tmp_path):
        cache = ResultCache(directory=tmp_path)
        path = self.entry(cache, solved)
        entry = json.loads(path.read_text())
        entry["result"]["markings"] += 1  # silent corruption
        path.write_text(json.dumps(entry))
        lookup = self.fresh_lookup(tmp_path, solved)
        assert not lookup.hit and lookup.reason == "corrupt"

    def test_wrong_format_header_is_schema_miss(self, solved, tmp_path):
        cache = ResultCache(directory=tmp_path)
        path = self.entry(cache, solved)
        entry = json.loads(path.read_text())
        entry["format"] = "somebody-else 9"
        path.write_text(json.dumps(entry))
        lookup = self.fresh_lookup(tmp_path, solved)
        assert not lookup.hit and lookup.reason == "schema"

    def test_renamed_entry_is_mismatch_miss(self, solved, tmp_path):
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        path = self.entry(cache, solved)
        other = path.with_name("feedfeedfeedfeed-feedfeedfeedfeed.json")
        path.rename(other)
        lookup = ResultCache(directory=tmp_path).get(
            ("feedfeedfeedfeed", "feedfeedfeedfeed"))
        assert not lookup.hit and lookup.reason == "mismatch"

    def test_hit_reports_its_tier(self, solved, tmp_path):
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        cache.put(cache_key(net, spec), payload)
        assert cache.get(cache_key(net, spec)).to_dict() == {"hit": True,
                                                      "tier": "memory"}

    def test_miss_reports_its_reason(self, solved, tmp_path):
        net, spec, _ = solved
        cache = ResultCache(directory=tmp_path)
        assert cache.get(cache_key(net, spec)).to_dict() == {"hit": False,
                                                      "reason": "absent"}

    def test_absent_is_a_counted_reason(self, solved, tmp_path):
        net, spec, _ = solved
        cache = ResultCache(directory=tmp_path)
        assert cache.get(cache_key(net, spec)).reason == "absent"
        assert cache.stats()["misses"]["absent"] == 1

    # pids are always < pid_max, whose kernel ceiling is 2**22 — this
    # pid can never name a live process.
    IMPOSSIBLE_PID = 2 ** 22

    def test_put_sweeps_dead_writers_tmp_files(self, solved, tmp_path):
        net, spec, payload = solved
        stale = tmp_path / f"dead-dead.json.tmp.{self.IMPOSSIBLE_PID}.1"
        tmp_path.mkdir(exist_ok=True)
        stale.write_text("partial garbage")
        cache = ResultCache(directory=tmp_path)
        cache.put(cache_key(net, spec), payload)
        assert not stale.exists()
        assert cache.get(cache_key(net, spec)).hit

    def test_put_spares_live_writers_tmp_files(self, solved, tmp_path):
        """The disk tier is shared: a tmp file whose writer is alive is
        mid-``put`` and must not be unlinked from under it."""
        import os
        net, spec, payload = solved
        live = tmp_path / f"peer-peer.json.tmp.{os.getpid()}.7"
        tmp_path.mkdir(exist_ok=True)
        live.write_text('{"half": "written')
        ResultCache(directory=tmp_path).put(cache_key(net, spec), payload)
        assert live.exists()

    def test_put_sweeps_ancient_tmp_files_regardless_of_pid(
            self, solved, tmp_path):
        """pid-reuse backstop: an hour-old tmp file is stranded even
        when some process now wears its writer's pid."""
        import os
        from repro._atomic import STALE_TMP_SECONDS
        net, spec, payload = solved
        tmp_path.mkdir(exist_ok=True)
        ancient = tmp_path / f"old-old.json.tmp.{os.getpid()}.1"
        ancient.write_text("partial garbage")
        unparseable = tmp_path / "old-old.json.tmp.notapid"
        unparseable.write_text("partial garbage")
        stamp = time.time() - STALE_TMP_SECONDS - 60
        os.utime(ancient, (stamp, stamp))
        os.utime(unparseable, (stamp, stamp))
        ResultCache(directory=tmp_path).put(cache_key(net, spec), payload)
        assert not ancient.exists()
        assert not unparseable.exists()


# ---------------------------------------------------------------------------
# Concurrent writers: two processes, same key, never a torn entry


_WRITER = """
import sys
from repro.service import ResultCache
from repro.service.cache import result_digest
payload = {"markings": int(sys.argv[3]), "blob": "x" * 2000}
cache = ResultCache(directory=sys.argv[1])
for _ in range(40):
    cache.put((sys.argv[2], "cafecafecafecafe"), payload)
"""


def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Two processes hammering one key: every observable state of the
    entry file is a complete, sealed write (last writer wins)."""
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(tmp_path),
         "feedfacefeedface", str(1000 + i)])
        for i in range(2)]
    seen = 0
    deadline = time.monotonic() + 60
    while any(proc.poll() is None for proc in procs) or seen == 0:
        assert time.monotonic() < deadline, "writers never produced"
        # A fresh cache per read: its memory tier is empty, so every
        # lookup reads the disk entry.
        reader = ResultCache(directory=tmp_path)
        lookup = reader.get(("feedfacefeedface", "cafecafecafecafe"))
        if lookup.hit:
            seen += 1
            assert lookup.result["markings"] in (1000, 1001)
        else:
            assert lookup.reason == "absent"  # never corrupt/torn
    for proc in procs:
        assert proc.wait() == 0
    final = ResultCache(directory=tmp_path).get(
        ("feedfacefeedface", "cafecafecafecafe"))
    assert final.hit and seen > 0


# ---------------------------------------------------------------------------
# Telemetry


class TestTelemetry:
    def test_counters_snapshot(self, solved, tmp_path):
        net, spec, payload = solved
        cache = ResultCache(directory=tmp_path)
        cache.get(cache_key(net, spec))
        cache.put(cache_key(net, spec), payload)
        cache.get(cache_key(net, spec))
        stats = cache.stats()
        assert stats["writes"] == 1
        assert stats["hits_memory"] == 1
        assert stats["misses"]["absent"] == 1
