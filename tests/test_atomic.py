"""The shared atomic writer and its stale-tmp sweep (``repro._atomic``)."""

import os
import time

import pytest

from repro import _atomic
from repro._atomic import STALE_TMP_SECONDS, sweep_stale_tmp, write_atomically

# pids are always < pid_max, whose kernel ceiling is 2**22, so no
# process wears this one.
DEAD_PID = 2 ** 22 + 1


def tmp_files(directory):
    return sorted(p.name for p in directory.iterdir() if ".tmp." in p.name)


def age(path, seconds):
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestWrite:
    def test_creates_the_target(self, tmp_path):
        target = tmp_path / "entry.json"
        write_atomically(target, "first")
        assert target.read_text() == "first"
        assert tmp_files(tmp_path) == []

    def test_replaces_the_target(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text("old")
        write_atomically(target, "new")
        assert target.read_text() == "new"
        assert tmp_files(tmp_path) == []

    def test_tmp_names_are_unique_within_a_process(self, tmp_path,
                                                   monkeypatch):
        """Two writes of one path never share a tmp file, and each
        carries this process's pid."""
        seen = []
        replace = os.replace

        def spy(source, target):
            seen.append(os.path.basename(source))
            replace(source, target)

        monkeypatch.setattr(_atomic.os, "replace", spy)
        target = tmp_path / "entry.json"
        write_atomically(target, "a")
        write_atomically(target, "b")
        assert len(set(seen)) == 2
        assert all(name.startswith(f"entry.json.tmp.{os.getpid()}.")
                   for name in seen)
        assert target.read_text() == "b"

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "entry.json"
        target.write_text("sealed")

        def fail(source, target):
            raise OSError("disk gone")

        monkeypatch.setattr(_atomic.os, "replace", fail)
        with pytest.raises(OSError):
            write_atomically(target, "torn")
        assert target.read_text() == "sealed"
        assert tmp_files(tmp_path) == []


class TestSweep:
    def test_removes_a_dead_writers_tmp(self, tmp_path):
        stranded = tmp_path / f"entry.json.tmp.{DEAD_PID}.3"
        stranded.write_text("half")
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert not stranded.exists()

    def test_spares_a_live_writers_tmp(self, tmp_path):
        for pid in (os.getpid(), os.getppid()):
            (tmp_path / f"entry.json.tmp.{pid}.1").write_text("half")
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert len(tmp_files(tmp_path)) == 2

    def test_collects_an_ancient_tmp_of_a_live_pid(self, tmp_path):
        """pid reuse: past an hour the pid in the name proves nothing."""
        ancient = tmp_path / f"entry.json.tmp.{os.getppid()}.1"
        ancient.write_text("half")
        age(ancient, STALE_TMP_SECONDS + 60)
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert not ancient.exists()

    def test_unparseable_pid_waits_until_ancient(self, tmp_path):
        odd = tmp_path / "entry.json.tmp.nopid"
        odd.write_text("half")
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert odd.exists()
        age(odd, STALE_TMP_SECONDS + 60)
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert not odd.exists()

    def test_touches_only_tmp_files_with_the_prefix(self, tmp_path):
        keep = [tmp_path / f"other.json.tmp.{DEAD_PID}.1",
                tmp_path / "entry.json",
                tmp_path / "entry.json.bak"]
        for path in keep:
            path.write_text("x")
        sweep_stale_tmp(tmp_path, "entry.json.tmp.")
        assert all(path.exists() for path in keep)

    def test_missing_directory_is_a_no_op(self, tmp_path):
        sweep_stale_tmp(tmp_path / "absent", "")
