"""The benchmark's own tests: quick mode, answer checks, trace coverage.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Nets the explicit-state oracle enumerates in seconds.
ORACLE_LIMIT = 50_000


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_runner():
    assert CONFIG["command"] == ["python3", "perfbench/run.py"]
    assert CONFIG["paths"] == ["perfbench"]
    assert [w["name"] for w in CONFIG["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} \
        == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(
    name for name, count in workloads.KNOWN_MARKINGS.items()
    if count <= ORACLE_LIMIT))
def test_known_counts_match_the_explicit_oracle(name):
    from repro.petri.reachability import ReachabilityGraph
    graph = ReachabilityGraph(workloads.make_net(name),
                              max_markings=ORACLE_LIMIT)
    assert len(graph) == workloads.KNOWN_MARKINGS[name]


def test_every_catalogue_and_race_net_has_a_known_count():
    for sizes in (workloads.FULL, workloads.QUICK):
        names = ({sizes.reach, sizes.check} | set(sizes.service_nets)
                 | set(sizes.race_nets))
        assert names <= set(workloads.KNOWN_MARKINGS)
        assert sizes.check in workloads.KNOWN_VERDICTS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: entry["unit"] for name, entry
            in final["metrics"].items()} == declared
    if not trace:
        assert all(final["metrics"][name]["value"] > 0
                   for name in metrics.END_TO_END)
    table = "\n".join(lines[:-1])
    printed = dict(metrics.END_TO_END, error_rate="fraction")
    if workload == "service-mix":
        printed.update(metrics.SERVICE)
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   and "n=" in line for line in table.splitlines()), name
    assert '"nproc"' in lines[0] and '"seed": 3' in lines[0]


def test_wrong_marking_count_is_a_failure_not_a_pass():
    sizes = workloads.QUICK
    wrong = dict(workloads.KNOWN_MARKINGS)
    wrong[sizes.reach] += 1
    data = workloads.run("reach-phil10", sizes, 1, known=wrong)
    assert len(data["checks"].failures) == 1
    rep = {"traced": False, "setup_s": 1.0, "solve_s": 1.0,
           "peak_nodes": data["peak_nodes"], "rss_self_mb": 1.0,
           "rss_children_mb": 0.0, "attempted": data["checks"].attempted,
           "failed": len(data["checks"].failures)}
    final = run.summarize([rep], traced_run=False)["final"]
    assert final["correct"] is False and final["failed"] == 1


def test_wrong_verdict_is_a_failure():
    sizes = workloads.QUICK
    verdicts = json.loads(json.dumps(workloads.KNOWN_VERDICTS))
    verdicts[sizes.check]["home"] = True
    data = workloads.run("check-phil8", sizes, 1, verdicts=verdicts)
    assert data["checks"].failures == [
        f"{sizes.check} home: got False, expected True"]


@pytest.mark.parametrize("workload", ["reach-phil10", "check-phil8"])
def test_layer_self_times_cover_the_traced_wall_time(workload):
    tracer = Tracer(workload)
    tracer.install()
    try:
        start = time.perf_counter()
        data = workloads.run(workload, workloads.QUICK, 1, tracer.span)
    finally:
        tracer.uninstall()
    wall = data["done"] - start
    self_total = sum(entry["self"]
                     for entry in tracer.layer_times().values())
    other = wall - tracer.covered(start, data["done"])
    assert self_total + other == pytest.approx(wall, abs=1e-9)
    assert other < 0.05 * (data["done"] - data["ready"])
    assert not data["checks"].failures


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "reach-phil10", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
