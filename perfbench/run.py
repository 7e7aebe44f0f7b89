"""The repository benchmark: four workloads over the public entry points.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload reach-phil10 --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``reach-phil10``, ``check-phil8``, ``service-mix``,
``race-suite`` (see ``perfbench/README.md`` for why each exists).

Every repetition runs in a fresh interpreter (``rep.py``) with a seed
derived from ``--seed``.  Repetitions start while the next one is
expected to finish within ``--seconds``; there is always at least one
(two with ``--trace 1``).  With ``--trace 0`` the runner reports the
end-to-end metrics, medians over the repetitions.  With ``--trace 1``
it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus ``trace.overhead``, the
traced ``solve_s`` over the untraced one.

Output: a human-readable table (every metric with its unit and sample
count, and the machine the numbers were taken on), then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The full record, raw repetitions included, goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  ``--quick``
runs the same workloads at toy sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Hard cap on one repetition; the whole run must end within 180 s.
REP_TIMEOUT = 150.0


class BenchmarkError(Exception):
    """A repetition could not run; no result is printed."""


def machine_record(args) -> Dict:
    """Where and on what the numbers were taken."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def run_rep(workload: str, seed: int, traced: bool, quick: bool,
            timeout: float) -> Dict:
    """Run one repetition in a fresh interpreter and parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, str(HERE / "rep.py"), workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--out", str(OUT)]
    if quick:
        command.append("--quick")
    launched = time.perf_counter()
    command += ["--launched-at", repr(launched)]
    # A session of its own, so a timeout can stop the repetition's
    # worker processes along with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env,
                             cwd=str(ROOT), start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{workload} repetition (seed {seed}) "
                             f"exceeded {timeout:.0f}s")
    if child.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition (seed {seed}) exited with "
            f"{child.returncode}:\n{stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - launched
    return report


def run_reps(args) -> List[Dict]:
    """Repetitions until the next one would overrun ``--seconds``."""
    reps: List[Dict] = []
    begin = time.perf_counter()
    minimum = 2 if args.trace else 1
    while True:
        index = len(reps)
        remaining = REP_TIMEOUT - (time.perf_counter() - begin)
        if remaining <= 0:
            raise BenchmarkError("out of time before a result")
        reps.append(run_rep(args.workload, args.seed * 1000 + index,
                            bool(args.trace) and index % 2 == 1,
                            args.quick, remaining))
        elapsed = time.perf_counter() - begin
        longest = max(rep["wall_s"] for rep in reps)
        if len(reps) >= minimum and elapsed + longest > args.seconds:
            return reps


def service_metrics(reps: List[Dict]) -> Dict[str, tuple]:
    """The request-level metrics of ``service-mix``: (value, n, note)."""
    records = [rec for rep in reps for rec in rep["service"]["records"]]
    hits = [rec["latency"] for rec in records if rec["hit"]]
    misses = [rec["latency"] for rec in records if not rec["hit"]]
    every = [rec["latency"] for rec in records]
    value, pct, beyond = metrics.tail(every)
    rates = [len(rep["service"]["records"]) / rep["solve_s"]
             for rep in reps]
    return {
        "throughput_rps": (metrics.median(rates), len(rates), ""),
        "hit_latency_p50_ms": (metrics.median(hits) * 1000, len(hits), ""),
        "miss_latency_p50_s": (metrics.median(misses), len(misses), ""),
        "latency_p90_s": (value, len(every), f"p{pct}, {beyond} beyond"),
    }


def summarize(reps: List[Dict], traced_run: bool) -> Dict:
    """Medians of the repetitions, the answer-check totals and the
    metrics of the final line."""
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    e2e = {
        "setup_s": [rep["setup_s"] for rep in plain],
        "solve_s": [rep["solve_s"] for rep in plain],
        "peak_nodes": [rep["peak_nodes"] for rep in plain],
        "peak_rss_mb": [max(rep["rss_self_mb"], rep["rss_children_mb"])
                        for rep in plain],
    }
    table = {name: (metrics.median(values), len(values), "")
             for name, values in e2e.items()}
    for part in ("self", "children"):
        values = [rep[f"rss_{part}_mb"] for rep in plain]
        table[f"peak_rss_{part}_mb"] = (metrics.median(values),
                                        len(values), "")
    if plain and "service" in plain[0]:
        table.update(service_metrics(plain))
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    table["error_rate"] = (failed / attempted if attempted else 1.0,
                           attempted, "")
    layers = {}
    if traced:
        for name in metrics.PER_LAYER:
            values = [rep["layers"][name] for rep in traced]
            layers[name] = (metrics.median(values), len(values), "")
        untraced_solve = table["solve_s"][0]
        traced_solve = metrics.median([rep["solve_s"] for rep in traced])
        layers["trace.overhead"] = (
            traced_solve / untraced_solve if untraced_solve else 0.0,
            len(traced), "")
    wanted = layers if traced_run else table
    names = metrics.PER_LAYER if traced_run else metrics.END_TO_END
    units = dict(metrics.END_TO_END, **metrics.SERVICE, **metrics.PER_LAYER,
                 peak_rss_self_mb="MiB", peak_rss_children_mb="MiB",
                 error_rate="fraction")
    return {
        "table": table, "layers": layers, "units": units,
        "final": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": wanted[name][0],
                               "unit": names[name]}
                        for name in names},
        },
    }


def print_table(title: str, rows: Dict[str, tuple], units: Dict) -> None:
    print(title)
    for name, (value, count, note) in rows.items():
        extra = f"  ({note})" if note else ""
        print(f"  {name:<30} {value:>16.6g} {units[name]:<9} "
              f"n={count}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    machine = machine_record(args)
    try:
        reps = run_reps(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(reps, bool(args.trace))

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print_table(f"{args.workload}: end-to-end (untraced repetitions)",
                summary["table"], summary["units"])
    if summary["layers"]:
        print_table(f"{args.workload}: per layer (traced repetitions)",
                    summary["layers"], summary["units"])
        other = summary["layers"]["trace.other_s"][0]
        solve = metrics.median([rep["solve_s"] for rep in reps
                                if rep["traced"]])
        print(f"trace coverage: trace.other_s is {100 * other / solve:.2f}% "
              f"of traced solve_s (limit 5%)")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED (seed {rep['seed']}): {failure}")
    record = {"machine": machine, "reps": reps,
              "result": summary["final"]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
