"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 --seconds 20 \\
        [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed (1..runs) for each workload and
prints, per metric, the median and the interquartile distance as a
share of the median (``statistics.quantiles(values, n=4)``) next to the
metric's bound from ``BENCHMARK.json``.  A spread must stay within its
bound for the benchmark to tell a regression from noise; ``setup_s`` is
only compared median to median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0.0
    for workload in args.workload or workloads.WORKLOADS:
        values = {name: [] for name in metrics.END_TO_END}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, check=True)
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            if not final["correct"]:
                print(f"{workload} seed {seed}: answer checks failed")
                return 1
            for name, entry in final["metrics"].items():
                values[name].append(entry["value"])
        for name, series in values.items():
            share = metrics.spread(series)
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"{workload:<14} {name:<12} median "
                  f"{metrics.median(series):<12.6g} spread {share:7.2%} "
                  f"bound {bounds[name]:.0%}  values "
                  f"{[round(v, 4) for v in series]}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
