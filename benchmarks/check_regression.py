"""CI gate: fail if a gated engine's image time regresses > 25 %.

Runs the benchmarks in quick mode (the two smallest instances each) and
compares image-fixpoint times against the committed
``BENCH_relprod.json`` baseline — the BDD chained rows, the ZDD chained
rows, the analysis service's cache-hit speedup (an absolute >= 10x floor, see
:func:`check_service`), and the complement-edge negation wins (the
ISSUE 10 acceptance floors plus structural peak-live-node drift, see
:func:`check_negation`).  Engine rows are read through :func:`image_seconds`, which
understands both the native benchmark row shape and the serialized
``repro.analysis.AnalysisResult`` schema.  Raw wall-clock is
meaningless across machines, so times are normalised by a baseline
measured in the same process — the materialised-monolithic engine on
the BDD side, the classic per-transition loop on the ZDD side::

    normalised = chained_image_seconds / baseline_image_seconds

The gate fails when a fresh normalised time exceeds the committed one by
more than ``TOLERANCE`` on any shared instance.  Two noise guards keep
it from crying wolf: instances whose committed chained fixpoint ran
under the noise floor are skipped (``MIN_SECONDS`` for BDD rows,
``MIN_SECONDS_ZDD`` for the much faster ZDD rows), and a failing
instance is re-measured up to ``ATTEMPTS`` times — only a reproducible
slowdown fails the gate.  Run from the repository root::

    PYTHONPATH=src python benchmarks/check_regression.py
"""

from __future__ import annotations

import json
import os
import sys

os.environ.setdefault("REPRO_QUICK", "1")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_negation  # noqa: E402  (needs REPRO_QUICK set first)
import bench_relprod  # noqa: E402
import bench_service  # noqa: E402
import bench_zdd_relprod  # noqa: E402

TOLERANCE = 0.25
MIN_SECONDS = 0.1
MIN_SECONDS_ZDD = 0.02
ATTEMPTS = 3
HIT_SPEEDUP_MIN = 10.0
#: ISSUE 10 acceptance floors on the committed complement-edge numbers:
#: checker queries >= 1.3x faster and peak live nodes >= 1.5x smaller
#: than the recorded seed-commit run.
CHECKER_SPEEDUP_MIN = 1.3
PEAK_REDUCTION_MIN = 1.5
#: Floor for the in-process O(1)-vs-recursive negation ratio.  A bit
#: flip against a full DAG rebuild runs thousands of times faster; a
#: fresh ratio under this floor means real work leaked back into
#: ``apply_not``.
NOT_SPEEDUP_MIN = 50.0


def image_seconds(entry: dict) -> float:
    """Image-fixpoint seconds from either engine-row schema.

    Two shapes are understood: the native ``bench_relprod`` row
    (``{"image_seconds": ...}``) and a serialized
    ``repro.analysis.AnalysisResult`` dict (``{"schema": ..., "extras":
    {"fixpoint_seconds": ...}, ...}``) — so baselines recorded through
    ``AnalysisResult.to_dict()`` gate exactly like native ones.  The
    dict is read directly rather than through
    ``AnalysisResult.from_dict`` so a baseline written by a newer
    schema (or a spec with fields this build doesn't know) still
    yields its timing instead of crashing the gate.
    """
    if "schema" in entry:
        extras = entry.get("extras", {})
        if "fixpoint_seconds" in extras:
            return extras["fixpoint_seconds"]
        # Keep the ratio build-free even without the extras breakdown:
        # native rows time only the image fixpoint.
        return entry["seconds"] - extras.get("build_seconds", 0.0)
    return entry["image_seconds"]


def normalised_chained(engines: dict) -> float:
    materialised = image_seconds(engines[bench_relprod.OLD_ENGINE])
    chained = image_seconds(engines["chained"])
    if materialised <= 0:
        return float("inf")
    return chained / materialised


def normalised_zdd_chained(rows: dict) -> float:
    """Best chained row over the classic loop, both from one process."""
    classic = image_seconds(rows[bench_zdd_relprod.OLD_ENGINE])
    chained = min(image_seconds(rows[label])
                  for label in bench_zdd_relprod.CHAINED_ROWS
                  if label in rows)
    if classic <= 0:
        return float("inf")
    return chained / classic


def check_zdd(baseline: dict) -> "tuple[list, int, int]":
    """Gate the ZDD chained rows: fresh vs committed classic-normalised
    ratio, same tolerance/attempt policy as the BDD gate."""
    failures = []
    checked = 0
    shared = 0
    section = baseline.get("zdd") or {}
    instances = section.get("instances", {})
    for name, factory in bench_zdd_relprod.CONFIGS:
        committed = instances.get(name)
        if committed is None:
            print(f"zdd/{name}: not in committed baseline, skipped")
            continue
        shared += 1
        committed_seconds = min(
            image_seconds(committed[label])
            for label in bench_zdd_relprod.CHAINED_ROWS
            if label in committed)
        if committed_seconds < MIN_SECONDS_ZDD:
            print(f"zdd/{name}: committed chained fixpoint took "
                  f"{committed_seconds:.3f}s (< {MIN_SECONDS_ZDD}s noise "
                  f"floor), skipped")
            continue
        old_ratio = normalised_zdd_chained(committed)
        bound = old_ratio * (1 + TOLERANCE)
        new_ratio = float("inf")
        for attempt in range(1, ATTEMPTS + 1):
            fresh = bench_zdd_relprod.measure_engines(factory)
            new_ratio = min(new_ratio, normalised_zdd_chained(fresh))
            if new_ratio <= bound:
                break
        change = (new_ratio - old_ratio) / old_ratio if old_ratio else 0.0
        verdict = "OK" if new_ratio <= bound else "REGRESSION"
        print(f"zdd/{name}: chained/classic time ratio "
              f"{old_ratio:.3f} -> {new_ratio:.3f} "
              f"({change:+.1%}, {attempt} attempt(s)) {verdict}")
        checked += 1
        if verdict == "REGRESSION":
            failures.append(f"zdd/{name}")
    return failures, checked, shared


def check_service(baseline: dict) -> "tuple[list, int, int]":
    """Gate the analysis service: a cache hit must stay >= 10x faster
    than the cold solve (the ISSUE 9 acceptance bound — an absolute
    floor, not a drift check, since the hit path is a dictionary lookup
    plus a digest check and any ratio below 10x means real work leaked
    into it).  Instances whose committed cold solve sat under the noise
    floor are skipped: a millisecond-scale cold solve cannot bound a
    microsecond-scale hit with any statistical honesty.
    """
    failures = []
    checked = 0
    shared = 0
    section = baseline.get("service") or {}
    instances = section.get("instances", {})
    for name, factory in bench_service.CONFIGS:
        committed = instances.get(name)
        if committed is None:
            print(f"service/{name}: not in committed baseline, skipped")
            continue
        shared += 1
        if committed["cold_seconds"] < MIN_SECONDS:
            print(f"service/{name}: committed cold solve took "
                  f"{committed['cold_seconds']:.3f}s (< {MIN_SECONDS}s "
                  f"noise floor), skipped")
            continue
        speedup = 0.0
        for attempt in range(1, ATTEMPTS + 1):
            fresh = bench_service.measure_service(factory)
            if fresh["cold_seconds"] < MIN_SECONDS:
                # This machine solves too fast to bound the ratio;
                # treat like the committed-side noise-floor skip.
                speedup = None
                break
            speedup = max(speedup, fresh["hit_speedup"])
            if speedup >= HIT_SPEEDUP_MIN:
                break
        if speedup is None:
            print(f"service/{name}: fresh cold solve below the noise "
                  f"floor on this machine, skipped")
            continue
        verdict = "OK" if speedup >= HIT_SPEEDUP_MIN else "REGRESSION"
        print(f"service/{name}: cache hit speedup "
              f"{committed['hit_speedup']:.0f}x committed -> "
              f"{speedup:.0f}x fresh "
              f"(floor {HIT_SPEEDUP_MIN:.0f}x, {attempt} attempt(s)) "
              f"{verdict}")
        checked += 1
        if verdict == "REGRESSION":
            failures.append(f"service/{name}")
    return failures, checked, shared


def check_negation(baseline: dict) -> "tuple[list, int, int]":
    """Gate the complement-edge negation wins (ISSUE 10).

    Two layers, following the committed ``"negation"`` section written
    by ``bench_negation.py``:

    * **Committed acceptance floors** — every committed instance that
      carries seed-commit ratios must hold the ISSUE 10 bounds
      (checker queries >= ``CHECKER_SPEEDUP_MIN`` faster, peak live
      nodes >= ``PEAK_REDUCTION_MIN`` smaller).  These compare two
      committed numbers, so all instances gate regardless of quick
      mode or machine speed.
    * **Fresh drift** — the quick-mode instances are re-measured:
      ``peak_live_nodes`` (the narrowing sweep) and
      ``checker_default_peak_live_nodes`` (the default-spec checker
      queries) are structural (deterministic for a code version), so a
      fresh peak above the committed one by ``TOLERANCE`` is a real
      regression; and the in-process O(1)-vs-recursive negation ratio
      must stay above ``NOT_SPEEDUP_MIN`` (machine-normalised: both
      sides run here).
    """
    failures = []
    checked = 0
    shared = 0
    section = baseline.get("negation") or {}
    instances = section.get("instances", {})

    for name, committed in sorted(instances.items()):
        bounds = (("checker_speedup_vs_pre_pr", CHECKER_SPEEDUP_MIN),
                  ("peak_reduction_vs_pre_pr", PEAK_REDUCTION_MIN))
        recorded = [(key, floor) for key, floor in bounds
                    if key in committed]
        if not recorded:
            print(f"negation/{name}: no seed-commit ratios recorded, "
                  f"acceptance floors skipped")
            continue
        shared += 1
        checked += 1
        for key, floor in recorded:
            value = committed[key]
            verdict = "OK" if value >= floor else "REGRESSION"
            print(f"negation/{name}: committed {key} = {value:.2f}x "
                  f"(floor {floor}x) {verdict}")
            if verdict == "REGRESSION":
                failures.append(f"negation/{name}:{key}")

    for name, factory in bench_negation.CONFIGS:
        committed = instances.get(name)
        if committed is None:
            print(f"negation/{name}: not in committed baseline, skipped")
            continue
        shared += 1
        peaks = ("peak_live_nodes", "checker_default_peak_live_nodes")
        bounds = {key: committed[key] * (1 + TOLERANCE) for key in peaks}
        fresh_peaks = {key: float("inf") for key in peaks}
        not_speedup = 0.0
        for attempt in range(1, ATTEMPTS + 1):
            fresh = bench_negation.measure_negation(factory)
            for key in peaks:
                fresh_peaks[key] = min(fresh_peaks[key], fresh[key])
            not_speedup = max(not_speedup, fresh["not_speedup"])
            peaks_ok = all(fresh_peaks[key] <= bounds[key] for key in peaks)
            if peaks_ok and not_speedup >= NOT_SPEEDUP_MIN:
                break
        checked += 1
        not_ok = not_speedup >= NOT_SPEEDUP_MIN
        verdict = "OK" if peaks_ok and not_ok else "REGRESSION"
        drift = ", ".join(f"{key} {committed[key]} -> {fresh_peaks[key]}"
                          for key in peaks)
        print(f"negation/{name}: {drift}, "
              f"O(1)-vs-recursive negation {not_speedup:.0f}x "
              f"(floor {NOT_SPEEDUP_MIN:.0f}x, {attempt} attempt(s)) "
              f"{verdict}")
        failures += [f"negation/{name}:{key}" for key in peaks
                     if fresh_peaks[key] > bounds[key]]
        if not not_ok:
            failures.append(f"negation/{name}:not_speedup")
    return failures, checked, shared


def main() -> int:
    try:
        with open(bench_relprod.JSON_PATH) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"no committed baseline at {bench_relprod.JSON_PATH}; "
              f"nothing to gate against")
        return 0

    failures = []
    checked = 0
    shared = 0
    for name, factory in bench_relprod.CONFIGS:
        committed = baseline["instances"].get(name)
        if committed is None:
            print(f"{name}: not in committed baseline, skipped")
            continue
        shared += 1
        committed_seconds = image_seconds(committed["engines"]["chained"])
        if committed_seconds < MIN_SECONDS:
            print(f"{name}: committed chained fixpoint took "
                  f"{committed_seconds:.3f}s (< {MIN_SECONDS}s noise "
                  f"floor), skipped")
            continue
        old_ratio = normalised_chained(committed["engines"])
        bound = old_ratio * (1 + TOLERANCE)
        new_ratio = float("inf")
        for attempt in range(1, ATTEMPTS + 1):
            fresh = bench_relprod.measure_engines(factory,
                                                  engines=("chained",))
            new_ratio = min(new_ratio, normalised_chained(fresh))
            if new_ratio <= bound:
                break
        change = (new_ratio - old_ratio) / old_ratio if old_ratio else 0.0
        verdict = "OK" if new_ratio <= bound else "REGRESSION"
        print(f"{name}: chained/materialised time ratio "
              f"{old_ratio:.3f} -> {new_ratio:.3f} "
              f"({change:+.1%}, {attempt} attempt(s)) {verdict}")
        checked += 1
        if verdict == "REGRESSION":
            failures.append(name)

    zdd_failures, zdd_checked, zdd_shared = check_zdd(baseline)
    failures += zdd_failures
    checked += zdd_checked
    shared += zdd_shared

    svc_failures, svc_checked, svc_shared = check_service(baseline)
    failures += svc_failures
    checked += svc_checked
    shared += svc_shared

    neg_failures, neg_checked, neg_shared = check_negation(baseline)
    failures += neg_failures
    checked += neg_checked
    shared += neg_shared

    if not shared:
        print("no instances shared between quick mode and the baseline; "
              "regenerate BENCH_relprod.json")
        return 1
    if not checked:
        # Every shared instance sat under the noise floor: nothing
        # gateable, but also no evidence of regression — don't turn CI
        # red on fast machines.
        print("all shared instances below the noise floor; gate skipped")
        return 0
    if failures:
        print(f"engine image time regressed >{TOLERANCE:.0%} on: "
              f"{', '.join(failures)}")
        return 1
    print("no engine regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
