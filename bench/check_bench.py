#!/usr/bin/env python3
"""Bench regression gate: compare a measured BENCH_*.json against its
committed baseline in bench/baselines/ and fail on regression.

Usage:
    python3 bench/check_bench.py MEASURED.json BASELINE.json
    python3 bench/check_bench.py --baseline-dir bench/baselines MEASURED.json ...

With --baseline-dir each measured file is paired with the baseline of the
same basename.

Gates (a failure in any one fails the run):
  * wall-time regression: every min-of-reps wall-clock field present in
    both files (wall_ms*, e.g. BENCH_coupled24h.json's wall_ms and its
    engine and plant stages alone, wall_ms_engine and wall_ms_plant) must
    satisfy
    measured <= baseline * (1 + tol) + slack, tol = 25 % by default
    (--tolerance, or CHECK_BENCH_TOLERANCE env) and slack = 0.5 ms
    (--abs-slack-ms) so sub-millisecond benches are not gated on
    scheduler jitter. Single-shot or I/O-dominated ingest phases
    (dataset_load_ms, dataset_load_bin_ms, dataset_save*_ms,
    dataset_replay_ms) are printed for information but not gated —
    they are timed once per run and too noisy to hard-fail on.
    This gate only applies when the workload scale matches the baseline
    (same "hours" / "sim_seconds" / "dataset_days"); a smoke run against a
    full-day baseline checks only the machine-independent gates below.
  * speedup floors: every "speedup_vs_*" field must be >= 1.0 — the fast
    paths must never lose to the reference/legacy paths they replace.
  * invariants: "sim_rate" > 0, "peak_rss_mb" > 0,
    "chunk_peak_resident_mb" > 0, every "policy_jobs_per_s_*" > 0,
    "wall_ms_engine" > 0 (a coupled24h record must carry it),
    "max_mass_residual_rel" <= 1e-12 (every node of every cooling loop
    balances its mass to rounding on every step),
    "recording_bytes_per_sample" <= 8.5 (the twin's coupled channels share
    one time axis: 8 bytes per value plus one axis over 155 channels, about
    8.05; a times vector per channel reads about 16), and "chunked_identical"
    is true (the streamed chunk replay must stay bit-identical to the
    monolithic path), for whichever of those fields the measured file
    carries.

Updating baselines (intentional bumps only):
  1. Build Release and run the bench on the CI reference configuration
     with enough reps for the min-of-reps estimator to converge, e.g.
         EXADIGIT_BENCH_REPS=15 EXADIGIT_BENCH_HOURS=1 \
             ./build/bench/bench_coupled_replay24h \
             --json bench/baselines/BENCH_coupled24h.json
     (the benches report min-of-EXADIGIT_BENCH_REPS wall times; use the
     same rep count the CI bench job uses). On machines with bursty
     timing, run it a few times and commit a representative (median)
     run, not the fastest — a lucky-burst baseline makes the gate flaky;
  2. commit the new JSON together with the change that moved the numbers,
     and say in the commit message *why* the regression (or improvement)
     is intended;
  3. never hand-edit baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WALL_PREFIXES = ("wall_ms",)
WALL_EXTRA = ("chunked_wall_ms",)
# Timed once per run (no min-of-reps), or dominated by I/O: report, but
# never hard-fail.
INFO_KEYS = ("dataset_load_ms", "dataset_load_bin_ms", "dataset_save_ms",
             "dataset_save_bin_ms", "dataset_replay_ms")
SCALE_KEYS = ("hours", "sim_seconds", "dataset_days", "sim_days")
# Largest node mass residual, relative to the loop flow, that a closed-form
# loop evaluation may leave.
MAX_MASS_RESIDUAL_REL = 1e-12
# Bytes the coupled recording may hold per channel sample: a value each,
# plus one shared time axis.
MAX_RECORDING_BYTES_PER_SAMPLE = 8.5


def is_wall_key(key: str) -> bool:
    return key.startswith(WALL_PREFIXES) or key in WALL_EXTRA


def scales_match(measured: dict, baseline: dict) -> bool:
    """True when the two records ran the same workload size."""
    shared = [k for k in SCALE_KEYS if k in measured and k in baseline]
    return bool(shared) and all(measured[k] == baseline[k] for k in shared)


def check_pair(measured_path: str, baseline_path: str, tolerance: float,
               abs_slack_ms: float) -> list[str]:
    with open(measured_path) as f:
        measured = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    failures: list[str] = []
    name = os.path.basename(measured_path)

    # Machine-independent gates first: these always apply.
    for key, value in sorted(measured.items()):
        if key.startswith("speedup_vs_") and isinstance(value, (int, float)):
            if value < 1.0:
                failures.append(f"{name}: {key} = {value:.3f} < 1.0 "
                                "(fast path lost to its reference)")
    for key in ("sim_rate", "peak_rss_mb", "chunk_peak_resident_mb"):
        if key in measured and not measured[key] > 0:
            failures.append(f"{name}: {key} = {measured[key]!r} (must be > 0)")
    if measured.get("bench") == "coupled24h":
        engine = measured.get("wall_ms_engine")
        if not isinstance(engine, (int, float)) or not engine > 0:
            failures.append(f"{name}: wall_ms_engine = {engine!r} (must be present and > 0)")
    residual = measured.get("max_mass_residual_rel")
    if residual is not None and not residual <= MAX_MASS_RESIDUAL_REL:
        failures.append(f"{name}: max_mass_residual_rel = {residual!r} (must be "
                        f"<= {MAX_MASS_RESIDUAL_REL:g}: a cooling loop left mass "
                        "unbalanced at a node)")
    recording = measured.get("recording_bytes_per_sample")
    if recording is not None and not recording <= MAX_RECORDING_BYTES_PER_SAMPLE:
        failures.append(f"{name}: recording_bytes_per_sample = {recording!r} (must "
                        f"be <= {MAX_RECORDING_BYTES_PER_SAMPLE:g}: the coupled "
                        "channels no longer share one time axis)")
    for key, value in sorted(measured.items()):
        # Per-policy scheduling throughput (bench_fig9_replay24h): every
        # policy column must schedule at a positive rate — 0 means the
        # policy layer stalled the queue outright.
        if key.startswith("policy_jobs_per_s_") and not value > 0:
            failures.append(f"{name}: {key} = {value!r} (must be > 0)")
    if "chunked_identical" in measured and measured["chunked_identical"] is not True:
        failures.append(f"{name}: chunked_identical = "
                        f"{measured['chunked_identical']!r} (streamed chunk "
                        "replay diverged from the monolithic path)")

    # Wall-time gate: only meaningful against a baseline of the same scale.
    if not scales_match(measured, baseline):
        print(f"{name}: workload scale differs from baseline "
              f"({ {k: measured.get(k) for k in SCALE_KEYS if k in measured} } vs "
              f"{ {k: baseline.get(k) for k in SCALE_KEYS if k in baseline} }); "
              "wall-time gate skipped")
        return failures

    for key in sorted(baseline):
        if key in INFO_KEYS:
            if key in measured:
                print(f"{name}: {key} {measured[key]:.1f} ms vs baseline "
                      f"{baseline[key]:.1f} ms (info only, single-shot phase)")
            continue
        if not is_wall_key(key):
            continue
        if key not in measured:
            failures.append(f"{name}: wall field {key} present in baseline but "
                            "missing from measured JSON")
            continue
        base, meas = baseline[key], measured[key]
        if not isinstance(base, (int, float)) or not isinstance(meas, (int, float)):
            continue
        limit = base * (1.0 + tolerance) + abs_slack_ms
        status = "ok" if meas <= limit else "REGRESSION"
        print(f"{name}: {key} {meas:.1f} ms vs baseline {base:.1f} ms "
              f"(limit {limit:.1f} ms) {status}")
        if meas > limit:
            failures.append(f"{name}: {key} regressed {meas:.1f} ms > "
                            f"{limit:.1f} ms (baseline {base:.1f} ms "
                            f"+ {tolerance:.0%} + {abs_slack_ms:g} ms)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="measured JSON, or measured+baseline pair without "
                             "--baseline-dir")
    parser.add_argument("--baseline-dir",
                        help="directory of baselines matched by basename")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("CHECK_BENCH_TOLERANCE", "0.25")),
                        help="allowed fractional wall-time regression "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--abs-slack-ms", type=float,
                        default=float(os.environ.get("CHECK_BENCH_ABS_SLACK_MS",
                                                     "0.5")),
                        help="absolute slack added to every wall limit so "
                             "sub-millisecond benches are not gated on "
                             "scheduler jitter (default 0.5 ms)")
    args = parser.parse_args()

    pairs: list[tuple[str, str]] = []
    if args.baseline_dir:
        for measured in args.files:
            baseline = os.path.join(args.baseline_dir, os.path.basename(measured))
            if not os.path.exists(baseline):
                print(f"error: no baseline {baseline} for {measured}", file=sys.stderr)
                return 2
            pairs.append((measured, baseline))
    else:
        if len(args.files) != 2:
            print("error: expected MEASURED.json BASELINE.json (or use "
                  "--baseline-dir)", file=sys.stderr)
            return 2
        pairs.append((args.files[0], args.files[1]))

    failures: list[str] = []
    for measured, baseline in pairs:
        failures.extend(check_pair(measured, baseline, args.tolerance,
                                   args.abs_slack_ms))

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("\nIf the change is an intentional trade-off, update the "
              "baseline per bench/check_bench.py's module docstring.",
              file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
