#!/usr/bin/env python3
"""Bench regression tripwire for perf_pipeline artifacts.

Compares a freshly produced BENCH_pipeline.json against the committed
baseline: for every method, the fresh sensing throughput must be at least
half the committed value (2x headroom absorbs runner-hardware variance while
still catching order-of-magnitude pipeline regressions), and the run must
have been deterministic.

The committed baseline itself is also held to absolute ratchet floors
(RATCHET_FLOORS): once a perf milestone lands — the azimuth-index LiDAR
rewrite took Ours sensing from 3.4M to 34M+ points/sec — nobody can quietly
re-commit a slower baseline and have the relative check hide the loss. Fresh
runs are only measured against the relative floor, since CI hardware varies.

Every method row of both artifacts must carry a "behavior_fingerprint".
When the two were run in the same mode (quick or full), the fingerprints
must match *bit-for-bit*: the bench runs fault-free (corruption off), so any
drift means simulated behavior changed — a tripwire for silent codec/pipeline
changes, independent of hardware speed. Both artifacts must also carry the
"Ours-redundancy" row, whose offered-bytes reduction over "Ours" is held to
REDUNDANCY_REDUCTION_FLOOR.

Usage: check_bench.py <fresh.json> <baseline.json>
       check_bench.py --soak <soak_report.json>

The --soak mode validates a SOAK report from bench/soak (DESIGN.md §17):
zero contract violations, worker-sweep bit-identity, flat pool gauges and
resident memory across the run, and a host.frame p99 (host wall time of one
loop iteration: pipeline frame plus world step) that stays under an absolute
ceiling and within a front-vs-back-half stability ratio. The gate
thresholds are re-derived here from the raw per-episode series, so the
binary's own verdict cannot silently diverge from what CI enforces.
"""

import json
import sys

# --soak gate thresholds, the same values bench/soak.cpp holds. host.frame
# is host wall time, so the bands are generous against machine noise while
# still catching monotone degradation (a real leak or quadratic blowup
# compounds across dozens-to-hundreds of episodes).
SOAK_P99_CEILING_MS = 2000.0  # absolute: 2 s p99 means the edge is drowning
SOAK_P99_STABILITY_RATIO = 3.0  # back-half mean vs front-half mean
SOAK_RSS_GROWTH_RATIO = 1.15  # flat-memory band
SOAK_POOL_GROWTH_RATIO = 1.5  # pool job-count flatness band


def check_soak(path):
    with open(path) as f:
        doc = json.load(f)

    failures = []
    if doc.get("bench") != "soak":
        return [f"{path}: not a soak report (bench={doc.get('bench')!r})"]

    violations = doc.get("violations", -1)
    print(f"violations {violations} " + ("ok" if violations == 0 else "FAIL"))
    if violations != 0:
        failures.append(f"{violations} contract violations during the soak")

    if not doc.get("worker_sweep_ok", False):
        failures.append(
            "worker sweep diverged - behavior is not bit-identical across"
            " 1/2/8 workers + det-hash shuffle"
        )
    sweep = doc.get("worker_sweep", {})
    print(f"worker sweep {sweep} "
          + ("ok" if doc.get("worker_sweep_ok") else "FAIL"))

    episodes = doc.get("episodes_detail", [])
    if not episodes:
        return failures + ["no per-episode series in the report"]

    def series(key):
        return [float(e[key]) for e in episodes]

    def halves(values):
        half = len(values) // 2
        front = values[:half] or [0.0]
        back = values[half:] or [0.0]
        return sum(front) / len(front), sum(back) / len(back)

    p99 = series("frame_p99_ms")
    p99_front, p99_back = halves(p99)
    p99_max = max(p99)
    if p99_max > SOAK_P99_CEILING_MS:
        failures.append(
            f"host.frame p99 peaked at {p99_max:.1f} ms >"
            f" {SOAK_P99_CEILING_MS:.0f} ms ceiling"
        )
    if p99_front > 0.0 and p99_back > p99_front * SOAK_P99_STABILITY_RATIO:
        failures.append(
            f"host.frame p99 degraded {p99_front:.1f} -> {p99_back:.1f} ms"
            f" (> {SOAK_P99_STABILITY_RATIO:.1f}x)"
        )
    print(
        f"host.frame p99 front {p99_front:.1f} ms back {p99_back:.1f} ms"
        f" max {p99_max:.1f} ms "
        + ("ok" if p99_max <= SOAK_P99_CEILING_MS else "FAIL")
    )

    rss = series("rss_kb")
    rss_front, rss_back = halves(rss)
    # rss_kb is 0 where /proc is unavailable; skip the gate there.
    if rss_front > 0.0 and rss_back > rss_front * SOAK_RSS_GROWTH_RATIO:
        failures.append(
            f"resident memory grew {rss_front:.0f} -> {rss_back:.0f} kB"
            f" (> {SOAK_RSS_GROWTH_RATIO:.2f}x) - pool gauges say leak"
        )
    print(f"rss front {rss_front:.0f} kB back {rss_back:.0f} kB "
          + ("ok" if rss_front <= 0.0
             or rss_back <= rss_front * SOAK_RSS_GROWTH_RATIO else "FAIL"))

    jobs = series("pool_jobs")
    jobs_front, jobs_back = halves(jobs)
    if jobs_front > 0.0 and jobs_back > jobs_front * SOAK_POOL_GROWTH_RATIO:
        failures.append(
            f"pool jobs per episode grew {jobs_front:.0f} ->"
            f" {jobs_back:.0f} (> {SOAK_POOL_GROWTH_RATIO:.1f}x)"
        )
    print(f"pool jobs front {jobs_front:.0f} back {jobs_back:.0f} "
          + ("ok" if jobs_front <= 0.0
             or jobs_back <= jobs_front * SOAK_POOL_GROWTH_RATIO else "FAIL"))

    if any(e.get("violated", False) for e in episodes):
        failures.append("an episode carries violated=true")

    return failures

# Absolute sensing_points_per_sec floors the *committed baseline* must meet
# (quick-mode artifacts from the 1-CPU bench container). Ratcheted by the
# LiDAR acceleration index work: >= 10x the 3.43M pre-index Ours figure.
RATCHET_FLOORS = {"Ours": 34.0e6}

# Minimum uplink offered-bytes reduction of the redundancy-aware uplink
# (coverage-feedback suppression + delta encoding): Ours offered bytes must
# be at least this multiple of Ours-redundancy offered bytes. The sim is
# deterministic, so the ratio is bit-stable across hardware; any dip means a
# behavior change weakened the suppression loop.
REDUNDANCY_REDUCTION_FLOOR = 3.0


def methods_by_name(doc):
    return {m["method"]: m for m in doc["methods"]}


def main(argv):
    if len(argv) == 3 and argv[1] == "--soak":
        failures = check_soak(argv[2])
        for msg in failures:
            print(f"check_bench: FAIL - {msg}", file=sys.stderr)
        return 1 if failures else 0
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        fresh = json.load(f)
    with open(argv[2]) as f:
        base = json.load(f)

    failures = []
    if not fresh.get("deterministic", False):
        failures.append("fresh run was not deterministic vs serial")

    fresh_methods = methods_by_name(fresh)
    for name, b in methods_by_name(base).items():
        ratchet = RATCHET_FLOORS.get(name)
        if ratchet is not None and b["sensing_points_per_sec"] < ratchet:
            failures.append(
                f"{name}: committed baseline sensing_points_per_sec"
                f" {b['sensing_points_per_sec']:.1f} < ratchet floor"
                f" {ratchet:.1f} - a slower baseline must not be re-committed"
            )
        m = fresh_methods.get(name)
        if m is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        floor = b["sensing_points_per_sec"] / 2.0
        got = m["sensing_points_per_sec"]
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"{name:10s} sensing_points_per_sec {got:14.1f}"
            f" (baseline {b['sensing_points_per_sec']:14.1f},"
            f" floor {floor:14.1f}) {status}"
        )
        if got < floor:
            failures.append(
                f"{name}: sensing_points_per_sec {got:.1f} < floor {floor:.1f}"
            )

        base_fp = b.get("behavior_fingerprint")
        fresh_fp = m.get("behavior_fingerprint")
        if not base_fp:
            failures.append(f"{name}: baseline lacks a behavior_fingerprint")
        if not fresh_fp:
            failures.append(f"{name}: fresh run lacks a behavior_fingerprint")
        same_mode = fresh.get("quick") == base.get("quick")
        if base_fp and fresh_fp and same_mode:
            fp_status = "ok" if fresh_fp == base_fp else "DRIFT"
            print(
                f"{name:10s} behavior_fingerprint {fresh_fp}"
                f" (baseline {base_fp}) {fp_status}"
            )
            if fresh_fp != base_fp:
                failures.append(
                    f"{name}: behavior fingerprint {fresh_fp} != baseline"
                    f" {base_fp} - simulated behavior drifted"
                )

    # Redundancy ratchet: both artifacts must carry the "Ours-redundancy"
    # row (a fresh run missing a baseline row already failed above), and the
    # fresh reduction must stay above the floor.
    if "Ours-redundancy" not in methods_by_name(base):
        failures.append("Ours-redundancy: missing from baseline")
    red = fresh_methods.get("Ours-redundancy")
    plain = fresh_methods.get("Ours")
    if red is not None and plain is not None:
        offered_red = red["uplink_offered_bytes_per_frame"]
        offered_plain = plain["uplink_offered_bytes_per_frame"]
        ratio = offered_plain / offered_red if offered_red > 0.0 else 0.0
        status = "ok" if ratio >= REDUNDANCY_REDUCTION_FLOOR else "REGRESSION"
        print(
            f"redundancy offered-bytes reduction {ratio:.2f}x"
            f" (floor {REDUNDANCY_REDUCTION_FLOOR:.1f}x) {status}"
        )
        if ratio < REDUNDANCY_REDUCTION_FLOOR:
            failures.append(
                f"redundancy reduction {ratio:.2f}x <"
                f" {REDUNDANCY_REDUCTION_FLOOR:.1f}x floor - the"
                " coverage-feedback/delta uplink stopped earning its bytes"
            )

    for msg in failures:
        print(f"check_bench: FAIL - {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
