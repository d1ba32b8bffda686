#!/usr/bin/env python3
"""The repository benchmark: build, run, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/ (and the erpd libraries it links) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload (or every workload with --workload all), checks the behaviour
fingerprints, prints a human-readable block and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, and a layer table follows
the block. Exits 0 only when every run was correct. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run lasts about --seconds (at least two cycles); this only stops a stuck
# one, and keeps every run under three minutes.
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    # Compiler scratch files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, env=env)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=log, stderr=log, env=env)
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def check_runs(doc, pins):
    """Count failed runs. Every run of one episode must reproduce the same
    fingerprint (the first 1-worker run's when there is one), and, when
    pins are given, the pinned one."""
    runs = doc["runs"]
    expected_frames = doc["frames_per_episode"]
    ref = dict(enumerate(pins)) if pins is not None else {}
    for serial_first in (True, False):
        for r in runs:
            if not r["error"] and (r["workers"] == 1 or not serial_first):
                ref.setdefault(r["episode"], r["fingerprint"])
    failed = 0
    problems = []
    for r in runs:
        ep = r["episode"]
        if r["error"]:
            problems.append(f"episode {ep} threw: {r['error']}")
        elif r["fingerprint"] != ref[ep]:
            problems.append(
                f"episode {ep} at {r['workers']} worker(s): fingerprint "
                f"{r['fingerprint']} != {ref[ep]}")
        elif r["frames"] != expected_frames:
            problems.append(f"episode {ep}: {r['frames']} frames, "
                            f"expected {expected_frames}")
        else:
            continue
        failed += 1
    return failed, problems


def pick_metrics(doc, spec, trace):
    source = doc["layers"] if trace else doc["e2e"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        v = source.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {m['name']} missing or not finite: {v}")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return metrics, problems


def print_block(doc, spec, metrics, trace, failed, problems):
    w = doc["workload"]
    print(f"== {w}  seed {doc['seed']}  {doc['workers']} workers  "
          f"{doc['episodes']} episodes x {doc['frames_per_episode']} frames  "
          f"{doc['cycles']} cycles  clients {doc['episode_clients']}")
    if not trace:
        for m in spec["end_to_end"]:
            if m["name"] in metrics:
                print(f"  {m['name']:<18} {metrics[m['name']]['value']:>12.4f}"
                      f"  {m['unit']}")
        print(f"  frame samples {doc['frame_samples']}, "
              f"{doc['frame_samples_above_p95']} above p95; "
              f"set-up samples {doc['setup_samples']}")
    for k, v in doc["sim"].items():
        print(f"  {k:<18} {v:>12.4f}  ms (simulated, not host time)")
    print(f"  runs attempted {len(doc['runs'])}, failed {failed}")
    for p in problems:
        print(f"  FAIL {p}")


def print_layer_table(doc, spec, layers):
    """One row per layer metric: its layer and source, value, share of the
    traced frame p50 (ms rows), and the end-to-end metric it should move."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    p50 = doc["traced_frame_ms_p50"]
    vals = doc["layers"]
    print(f"  layer table (traced frame p50 {p50:.3f} ms, "
          f"mean {doc['traced_frame_ms_mean']:.3f} ms; Σ rows are summed "
          f"over vehicles and may exceed the frame)")
    print(f"  {'layer':<20} {'src':<7} {'metric':<38} {'value':>11} "
          f"{'unit':<10} {'share':>7}  should move")
    for name, info in layers["metrics"].items():
        v = vals[name]
        share = ""
        if units.get(name) == "ms" and p50 > 0:
            share = f"{100.0 * v / p50:6.1f}%"
        print(f"  {info['layer']:<20} {info['src']:<7} {name:<38} {v:>11.4f} "
              f"{units.get(name, ''):<10} {share:>7}  {info['moves']}")
    if vals.get("edge.other_ms_per_frame", 0.0) < 0.0:
        print("  MEASUREMENT ERROR: edge.other_ms_per_frame is negative")


def run_workload(binary, spec, pins, layers, workload, seed, seconds, trace,
                 frames=None, episodes=None):
    """Run one workload and check it. `frames`/`episodes` shorten the run
    (self-check); pins apply only to full-length episodes."""
    extra = []
    if frames:
        extra += ["--frames", str(frames)]
    if episodes:
        extra += ["--episodes", str(episodes)]
    doc = run_binary(binary, workload, seed, seconds, trace, extra)
    wl_pins = None
    if frames is None and seed == pins["seed"]:
        wl_pins = pins["workloads"][workload][:doc["episodes"]]
    failed, problems = check_runs(doc, wl_pins)
    if trace and doc["direct_error"]:
        problems.append(f"direct-call sample: {doc['direct_error']}")
    metrics, metric_problems = pick_metrics(doc, spec, trace)
    problems += metric_problems
    print_block(doc, spec, metrics, trace, failed, problems)
    if trace:
        print_layer_table(doc, spec, layers)
    return {"correct": not problems, "attempted": len(doc["runs"]),
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(HERE, "fingerprints.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        sys.exit(f"run.py: unknown workload {args.workload}; one of {names}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    results = []
    for w in todo:
        try:
            res = run_workload(binary, spec, pins, layers, w, args.seed,
                               seconds, args.trace)
        except (OSError, subprocess.SubprocessError, ValueError) as e:
            sys.exit(f"run.py: {w}: {e}")
        results.append(res)

    if len(results) == 1:
        out = results[0]
    else:
        out = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": {f"{w}.{k}": v for w, r in zip(todo, results)
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
