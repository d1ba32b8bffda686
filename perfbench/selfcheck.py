#!/usr/bin/env python3
"""Short self-check of the benchmark (under a minute on 4 cores).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

For every workload:
  - seed 1, two full-length episodes: the fingerprints equal the pinned
    ones in perfbench/fingerprints.json, at nproc and at 1 worker;
  - seed 2, two 8-frame episodes: every run of episode 0 reproduces its
    1-worker fingerprint (the determinism contract);
  - seed 2, traced, two 8-frame episodes: likewise, through the traced path.
Each check also asserts that every metric BENCHMARK.json names for that
mode is present and finite. Exits non-zero on the first failure.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module)


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    pins = run.load_json(os.path.join(run.HERE, "fingerprints.json"))
    layers = run.load_json(os.path.join(run.HERE, "layers.json"))
    binary = run.build()
    checks = [
        # (seed, trace, frames, what)
        (pins["seed"], 0, None, "pinned fingerprints"),
        (2, 0, 8, "nproc == 1 worker"),
        (2, 1, 8, "traced path"),
    ]
    for w in (x["name"] for x in spec["workloads"]):
        for seed, trace, frames, what in checks:
            res = run.run_workload(binary, spec, pins, layers, w, seed, 0.1,
                                   trace, frames=frames, episodes=2)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in wanted
                       if m["name"] not in res["metrics"]]
            if not res["correct"] or res["failed"] or missing:
                sys.exit(f"selfcheck: {w} seed {seed} ({what}) FAILED: "
                         f"failed runs {res['failed']}, missing {missing}")
            print(f"selfcheck: {w} seed {seed} ({what}): ok, "
                  f"{res['attempted']} runs")
    print("selfcheck: OK")


if __name__ == "__main__":
    main()
