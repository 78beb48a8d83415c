#!/usr/bin/env python3
"""Write a BENCH file: medians of repeated perfbench runs, per workload.

Typical run (from the repository root):

    python scripts/bench.py --out BENCH_<n>.json

For every workload declared in BENCHMARK.json this runs
`perfbench/run.py --trace 0` once per seed in SEEDS and `--trace 1` once
(at the first seed), each in a fresh process,
unchanged and for the run_seconds of BENCHMARK.json, and reads the JSON
object on the last line of each run.  The BENCH file
holds, per workload, the end-to-end metrics as [lower quartile, median,
upper quartile, unit] (the layout of perfbench/baseline.json) with every
run's value, the per-layer metrics of the traced run, whether every op
passed its output checks, and nproc, seeds and run length.  The script then
prints each end-to-end median beside the median of --compare (a BENCH file
or perfbench/baseline.json, the default) and exits 1 if any run failed.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)      # one --trace 0 run per seed; fixed so BENCH files compare


def run(workload, seed, seconds, trace):
    """One perfbench run in a fresh process: its closing JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def bench(workload, seeds, seconds):
    timed = [run(workload, s, seconds, 0) for s in seeds]
    traced = run(workload, seeds[0], seconds, 1)
    end_to_end = {}
    for name, entry in timed[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in timed]
        end_to_end[name] = quartiles(values) + [entry["unit"]]
    return {
        "correct": all(r["correct"] for r in timed + [traced]),
        "end_to_end": end_to_end,
        "runs": {name: [r["metrics"][name]["value"] for r in timed]
                 for name in end_to_end},
        "per_layer": {name: entry["value"]
                      for name, entry in traced["metrics"].items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH file to write")
    ap.add_argument("--compare", default="perfbench/baseline.json",
                    help="BENCH or baseline file to compare with")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    seeds = list(SEEDS)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    result = {
        "about": f"medians (and quartiles) of {len(seeds)} perfbench "
                 f"--trace 0 runs per workload, seeds {seeds[0]}-{seeds[-1]}, "
                 f"{seconds:g} s each, and the per-layer metrics of one "
                 f"--trace 1 run at seed {seeds[0]}; times in reference "
                 "seconds",
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "seconds": seconds,
        "workloads": {},
    }
    for w in declared["workloads"]:
        print(f"running {w['name']} ...", flush=True)
        result["workloads"][w["name"]] = bench(w["name"], seeds, seconds)
    (ROOT / args.out).write_text(json.dumps(result, indent=1) + "\n")

    previous = json.loads((ROOT / args.compare).read_text())["workloads"]
    print(f"\n{'workload':<14} {'metric':<14} {args.compare:>24} "
          f"{args.out:>14} {'change':>8}")
    for name, wl in result["workloads"].items():
        for metric, (_, median, _, unit) in wl["end_to_end"].items():
            before = previous.get(name, {}).get("end_to_end", {}).get(metric)
            if before is None:
                print(f"{name:<14} {metric:<14} {'-':>24} {median:>14.6g}")
                continue
            change = median / before[1] - 1 if before[1] else 0.0
            sign = -1 if better[metric] == "lower" else 1
            verdict = "better" if sign * change > 0 else (
                "worse" if sign * change < 0 else "same")
            print(f"{name:<14} {metric:<14} {before[1]:>24.6g} "
                  f"{median:>14.6g} {change:>+8.1%} {verdict} ({unit})")
    failed = [n for n, wl in result["workloads"].items() if not wl["correct"]]
    if failed:
        print("runs with failed ops: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
