#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 campaign_bench/spread.py --workload survey --seeds 1-10
    python3 campaign_bench/spread.py --workload resume --seeds 42 --trace 1

Each seed is one run of the command in BENCHMARK.json. For every metric it
prints the median of the runs and the distance between their first and
third quartiles (Python's statistics.quantiles, n=4) as a share of the
median, beside the metric's bound. With --out, it also writes the runs
(with each campaign's stderr line) and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 42,7")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        t = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
        result = json.loads(lines[-1])
        host = next((l for l in lines if l.startswith("#")), "")
        campaigns = [l for l in proc.stderr.splitlines() if l.startswith("campaign ")]
        runs.append({"seed": seed, "wall_s": wall, "host": host,
                     "campaigns": campaigns, "result": result})
        values = " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        )
        print(f"seed {seed} wall {wall:.1f}s failed {result['failed']}/"
              f"{result['attempted']} {values} [{host}]", flush=True)

    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} (third {bound / 3:.4f})"
            print(f"{name}: median {med:.6g} spread {spread:.4f}{note}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
