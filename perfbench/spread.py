#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed this runs the command in BENCHMARK.json (from
the repository root, one run at a time), checks that the last line of
output is a correct result carrying exactly the metrics BENCHMARK.json
declares for the trace mode, and prints per metric the median and the
quartile spread (q3 - q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them, beside the metric's bound.
A time metric that reads the same on every run is flagged.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads population --seeds 1-5 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

TIME_UNITS = {"s", "ms", "us", "ns"}


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every run's metrics here as JSON")
    args = ap.parse_args()

    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    names = [m["name"] for m in declared]
    bounds = {m["name"]: m.get("bound") for m in declared}
    runs = {}
    ok = True
    for w in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            took = time.monotonic() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            try:
                result = json.loads(last)
            except ValueError:
                result = None
            if p.returncode != 0 or not result or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}")
                ok = False
                continue
            got = list(result["metrics"])
            if sorted(got) != sorted(names):
                print(f"{w} seed {seed}: metric set differs from BENCHMARK.json: {got}")
                ok = False
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(w, []).append({"seed": seed, "seconds": took, **values})
            print(f"{w} seed {seed}: {took:.1f} s " +
                  " ".join(f"{k}={values[k]:.6g}" for k in names if k in values), flush=True)

    for w, rows in runs.items():
        print(f"\n{w}: {len(rows)} runs, {max(r['seconds'] for r in rows):.1f} s longest")
        for m in declared:
            vals = [r[m["name"]] for r in rows if m["name"] in r]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds[m["name"]]
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  over a third of bound"
            if m["unit"] in TIME_UNITS and len(set(vals)) == 1:
                flag += "  SAME ON EVERY RUN"
            print(f"  {m['name']:<32} median {med:<14.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
