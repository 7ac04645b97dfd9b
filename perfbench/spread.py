#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload churn-window --seeds 1-10
    python3 perfbench/spread.py --workload deep-drift --seeds 1,2 --trace 1 --save perfbench/results

Run from the repository root. For every metric it prints the median over
the runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, the figure the end-to-end bounds in BENCHMARK.json are set
against. With ``--save DIR`` each run's standard output is kept as
``DIR/<workload>-seed<seed>-trace<0|1>.out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        t = time.time()
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().split("\n")
        result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
        ok &= run.returncode == 0 and result is not None and result["correct"]
        print(f"seed {seed}: exit {run.returncode}, {time.time() - t:.1f} s, "
              f"correct={result and result['correct']}", flush=True)
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            name = f"{args.workload}-seed{seed}-trace{args.trace}.out"
            with open(os.path.join(args.save, name), "w") as f:
                f.write(run.stdout)
        for name, m in (result or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        line = f"{name:34s} median {med:14.4f}"
        if len(xs) >= 2 and med:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / abs(med)
            line += f"  spread {spread:7.4f}"
            if name in bounds:
                line += f"  bound {bounds[name]:.2f}  ({spread / bounds[name]:.2f} of it)"
        print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
