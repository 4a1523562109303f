#!/usr/bin/env python3
"""Steadiness runner: how much does each metric move between runs?

Run from the repository root:

    python3 perfbench/steady.py --rounds 10 [--workloads a,b] [--seconds N] [--trace 0|1]

Each round runs every workload once, interleaved (round 1: a, b, c;
round 2: a, b, c; ...), each round with its own seed, so slow phases of
the machine spread over all workloads instead of landing on one. It then
prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the relative spread
(Q3 - Q1) / median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and flags any spread above a third of it. The raw results
go to .bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    units = {}
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "steady.jsonl"), "a") as log:
        for r in range(args.rounds):
            seed = args.first_seed + r
            for w in workloads:
                res = run_once(w, seed, args.seconds, args.trace)
                log.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": res}) + "\n")
                log.flush()
                if not res["correct"] or res["failed"]:
                    print(f"!! {w} seed {seed}: correct={res['correct']} failed={res['failed']}", flush=True)
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            print(f"round {r + 1}/{args.rounds} done (seed {seed})", file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  unit")
    for w in workloads:
        for name in sorted(values[w]):
            xs = values[w][name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            b = f"{bound:6.3g}" if bound is not None else "     -"
            print(f"{w:14} {name:30} {med:14.5g} {q1:14.5g} {q3:14.5g} {spread:8.4f} {b}  {units[name]}{flag}")


if __name__ == "__main__":
    main()
