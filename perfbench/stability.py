#!/usr/bin/env python3
"""Stability evidence for the benchmark: two interleaved sets of runs.

    python3 perfbench/stability.py --runs 10 --seconds 10 --out stability.json

For every round and workload, one run of set A and one of set B are made back
to back, alternating which goes first, each with its own seed. Host phases
last minutes, so interleaving lets both sets see the same phases; sets run
one after the other would mostly compare host phases. For each end-to-end
metric of BENCHMARK.json it prints, per workload, each set's median and its
spread (the distance between the first and third quartile over the median,
as statistics.quantiles gives them) and the gap between the two medians, and
flags any spread or gap above the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    host = json.loads(lines[0].split(":", 1)[1]) if lines[0].startswith("host:") else {}
    return result, host


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--seed-base", type=int, default=1000,
                    help="set A uses seeds base+2i, set B base+2i+1")
    ap.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = args.seed_base + 2 * i + (0 if s == "A" else 1)
                result, host = run_once(w, seed, seconds)
                if not result["correct"]:
                    raise SystemExit(f"{w} seed {seed}: correctness gate failed")
                runs[w][s].append({"seed": seed, "host": host, "result": result})
                print(f"round {i} {w} set {s} seed {seed} wake_p99_us "
                      f"{host.get('wake_p99_us')}", file=sys.stderr, flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':18} {'median A':>12} {'spread A':>9} {'median B':>12} "
              f"{'spread B':>9} {'B vs A':>8} {'bound':>6}")
        for name, m in bounds.items():
            vals = {s: [r["result"]["metrics"][name]["value"] for r in runs[w][s]]
                    for s in ("A", "B")}
            med = {s: statistics.median(v) for s, v in vals.items()}
            spr = {s: spread(v) for s, v in vals.items()}
            sign = 1.0 if m["better"] == "lower" else -1.0
            gap = sign * (med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
            flag = ""
            if max(spr.values()) > m["bound"]:
                flag += " spread>bound"
            elif max(spr.values()) > m["bound"] / 3:
                flag += " spread>bound/3"
            if abs(gap) > m["bound"]:
                flag += " gap>bound"
            worst = max(worst, max(spr.values()) / m["bound"])
            print(f"  {name:18} {med['A']:12.5g} {spr['A']:9.4f} {med['B']:12.5g} "
                  f"{spr['B']:9.4f} {gap:+8.4f} {m['bound']:6.3f}{flag}")
    print(f"\nlargest spread as a share of its bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
