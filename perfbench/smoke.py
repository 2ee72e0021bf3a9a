#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a short length.

    python3 perfbench/smoke.py [--seconds 2]

Asserts, for each workload of BENCHMARK.json:
  * the untraced run prints every end-to-end metric, and the traced run every
    per-layer metric, each with the unit BENCHMARK.json gives it;
  * the correctness gate passes and answered_frac is 1.0;
  * the traced run's stage means add up to its mean batch latency within the
    tolerance its report states, and the report names the bottleneck stage;
  * on the closed-loop workloads, peak_rss_mb does not change with run length.
Exits non-zero on the first failed assertion.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The traced report's stage-sum line and bottleneck line.
STAGE_SUM = re.compile(r"sum of stages .*, tolerance ([0-9.e+-]+)\)")
BOTTLENECK = re.compile(r"bottleneck: (\S+) ")
# peak_rss_mb of a run LENGTH_FACTOR times longer may differ by at most this.
RSS_TOLERANCE = 0.03
LENGTH_FACTOR = 3


def run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines,
          f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr[-4000:]}")
    return lines, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_metrics(workload, result, specs):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        check(got is not None, f"{workload}: metric {spec['name']} missing")
        check(got["unit"] == spec["unit"],
              f"{workload}: {spec['name']} unit {got['unit']} != {spec['unit']}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    check(not extra, f"{workload}: unlisted metrics {sorted(extra)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in (x["name"] for x in spec["workloads"]):
        _, plain = run(w, args.seconds, 0)
        check(plain["correct"], f"{w}: correctness gate failed")
        check_metrics(w, plain, spec["end_to_end"])
        check(plain["metrics"]["answered_frac"]["value"] == 1.0, f"{w}: answered_frac < 1")

        lines, traced = run(w, args.seconds, 1)
        check(traced["correct"], f"{w}: traced correctness gate failed")
        check_metrics(w, traced, spec["per_layer"])
        sums = [x for x in map(STAGE_SUM.search, lines) if x]
        check(len(sums) == 1, f"{w}: no stage-sum line")
        tolerance = float(sums[0].group(1))
        gap = traced["metrics"]["trace.stage_sum_gap_frac"]["value"]
        check(gap <= tolerance, f"{w}: stage gap {gap} above the stated tolerance {tolerance}")
        tops = [x.group(1) for x in map(BOTTLENECK.match, lines) if x]
        check(len(tops) == 1 and tops[0] in traced["metrics"], f"{w}: no bottleneck line")
        print(f"ok {w}: {plain['metrics']['throughput_kcmds']['value']:.1f} kcmd/s, "
              f"stage gap {gap:.2e} (tolerance {tolerance}), bottleneck {tops[0]}")

        if not spec_open_loop(w):
            _, longer = run(w, args.seconds * LENGTH_FACTOR, 0)
            a = plain["metrics"]["peak_rss_mb"]["value"]
            b = longer["metrics"]["peak_rss_mb"]["value"]
            check(abs(b - a) / a <= RSS_TOLERANCE,
                  f"{w}: peak_rss_mb {a:.2f} MB at {args.seconds} s but {b:.2f} MB at "
                  f"{args.seconds * LENGTH_FACTOR} s")
            print(f"ok {w}: peak_rss_mb {a:.2f} / {b:.2f} MB at {args.seconds} / "
                  f"{args.seconds * LENGTH_FACTOR} s")
    print("smoke: all checks passed")


def spec_open_loop(workload):
    # The open-loop workload's acceptor log grows with run length (README.md).
    return workload == "paxos-ckpt"


if __name__ == "__main__":
    main()
