#!/usr/bin/env python3
"""Runs ablation_bitmap --json and validates BENCH_ablation_bitmap.json.

Usage: check_bench_ablation_bitmap_json.py [--run ABLATION_BITMAP_BINARY] FILE

With --run, the binary is first run with --json in the current directory
(PSMR_CMDS defaults to 4000 there, a smoke-sized run) and must exit 0.

Checks FILE:
  * parses as a JSON object with bench == "ablation_bitmap" and a host
    record (nproc, cpu, build_type);
  * every section (bitmap_size_sweep, dense_vs_merge, scan_vs_index) is a
    non-empty list of objects carrying its fields, with positive rates.

Exit status 0 when the file validates; 1 otherwise, with one line per
problem on stderr. Stdlib only.
"""

import json
import os
import subprocess
import sys

SECTIONS = {
    "bitmap_size_sweep": {"bits", "kcmds_per_sec", "paper_dense_kcmds_per_sec",
                          "analytic_fp_rate", "detected_conflict_fraction",
                          "avg_graph_size"},
    "dense_vs_merge": {"bits", "batch_size", "dense_and_ns", "probe_ns", "merge_ns",
                       "dense_bytes", "position_bytes"},
    "scan_vs_index": {"mode", "index", "kcmds_per_sec", "pair_tests_per_batch",
                      "monitor_utilization", "avg_graph_size"},
}
POSITIVE = ("kcmds_per_sec", "paper_dense_kcmds_per_sec", "dense_and_ns", "probe_ns",
            "merge_ns")


def check(path):
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict) or doc.get("bench") != "ablation_bitmap":
        return [f"{path}: not an ablation_bitmap export"]
    host = doc.get("host")
    if not isinstance(host, dict) or not {"nproc", "cpu", "build_type"} <= host.keys():
        problems.append(f"{path}: missing host record")
    for name, fields in SECTIONS.items():
        rows = doc.get(name)
        if not isinstance(rows, list) or not rows:
            problems.append(f"{path}: section {name} missing or empty")
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"{path}: {name}[{i}] is not an object")
                continue
            missing = fields - row.keys()
            if missing:
                problems.append(f"{path}: {name}[{i}] lacks {sorted(missing)}")
            for key in POSITIVE:
                if key in row and not (isinstance(row[key], (int, float)) and row[key] > 0):
                    problems.append(f"{path}: {name}[{i}].{key} = {row[key]!r}")
    return problems


def main(argv):
    args = argv[1:]
    if len(args) == 3 and args[0] == "--run":
        env = dict(os.environ)
        env.setdefault("PSMR_CMDS", "4000")
        run = subprocess.run([args[1], "--json"], env=env, stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"{args[1]} --json exited {run.returncode}", file=sys.stderr)
            return 1
        args = args[2:]
    if len(args) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    problems = check(args[0])
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
