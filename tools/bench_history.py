#!/usr/bin/env python3
"""Append one perfbench run to the benchmark history.

    python3 perfbench/run.py --workload surface-sweep --seed 2023 > run.txt
    python3 tools/bench_history.py --pr N --workload surface-sweep \\
        --seed 2023 < run.txt

Reads perfbench's stdout on stdin, takes its final line (the JSON object
{"correct", "attempted", "failed", "metrics"}) and appends one record
{"pr", "commit", "workload", "seed", "metrics"} to BENCH_history.jsonl.
The commit defaults to `git describe --always --dirty`.
"""

import argparse
import json
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--commit")
    ap.add_argument("--history", default="BENCH_history.jsonl")
    args = ap.parse_args()
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        sys.exit("bench_history: stdin does not end with a perfbench result")
    commit = args.commit or subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=True).stdout.strip()
    record = {"pr": args.pr, "commit": commit, "workload": args.workload,
              "seed": args.seed, "metrics": metrics}
    with open(args.history, "a") as f:
        f.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
