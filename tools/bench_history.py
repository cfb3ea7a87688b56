#!/usr/bin/env python3
"""Append the median of several perfbench runs to the benchmark history.

    for i in 1 2 3 4 5; do
      python3 perfbench/run.py --workload surface-sweep --seed 2023 > run$i.txt
    done
    python3 tools/bench_history.py --pr N --workload surface-sweep \\
        --seed 2023 run1.txt run2.txt run3.txt run4.txt run5.txt

Each FILE is one perfbench stdout (stdin when no FILE is given), and its
final line is the JSON object {"correct", "attempted", "failed",
"metrics"}.  One record {"pr", "commit", "workload", "seed", "runs",
"metrics"} is appended to BENCH_history.jsonl, where each metric is
{"median", "iqr", "runs", "unit"} over the runs that report it (the IQR is
the distance between the inclusive quartiles, 0 for one run).  An output
that does not end with a perfbench result, or a run that failed its own
checks, is refused and nothing is appended.  The commit defaults to
`git describe --always --dirty`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def result(text, name):
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        doc = json.loads(lines[-1])
        metrics = doc["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        sys.exit("bench_history: %s does not end with a perfbench result" % name)
    if doc.get("correct") is not True or doc.get("failed", 0) != 0:
        sys.exit("bench_history: %s is a run that failed its checks" % name)
    return metrics


def summary(values):
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return statistics.median(values), iqr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--commit")
    ap.add_argument("--history", default="BENCH_history.jsonl")
    ap.add_argument("files", nargs="*", metavar="FILE")
    args = ap.parse_args()
    if args.files:
        runs = []
        for path in args.files:
            with open(path) as f:
                runs.append(result(f.read(), path))
    else:
        runs = [result(sys.stdin.read(), "stdin")]
    metrics = {}
    for run in runs:
        for name, m in run.items():
            entry = metrics.setdefault(name, {"values": [], "unit": m.get("unit")})
            entry["values"].append(m["value"])
    for name, entry in metrics.items():
        median, iqr = summary(entry["values"])
        metrics[name] = {"median": median, "iqr": iqr, "runs": len(entry["values"]),
                         "unit": entry["unit"]}
    commit = args.commit or subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=True).stdout.strip()
    record = {"pr": args.pr, "commit": commit, "workload": args.workload,
              "seed": args.seed, "runs": len(runs), "metrics": metrics}
    with open(args.history, "a") as f:
        f.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
