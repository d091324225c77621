#!/usr/bin/env python3
"""Tiny-size smoke of every workload, untraced and traced.

For each workload in BENCHMARK.json, and for service_mix, this runs the
perfbench binary at a small --scale for about a second and asserts that:

  * it exits 0 with a correct result,
  * the last stdout line is the result object with exactly the metric
    names BENCHMARK.json lists (end_to_end untraced, per_layer traced),
    each with its declared unit,
  * every share that is a ratio of counts (dispatch.*, service.*,
    prefetch.*, tlb.*) lies in [0, 1],
  * every metric is also printed as a "metric <name> <value> <unit>"
    line.

Usage: smoke.py --binary PATH --benchmark-json PATH --work-dir DIR
"""

import argparse
import json
import math
import subprocess
import sys

COUNT_SHARES = ("dispatch.", "service.", "prefetch.", "tlb.")
UNGATED = ["service_mix"]


def run_one(args, bench, workload, trace):
    expected = bench["per_layer" if trace else "end_to_end"]
    cmd = [args.binary, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "0.02",
           "--work-dir", args.work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        return [f"last line is not JSON: {err}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics missing {missing} extra {extra}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')} != {m['unit']}")
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']} value {got.get('value')}")
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{m['name']} not printed with its unit")
    # Count ratios are parts of a whole: both sides count one unit.
    for name, got in metrics.items():
        value = got.get("value")
        if got.get("unit") == "share" and name.startswith(COUNT_SHARES) \
                and isinstance(value, (int, float)) \
                and not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} is not a share in [0, 1]")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        bench = json.load(f)
    failed = False
    # service_mix is not a gated workload of BENCHMARK.json (see
    # README.md) but stays runnable, so it is smoked too.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in UNGATED if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            problems = run_one(args, bench, workload, trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
