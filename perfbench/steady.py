#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload N times at BENCHMARK.json's run_seconds and full size,
each run with its own seed, and prints for every end-to-end metric the
median, the quartiles and the spread (interquartile distance as a share of
the median) next to the metric's bound, with the share of failed operations.
Quartiles are `statistics.quantiles(values, n=4)`.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--workload NAME ...]
                                [--save FILE] [--compare FILE]

Run it from the repository root. Every metric, `setup_s` included, is judged:
a spread under a third of its bound is `ok`, one under the bound is `wide`,
and one at or over the bound is `OVER` and makes the command exit 1.
`--save` writes each workload's medians and failed share to FILE;
`--compare` reads such a file from an earlier set and also exits 1 when a
median is worse than the earlier one by more than the metric's bound, or the
failed share differs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1])


def verdict(spread, bound):
    if spread < bound / 3:
        return "ok"
    return "wide" if spread < bound else "OVER"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--save")
    parser.add_argument("--compare")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    earlier = {}
    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    passed = True
    summary = {}
    for workload in workloads:
        results = []
        for i in range(opts.runs):
            seed = opts.seed_base + i
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed  {values}", file=sys.stderr)
        passed &= all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary[workload] = {"failed_share": shares, "medians": {}}
        before = earlier.get(workload)
        print(f"\n{workload}: {opts.runs} runs, failed share "
              f"{', '.join(f'{s:.6f}' for s in shares)}")
        if before is not None and before["failed_share"] != shares:
            print(f"  failed share differs from the earlier set's {before['failed_share']}")
            passed = False
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'verdict':>7}" + (f" {'vs earlier':>11}" if before else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload]["medians"][name] = med
            row = verdict(spread, bound)
            passed &= row != "OVER"
            line = (f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} "
                    f"{bound:>6.2f} {row:>7}")
            if before is not None:
                change = med / before["medians"][name] - 1
                worse = change if metric["better"] == "lower" else -change
                line += f" {change:>+10.1%}" + ("  WORSE" if worse > bound else "")
                passed &= worse <= bound
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
