"""Run one workload N times and print each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload service-session --runs 10 \
        --first-seed 1 --seconds 10

Each run is a separate ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...).  For every metric it prints
the median, the first and third quartiles (``statistics.quantiles``,
n=4) and the spread: the interquartile distance as a share of the
median.  This is the figure the bounds in ``BENCHMARK.json`` are set
from, and the one to quote with any later performance claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(results: list[dict]) -> dict[str, dict]:
    """Median, quartiles and spread of every metric over ``results``."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0,
        }
    return summary


def main(argv=None) -> int:
    """Run the repetitions and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            print(completed.stdout[-2000:], completed.stderr[-4000:],
                  file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    summary = summarize(results)
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7}  unit")
    for name, row in summary.items():
        print(f"{name:34} {row['median']:11.4g} {row['q1']:11.4g} "
              f"{row['q3']:11.4g} {row['spread']:7.3f}  {row['unit']}")
    failed_share = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed_share)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
