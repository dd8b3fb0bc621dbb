"""Run the benchmark over several seeds and print each metric's spread.

    python3 benchmarks/spread.py --workloads fd-checks exact-checks dsl-eval \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 [--trace 1]

For every workload and metric: the median and quartiles of the runs
(statistics.quantiles, n=4), and the quartile distance as a share of the
median.  Runs go one at a time, seeds in the outer loop.  Each run's result
line is appended to benchmarks/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.jsonl"), "a",
              encoding="utf-8") as log:
        for seed in args.seeds:
            for workload in args.workloads:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                results[workload].append(result)
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
                log.flush()

    for workload, runs in results.items():
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct "
              f"{all(r['correct'] for r in runs)}, failed share "
              f"{sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else 0.0
            print(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
