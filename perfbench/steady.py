"""Steadiness command: run one workload N times and show each metric's spread.

    python3 perfbench/steady.py --workload t3_random --runs 10

Each run is ``run.py`` with its own seed, 1 to N, for ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the spread
``(Q3 - Q1) / median`` and that spread as a share of the metric's bound in
``BENCHMARK.json``.  The bounds are set from this output: each spread other
than ``setup_s``'s should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, load_spec


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs = []
    for seed in range(1, args.runs + 1):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: run failed with exit code {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["run_s"] = time.perf_counter() - started
        result["log"] = out.stderr.strip().splitlines()[-5:]
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        rounds = [line for line in result["log"] if line.startswith("rounds:")]
        print(f"seed {seed}: {result['run_s']:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values} "
              f"{' '.join(rounds)}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, {seconds} s each")
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>7}"
          f"{'spread/bound':>14}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        mid, q1, q3, s = spread(values)
        print(f"{name:<14}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.4f}{metric['bound']:>7.2f}"
              f"{s / metric['bound']:>14.3f}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(run['correct'] for run in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
