"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload t3_random --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters
(``worker.py``): five that only set up, to time set-up, and one that sets
up, runs whole rounds of the workload for ``--seconds``, and checks every
output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("t3_random", "t5_wide", "t6_shots", "served")

#: Set-up-only interpreters per run; with the measuring one, set-up is
#: timed this many times plus one and the median reported.
SETUP_PROBES = 5
#: No run may take longer than this.
RUN_TIMEOUT_S = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the names and units of the metrics a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def start_worker(args, setup_only: bool) -> "tuple[subprocess.Popen, float]":
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, started


def descendants(pid: int) -> list:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                for child in handle.read().split():
                    found += [int(child)] + descendants(int(child))
    except OSError:
        pass
    return found


def kill(proc: subprocess.Popen) -> None:
    """Kill a worker and whatever it started (the server on ``served``)."""
    for pid in descendants(proc.pid) + [proc.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.communicate()


def wait_ready(proc: subprocess.Popen, started: float, deadline: float) -> float:
    """Seconds from interpreter start to the worker's READY line."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "READY":
        kill(proc)
        raise RuntimeError(f"worker did not get ready (got {line!r})")
    if time.perf_counter() > deadline:
        kill(proc)
        raise RuntimeError("set-up ran past the run's deadline")
    return time.perf_counter() - started


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        kill(proc)
        raise RuntimeError("worker ran past the run's deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro beside perfbench/; run it from a "
                         "checkout of the repository\n")
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, started = start_worker(args, setup_only=True)
            setups.append(wait_ready(proc, started, deadline))
            finish(proc, deadline)
    proc, started = start_worker(args, setup_only=False)
    setups.append(wait_ready(proc, started, deadline))
    lines = finish(proc, deadline).strip().splitlines()
    result = json.loads(lines[-1])

    errors = result.get("errors", [])
    for error in errors:
        sys.stderr.write(f"perfbench: check failed: {error}\n")
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    wanted = load_spec()["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"] for metric in wanted}
    unknown, missing = set(metrics) - names, names - set(metrics)
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"worker metrics differ from BENCHMARK.json: unknown "
                           f"{sorted(unknown)}, missing {sorted(missing)}")
    # A layer the workload does not reach (the service layer off served) reads 0.
    report = {metric["name"]: {"value": metrics.get(metric["name"], 0.0),
                               "unit": metric["unit"]} for metric in wanted}
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
