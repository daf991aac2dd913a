"""One benchmark run in a fresh interpreter.

``run.py`` starts this file.  It sets up (import, input generation, a
warm-up op; for ``served`` also server start and connect), prints ``READY``,
and, unless ``--setup-only``, runs whole rounds of the workload's ops until
``--seconds`` have passed, checks every output, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Where runs leave span files, sockets and server ledgers (git-ignored).
OUT_DIR = ".perfbench-out"

#: The direct workloads' ledger must add up to the traced wall time within
#: this share of it; what is left is the benchmark loop between ops.
LEDGER_TOLERANCE = 0.02
#: On ``served`` each connection must spend at least this share of the
#: round's wall time inside requests (the load is closed-loop).
SERVED_BUSY_FLOOR = 0.95


def emit(obj) -> None:
    sys.stdout.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


def layer_metrics(summary, rounds: int) -> Dict[str, float]:
    """Per-layer metrics from a ledger summary, per traced round."""
    ms = {k: v / 1e6 / rounds for k, v in summary["self_ns"].items()}
    calls = {k: v / rounds for k, v in summary["calls"].items()}
    counts = summary["counts"]
    lookups = counts.get("bdd.ct_lookups", 0)
    return {
        "frontdoor.self_ms": ms.get("frontdoor", 0.0),
        "limits.self_ms": ms.get("limits", 0.0),
        "simulator.self_ms": ms.get("simulator", 0.0),
        "simulator.walk_ms": ms.get("simulator.walk", 0.0),
        "simulator.walks": calls.get("simulator.walk", 0.0),
        "simulator.shrink_ms": ms.get("simulator.shrink", 0.0),
        "simulator.gc_ms": ms.get("simulator.gc", 0.0),
        "simulator.init_ms": ms.get("simulator.init", 0.0),
        "gate_rules.self_ms": ms.get("gate_rules", 0.0),
        "gate_rules.gates": calls.get("gate_rules", 0.0),
        "bdd.kernel_ms": ms.get("bdd.kernel", 0.0),
        "bdd.ct_lookups": lookups / rounds,
        "bdd.ct_hit_ratio": counts.get("bdd.ct_hits", 0) / lookups if lookups else 0.0,
        "bdd.unique_probes": counts.get("bdd.unique_probes", 0) / rounds,
        "bdd.nodes_created": counts.get("bdd.nodes_created", 0) / rounds,
        "bdd.gc_runs": counts.get("bdd.gc_runs", 0) / rounds,
        "bdd.peak_live_nodes": float(counts.get("bdd.peak_live_nodes", 0)),
        "measurement.query_ms": ms.get("measurement", 0.0),
        "sampling.descent_ms": ms.get("sampling.descent", 0.0),
        "sampling.mass_ms": ms.get("sampling.mass", 0.0),
        "sampling.mass_evals": counts.get("sampling.mass_evals", 0) / rounds,
        "sampling.restrict_batches": counts.get("sampling.restrict_batches", 0) / rounds,
        "sampling.distinct_prefixes": counts.get("sampling.distinct_prefixes", 0) / rounds,
        "bdd.satcount_ms": ms.get("bdd.satcount", 0.0),
        "bdd.satcount_calls": calls.get("bdd.satcount", 0.0),
        "cache.result_lookups": counts.get("cache.result_lookups", 0) / rounds,
        "cache.result_hits": counts.get("cache.result_hits", 0) / rounds,
        "cache.prefix_hits": counts.get("cache.prefix_hits", 0) / rounds,
        "cache.prefix_depth": counts.get("cache.prefix_depth", 0) / rounds,
    }


# --------------------------------------------------------------------------- #
# direct workloads: t3_random, t5_wide, t6_shots
# --------------------------------------------------------------------------- #
def run_op(op):
    import repro
    from workloads import LIMITS

    return repro.run(op.circuit, engine="bitslice", limits=LIMITS,
                     shots=op.shots, seed=op.seed)


def direct(args) -> int:
    import workloads

    ops, warmup = workloads.DIRECT[args.workload](args.seed)
    for op in warmup:
        result = run_op(op)
        if result.status != "ok":
            log(f"warm-up op {op.name} failed: {result.status} {result.detail}")
            return 3
    emit("READY")
    if args.setup_only:
        return 0

    ledger = None
    if args.trace:
        from ledger import Ledger
        ledger = Ledger()
        # One untimed round first, so the first untraced round compared
        # against a traced one does not also pay for the process's growth.
        for op in ops:
            run_op(op)
    rounds = []          # (traced, wall_s, [result])
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            ledger.install()
        t0 = time.perf_counter()
        results = [run_op(op) for op in ops]
        wall = time.perf_counter() - t0
        if traced:
            ledger.uninstall()
        rounds.append((traced, wall, results))
        if time.perf_counter() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log("rounds: " + " ".join(f"{wall:.3f}{'T' if traced else ''}"
                              for traced, wall, _ in rounds))

    # ---- checks (untimed) ----
    errors: List[str] = []
    attempted = failed = 0
    peak_sums = []
    for _, _, results in rounds:
        peak = 0
        for op, result in zip(ops, results):
            attempted += 1
            if result.status != "ok":
                failed += 1
                if not workloads.is_known_fault(op, result):
                    errors.append(f"{op.name}: unexpected {result.status}: {result.detail}")
                continue
            peak += result.peak_memory_nodes
            problem = workloads.check_result(op, result)
            if problem:
                errors.append(f"{op.name}: {problem}")
        peak_sums.append(peak)
    if len(set(peak_sums)) != 1:
        errors.append(f"peak-node sums differ between rounds: {peak_sums}")

    out = {"attempted": attempted, "failed": failed}
    untraced = [wall for traced, wall, _ in rounds if not traced]
    if not args.trace:
        out["metrics"] = {
            "wall_s": median(untraced),
            "peak_rss_mb": rss_mb,
            "peak_nodes": float(peak_sums[0]),
        }
    else:
        traced_walls = [wall for traced, wall, _ in rounds if traced]
        metrics = layer_metrics(ledger.summary(), len(traced_walls))
        metrics["trace.overhead_s"] = median(traced_walls) - median(untraced)
        ledger_s = ledger.total_self_ns() / 1e9
        residual = abs(sum(traced_walls) - ledger_s) / sum(traced_walls)
        if residual > LEDGER_TOLERANCE:
            errors.append(f"layer self times sum to {ledger_s:.3f} s against a traced "
                          f"wall of {sum(traced_walls):.3f} s")
        log(f"ledger: self times {ledger_s:.3f} s, traced wall {sum(traced_walls):.3f} s, "
            f"residual {residual:.4f} (tolerance {LEDGER_TOLERANCE})")
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        ledger.write_spans(os.path.join(ROOT, OUT_DIR,
                                        f"spans-{args.workload}-{args.seed}.jsonl"))
        out["metrics"] = metrics
    out["errors"] = errors[:20]
    emit(out)
    return 0


# --------------------------------------------------------------------------- #
# served
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``repro-serve`` with one worker on a unix socket, in its own process."""

    def __init__(self, sock: str, ledger_path: Optional[str] = None):
        cmd = [sys.executable, os.path.join(HERE, "serve.py")]
        if ledger_path:
            cmd += ["--ledger", ledger_path]
        cmd += ["--", "--unix", sock, "--workers", "1", "--queue-depth", "64",
                "--time-limit", "600", "--node-limit", "400000", "--drain-grace", "5"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class KeyTap:
    """Remembers, per thread, the last idempotency key the client drew, so a
    traced round can match its round trips to the server's spans."""

    def __init__(self):
        import repro.service.client as client_mod

        self._mod = client_mod
        self._orig = client_mod.new_idempotency_key
        self._local = threading.local()

        def tapped():
            key = self._orig()
            self._local.key = key
            return key

        client_mod.new_idempotency_key = tapped

    def last(self) -> Optional[str]:
        return getattr(self._local, "key", None)

    def close(self) -> None:
        self._mod.new_idempotency_key = self._orig


def served_round(clients, scripts, tap: Optional[KeyTap]):
    """Run one round of the scripts, one connection each; returns
    (wall_s, per-connection records, per-connection busy seconds, failures)."""
    from workloads import SERVED_SESSION_QUBITS, SERVED_SHOTS

    records: List[list] = [[] for _ in clients]
    busy = [0.0 for _ in clients]
    failures: List[str] = []
    gate = threading.Barrier(len(clients) + 1)

    def drive(c: int) -> None:
        client, script, out = clients[c], scripts[c], records[c]
        sessions: Dict[int, str] = {}
        gate.wait()
        try:
            for request in script:
                t0 = time.perf_counter()
                if request.kind == "append":
                    if request.reopen:
                        if request.slot in sessions:
                            client.close_session(sessions[request.slot])
                        sessions[request.slot] = client.open_session(SERVED_SESSION_QUBITS)
                    t1 = time.perf_counter()
                    result = client.append(sessions[request.slot], request.circuit)
                else:
                    t1 = time.perf_counter()
                    result = client.sample(request.circuit, shots=SERVED_SHOTS,
                                           engine="bitslice", seed=request.seed)
                t2 = time.perf_counter()
                busy[c] += t2 - t0
                out.append((request.kind, t2 - t1, result, tap.last() if tap else None))
            for session in sessions.values():
                t0 = time.perf_counter()
                client.close_session(session)
                busy[c] += time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            failures.append(f"connection {c}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(len(clients))]
    for thread in threads:
        thread.start()
    gate.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    return wall, records, busy, failures


def check_served(scripts, records) -> List[str]:
    import workloads
    from workloads import SERVED_SHOTS

    errors = []
    for script, recs in zip(scripts, records):
        want = workloads.served_sessions_reference(script)
        for request, expected, (kind, _, result, _) in zip(script, want, recs):
            if result.status != "ok":
                continue
            if kind == "append":
                problem = workloads.check_probability(result.final_probability, expected)
            else:
                probs = workloads.oracle.simulate(
                    request.circuit.num_qubits,
                    workloads.oracle_gates(request.circuit)).probabilities()
                problem = workloads.check_support(result.counts or {}, probs, SERVED_SHOTS,
                                                  clbit_keyed=True)
            if problem:
                errors.append(f"{kind}: {problem}")
    return errors


def tally(scripts, records, errors: List[str]):
    """(attempted, failed, ok latencies by kind, peak-node sum) of one round."""
    expected = sum(len(script) for script in scripts)
    done = failed = peak = 0
    latencies: Dict[str, List[float]] = {"append": [], "sample": []}
    for recs in records:
        for kind, seconds, result, _ in recs:
            done += 1
            if result.status != "ok":
                failed += 1
                errors.append(f"{kind}: unexpected {result.status}: {result.detail}")
                continue
            latencies[kind].append(seconds)
            peak += result.peak_memory_nodes
    if done != expected:
        failed += expected - done
        errors.append(f"{expected - done} scripted requests never completed")
    errors.extend(check_served(scripts, records))
    return expected, failed, latencies, peak


def phase_check(client) -> List[str]:
    """Run :func:`workloads.phase_probe` on a fresh session (untimed) and
    compare every append's P(0...0) with the oracle."""
    import workloads
    from workloads import SERVED_SESSION_QUBITS

    script = workloads.phase_probe()
    errors = []
    session = client.open_session(SERVED_SESSION_QUBITS)
    for request, want in zip(script, workloads.served_sessions_reference(script)):
        result = client.append(session, request.circuit)
        if result.status != "ok":
            errors.append(f"{request.circuit.name}: unexpected {result.status}: "
                          f"{result.detail}")
            continue
        problem = workloads.check_probability(result.final_probability, want)
        if problem:
            errors.append(f"{request.circuit.name}: {problem}")
    client.close_session(session)
    return errors


def served_warmup(clients, seed: int) -> None:
    import workloads
    from workloads import SERVED_SESSION_QUBITS, SERVED_SHOTS

    append, sample = workloads.served_warmup(seed)
    for client in clients:
        session = client.open_session(SERVED_SESSION_QUBITS)
        client.append(session, append.circuit)
        client.close_session(session)
    clients[0].sample(sample.circuit, shots=SERVED_SHOTS, engine="bitslice", seed=sample.seed)


class Serving:
    """A fresh server with connected, warmed-up clients."""

    def __init__(self, sock: str, seed: int, ledger_path: Optional[str] = None):
        import workloads
        from repro.service.client import Client

        self.server = ServerProcess(sock, ledger_path)
        self.clients = []
        try:
            self.clients = [Client("unix:" + sock, timeout=120.0)
                            for _ in range(workloads.SERVED_CONNECTIONS)]
            served_warmup(self.clients, seed)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def served(args) -> int:
    """Every round runs the same script against a fresh, warmed-up server:
    the result cache and session pool fill up over a round, so a second
    round on the same server would run in another regime and leave a
    higher peak RSS behind."""
    import workloads

    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    sock = os.path.join(OUT_DIR, f"serve-{os.getpid()}.sock")
    serving = Serving(sock, args.seed)
    emit("READY")
    if args.setup_only:
        serving.close()
        return 0
    scripts = [workloads.served_script(args.seed, c)
               for c in range(workloads.SERVED_CONNECTIONS)]
    if args.trace:
        return served_traced(args, serving, scripts, sock)

    walls, rss, peaks, errors = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            wall, records, _, failures = served_round(serving.clients, scripts, None)
            rss.append(serving.server.peak_rss_mb())
            errors.extend(phase_check(serving.clients[0]))
            serving.close()
            serving = None
            walls.append(wall)
            errors.extend(failures)
            n, bad, _, peak = tally(scripts, records, errors)
            attempted += n
            failed += bad
            peaks.append(peak)
            if time.perf_counter() - start >= args.seconds:
                break
            serving = Serving(sock, args.seed)
    finally:
        if serving is not None:
            serving.close()
    log("rounds: " + " ".join(f"{wall:.3f}" for wall in walls))
    if len(set(peaks)) != 1:
        errors.append(f"peak-node sums differ between rounds: {peaks}")
    emit({"attempted": attempted, "failed": failed, "errors": errors[:20],
          "metrics": {"wall_s": median(walls), "peak_rss_mb": median(rss),
                      "peak_nodes": float(peaks[0])}})
    return 0


def served_traced(args, serving, scripts, sock) -> int:
    """One untraced round, then the same round against a fresh traced server."""
    errors: List[str] = []
    gc.collect()
    try:
        wall_u, records_u, _, failures = served_round(serving.clients, scripts, None)
        errors.extend(phase_check(serving.clients[0]))
    finally:
        serving.close()
    errors.extend(failures)
    _, _, untraced, _ = tally(scripts, records_u, errors)

    ledger_path = os.path.join(OUT_DIR, f"server-ledger-{args.seed}.json")
    tap = KeyTap()
    try:
        serving = Serving(sock, args.seed, ledger_path=ledger_path)
        try:
            gc.collect()
            wall_t, records_t, busy, failures = served_round(serving.clients, scripts, tap)
        finally:
            serving.close()
    finally:
        tap.close()
    errors.extend(failures)
    attempted, failed, _, _ = tally(scripts, records_t, errors)
    with open(ledger_path) as handle:
        summary = json.load(handle)
    metrics = layer_metrics(summary, 1)

    server_spans = summary["requests"]
    parts = {name: [] for name in ("decode", "queue", "execute", "encode", "wire")}
    for recs in records_t:
        for kind, seconds, _, key in recs:
            spans = server_spans.get(key)
            if spans is None:
                errors.append(f"no server spans for a traced {kind} request")
                continue
            decode, queue, execute, encode = (ns / 1e6 for ns in spans)
            wire = seconds * 1e3 - (decode + queue + execute + encode)
            if wire < 0:
                errors.append(f"server spans of a {kind} request exceed its round trip")
            for name, value in zip(parts, (decode, queue, execute, encode, wire)):
                parts[name].append(value)
    for name, values in parts.items():
        metrics[f"service.{name}_ms_p50"] = median(values)
    metrics["service.execute_self_ms"] = summary["self_ns"].get("service.execute", 0) / 1e6
    metrics["service.append_ms_p50"] = median(untraced["append"]) * 1e3
    metrics["service.sample_ms_p50"] = median(untraced["sample"]) * 1e3
    metrics["service.req_ms_p99"] = percentile(untraced["append"] + untraced["sample"], 99) * 1e3
    metrics["trace.overhead_s"] = wall_t - wall_u
    for c, spent in enumerate(busy):
        log(f"connection {c}: busy {spent:.3f} s of a {wall_t:.3f} s traced round")
        if spent < SERVED_BUSY_FLOOR * wall_t:
            errors.append(f"connection {c} was busy only {spent / wall_t:.3f} of the round")
    emit({"attempted": attempted, "failed": failed, "errors": errors[:20],
          "metrics": metrics})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "served":
        return served(args)
    return direct(args)


if __name__ == "__main__":
    sys.exit(main())
