"""The traced run's per-layer time ledger.

Only the traced run installs it.  It wraps public functions of ``repro``
from outside, keeps every span in memory, and writes the spans out when the
run ends.  A span's self time is its duration minus the time of the spans
it directly contains, so the self times of all layers add up to the time of
the outermost spans (one per benchmark op).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, layer).  A layer listed twice adds the
#: times of both functions.
SPAN_TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.engines.frontdoor", None, "run", "frontdoor"),
    ("repro.engines.limits", "LimitEnforcer", "execute", "limits"),
    ("repro.engines.limits", "LimitEnforcer", "execute_prepared", "limits"),
    ("repro.core.simulator", "BitSliceSimulator", "__init__", "simulator.init"),
    ("repro.core.simulator", "BitSliceSimulator", "apply_gate", "simulator"),
    ("repro.core.bitslice", "BitSlicedState", "num_nodes", "simulator.walk"),
    ("repro.core.bitslice", "BitSlicedState", "shrink", "simulator.shrink"),
    ("repro.bdd.manager", "BddManager", "maybe_collect", "simulator.gc"),
    ("repro.core.gate_rules", "GateRuleEngine", "apply", "gate_rules"),
    ("repro.core.measurement", "MeasurementEngine", "probability_of_outcome", "measurement"),
    ("repro.engines.sampling", None, "sample_by_descent", "sampling.descent"),
    ("repro.core.sampling", "SliceSampler", "prefix_mass", "sampling.mass"),
    ("repro.bdd.manager", "BddManager", "satcount", "bdd.satcount"),
]

#: BDD kernels: only the outermost call of a nest opens a span.
KERNEL_NAMES = (
    "apply_and", "apply_or", "apply_xor", "apply_not", "apply_ite",
    "apply_restrict", "apply_restrict_cube", "apply_exists", "apply_compose",
    "apply_maj3", "apply_xor3", "apply_swap_vars",
    "batch_binary", "batch_not", "batch_ite", "batch_maj3", "batch_xor3",
    "batch_restrict", "batch_swap_vars",
)
KERNEL_LAYER = "bdd.kernel"

#: Spans kept for the span file; later spans are counted but not kept.
MAX_SPANS = 400_000


def _resolve(module: str, owner: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


class Ledger:
    """Thread-aware span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.dropped_spans = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter_ns(), 0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> int:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        layer, start, children = frame
        duration = end - start
        with self._lock:
            self.self_ns[layer] += duration - children
            self.calls[layer] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((layer, start, end, len(stack), threading.get_ident()))
            else:
                self.dropped_spans += 1
        if stack:
            stack[-1][2] += duration
        return duration

    def in_layer(self, layer: str) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][0] == layer

    def wrap(self, fn: Callable, layer: str, outermost: bool = False) -> Callable:
        ledger = self

        def traced(*args, **kwargs):
            if outermost and ledger.in_layer(layer):
                return fn(*args, **kwargs)
            frame = ledger.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.leave(frame)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------ #
    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def patch_function(self, module: str, name: str, make: Callable) -> None:
        """Replace a module function everywhere ``repro`` bound it by name."""
        original = getattr(importlib.import_module(module), name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and mod is not None \
                    and mod.__dict__.get(name) is original:
                self.patch(mod, name, replacement)

    def install(self) -> None:
        """Wrap every span target and count the cache layer's outcomes."""
        for module, owner, attr, layer in SPAN_TARGETS:
            if owner is None:
                make = self._traced_run if attr == "run" else \
                    (lambda fn, layer=layer: self.wrap(fn, layer))
                self.patch_function(module, attr, make)
            else:
                cls = _resolve(module, owner)
                self.patch(cls, attr, self.wrap(cls.__dict__[attr], layer))
        manager = _resolve("repro.bdd.manager", "BddManager")
        for name in KERNEL_NAMES:
            self.patch(manager, name, self.wrap(manager.__dict__[name], KERNEL_LAYER,
                                                outermost=True))
        self._install_cache_counts()

    # -- work counters ------------------------------------------------- #
    def _traced_run(self, fn):
        """The front door's span, plus the run's own share of the manager
        counters its result reports.  A run resumed from a retained prefix
        shares that prefix's manager, whose counters already hold the
        prefix's work; the counters seen at the match are subtracted."""
        traced = self.wrap(fn, "frontdoor")

        def run(*args, **kwargs):
            self._local.baseline = {}
            result = traced(*args, **kwargs)
            self.add_run_counters(result.extra, self._local.baseline)
            return result

        run.__wrapped__ = fn
        return run

    def add_run_counters(self, extra: Dict[str, float], baseline: Dict[str, float]) -> None:
        def delta(key: str) -> int:
            return int(extra.get(key, 0)) - int(baseline.get(key, 0))

        with self._lock:
            c = self.counts
            c["bdd.ct_hits"] += delta("substrate_cache_hits")
            c["bdd.ct_lookups"] += delta("substrate_cache_hits") + delta("substrate_cache_misses")
            c["bdd.unique_probes"] += delta("substrate_unique_probes")
            c["bdd.nodes_created"] += delta("substrate_unique_inserts")
            c["bdd.gc_runs"] += delta("substrate_gc_runs")
            c["bdd.peak_live_nodes"] = max(c["bdd.peak_live_nodes"],
                                           int(extra.get("substrate_peak_live_nodes", 0)))
            c["sampling.mass_evals"] += int(extra.get("sampler_mass_evaluations", 0))
            c["sampling.restrict_batches"] += int(extra.get("sampler_restrict_batches", 0))
            c["sampling.distinct_prefixes"] += int(extra.get("sampler_distinct_prefixes", 0))

    def _install_cache_counts(self) -> None:
        ledger = self
        cache_cls = _resolve("repro.cache.result_cache", "ResultCache")
        lookup = cache_cls.__dict__["lookup"]

        def counted_lookup(cache, key):
            hit = lookup(cache, key)
            with ledger._lock:
                ledger.counts["cache.result_lookups"] += 1
                ledger.counts["cache.result_hits"] += hit is not None
            return hit

        pool_cls = _resolve("repro.cache.sessions", "SessionPool")
        match = pool_cls.__dict__["match"]

        def counted_match(pool, *args, **kwargs):
            lease = match(pool, *args, **kwargs)
            if lease is not None:
                stats = lease.fork.state.manager.perf_stats()
                ledger._local.baseline = {f"substrate_{k}": v for k, v in stats.items()}
                with ledger._lock:
                    ledger.counts["cache.prefix_hits"] += 1
                    ledger.counts["cache.prefix_depth"] += lease.depth
            return lease

        self.patch(cache_cls, "lookup", counted_lookup)
        self.patch(pool_cls, "match", counted_match)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output -------------------------------------------------------- #
    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def summary(self) -> Dict[str, object]:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines: layer, start and end in ns,
        nesting depth, thread id."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class ServiceLedger(Ledger):
    """The server-side ledger: adds decode, queue wait, job body and encode
    spans, keyed per request by the client's idempotency key."""

    def __init__(self) -> None:
        super().__init__()
        #: idempotency key -> [decode_ns, queue_ns, execute_ns, encode_ns]
        self.requests: Dict[str, List[int]] = {}
        self._job_keys: Dict[str, str] = {}
        self._loop_key: Optional[str] = None

    def _record(self, key: Optional[str], slot: int, ns: int) -> None:
        if key is None:
            return
        with self._lock:
            self.requests.setdefault(key, [0, 0, 0, 0])[slot] += ns

    def install(self) -> None:
        super().install()
        ledger = self
        self.patch_function("repro.service.protocol", "decode_request",
                            lambda fn: ledger._traced_decode(fn))
        self.patch_function("repro.service.protocol", "encode_message",
                            lambda fn: ledger._traced_encode(fn))
        scheduler_cls = _resolve("repro.service.scheduler", "JobScheduler")
        submit = scheduler_cls.__dict__["submit"]

        def traced_submit(scheduler, fn, *args, **kwargs):
            key = ledger._loop_key
            submitted = time.perf_counter_ns()

            def job_body(cancel):
                ledger._record(key, 1, time.perf_counter_ns() - submitted)
                frame = ledger.enter("service.execute")
                try:
                    return fn(cancel)
                finally:
                    ledger._record(key, 2, ledger.leave(frame))

            job = submit(scheduler, job_body, *args, **kwargs)
            if key is not None:
                ledger._job_keys[job.job_id] = key
            return job

        self.patch(scheduler_cls, "submit", traced_submit)

    def _traced_decode(self, fn):
        def traced(line):
            frame = self.enter("service.decode")
            try:
                request, envelope = fn(line)
            finally:
                duration = self.leave(frame)
            # Decode and submit run back to back on the event loop with no
            # await between them, so the submit that follows belongs to
            # this request.
            self._loop_key = getattr(request, "idempotency_key", None)
            self._record(self._loop_key, 0, duration)
            return request, envelope
        return traced

    def _traced_encode(self, fn):
        def traced(message, *args, **kwargs):
            frame = self.enter("service.encode")
            try:
                return fn(message, *args, **kwargs)
            finally:
                duration = self.leave(frame)
                # The accepted reply is encoded while the job waits or runs
                # (on the event loop, often waiting for the interpreter lock
                # the worker holds), so its span overlaps queue and execute.
                # Only the terminal reply counts, which keeps a request's
                # four spans disjoint and "wire" the rest of its round trip.
                if type(message).__name__ != "JobAccepted":
                    key = self._job_keys.get(getattr(message, "job_id", None))
                    self._record(key, 3, duration)
        return traced

    def summary(self) -> Dict[str, object]:
        out = super().summary()
        out["requests"] = self.requests
        return out
