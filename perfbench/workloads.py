"""Inputs and output checks of the benchmark's workloads.

Every input is made here from the workload seed, through the public
``repro.workloads`` generators and ``QuantumCircuit`` builder.  The checks
compare outputs with :mod:`oracle` (which knows nothing of ``repro``) or
with properties stated in the README.  Nothing here is timed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import oracle
from repro import QuantumCircuit, ResourceLimits
from repro.workloads import (
    bernstein_vazirani_circuit,
    generate_random_circuit,
    ghz_circuit,
    grcs_circuit,
    random_circuit_suite,
    supremacy_suite,
)
from repro.workloads.random_circuits import DEFAULT_GATE_POOL

#: The paper-table harness's smoke-scale node budget.  The time budget sits
#: far above any op, so no op can time out.
LIMITS = ResourceLimits(max_seconds=600.0, max_nodes=400_000)

#: Tolerance of a probability against the dense oracle.
PROB_TOL = 1e-9

#: Width of the Table V op that fails today (see ``BELL_WIDE``).
BELL_WIDTH = 1024


@dataclass
class Op:
    """One call of ``repro.run``: a circuit, optional shots, and its check."""

    name: str
    circuit: QuantumCircuit
    shots: Optional[int] = None
    seed: Optional[int] = None
    #: ``"oracle"``, ``"ghz"``, ``"bv"``, ``"bell"`` or ``"shots"``.
    check: str = "oracle"
    #: Expected answer for property checks (e.g. the BV counts key).
    expect: object = None
    #: True for the one op that fails on every run because of a known fault.
    known_fault: bool = False
    #: Filled lazily: oracle probabilities of the final state.
    reference: Optional[np.ndarray] = field(default=None, repr=False)


def oracle_gates(circuit: QuantumCircuit) -> List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]]:
    """The circuit's gates as plain tuples for :mod:`oracle`."""
    out = []
    for gate in circuit.gates:
        name = gate.kind.value
        if name == "measure":
            continue
        out.append((name, tuple(gate.targets), tuple(gate.controls)))
    return out


def reference(op: Op) -> np.ndarray:
    """Oracle probabilities of ``op``'s final state (computed once)."""
    if op.reference is None:
        op.reference = oracle.simulate(op.circuit.num_qubits,
                                       oracle_gates(op.circuit)).probabilities()
    return op.reference


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
#: Table III: the harness's first two circuits at each size.
T3_SIZES = (16, 18, 20)
T3_PER_SIZE = 2


def t3_random(seed: int) -> Tuple[List[Op], List[Op]]:
    """Table III random circuits; ``seed`` draws only the warm-up circuit.

    The timed circuits are the harness's own Table III rows, fixed as the
    paper's rows are: at one size their cost differs by up to 8x from one
    generator seed to the next, so drawing them from the run seed would
    measure the draw and not the program.  Their order is fixed too, since
    peak RSS depends on it.
    """
    ops = [Op(circuit.name, circuit)
           for circuit in random_circuit_suite(T3_SIZES, circuits_per_size=T3_PER_SIZE)]
    warmup = [Op("warmup_10q", generate_random_circuit(10, seed=seed))]
    return ops, warmup


def bv_hidden_string(width: int, seed: int) -> int:
    """A seeded hidden string with exactly half its bits set, so every seed
    gives the oracle the same number of CNOTs."""
    rng = random.Random(seed)
    bits = rng.sample(range(width), width // 2)
    return sum(1 << b for b in bits)


def bv_counts_key(hidden: int, width: int) -> int:
    """The counts key BV must return: data qubit ``i`` holds bit
    ``width-1-i`` of the hidden string, and lands on classical bit ``i``."""
    return sum(((hidden >> (width - 1 - i)) & 1) << i for i in range(width))


def bv_op(name: str, total_qubits: int, seed: int, shots: int) -> Op:
    data = total_qubits - 1
    hidden = bv_hidden_string(data, seed)
    return Op(name, bernstein_vazirani_circuit(data, hidden_string=hidden),
              shots=shots, seed=seed, check="bv", expect=bv_counts_key(hidden, data))


def bell_wide() -> QuantumCircuit:
    """H(0) then CX(0, 1023): a Bell pair across the full register."""
    circuit = QuantumCircuit(BELL_WIDTH, name=f"bell_{BELL_WIDTH}")
    circuit.h(0)
    circuit.cx(0, BELL_WIDTH - 1)
    return circuit


def t5_wide(seed: int) -> Tuple[List[Op], List[Op]]:
    """Table V GHZ and Bernstein-Vazirani circuits, 128 to 1024 qubits."""
    ops = [
        Op("ghz_128", ghz_circuit(128), check="ghz"),
        Op("ghz_512", ghz_circuit(512), check="ghz"),
        bv_op("bv_128", 128, seed, shots=32),
        Op("bell_1024", bell_wide(), check="bell", known_fault=True),
    ]
    warmup = [Op("warmup_ghz_32", ghz_circuit(32), check="ghz"),
              bv_op("warmup_bv_16", 16, seed, shots=32)]
    return ops, warmup


T6_SHOTS = 1024


def t6_shots(seed: int) -> Tuple[List[Op], List[Op]]:
    """One Table VI GRCS circuit (4x4 lattice, depth 5) sampled 1024 times.

    The circuit is fixed (the harness's first 16-qubit row); ``seed`` seeds
    the shots.  Sampling cost follows the circuit's output distribution, so
    it moves from one circuit seed to the next.
    """
    circuit = supremacy_suite((16,), circuits_per_size=1)[0]
    ops = [Op(circuit.name, circuit, shots=T6_SHOTS, seed=seed, check="shots")]
    warmup = [Op("warmup_grcs_3x3", grcs_circuit(3, 3, depth=5, seed=seed),
                 shots=64, seed=seed, check="shots")]
    return ops, warmup


DIRECT = {"t3_random": t3_random, "t5_wide": t5_wide, "t6_shots": t6_shots}


# --------------------------------------------------------------------------- #
# the served script
# --------------------------------------------------------------------------- #
SERVED_CONNECTIONS = 2
SERVED_REQUESTS = 1000            # per round, over all connections
SERVED_SESSION_QUBITS = 12
SERVED_SESSIONS_PER_CONN = 2
#: A session is closed and a fresh one opened after this many appends, so
#: append cost does not creep up with session depth over a run.
SERVED_SESSION_APPENDS = 24
#: Every fourth request is a cold sample; the rest are warm appends.
SERVED_SAMPLE_EVERY = 4
SERVED_SHOTS = 256


@dataclass
class Request:
    """One scripted request of one connection."""

    kind: str                     # "append" or "sample"
    circuit: QuantumCircuit
    slot: int = 0                 # session slot of an append
    reopen: bool = True           # start the slot on a fresh session first
    seed: Optional[int] = None    # sampling seed


#: Table III's gate pool without H.  These gates permute basis states and
#: change phases, so after an H layer on ``h`` qubits the state keeps
#: exactly ``2**h`` outcomes: the engine work per request stays alike from
#: one seed to the next.
SERVED_POOL = tuple(k.value for k in DEFAULT_GATE_POOL if k.value != "h")
#: H gates that start each fresh session and each sample circuit.
SERVED_SUPERPOSED = 3


def random_gates(circuit: QuantumCircuit, count: int, rng: random.Random) -> QuantumCircuit:
    """Append ``count`` gates drawn from :data:`SERVED_POOL` on uniform
    qubits, using only ``QuantumCircuit`` builder calls."""
    n = circuit.num_qubits
    for _ in range(count):
        kind = rng.choice(SERVED_POOL)
        if kind in ("cx", "cz"):
            c, t = rng.sample(range(n), 2)
            getattr(circuit, kind)(c, t)
        elif kind == "ccx":
            a, b, t = rng.sample(range(n), 3)
            circuit.ccx([a, b], t)
        elif kind == "cswap":
            c, a, b = rng.sample(range(n), 3)
            circuit.cswap([c], a, b)
        else:
            getattr(circuit, kind)(rng.randrange(n))
    return circuit


def served_script(seed: int, conn: int) -> List[Request]:
    """The requests connection ``conn`` sends in one round.

    Every request draws its own circuit and sampling seed, so the server's
    result cache never answers.
    """
    rng = random.Random(f"served/{seed}/{conn}")
    per_conn = SERVED_REQUESTS // SERVED_CONNECTIONS
    appended = [0] * SERVED_SESSIONS_PER_CONN
    script: List[Request] = []
    appends = 0
    for i in range(per_conn):
        if i % SERVED_SAMPLE_EVERY == SERVED_SAMPLE_EVERY - 1:
            script.append(Request("sample", sample_circuit(rng), seed=rng.randrange(1 << 30)))
            continue
        slot = appends % SERVED_SESSIONS_PER_CONN
        appends += 1
        reopen = appended[slot] % SERVED_SESSION_APPENDS == 0
        appended[slot] += 1
        delta = QuantumCircuit(SERVED_SESSION_QUBITS)
        if reopen:
            superpose(delta, rng)
        script.append(Request("append", random_gates(delta, rng.randint(1, 3), rng),
                              slot=slot, reopen=reopen))
    return script


def superpose(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    for qubit in rng.sample(range(circuit.num_qubits), SERVED_SUPERPOSED):
        circuit.h(qubit)
    return circuit


def sample_circuit(rng: random.Random) -> QuantumCircuit:
    """A cold sample request: 10 to 12 qubits, an H layer on three of them,
    then two gates per qubit from :data:`SERVED_POOL`."""
    n = rng.choice((10, 11, 12))
    circuit = superpose(QuantumCircuit(n, name=f"served_sample_{n}q"), rng)
    return random_gates(circuit, 2 * n, rng).measure_all()


def served_warmup(seed: int) -> List[Request]:
    rng = random.Random(f"served-warmup/{seed}")
    delta = random_gates(superpose(QuantumCircuit(SERVED_SESSION_QUBITS), rng), 2, rng)
    return [Request("append", delta, slot=0),
            Request("sample", sample_circuit(rng), seed=rng.randrange(1 << 30))]


#: The phase gates of :data:`SERVED_POOL`, each on the probe qubits of its
#: entries, with the number of T gates that follow (see :func:`phase_probe`).
PHASE_PROBE = (("y", 1), ("y", 3), ("z", 1), ("z", 3), ("s", 0), ("s", 1), ("t", 1),
               ("cz", 1), ("cz", 3))


def phase_probe() -> List[Request]:
    """The appends of the one untimed session per served round that checks
    phases.

    The script's requests never interfere amplitudes, so a wrong phase in a
    gate leaves their answers unchanged.  Here each append puts one probe
    qubit through H, G, k T gates, H for a phase gate G, which leaves it
    with P(0) = cos^2((phase of G + k pi/4) / 2); CZ puts its phase on a
    qubit in |+> by a control held at |1>.  Each append's P(0...0) is the
    product of the P(0)s so far, so every probe qubit is checked on its
    own.  A wrong phase p' for G keeps a qubit's P(0) only if
    p' = -(phase of G) - k pi/2, so G gets two qubits whose ``k`` make
    those p' differ; T's one qubit misses only 5 pi/4.
    """
    script = []
    control = len(PHASE_PROBE)
    for qubit, (kind, t_gates) in enumerate(PHASE_PROBE):
        delta = QuantumCircuit(SERVED_SESSION_QUBITS, name=f"phase_probe_{kind}")
        delta.h(qubit)
        if kind == "cz":
            delta.x(control).cz(control, qubit).x(control)
        else:
            getattr(delta, kind)(qubit)
        for _ in range(t_gates):
            delta.t(qubit)
        delta.h(qubit)
        script.append(Request("append", delta, reopen=not script))
    return script


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #
def clbit_key_to_index(key: int, width: int) -> int:
    """Counts keyed by classical bits (bit ``i`` = qubit ``i``) to the
    oracle's basis index (qubit 0 = most significant bit)."""
    return sum(((key >> i) & 1) << (width - 1 - i) for i in range(width))


def check_probability(got: Optional[float], want: float, tol: float = PROB_TOL) -> Optional[str]:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return f"probability {got!r}, oracle {want!r}"
    return None


def check_support(counts: Dict[int, int], probs: np.ndarray, shots: int,
                  clbit_keyed: bool) -> Optional[str]:
    """Counts sum to ``shots`` and every outcome has oracle probability > 0."""
    total = sum(counts.values())
    if total != shots:
        return f"counts sum to {total}, not {shots}"
    width = int(round(math.log2(len(probs))))
    for key in counts:
        index = clbit_key_to_index(key, width) if clbit_keyed else key
        if not 0 <= index < len(probs) or probs[index] <= 1e-12:
            return f"outcome {key} has oracle probability 0"
    return None


#: Goodness-of-fit: outcomes are grouped into this many bins of equal oracle
#: mass, so every bin expects ``shots / bins`` counts.
GOF_BINS = 16
#: The test fails below this p-value.  Shots are seeded, so a given seed
#: passes or fails the same way on every run.
GOF_ALPHA = 1e-4


def chi2_sf(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square with ``dof`` (a whole number)
    degrees of freedom: the regularized upper gamma function Q(dof/2, x/2),
    in its closed form for whole and half-whole shapes."""
    half = statistic / 2.0
    if dof % 2 == 0:
        total, term = 0.0, 1.0
        for i in range(1, dof // 2 + 1):
            total += term
            term *= half / i
        return math.exp(-half) * total if dof else 1.0
    total, term = 0.0, 2.0 * math.sqrt(half / math.pi)
    for j in range(1, (dof - 1) // 2 + 1):
        total += term
        term *= half / (j + 0.5)
    return math.erfc(math.sqrt(half)) + math.exp(-half) * total


def goodness_of_fit(counts: Dict[int, int], probs: np.ndarray, shots: int) -> float:
    """Chi-square p-value of the counts against the oracle distribution."""
    cumulative = np.cumsum(probs)
    cumulative /= cumulative[-1]
    edges = np.arange(1, GOF_BINS) / GOF_BINS
    bin_of_index = np.searchsorted(edges, cumulative, side="left")
    observed = np.zeros(GOF_BINS)
    expected = np.zeros(GOF_BINS)
    np.add.at(expected, bin_of_index, probs)
    for key, count in counts.items():
        observed[bin_of_index[key]] += count
    expected *= shots / expected.sum()
    used = expected > 0
    statistic = float(np.sum((observed[used] - expected[used]) ** 2 / expected[used]))
    return chi2_sf(statistic, int(used.sum()) - 1)


def check_result(op: Op, result) -> Optional[str]:
    """None when ``result`` is right for ``op``, else what is wrong."""
    if op.check == "oracle":
        probs = reference(op)
        return check_probability(result.final_probability, float(probs[0]))
    if op.check == "ghz":
        if result.final_probability != 0.5:
            return f"GHZ P(0...0) = {result.final_probability!r}, not exactly 0.5"
        return None
    if op.check == "bell":
        if result.final_probability != 0.5:
            return f"Bell P(0...0) = {result.final_probability!r}, not exactly 0.5"
        return None
    if op.check == "bv":
        if result.counts != {op.expect: op.shots}:
            return f"BV counts {result.counts!r}, expected {{{op.expect}: {op.shots}}}"
        return None
    if op.check == "shots":
        probs = reference(op)
        problem = check_support(result.counts or {}, probs, op.shots,
                                clbit_keyed=bool(op.circuit.measured_qubits))
        if problem:
            return problem
        p_value = goodness_of_fit(result.counts, probs, op.shots)
        if p_value < GOF_ALPHA:
            return f"goodness of fit p = {p_value:.2e} < {GOF_ALPHA:g}"
        return None
    raise ValueError(f"unknown check {op.check!r}")


#: What the known-fault op reports today.
KNOWN_FAULT_STATUS = "crash"
KNOWN_FAULT_DETAIL = "recursion depth exceeded"


def is_known_fault(op: Op, result) -> bool:
    return (op.known_fault and result.status == KNOWN_FAULT_STATUS
            and KNOWN_FAULT_DETAIL in (result.detail or ""))


def served_sessions_reference(script: Sequence[Request]) -> List[Optional[float]]:
    """Oracle P(0...0) after each append of one connection's script, on the
    session's cumulative circuit; None for samples."""
    states: Dict[int, oracle.DenseState] = {}
    out: List[Optional[float]] = []
    for request in script:
        if request.kind != "append":
            out.append(None)
            continue
        if request.reopen or request.slot not in states:
            states[request.slot] = oracle.DenseState(SERVED_SESSION_QUBITS)
        state = states[request.slot]
        state.run(oracle_gates(request.circuit))
        out.append(state.probability_of(range(SERVED_SESSION_QUBITS),
                                        [0] * SERVED_SESSION_QUBITS))
    return out
