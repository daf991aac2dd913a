"""A small dense state-vector simulator used as the benchmark's oracle.

It shares no code with ``repro``: it never imports it, and it takes gates as
plain ``(name, targets, controls)`` tuples, so a fault in the simulator under
test cannot also hide in the reference it is checked against.

The state of ``n`` qubits is a complex128 array of shape ``(2,) * n`` whose
axis ``q`` is qubit ``q``.  Flattened in C order, qubit 0 is the most
significant bit of the basis index, the convention ``repro`` uses for
unmeasured counts.

Only probabilities are compared against the simulator under test, so gates
are free up to a global phase; the matrices below are the textbook ones.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

_R = 1.0 / math.sqrt(2.0)

#: Single-qubit matrices by gate name.
MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    # Rx(pi/2) = (I - iX)/sqrt(2) and Ry(pi/2) = (I - iY)/sqrt(2).
    "rx_pi_2": np.array([[_R, -1j * _R], [-1j * _R, _R]], dtype=complex),
    "ry_pi_2": np.array([[_R, -_R], [_R, _R]], dtype=complex),
}

#: Controlled gate names mapped to the single-qubit matrix they control.
CONTROLLED = {"cx": "x", "ccx": "x", "cz": "z"}

Gate = Tuple[str, Sequence[int], Sequence[int]]


class DenseState:
    """A dense ``n``-qubit state starting in ``|0...0>``."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.psi = np.zeros((2,) * num_qubits, dtype=complex)
        self.psi[(0,) * num_qubits] = 1.0

    def _check(self, qubits: Iterable[int]) -> None:
        seen = list(qubits)
        if len(set(seen)) != len(seen):
            raise ValueError(f"repeated qubit in {seen}")
        for q in seen:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} outside a {self.num_qubits}-qubit register")

    def _controlled(self, controls: Sequence[int]):
        """The index of the sub-space where every control is 1, and a map
        from a qubit to its axis in that sub-space."""
        index = [slice(None)] * self.num_qubits
        for c in controls:
            index[c] = 1
        return tuple(index), lambda q: q - sum(1 for c in controls if c < q)

    def _single(self, matrix: np.ndarray, target: int, controls: Sequence[int]) -> None:
        index, axis_of = self._controlled(controls)
        axis = axis_of(target)
        moved = np.tensordot(matrix, self.psi[index], axes=([1], [axis]))
        self.psi[index] = np.moveaxis(moved, 0, axis)

    def _swap(self, a: int, b: int, controls: Sequence[int]) -> None:
        index, axis_of = self._controlled(controls)
        self.psi[index] = np.swapaxes(self.psi[index], axis_of(a), axis_of(b)).copy()

    def apply(self, name: str, targets: Sequence[int], controls: Sequence[int] = ()) -> None:
        """Apply one gate; ``name`` is a lower-case gate name."""
        targets, controls = tuple(targets), tuple(controls)
        self._check(targets + controls)
        if name in ("swap", "cswap"):
            if len(targets) != 2:
                raise ValueError(f"{name} needs two targets")
            self._swap(targets[0], targets[1], controls)
            return
        if len(targets) != 1:
            raise ValueError(f"{name} needs one target")
        if name in CONTROLLED:
            if not controls:
                raise ValueError(f"{name} needs a control")
            self._single(MATRICES[CONTROLLED[name]], targets[0], controls)
        elif name in MATRICES:
            self._single(MATRICES[name], targets[0], controls)
        else:
            raise ValueError(f"unknown gate {name!r}")

    def run(self, gates: Iterable[Gate]) -> "DenseState":
        for name, targets, controls in gates:
            self.apply(name, targets, controls)
        return self

    def probabilities(self) -> np.ndarray:
        """Outcome probabilities indexed by basis state (qubit 0 = MSB)."""
        return (np.abs(self.psi) ** 2).reshape(-1)

    def probability_of(self, qubits: Sequence[int], values: Sequence[int]) -> float:
        """Joint probability that ``qubits`` read ``values``."""
        index = [slice(None)] * self.num_qubits
        for q, v in zip(qubits, values):
            index[q] = int(v)
        return float(np.sum(np.abs(self.psi[tuple(index)]) ** 2))


def simulate(num_qubits: int, gates: Iterable[Gate]) -> DenseState:
    """Run ``gates`` from ``|0...0>`` on a fresh dense state."""
    return DenseState(num_qubits).run(gates)
