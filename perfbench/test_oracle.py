"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest perfbench/test_oracle.py -q

The oracle is checked against hand-derived states; the checks are shown to
reject a deliberately wrong answer.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402

R = 1 / math.sqrt(2)


def amps(num_qubits, gates):
    return oracle.simulate(num_qubits, gates).psi.reshape(-1)


def test_x_flips_the_most_significant_qubit():
    np.testing.assert_allclose(amps(2, [("x", [0], [])]), [0, 0, 1, 0])
    np.testing.assert_allclose(amps(2, [("x", [1], [])]), [0, 1, 0, 0])


def test_y_and_z():
    np.testing.assert_allclose(amps(1, [("y", [0], [])]), [0, 1j])
    np.testing.assert_allclose(amps(1, [("x", [0], []), ("y", [0], [])]), [-1j, 0])
    np.testing.assert_allclose(amps(1, [("h", [0], []), ("z", [0], [])]), [R, -R])


def test_h_s_t_phases():
    np.testing.assert_allclose(amps(1, [("h", [0], [])]), [R, R])
    np.testing.assert_allclose(amps(1, [("h", [0], []), ("s", [0], [])]), [R, 1j * R])
    np.testing.assert_allclose(amps(1, [("h", [0], []), ("t", [0], [])]),
                               [R, R * (1 + 1j) / math.sqrt(2)])
    np.testing.assert_allclose(amps(1, [("h", [0], [])] * 2), [1, 0], atol=1e-15)


def test_rx_ry_half_turns():
    np.testing.assert_allclose(amps(1, [("rx_pi_2", [0], [])]), [R, -1j * R])
    np.testing.assert_allclose(amps(1, [("ry_pi_2", [0], [])]), [R, R])
    np.testing.assert_allclose(amps(1, [("x", [0], []), ("ry_pi_2", [0], [])]), [-R, R])


def test_bell_and_ghz():
    np.testing.assert_allclose(amps(2, [("h", [0], []), ("cx", [1], [0])]), [R, 0, 0, R])
    ghz = [("h", [0], []), ("cx", [1], [0]), ("cx", [2], [1])]
    probs = oracle.simulate(3, ghz).probabilities()
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0, 0, 0, 0, 0.5])


def test_cx_control_below_target():
    # Control on qubit 2, target qubit 0: |001> -> |101>.
    np.testing.assert_allclose(amps(3, [("x", [2], []), ("cx", [0], [2])]),
                               np.eye(8)[0b101])


def test_cz_phase_only_on_11():
    gates = [("h", [0], []), ("h", [1], []), ("cz", [1], [0])]
    np.testing.assert_allclose(amps(2, gates), [0.5, 0.5, 0.5, -0.5])


def test_ccx_needs_both_controls():
    np.testing.assert_allclose(amps(3, [("x", [0], []), ("x", [1], []), ("ccx", [2], [0, 1])]),
                               np.eye(8)[0b111])
    np.testing.assert_allclose(amps(3, [("x", [0], []), ("ccx", [2], [0, 1])]),
                               np.eye(8)[0b100])


def test_cswap_swaps_only_under_control():
    np.testing.assert_allclose(amps(3, [("x", [0], []), ("x", [1], []), ("cswap", [1, 2], [0])]),
                               np.eye(8)[0b101])
    np.testing.assert_allclose(amps(3, [("x", [1], []), ("cswap", [1, 2], [0])]),
                               np.eye(8)[0b010])


def test_probability_of_marginal():
    state = oracle.simulate(3, [("h", [0], []), ("cx", [1], [0])])
    assert state.probability_of([0, 1], [1, 1]) == pytest.approx(0.5)
    assert state.probability_of([2], [0]) == pytest.approx(1.0)
    assert state.probability_of([0, 1], [0, 1]) == 0.0


def test_bad_gates_are_rejected():
    with pytest.raises(ValueError):
        oracle.simulate(2, [("cx", [0], [0])])
    with pytest.raises(ValueError):
        oracle.simulate(2, [("u3", [0], [])])
    with pytest.raises(ValueError):
        oracle.simulate(2, [("cx", [1], [])])


# --------------------------------------------------------------------------- #
# the output checks reject wrong answers
# --------------------------------------------------------------------------- #
workloads = pytest.importorskip("workloads")


class FakeResult:
    def __init__(self, final_probability=None, counts=None):
        self.final_probability = final_probability
        self.counts = counts


def test_oracle_check_rejects_a_wrong_probability():
    from repro.workloads import generate_random_circuit

    op = workloads.Op("t", generate_random_circuit(6, seed=3))
    right = float(workloads.reference(op)[0])
    assert workloads.check_result(op, FakeResult(right)) is None
    assert workloads.check_result(op, FakeResult(right + 1e-6)) is not None
    assert workloads.check_result(op, FakeResult(None)) is not None


def test_ghz_and_bv_checks_reject_wrong_answers():
    ops, _ = workloads.t5_wide(7)
    ghz, bv = ops[0], ops[2]
    assert workloads.check_result(ghz, FakeResult(0.5)) is None
    assert workloads.check_result(ghz, FakeResult(0.5 + 1e-16)) is not None
    good = {bv.expect: bv.shots}
    assert workloads.check_result(bv, FakeResult(counts=good)) is None
    assert workloads.check_result(bv, FakeResult(counts={bv.expect ^ 1: bv.shots})) is not None


def test_bv_key_matches_the_simulator():
    import repro

    op = workloads.bv_op("bv", 12, seed=5, shots=8)
    result = repro.run(op.circuit, engine="bitslice", shots=8, seed=1)
    assert result.counts == {op.expect: 8}


def test_shot_checks_reject_a_wrong_distribution():
    from repro.workloads import grcs_circuit

    op = workloads.Op("g", grcs_circuit(3, 3, depth=5, seed=2), shots=2048, seed=1,
                      check="shots")
    probs = workloads.reference(op)
    rng = np.random.default_rng(0)
    drawn = rng.choice(len(probs), size=op.shots, p=probs / probs.sum())
    right = {int(k): int(v) for k, v in zip(*np.unique(drawn, return_counts=True))}
    assert workloads.check_result(op, FakeResult(counts=right)) is None
    # Same support, wrong weights: uniform over the outcomes the oracle allows.
    support = np.flatnonzero(probs > 1e-12)
    wrong_draw = rng.choice(support, size=op.shots)
    wrong = {int(k): int(v) for k, v in zip(*np.unique(wrong_draw, return_counts=True))}
    assert "goodness of fit" in workloads.check_result(op, FakeResult(counts=wrong))
    short = dict(right)
    short[next(iter(short))] -= 1
    assert "sum" in workloads.check_result(op, FakeResult(counts=short))


def test_served_reference_follows_each_session():
    script = workloads.served_script(3, 0)
    want = workloads.served_sessions_reference(script)
    assert [w is None for w in want] == [r.kind == "sample" for r in script]
    assert all(0.0 <= w <= 1.0 + 1e-12 for w in want if w is not None)


def test_chi2_sf_matches_known_values():
    # dof 2: exp(-x/2); dof 1: erfc(sqrt(x/2)); dof 0 has all its mass at 0.
    assert workloads.chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert workloads.chi2_sf(3.0, 1) == pytest.approx(math.erfc(math.sqrt(1.5)), rel=1e-12)
    assert workloads.chi2_sf(0.0, 0) == 1.0
    # Tabulated p = 1e-4 critical values of the chi-square distribution.
    for dof, critical in ((1, 15.137), (5, 25.745), (10, 35.564), (15, 44.263)):
        assert workloads.chi2_sf(critical, dof) == pytest.approx(1e-4, rel=1e-3)
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 16):
        for x in (0.1, 1.0, 7.5, 30.0, 80.0):
            assert workloads.chi2_sf(x, dof) == pytest.approx(
                scipy_stats.chi2.sf(x, dof), rel=1e-9, abs=1e-300)


def test_shot_check_needs_no_scipy(monkeypatch):
    from repro.workloads import grcs_circuit

    for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "scipy", None)   # any import of scipy now fails
    op = workloads.Op("g", grcs_circuit(3, 3, depth=5, seed=2), shots=256, seed=1,
                      check="shots")
    probs = workloads.reference(op)
    drawn = np.random.default_rng(1).choice(len(probs), size=op.shots, p=probs / probs.sum())
    counts = {int(k): int(v) for k, v in zip(*np.unique(drawn, return_counts=True))}
    assert workloads.check_result(op, FakeResult(counts=counts)) is None


def probe_answers(deltas):
    """P(0...0) after each delta of the phase probe, on one dense state."""
    state = oracle.DenseState(workloads.SERVED_SESSION_QUBITS)
    out = []
    for gates in deltas:
        state.run(gates)
        out.append(float(state.probabilities()[0]))
    return out


def test_phase_probe_catches_a_wrong_phase():
    script = workloads.phase_probe()
    deltas = [workloads.oracle_gates(request.circuit) for request in script]
    right = probe_answers(deltas)
    assert right == pytest.approx(workloads.served_sessions_reference(script), abs=1e-15)
    # Each append multiplies in one probe qubit's P(0) = cos^2((phase + k pi/4) / 2),
    # with phase pi for Y (Y = iXZ, and X fixes |+>), Z and CZ.
    low, high = math.cos(5 * math.pi / 8) ** 2, math.cos(math.pi / 8) ** 2
    marginals = (low, high, low, high, 0.5, low, 0.5, low, high)
    assert right == pytest.approx(np.cumprod(marginals), rel=1e-12)
    # A gate kind given another phase (0, pi/4, pi/2, pi, 3pi/2 or 7pi/4)
    # everywhere changes an answer, and so does a CZ that does nothing.  Y
    # given Z's phase is not among them: on |+> the two differ by a global
    # phase; that fault flips bits, which the script's checks see.
    phases = {"id": [], "z": ["z"], "s": ["s"], "t": ["t"], "sdg": ["z", "s"],
              "tdg": ["z", "s", "t"]}
    faults = [(kind, wrong) for kind in ("y", "z", "s", "t") for wrong in phases
              if wrong != kind and (kind, wrong) != ("y", "z")] + [("cz", "id")]
    for kind, wrong in faults:
        mutated = [[(name, targets, controls) if name != kind else (gate, targets, ())
                    for name, targets, controls in gates
                    for gate in ([name] if name != kind else phases[wrong])]
                   for gates in deltas]
        got = probe_answers(mutated)
        assert any(workloads.check_probability(g, r) for g, r in zip(got, right)), \
            (kind, wrong)
