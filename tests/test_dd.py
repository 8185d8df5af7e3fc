"""Unit tests for the dynamical-decoupling pass and detuning noise."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.sim import NoiseModel, run_circuit, simulate_density_matrix
from repro.transpiler import insert_dd_sequences

X_DUR = 35.0
DURATIONS = {"x": X_DUR}


def _ramsey(idle_ns: float) -> QuantumCircuit:
    qc = QuantumCircuit(1, 1)
    qc.h(0)
    qc.delay(0, idle_ns)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def _noise(detuning=2e-4, t1=200_000.0, oneq=3e-4) -> NoiseModel:
    return NoiseModel(
        t1={0: t1}, t2={0: 0.9 * t1}, detuning={0: detuning},
        oneq_error={0: oneq}, gate_duration=dict(DURATIONS),
    )


class TestDetuningNoise:
    def test_detuning_rotates_superposition(self):
        res = run_circuit(_ramsey(15_000.0), noise_model=_noise(),
                          shots=0)
        # Phase 2e-4 * 15000 = 3 rad: far from returning to |0>.
        assert res.probabilities.get("0", 0.0) < 0.2

    def test_no_detuning_no_rotation(self):
        res = run_circuit(_ramsey(15_000.0),
                          noise_model=_noise(detuning=0.0), shots=0)
        assert res.probabilities.get("0", 0.0) > 0.9

    def test_detuning_phase_is_linear_in_time(self):
        nm = NoiseModel(detuning={0: 1e-4})
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.delay(0, 10_000.0)
        rho = simulate_density_matrix(qc, nm)
        phase = np.angle(rho[1, 0])
        assert phase == pytest.approx(1.0, abs=1e-9)


class TestInsertDD:
    def test_replaces_long_delay(self):
        circuit = _ramsey(15_000.0)
        out = insert_dd_sequences(circuit, DURATIONS)
        ops = out.count_ops()
        assert ops["x"] == 2
        assert ops["delay"] == 3

    def test_short_delay_untouched(self):
        circuit = _ramsey(100.0)
        out = insert_dd_sequences(circuit, DURATIONS)
        assert out.count_ops().get("x", 0) == 0

    def test_duration_conserved(self):
        circuit = _ramsey(15_000.0)
        out = insert_dd_sequences(circuit, DURATIONS)
        total_delay = sum(
            inst.params[0] for inst in out if inst.name == "delay")
        total_x = sum(X_DUR for inst in out if inst.name == "x")
        assert total_delay + total_x == pytest.approx(15_000.0)

    def test_net_unitary_is_identity(self):
        from repro.sim import circuit_unitary

        qc = QuantumCircuit(1)
        qc.delay(0, 10_000.0)
        out = insert_dd_sequences(qc, DURATIONS)
        stripped = QuantumCircuit(1)
        for inst in out:
            if inst.name == "x":
                stripped.x(0)
        u = circuit_unitary(stripped)
        assert np.allclose(u, np.eye(2))

    def test_custom_threshold(self):
        circuit = _ramsey(500.0)
        out = insert_dd_sequences(circuit, DURATIONS, min_window=400.0)
        assert out.count_ops()["x"] == 2


class TestDDEfficacy:
    def test_dd_recovers_ramsey_fidelity(self):
        nm = _noise()
        circuit = _ramsey(15_000.0)
        plain = run_circuit(circuit, noise_model=nm, shots=0)
        decoupled = run_circuit(insert_dd_sequences(circuit, DURATIONS),
                                noise_model=nm, shots=0)
        assert decoupled.probabilities.get("0", 0.0) > 0.9
        assert (decoupled.probabilities.get("0", 0.0)
                > plain.probabilities.get("0", 0.0) + 0.5)

    def test_dd_costs_gates_when_no_detuning(self):
        """Without drift to echo, DD's X gates only add error."""
        nm = _noise(detuning=0.0, oneq=5e-3)
        circuit = _ramsey(15_000.0)
        plain = run_circuit(circuit, noise_model=nm, shots=0)
        decoupled = run_circuit(insert_dd_sequences(circuit, DURATIONS),
                                noise_model=nm, shots=0)
        assert (decoupled.probabilities.get("0", 0.0)
                <= plain.probabilities.get("0", 0.0) + 1e-9)


class TestMultiStrategyDD:
    def _window(self, idle_ns=15_000.0, num_qubits=1):
        qc = QuantumCircuit(num_qubits, num_qubits)
        for q in range(num_qubits):
            qc.h(q)
            qc.delay(q, idle_ns)
            qc.h(q)
            qc.measure(q, q)
        return qc

    def test_xy4_pulse_train(self):
        out = insert_dd_sequences(self._window(), DURATIONS,
                                  strategy="xy4")
        ops = out.count_ops()
        assert ops["x"] == 2 and ops["y"] == 2
        names = [i.name for i in out if i.name in ("x", "y")]
        assert names == ["x", "y", "x", "y"]

    def test_duration_conserved_per_strategy(self):
        from repro.transpiler import DD_STRATEGIES

        for strategy in DD_STRATEGIES:
            out = insert_dd_sequences(
                self._window(), {"x": X_DUR, "y": X_DUR},
                strategy=strategy)
            total = sum(i.params[0] for i in out if i.name == "delay")
            pulses = sum(X_DUR for i in out if i.name in ("x", "y"))
            assert total + pulses == pytest.approx(15_000.0), strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown DD strategy"):
            insert_dd_sequences(self._window(), DURATIONS,
                                strategy="udd")

    def test_stagger_offsets_color_coupled_qubits(self):
        from repro.hardware.topology import CouplingMap
        from repro.transpiler import stagger_offsets

        line = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        offsets = stagger_offsets(line, 4)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            assert offsets[a] != offsets[b]

    def test_stagger_shifts_coupled_trains(self):
        from repro.hardware.topology import CouplingMap

        line = CouplingMap(2, [(0, 1)])
        out = insert_dd_sequences(
            self._window(num_qubits=2), DURATIONS, strategy="xx",
            coupling=line)
        leading = {}
        for inst in out:
            q = inst.qubits[0]
            if inst.name == "delay" and q not in leading:
                leading[q] = float(inst.params[0])
        # Different colors -> different lead-in before the first pulse.
        assert leading[0] != leading[1]
        # Shift = one pulse duration for color 1.
        assert abs(leading[0] - leading[1]) == pytest.approx(X_DUR)

    def test_stagger_conserves_duration_and_echo(self):
        from repro.hardware.topology import CouplingMap

        line = CouplingMap(2, [(0, 1)])
        nm = NoiseModel(t1={q: 200_000.0 for q in range(2)},
                        t2={q: 180_000.0 for q in range(2)},
                        detuning={q: 2e-4 for q in range(2)},
                        oneq_error={q: 3e-4 for q in range(2)},
                        gate_duration=dict(DURATIONS))
        circuit = self._window(num_qubits=2)
        decoupled = insert_dd_sequences(circuit, DURATIONS,
                                        strategy="xy4", coupling=line)
        for q in range(2):
            total = sum(i.params[0] for i in decoupled
                        if i.name == "delay" and i.qubits[0] == q)
            pulses = sum(X_DUR for i in decoupled
                         if i.name in ("x", "y") and i.qubits[0] == q)
            assert total + pulses == pytest.approx(15_000.0)
        res = run_circuit(decoupled, noise_model=nm, shots=0)
        # The echo survives the stagger shift: both qubits refocus.
        assert res.probabilities.get("00", 0.0) > 0.85

    def test_short_windows_untouched(self):
        out = insert_dd_sequences(self._window(idle_ns=100.0),
                                  DURATIONS, strategy="xy4")
        assert out.count_ops().get("x", 0) == 0

    def test_control_flow_bodies_untouched(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.delay(0, 15_000.0)
        qc.h(0)
        qc.measure(0, 0)
        qc.if_test(([0], 1), body)
        out = insert_dd_sequences(qc, DURATIONS, strategy="xy4")
        op = out.instructions[-1].gate
        assert [i.name for i in op.bodies[0]] == ["delay"]
