"""Unit tests for the statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz_circuit, random_circuit
from repro.sim import (
    circuit_unitary,
    ideal_probabilities,
    sample_counts,
    simulate_statevector,
)


class TestStatevector:
    def test_initial_state_is_zero(self):
        sv = simulate_statevector(QuantumCircuit(2))
        assert np.allclose(sv, [1, 0, 0, 0])

    def test_x_flips_msb_convention(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        sv = simulate_statevector(qc)
        # Big-endian: qubit 0 is the most significant bit -> index 2.
        assert np.allclose(sv, [0, 0, 1, 0])

    def test_matches_unitary_action(self):
        qc = random_circuit(4, 6, seed=9)
        sv = simulate_statevector(qc)
        u = circuit_unitary(qc)
        assert np.allclose(sv, u[:, 0], atol=1e-10)

    def test_custom_initial_state(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        plus = np.array([1, 1]) / math.sqrt(2)
        sv = simulate_statevector(qc, initial_state=plus)
        assert np.allclose(sv, plus)

    def test_norm_preserved(self):
        qc = random_circuit(5, 10, seed=4)
        sv = simulate_statevector(qc)
        assert np.sum(np.abs(sv) ** 2) == pytest.approx(1.0)

    def test_reset_rejected(self):
        qc = QuantumCircuit(1)
        qc.reset(0)
        with pytest.raises(ValueError):
            simulate_statevector(qc)

    def test_wrong_initial_size_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            simulate_statevector(qc, initial_state=np.ones(3))


class TestIdealProbabilities:
    def test_unmeasured_reports_all_qubits(self):
        probs = ideal_probabilities(ghz_circuit(3))
        assert probs == pytest.approx({"000": 0.5, "111": 0.5})

    def test_measured_subset_marginalizes(self):
        qc = ghz_circuit(3)
        qc.num_clbits = 1
        qc.measure(0, 0)
        probs = ideal_probabilities(qc)
        assert probs == pytest.approx({"0": 0.5, "1": 0.5})

    def test_clbit_order_is_key_position(self):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        # qubit 0 (|1>) measured into clbit 1: key should be "01".
        qc.measure(0, 1)
        qc.measure(1, 0)
        probs = ideal_probabilities(qc)
        assert probs == pytest.approx({"01": 1.0})


class TestIdealCounts:
    def test_counts_sum_to_shots(self):
        qc = ghz_circuit(2).measure_all()
        counts = sample_counts(ideal_probabilities(qc), 1000, seed=1)
        assert sum(counts.values()) == 1000
        assert set(counts) <= {"00", "11"}

    def test_deterministic_for_seed(self):
        probs = ideal_probabilities(ghz_circuit(2).measure_all())
        assert (sample_counts(probs, 100, seed=5)
                == sample_counts(probs, 100, seed=5))
