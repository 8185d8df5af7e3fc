"""Unit tests for QuantumCircuit."""

import copy
import math

import pytest

from repro.circuits import CircuitError, QuantumCircuit, gate


class TestConstruction:
    def test_empty_circuit(self):
        qc = QuantumCircuit(3)
        assert qc.num_qubits == 3
        assert qc.num_clbits == 0
        assert len(qc) == 0
        assert qc.depth() == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(-1)

    def test_builder_methods_chain(self):
        qc = QuantumCircuit(2, 2)
        result = qc.h(0).cx(0, 1).measure(0, 0)
        assert result is qc
        assert [i.name for i in qc] == ["h", "cx", "measure"]

    def test_out_of_range_qubit_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.h(2)

    def test_duplicate_qubits_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.cx(1, 1)

    def test_measure_clbit_out_of_range(self):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(CircuitError):
            qc.measure(0, 1)

    def test_measure_all_grows_clbits(self):
        qc = QuantumCircuit(3)
        qc.measure_all()
        assert qc.num_clbits == 3
        assert qc.count_ops()["measure"] == 3


class TestQueries:
    def test_size_excludes_directives(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).barrier().cx(0, 1).measure_all()
        assert qc.size() == 2
        assert qc.size(include_directives=True) == 5

    def test_depth_linear_chain(self):
        qc = QuantumCircuit(1)
        for _ in range(5):
            qc.x(0)
        assert qc.depth() == 5

    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        assert qc.depth() == 1

    def test_depth_counts_measure(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        assert qc.depth() == 2

    def test_count_ops(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(1).cx(0, 1)
        assert qc.count_ops() == {"h": 2, "cx": 1}

    def test_num_cx_and_twoq(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cz(1, 2).h(0)
        assert qc.num_cx() == 1
        assert qc.num_twoq_gates() == 2

    def test_qubits_used(self):
        qc = QuantumCircuit(5)
        qc.h(1).cx(3, 1)
        assert qc.qubits_used() == (1, 3)


class TestTransforms:
    def test_copy_is_independent(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        other = qc.copy()
        other.x(1)
        assert len(qc) == 1
        assert len(other) == 2

    def test_copy_module_copy_is_independent(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        shallow = copy.copy(qc)
        shallow.z(1)
        qc.x(0)
        assert [i.name for i in qc] == ["h", "x"]
        assert [i.name for i in shallow] == ["h", "z"]
        assert shallow.num_qubits == qc.num_qubits

    def test_inverse_reverses_and_inverts(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).s(1)
        inv = qc.inverse()
        assert [i.name for i in inv] == ["sdg", "cx", "h"]

    def test_inverse_rejects_measure(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(CircuitError):
            qc.inverse()

    def test_without_measurements(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).measure_all()
        stripped = qc.without_measurements()
        assert stripped.count_ops() == {"h": 1}

    def test_compose_identity_mapping(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        c = a.compose(b)
        assert [i.name for i in c] == ["h", "cx"]

    def test_compose_with_qubit_mapping(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        c = a.compose(b, qubits=[2, 0])
        assert c[0].qubits == (2, 0)

    def test_compose_size_mismatch_rejected(self):
        a = QuantumCircuit(2)
        b = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            a.compose(b, qubits=[0])

    def test_remapped(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        out = qc.remapped({0: 4, 1: 2}, num_qubits=5)
        assert out.num_qubits == 5
        assert out[0].qubits == (4, 2)

    def test_repeated(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        assert qc.repeated(3).size() == 3
        assert qc.repeated(0).size() == 0

    def test_equality(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.h(0)
        assert a == b
        b.x(1)
        assert a != b

    def test_delay_duration_param(self):
        qc = QuantumCircuit(1)
        qc.delay(0, 120.0)
        assert qc[0].name == "delay"
        assert qc[0].params == (120.0,)

    def test_summary_mentions_counts(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        text = qc.summary()
        assert "2 qubits" in text
        assert "cx:1" in text
