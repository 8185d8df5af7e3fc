"""Unit tests for the Table II workload suite."""

import pytest

from repro.sim import ideal_probabilities
from repro.workloads import TABLE_II, all_workloads, workload, workload_names


class TestTableII:
    @pytest.mark.parametrize("name", workload_names())
    def test_counts_match_paper(self, name):
        w = workload(name)
        qc = w.circuit(measured=False)
        exp_qubits, exp_gates, exp_cx, _ = TABLE_II[name]
        assert qc.num_qubits == exp_qubits
        assert qc.size() == exp_gates
        assert qc.num_cx() == exp_cx

    @pytest.mark.parametrize("name", workload_names())
    def test_output_type_matches_paper(self, name):
        w = workload(name)
        probs = ideal_probabilities(w.circuit())
        _, _, _, result = TABLE_II[name]
        if result == "1":
            assert len(probs) == 1
            assert w.deterministic
            assert w.metric == "pst"
        else:
            assert len(probs) > 1
            assert not w.deterministic
            assert w.metric == "jsd"

    def test_eight_workloads(self):
        assert len(all_workloads()) == 8

    def test_aliases(self):
        assert workload("lin").name == "linearsolver"
        assert workload("4mod").name == "4mod5-v1_22"
        assert workload("alu").name == "alu-v0_27"
        assert workload("qec").name == "qec_en"
        assert workload("var").name == "variation"
        assert workload("fred").name == "fredkin"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            workload("grover")

    def test_measured_circuit_has_measures(self):
        qc = workload("adder").circuit()
        assert qc.count_ops()["measure"] == 4

    def test_unmeasured_circuit(self):
        qc = workload("adder").circuit(measured=False)
        assert "measure" not in qc.count_ops()

    def test_adder_output_is_expected_sum(self):
        """adder_n4 computes 1+1 on the inputs set by the X gates."""
        probs = ideal_probabilities(workload("adder").circuit())
        assert len(probs) == 1
        key = next(iter(probs))
        assert probs[key] == pytest.approx(1.0)

