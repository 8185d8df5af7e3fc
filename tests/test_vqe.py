"""Unit tests for the VQE stack (Pauli algebra through drivers)."""

import math

import numpy as np
import pytest

from repro.circuits import bell_pair
from repro.core import qucp_allocate
from repro.core.executor import execute_allocation
from repro.sim import ideal_probabilities
from repro.vqe import (
    NUM_ANSATZ_PARAMETERS,
    PauliOperator,
    PauliString,
    group_commuting_terms,
    group_energy,
    h2_hamiltonian,
    measurement_circuit,
    relative_error_percent,
    run_vqe_scan_ideal,
    ryrz_ansatz,
    term_expectation,
    vqe_energy_ideal,
)


class TestPauliString:
    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString("AB")
        with pytest.raises(ValueError):
            PauliString("")

    def test_matrix_z(self):
        z = PauliString("Z").matrix()
        assert np.allclose(z, np.diag([1, -1]))

    def test_matrix_tensor_order(self):
        zi = PauliString("ZI").matrix()
        assert np.allclose(zi, np.diag([1, 1, -1, -1]))

    def test_commutation(self):
        assert PauliString("XX").commutes_with(PauliString("ZZ"))
        assert not PauliString("XI").commutes_with(PauliString("ZI"))

    def test_qubit_wise_commutation(self):
        assert PauliString("IZ").qubit_wise_commutes_with(PauliString("ZZ"))
        assert not PauliString("XX").qubit_wise_commutes_with(
            PauliString("ZZ"))

    def test_product_with_phase(self):
        phase, result = PauliString("X") * PauliString("Y")
        assert phase == 1j
        assert result.label == "Z"

    def test_support(self):
        assert PauliString("IZXI").support() == (1, 2)

    def test_is_identity(self):
        assert PauliString("II").is_identity
        assert not PauliString("IZ").is_identity


class TestPauliOperator:
    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            PauliOperator({"Z": 1.0, "ZZ": 2.0})

    def test_matrix_hermitian(self):
        mat = h2_hamiltonian().matrix()
        assert np.allclose(mat, mat.conj().T)

    def test_ground_energy_h2(self):
        # The well-known H2/STO-3G value at 0.735 A.
        assert h2_hamiltonian().ground_energy() == pytest.approx(
            -1.8572750, abs=1e-5)

    def test_expectation_of_eigenstate(self):
        h = h2_hamiltonian()
        eigvals, eigvecs = np.linalg.eigh(h.matrix())
        ground = eigvecs[:, 0]
        assert h.expectation(ground) == pytest.approx(eigvals[0])

    def test_coefficient_lookup(self):
        h = h2_hamiltonian()
        assert h.coefficient("XX") == pytest.approx(0.1809312, abs=1e-6)
        assert h.coefficient("YY") == 0.0


class TestGrouping:
    def test_h2_groups_match_paper(self):
        groups = group_commuting_terms(h2_hamiltonian())
        labels = [sorted(t.label for t, _ in g.terms) for g in groups]
        assert labels == [["II", "IZ", "ZI", "ZZ"], ["XX"]]

    def test_shared_bases(self):
        groups = group_commuting_terms(h2_hamiltonian())
        assert groups[0].basis == ("Z", "Z")
        assert groups[1].basis == ("X", "X")

    def test_members_pairwise_qwc(self):
        op = PauliOperator({
            "XI": 1.0, "IX": 0.5, "XX": 0.3, "ZZ": 0.2, "ZI": 0.1})
        for group in group_commuting_terms(op):
            members = [t for t, _ in group.terms]
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert a.qubit_wise_commutes_with(b)


class TestAnsatz:
    def test_parameter_count(self):
        qc = ryrz_ansatz([0.1] * NUM_ANSATZ_PARAMETERS)
        assert qc.count_ops()["ry"] == 6
        assert qc.count_ops()["rz"] == 6
        assert qc.count_ops()["cx"] == 2  # "two CNOTs for entanglers"

    def test_tied_parameter_broadcast(self):
        tied = ryrz_ansatz([0.3])
        full = ryrz_ansatz([0.3] * NUM_ANSATZ_PARAMETERS)
        assert tied == full

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            ryrz_ansatz([0.1, 0.2])

    def test_tied_ansatz_reaches_near_ground_state(self):
        energies = [vqe_energy_ideal(t)
                    for t in np.linspace(-math.pi, math.pi, 400)]
        best = min(energies)
        exact = h2_hamiltonian().ground_energy()
        assert relative_error_percent(best, exact) < 2.0


class TestMeasurement:
    def test_basis_rotations_added(self):
        groups = group_commuting_terms(h2_hamiltonian())
        ansatz = ryrz_ansatz([0.2])
        zz = measurement_circuit(ansatz, groups[0])
        xx = measurement_circuit(ansatz, groups[1])
        assert zz.count_ops().get("h", 0) == 0
        assert xx.count_ops()["h"] == 2

    def test_term_expectation_parity(self):
        probs = {"00": 0.5, "11": 0.5}
        assert term_expectation(probs, PauliString("ZZ")) == 1.0
        assert term_expectation(probs, PauliString("ZI")) == 0.0
        assert term_expectation(probs, PauliString("II")) == 1.0

    def test_mismatched_qubits_rejected(self):
        groups = group_commuting_terms(h2_hamiltonian())
        with pytest.raises(ValueError):
            measurement_circuit(ryrz_ansatz([0.1], num_qubits=3,
                                            reps=2), groups[0])

    @pytest.mark.parametrize("label", ["ZZ", "XX"])
    def test_bell_state_parity_is_one(self, label):
        group, = group_commuting_terms(PauliOperator({label: 1.0}))
        circuit = measurement_circuit(bell_pair(), group)
        assert group_energy(ideal_probabilities(circuit),
                            group) == pytest.approx(1.0)

    def test_noisy_estimate_attenuated(self, toronto):
        """Depolarizing noise pulls |<ZZ>| toward zero, never past it."""
        group, = group_commuting_terms(PauliOperator({"ZZ": 1.0}))
        circuit = measurement_circuit(bell_pair(), group)
        outcome, = execute_allocation(qucp_allocate([circuit], toronto),
                                      shots=0)
        assert 0.5 < group_energy(outcome.result.probabilities,
                                  group) < 1.0


class TestDrivers:
    def test_ideal_scan_consistent_with_direct_expectation(self):
        thetas = [-0.5, 0.0, 0.5]
        scan = run_vqe_scan_ideal(thetas)
        for theta, energy in zip(scan.thetas, scan.energies):
            assert energy == pytest.approx(vqe_energy_ideal(theta),
                                           abs=1e-9)

    def test_parallel_scan_structure(self, manhattan):
        from repro.vqe import run_vqe_scan_parallel

        thetas = np.linspace(-2.0, -0.5, 4)
        result = run_vqe_scan_parallel(thetas, manhattan, shots=1024,
                                       seed=3)
        assert result.num_simultaneous == 8  # 4 thetas x 2 groups
        assert result.throughput == pytest.approx(16 / 65)
        assert len(result.energies) == 4

    def test_independent_close_to_parallel(self, manhattan):
        from repro.vqe import run_vqe_scan_independent, run_vqe_scan_parallel

        independent = run_vqe_scan_independent([0.4], manhattan, shots=0,
                                               seed=1)
        parallel = run_vqe_scan_parallel([0.4], manhattan, shots=0, seed=1)
        assert parallel.num_simultaneous == 2
        assert abs(parallel.energies[0] - vqe_energy_ideal(0.4)) < 0.35
        assert abs(independent.energies[0] - parallel.energies[0]) < 0.2

    def test_relative_error(self):
        assert relative_error_percent(-1.8, -2.0) == pytest.approx(10.0)
