"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.circuits.gates import standard_gate_names
from repro.core import jensen_shannon_divergence, normalize_distribution, pst
from repro.mitigation import LinearFactory, RichardsonFactory, fold_gates_at_random
from repro.sim import (
    circuit_unitary,
    depolarizing_channel,
    simulate_density_matrix,
    simulate_statevector,
)
from repro.sim.noise_model import NoiseModel
from repro.transpiler import (decompose_to_basis, fuse_oneq_runs,
                              optimize_circuit)
from repro.vqe import PauliString

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@st.composite
def distributions(draw, min_keys=1, max_keys=8, width=3):
    n = draw(st.integers(min_keys, max_keys))
    keys = draw(st.lists(
        st.integers(0, 2 ** width - 1), min_size=n, max_size=n,
        unique=True))
    weights = draw(st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
    return {format(k, f"0{width}b"): w for k, w in zip(keys, weights)}


@st.composite
def small_circuits(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 6))
    return random_circuit(n, depth, seed=seed)


def _equiv_phase(u, v, tol=1e-7):
    k = np.argmax(np.abs(v))
    idx = np.unravel_index(k, v.shape)
    if abs(u[idx]) < 1e-12:
        return False
    phase = v[idx] / u[idx]
    return np.allclose(u * phase, v, atol=tol)


# ----------------------------------------------------------------------
# circuit / simulator invariants
# ----------------------------------------------------------------------


class TestCircuitProperties:
    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_statevector_normalized(self, qc):
        sv = simulate_statevector(qc)
        assert np.sum(np.abs(sv) ** 2) == pytest.approx(1.0, abs=1e-9)

    @given(small_circuits())
    @settings(max_examples=25, deadline=None)
    def test_inverse_restores_identity(self, qc):
        u = circuit_unitary(qc)
        u_inv = circuit_unitary(qc.inverse())
        assert np.allclose(u_inv @ u, np.eye(u.shape[0]), atol=1e-8)

    @given(small_circuits())
    @settings(max_examples=25, deadline=None)
    def test_basis_decomposition_equivalent(self, qc):
        dec = decompose_to_basis(qc)
        assert set(dec.count_ops()) <= {"rz", "sx", "x", "cx"}
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(dec))

    @given(small_circuits(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_optimization_preserves_semantics(self, qc, level):
        dec = decompose_to_basis(qc)
        opt = optimize_circuit(dec, level)
        assert opt.size() <= dec.size()
        assert _equiv_phase(circuit_unitary(dec), circuit_unitary(opt))

    @given(small_circuits(), st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_optimized_output_is_a_fixpoint(self, qc, level):
        # Level 3 returns a fixpoint of itself; a level-2 output is one
        # of fusion (optimizing it again at level 2 may still cancel a
        # pair its fusion or cancellation left adjacent).
        def bits(circuit):
            return [(i.name, i.qubits, tuple(map(repr, i.params)))
                    for i in circuit]

        opt = optimize_circuit(decompose_to_basis(qc), level)
        again = (fuse_oneq_runs(opt) if level == 2
                 else optimize_circuit(opt, 3))
        assert bits(again) == bits(opt)

    @given(small_circuits())
    @settings(max_examples=20, deadline=None)
    def test_depth_bounded_by_size(self, qc):
        assert qc.depth() <= qc.size()


class TestDensityMatrixProperties:
    @given(small_circuits(),
           st.floats(min_value=0.0, max_value=0.08))
    @settings(max_examples=20, deadline=None)
    def test_trace_and_positivity_under_noise(self, qc, err):
        n = qc.num_qubits
        nm = NoiseModel(
            oneq_error={q: err / 10 for q in range(n)},
            twoq_error={(a, b): err for a in range(n)
                        for b in range(a + 1, n)},
        )
        rho = simulate_density_matrix(qc, nm)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(rho).min() > -1e-8
        assert np.allclose(rho, rho.conj().T, atol=1e-10)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_depolarizing_is_cptp(self, p, nq):
        ch = depolarizing_channel(p, nq)
        d = 2 ** nq
        total = sum(op.conj().T @ op for op in ch.operators)
        assert np.allclose(total, np.eye(d), atol=1e-9)


# ----------------------------------------------------------------------
# metric invariants
# ----------------------------------------------------------------------


class TestMetricProperties:
    @given(distributions(), distributions())
    @settings(max_examples=60, deadline=None)
    def test_jsd_bounds_and_symmetry(self, p, q):
        jsd_pq = jensen_shannon_divergence(p, q)
        jsd_qp = jensen_shannon_divergence(q, p)
        assert 0.0 <= jsd_pq <= 1.0
        assert jsd_pq == pytest.approx(jsd_qp, abs=1e-9)

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_jsd_identity_is_zero(self, p):
        assert jensen_shannon_divergence(p, p) == pytest.approx(0.0,
                                                                abs=1e-9)

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_pst_in_unit_interval(self, p):
        key = next(iter(p))
        assert 0.0 <= pst(p, key) <= 1.0

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_normalization_sums_to_one(self, p):
        norm = normalize_distribution(p)
        assert sum(norm.values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Pauli algebra invariants
# ----------------------------------------------------------------------


class TestPauliProperties:
    @given(pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_self_product_is_identity(self, label):
        p = PauliString(label)
        phase, result = p * p
        assert phase == 1.0
        assert result.is_identity

    @given(pauli_labels, pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_product_matches_matrix_product(self, a_label, b_label):
        if len(a_label) != len(b_label):
            b_label = (b_label * len(a_label))[:len(a_label)]
        a, b = PauliString(a_label), PauliString(b_label)
        phase, result = a * b
        assert np.allclose(phase * result.matrix(),
                           a.matrix() @ b.matrix(), atol=1e-10)

    @given(pauli_labels, pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_commutation_matches_matrices(self, a_label, b_label):
        if len(a_label) != len(b_label):
            b_label = (b_label * len(a_label))[:len(a_label)]
        a, b = PauliString(a_label), PauliString(b_label)
        commutator = (a.matrix() @ b.matrix()
                      - b.matrix() @ a.matrix())
        assert a.commutes_with(b) == np.allclose(commutator, 0,
                                                 atol=1e-10)

    @given(pauli_labels, pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_qwc_implies_commuting(self, a_label, b_label):
        if len(a_label) != len(b_label):
            b_label = (b_label * len(a_label))[:len(a_label)]
        a, b = PauliString(a_label), PauliString(b_label)
        if a.qubit_wise_commutes_with(b):
            assert a.commutes_with(b)


# ----------------------------------------------------------------------
# folding / extrapolation invariants
# ----------------------------------------------------------------------


class TestMitigationProperties:
    @given(small_circuits(),
           st.floats(min_value=1.0, max_value=4.0),
           st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_folding_preserves_unitary(self, qc, scale, seed):
        folded = fold_gates_at_random(qc, scale, seed=seed)
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(folded))

    @given(small_circuits(),
           st.floats(min_value=1.0, max_value=4.0),
           st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_folding_gate_count_law(self, qc, scale, seed):
        folded = fold_gates_at_random(qc, scale, seed=seed)
        assert folded.size() == pytest.approx(scale * qc.size(), abs=2.0)

    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_linear_factory_exact_on_lines(self, intercept, slope):
        scales = [1.0, 1.5, 2.0, 2.5]
        values = [intercept + slope * s for s in scales]
        est = LinearFactory().extrapolate(scales, values)
        assert est == pytest.approx(intercept, abs=1e-8)

    @given(st.lists(st.floats(min_value=-1, max_value=1),
                    min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_richardson_passes_through_points(self, values):
        scales = [1.0, 2.0, 3.0]
        coeffs = np.polyfit(scales, values, 2)
        est = RichardsonFactory().extrapolate(scales, values)
        assert est == pytest.approx(float(np.polyval(coeffs, 0.0)),
                                    abs=1e-6)
