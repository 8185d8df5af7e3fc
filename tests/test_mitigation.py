"""Unit tests for folding, factories, and the ZNE drivers."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.mitigation import (
    LinearFactory,
    PolyFactory,
    RichardsonFactory,
    fold_gates_at_random,
    folded_scale_factors,
    parity_expectation,
    zero_noise_estimate,
)
from repro.sim import circuit_unitary


def _equiv_phase(u, v, tol=1e-8):
    k = np.argmax(np.abs(v))
    idx = np.unravel_index(k, v.shape)
    phase = v[idx] / u[idx]
    return np.allclose(u * phase, v, atol=tol)


class TestFolding:
    def test_scale_one_is_identity_transform(self):
        qc = ghz_circuit(3)
        folded = fold_gates_at_random(qc, 1.0, seed=0)
        assert folded.size() == qc.size()

    def test_gate_count_scales(self):
        qc = ghz_circuit(4)
        n = qc.size()
        for scale in (1.5, 2.0, 2.5, 3.0):
            folded = fold_gates_at_random(qc, scale, seed=1)
            assert folded.size() == pytest.approx(scale * n, abs=1.9)

    def test_semantics_preserved(self):
        from repro.circuits import random_circuit

        qc = random_circuit(3, 5, seed=17)
        for scale in (1.5, 2.0, 3.0):
            folded = fold_gates_at_random(qc, scale, seed=3)
            assert _equiv_phase(circuit_unitary(qc),
                                circuit_unitary(folded))

    def test_measurements_stay_at_end(self):
        qc = ghz_circuit(2).measure_all()
        folded = fold_gates_at_random(qc, 2.0, seed=0)
        names = [i.name for i in folded]
        first_measure = names.index("measure")
        assert all(n == "measure" for n in names[first_measure:])

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            fold_gates_at_random(ghz_circuit(2), 0.5)

    def test_scale_factor_grid(self):
        assert folded_scale_factors() == (1.0, 1.5, 2.0, 2.5)


class TestFactories:
    def test_linear_recovers_line(self):
        scales = [1.0, 1.5, 2.0, 2.5]
        values = [0.9 - 0.1 * s for s in scales]
        assert LinearFactory().extrapolate(scales, values) == pytest.approx(
            0.9)

    def test_poly_recovers_quadratic(self):
        scales = [1.0, 1.5, 2.0, 2.5]
        values = [1.0 - 0.2 * s + 0.03 * s * s for s in scales]
        assert PolyFactory(order=2).extrapolate(
            scales, values) == pytest.approx(1.0, abs=1e-9)

    def test_richardson_interpolates_exactly(self):
        scales = [1.0, 1.5, 2.0]
        values = [0.8, 0.7, 0.55]
        est = RichardsonFactory().extrapolate(scales, values)
        # Degree-2 interpolating polynomial through the three points.
        coeffs = np.polyfit(scales, values, 2)
        assert est == pytest.approx(float(np.polyval(coeffs, 0.0)))

    def test_factories_need_enough_points(self):
        with pytest.raises(ValueError):
            LinearFactory().extrapolate([1.0], [0.5])
        with pytest.raises(ValueError):
            PolyFactory(order=2).extrapolate([1.0, 2.0], [0.5, 0.4])
        with pytest.raises(ValueError):
            RichardsonFactory().extrapolate([1.0, 1.0], [0.5, 0.4])

    def test_best_of_selection(self):
        scales = [1.0, 1.5, 2.0, 2.5]
        values = [0.9 - 0.1 * s for s in scales]
        est, name = zero_noise_estimate(scales, values, ideal=0.9)
        assert est == pytest.approx(0.9, abs=1e-9)

    def test_default_factory_is_richardson(self):
        scales = [1.0, 1.5, 2.0, 2.5]
        values = [0.9 - 0.1 * s for s in scales]
        _, name = zero_noise_estimate(scales, values)
        assert name == "richardson"


class TestParity:
    def test_even_parity_positive(self):
        assert parity_expectation({"00": 1.0}) == 1.0
        assert parity_expectation({"11": 1.0}) == 1.0

    def test_odd_parity_negative(self):
        assert parity_expectation({"01": 1.0}) == -1.0

    def test_mixture(self):
        assert parity_expectation({"00": 0.5, "01": 0.5}) == 0.0


class TestZNEEndToEnd:
    def test_zne_reduces_error_under_noise(self, toronto):
        """On a deterministic benchmark, mitigated error < unmitigated."""
        from repro.workloads import workload
        from repro.mitigation import run_zne_comparison

        qc = workload("fredkin").circuit()
        cmp = run_zne_comparison(qc, toronto, shots=0, seed=7)
        assert cmp.zne_error < cmp.baseline_error
        assert cmp.qucp_zne_error <= cmp.baseline_error + 0.05

    def test_comparison_reports_throughput_gain(self, manhattan):
        from repro.workloads import workload
        from repro.mitigation import run_zne_comparison

        qc = workload("linearsolver").circuit()
        cmp = run_zne_comparison(qc, manhattan, shots=0, seed=3)
        # Four folded 3q circuits at once: 12/65 qubits.
        assert cmp.qucp_zne_throughput == pytest.approx(12 / 65)

    def test_unmeasured_circuit_rejected(self, toronto):
        from repro.mitigation import run_zne_comparison

        with pytest.raises(ValueError):
            run_zne_comparison(ghz_circuit(2), toronto)
