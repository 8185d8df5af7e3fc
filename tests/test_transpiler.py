"""Unit tests for the transpiler passes."""

import math

import numpy as np
import pytest

from repro.circuits import (
    BASIS_GATES,
    QuantumCircuit,
    ghz_circuit,
    qft_circuit,
    random_circuit,
)
from repro.circuits.gates import gate
from repro.sim import circuit_unitary, simulate_statevector
from repro.sim.executor import program_duration
from repro.transpiler import (
    Layout,
    cancel_adjacent_pairs,
    decompose_to_basis,
    fuse_oneq_runs,
    noise_aware_layout,
    optimize_circuit,
    route_circuit,
    schedule_alap,
    transpile,
    transpile_for_partition,
    zyz_angles,
)
from repro.transpiler.context import induced_coupling


def _equiv_phase(u, v, tol=1e-8):
    k = np.argmax(np.abs(v))
    idx = np.unravel_index(k, v.shape)
    if abs(u[idx]) < 1e-12:
        return False
    phase = v[idx] / u[idx]
    return np.allclose(u * phase, v, atol=tol)


class TestZyzAngles:
    @pytest.mark.parametrize("name,params", [
        ("h", ()), ("x", ()), ("s", ()), ("t", ()), ("sx", ()),
        ("rz", (0.7,)), ("ry", (1.1,)), ("rx", (-0.3,)),
        ("u", (0.4, 1.2, -0.8)),
    ])
    def test_angles_reconstruct_gate(self, name, params):
        g = gate(name, *params)
        theta, phi, lam = zyz_angles(g.matrix())
        rebuilt = gate("u", theta, phi, lam).matrix()
        assert _equiv_phase(rebuilt, g.matrix())

    def test_identity_angles(self):
        theta, phi, lam = zyz_angles(np.eye(2, dtype=complex))
        assert theta == pytest.approx(0.0)
        assert (phi + lam) % (2 * math.pi) == pytest.approx(0.0, abs=1e-9)


class TestBasisDecomposition:
    def test_output_gates_in_basis(self):
        qc = qft_circuit(3)
        dec = decompose_to_basis(qc)
        assert set(dec.count_ops()) <= set(BASIS_GATES)

    def test_semantics_preserved(self):
        for seed in range(3):
            qc = random_circuit(3, 6, seed=seed)
            assert _equiv_phase(circuit_unitary(qc),
                                circuit_unitary(decompose_to_basis(qc)))

    def test_toffoli_decomposition(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        dec = decompose_to_basis(qc)
        assert dec.num_cx() == 6
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(dec))

    def test_measures_pass_through(self):
        qc = ghz_circuit(2).measure_all()
        dec = decompose_to_basis(qc)
        assert dec.count_ops()["measure"] == 2


class TestLayout:
    def test_trivial(self):
        layout = Layout.trivial(3)
        assert layout.physical(1) == 1

    def test_from_sequence(self):
        layout = Layout.from_sequence([4, 2, 0])
        assert layout.physical(0) == 4
        assert layout.logical(2) == 1
        assert layout.logical(0) == 2
        assert layout.logical(3) is None

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1})

    def test_swap_physical(self):
        layout = Layout({0: 0, 1: 1})
        layout.swap_physical(0, 1)
        assert layout.physical(0) == 1
        assert layout.physical(1) == 0

    def test_swap_with_unoccupied(self):
        layout = Layout({0: 0})
        layout.swap_physical(0, 5)
        assert layout.physical(0) == 5

    def test_copy_independent(self):
        a = Layout({0: 0, 1: 1})
        b = a.copy()
        b.swap_physical(0, 1)
        assert a.physical(0) == 0


class TestMapping:
    def test_exhaustive_respects_interactions(self, line5):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cx(1, 2)
        layout = noise_aware_layout(qc, line5.coupling,
                                    line5.calibration)
        # Interacting qubits should be adjacent on the line.
        p = [layout.physical(q) for q in range(3)]
        assert abs(p[0] - p[1]) == 1
        assert abs(p[1] - p[2]) == 1

    def test_too_many_logical_qubits_rejected(self, line5):
        qc = QuantumCircuit(6)
        with pytest.raises(ValueError):
            noise_aware_layout(qc, line5.coupling, line5.calibration)

    def test_greedy_path_on_large_device(self, toronto):
        qc = QuantumCircuit(8)
        for q in range(7):
            qc.cx(q, q + 1)
        layout = noise_aware_layout(qc, toronto.coupling,
                                    toronto.calibration)
        placed = {layout.physical(q) for q in range(8)}
        assert len(placed) == 8


class TestRouting:
    def test_adjacent_gate_needs_no_swap(self, line5):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        routed = route_circuit(qc, line5.coupling, Layout.trivial(2),
                               line5.calibration)
        assert routed.num_swaps == 0

    def test_distant_gate_inserts_swaps(self, line5):
        qc = QuantumCircuit(5)
        qc.cx(0, 4)
        routed = route_circuit(qc, line5.coupling, Layout.trivial(5),
                               line5.calibration)
        assert routed.num_swaps == 3
        assert routed.circuit.num_cx() == 10  # 3 swaps * 3 + the gate

    def test_routing_preserves_semantics(self, line5):
        qc = random_circuit(4, 6, seed=13)
        dec = decompose_to_basis(qc)
        routed = route_circuit(dec, line5.coupling, Layout.trivial(4),
                               line5.calibration)
        sv_orig = np.abs(simulate_statevector(qc)) ** 2
        sv_routed = np.abs(
            simulate_statevector(routed.circuit)) ** 2
        # Compare marginals through the final layout.
        fl = routed.final_layout
        for idx in range(2 ** 4):
            bits = [(idx >> (3 - q)) & 1 for q in range(4)]
            pbits = [0] * 5
            for q in range(4):
                pbits[fl.physical(q)] = bits[q]
            pidx = 0
            for b in pbits:
                pidx = (pidx << 1) | b
            assert sv_orig[idx] == pytest.approx(sv_routed[pidx],
                                                 abs=1e-9)

    def test_measure_remapped_through_layout(self, line5):
        qc = QuantumCircuit(2, 2)
        qc.cx(0, 1).measure(0, 0).measure(1, 1)
        layout = Layout({0: 3, 1: 4})
        routed = route_circuit(qc, line5.coupling, layout,
                               line5.calibration)
        measures = [(i.qubits[0], i.clbits[0])
                    for i in routed.circuit if i.name == "measure"]
        assert measures == [(3, 0), (4, 1)]

    def test_multiq_gate_rejected(self, line5):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route_circuit(qc, line5.coupling, Layout.trivial(3))


class TestOptimize:
    def test_cancel_cx_pair(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(0, 1)
        assert cancel_adjacent_pairs(qc).size() == 0

    def test_no_cancel_across_blocker(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).x(0).cx(0, 1)
        assert cancel_adjacent_pairs(qc).size() == 3

    def test_no_cancel_reversed_cx(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(1, 0)
        assert cancel_adjacent_pairs(qc).size() == 2

    def test_h_pair_cancels(self):
        qc = QuantumCircuit(1)
        qc.h(0).h(0)
        assert cancel_adjacent_pairs(qc).size() == 0

    def test_fuse_rz_run(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0)
        fused = fuse_oneq_runs(qc)
        assert fused.size() == 0  # total rotation is zero

    def test_fuse_preserves_semantics(self):
        qc = random_circuit(3, 8, seed=21)
        fused = fuse_oneq_runs(decompose_to_basis(qc))
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(fused))

    def test_fusion_respects_cx_boundary(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(0)
        fused = fuse_oneq_runs(qc)
        # The two h cannot merge across the cx.
        names = [i.name for i in fused]
        assert names.count("cx") == 1
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(fused))

    def test_level3_fixpoint_smaller_or_equal(self):
        qc = decompose_to_basis(random_circuit(3, 10, seed=2))
        for level in (0, 1, 2, 3):
            opt = optimize_circuit(qc, level)
            assert opt.size() <= qc.size()
            assert _equiv_phase(circuit_unitary(qc), circuit_unitary(opt))

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(1), None, optimization_level=7)

    def test_fused_run_memo_is_bit_identical(self):
        # The fused-run memo (service traffic re-fuses the same few
        # runs endlessly) must be invisible: a cold fuse and a memoized
        # fuse of the same circuit produce identical instructions.
        from repro.transpiler import optimize as opt_mod

        qc = decompose_to_basis(random_circuit(3, 14, seed=8))
        saved = dict(opt_mod._FUSED_RUNS)
        try:
            opt_mod._FUSED_RUNS.clear()
            cold = optimize_circuit(qc, 3)
            assert len(opt_mod._FUSED_RUNS) > 0  # the memo populated
            warm = optimize_circuit(qc, 3)
            assert [(i.name, i.params, i.qubits) for i in cold] == [
                (i.name, i.params, i.qubits) for i in warm]
            assert _equiv_phase(circuit_unitary(qc),
                                circuit_unitary(warm))
        finally:
            opt_mod._FUSED_RUNS.clear()
            opt_mod._FUSED_RUNS.update(saved)


class TestSchedule:
    def test_delays_inserted_in_gaps(self):
        qc = QuantumCircuit(2, 2)
        qc.x(0).x(0).x(0)
        qc.x(1)
        qc.cx(0, 1)
        scheduled = schedule_alap(qc, {"x": 10.0, "cx": 100.0})
        # Qubit 1's x is ALAP-scheduled right before the cx: no gap.
        assert scheduled.count_ops().get("delay", 0) == 0

    def test_mid_circuit_gap_gets_delay(self):
        qc = QuantumCircuit(2, 2)
        qc.x(1)
        qc.x(0).x(0).x(0)
        qc.cx(0, 1)
        qc.x(1)  # forces qubit 1's first x early via dependency? no —
        # make a real gap: qubit 1 interacts at start and at end.
        qc2 = QuantumCircuit(2)
        qc2.cx(0, 1)
        qc2.x(0).x(0).x(0)
        qc2.cx(0, 1)
        scheduled = schedule_alap(qc2, {"x": 10.0, "cx": 100.0})
        assert scheduled.count_ops().get("delay", 0) >= 1

    def test_circuit_duration(self):
        qc = QuantumCircuit(2)
        qc.x(0).cx(0, 1)
        assert program_duration(qc, {"x": 35.0, "cx": 300.0}) == 335.0


class TestTranspileEndToEnd:
    def test_output_in_basis(self, toronto):
        result = transpile_for_partition(
            qft_circuit(3).measure_all(), toronto, (0, 1, 2, 3))
        names = set(result.circuit.count_ops())
        assert names <= {"rz", "sx", "x", "cx", "measure", "delay",
                         "barrier"}

    def test_respects_partition_coupling(self, toronto):
        partition = (0, 1, 4, 7)
        result = transpile_for_partition(
            qft_circuit(4).measure_all(), toronto, partition)
        local_coupling = induced_coupling(toronto.coupling, partition)
        for inst in result.circuit:
            if len(inst.qubits) == 2:
                assert local_coupling.is_edge(*inst.qubits)

    def test_optimization_level_reduces_gates(self, line5):
        qc = qft_circuit(4)
        low = transpile(qc, line5.coupling, line5.calibration,
                        optimization_level=0)
        high = transpile(qc, line5.coupling, line5.calibration,
                         optimization_level=3)
        assert high.circuit.size() <= low.circuit.size()
