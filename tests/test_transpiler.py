"""Unit tests for the transpiler passes."""

import math
from collections import OrderedDict

import numpy as np
import pytest

from repro.circuits import (
    BASIS_GATES,
    QuantumCircuit,
    ghz_circuit,
    qft_circuit,
    random_circuit,
)
from repro.circuits.controlflow import ControlFlowOp
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
from repro.transpiler import optimize as opt_mod
from repro.transpiler.context import induced_coupling
from repro.vqe import (group_commuting_terms, h2_hamiltonian,
                       measurement_circuit, ryrz_ansatz)
from repro.workloads import (all_workloads, dynamic_circuit,
                             dynamic_workload_names)


def _equiv_phase(u, v, tol=1e-8):
    k = np.argmax(np.abs(v))
    idx = np.unravel_index(k, v.shape)
    if abs(u[idx]) < 1e-12:
        return False
    phase = v[idx] / u[idx]
    return np.allclose(u * phase, v, atol=tol)


def _bits(circuit):
    """Each instruction's name, qubits, clbits and exact parameter bits
    (control-flow bodies recursively)."""
    out = []
    for inst in circuit:
        if isinstance(inst.gate, ControlFlowOp):
            payload = tuple(_bits(body) for body in inst.gate.bodies)
        else:
            payload = tuple(repr(p) for p in inst.params)
        out.append((inst.name, inst.qubits, inst.clbits, payload))
    return out


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

    def test_fewer_pulses_win_a_tie(self):
        # rz x sx fuses to rz sx rz: as many gates, one pulse fewer.
        qc = QuantumCircuit(1)
        qc.rz(0.4, 0).x(0).sx(0)
        fused = fuse_oneq_runs(qc)
        assert [i.name for i in fused] == ["rz", "sx", "rz"]
        assert _equiv_phase(circuit_unitary(qc), circuit_unitary(fused))

    def test_zxzxz_run_is_kept(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).sx(0).rz(1.1, 0).sx(0).rz(-0.4, 0)
        assert list(fuse_oneq_runs(qc)) == list(qc)

    def test_signed_zero_runs_fuse_to_the_same_bits(self, monkeypatch):
        # Memo keys equate 0.0 with -0.0, so whichever run is fused
        # first serves both: both must fuse to the same bits.
        def run(zero):
            qc = QuantumCircuit(1)
            qc.sx(0).rz(zero, 0).x(0).rz(0.7, 0).sx(0).rz(zero, 0)
            return qc.sx(0)

        outputs = []
        for order in ((-0.0, 0.0), (0.0, -0.0)):
            monkeypatch.setattr(opt_mod, "_FUSED_RUNS", OrderedDict())
            outputs.extend(_bits(fuse_oneq_runs(run(z))) for z in order)
        assert len(outputs[0]) < 7  # the fused form replaced the run
        assert all(out == outputs[0] for out in outputs)

    def test_cancellation_lets_the_outer_runs_merge(self):
        # The middle run fuses away, the CX pair then cancels, and the
        # outer runs merge into one rz.
        qc = QuantumCircuit(2)
        qc.rz(0.3, 1).cx(0, 1).rz(0.5, 1).rz(-0.5, 1).cx(0, 1)
        qc.rz(0.4, 1)
        opt = optimize_circuit(qc, 3)
        assert [(i.name, i.qubits) for i in opt] == [("rz", (1,))]
        assert opt[0].params[0] == pytest.approx(0.7)


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


# ----------------------------------------------------------------------
# Level 3 returns a fixpoint of itself
# ----------------------------------------------------------------------

def _connected(device, size, start=1):
    """A BFS-grown connected partition of *size* qubits."""
    seen, frontier = [start], [start]
    while frontier and len(seen) < size:
        for nb in device.coupling.neighbors(frontier.pop(0)):
            if nb not in seen and len(seen) < size:
                seen.append(nb)
                frontier.append(nb)
    return tuple(sorted(seen))


def _random_40(seed):
    """A seeded random 4-qubit, 40-gate circuit, measured."""
    rng = np.random.default_rng(seed)
    names = ("h", "x", "sx", "s", "t", "rz", "ry", "rx", "cx", "cx")
    qc = QuantumCircuit(4, 4)
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        if name == "cx":
            a, b = rng.choice(4, size=2, replace=False)
            qc.cx(int(a), int(b))
        elif name in ("rz", "ry", "rx"):
            qc.append(gate(name, float(rng.uniform(-math.pi, math.pi))),
                      (int(rng.integers(4)),))
        else:
            qc.append(gate(name), (int(rng.integers(4)),))
    return qc.measure_all()


def _fixpoint_suite(device):
    """(circuit, partition, has a unitary) triples: Table II, the
    dynamic suite, VQE at 100 angles and 300 seeded random circuits."""
    suite = [(w.circuit(), _connected(device, w.circuit().num_qubits),
              True)
             for w in sorted(all_workloads(), key=lambda w: w.name)]
    for name in dynamic_workload_names():
        circuit = dynamic_circuit(name)
        suite.append((circuit, (3, 5, 8, 11, 14)[:circuit.num_qubits],
                      False))
    groups = group_commuting_terms(h2_hamiltonian())
    rng = np.random.default_rng(16)
    for theta in rng.uniform(-math.pi, math.pi, size=100):
        ansatz = ryrz_ansatz([float(theta)])
        suite.extend((measurement_circuit(ansatz, group), (1, 2), True)
                     for group in groups)
    suite.extend((_random_40(seed), (1, 2, 3, 4), True)
                 for seed in range(300))
    return suite


def _unitary(circuit):
    """The unitary of *circuit* without its final measurements."""
    body = QuantumCircuit(circuit.num_qubits)
    for inst in circuit:
        if inst.name != "measure":
            body.append(inst.gate, inst.qubits)
    return circuit_unitary(body)


def _gates_and_pulses(circuit):
    gates = pulses = 0
    for inst in circuit:
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                g, p = _gates_and_pulses(body)
                gates, pulses = gates + g, pulses + p
        elif not inst.gate.is_directive:
            gates += 1
            pulses += inst.name in ("sx", "x")
    return gates, pulses


def _assert_level3_fixpoint(circuit):
    assert _bits(optimize_circuit(circuit, 3)) == _bits(circuit)
    for inst in circuit:
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                _assert_level3_fixpoint(body)


class TestLevel3Fixpoint:
    #: Gates and pulses (``sx``/``x``) the suite compiled to before
    #: level 3 stopped at a fixpoint (208 of its 512 compiles were not
    #: fixpoints then); the optimizer must not emit more.
    PARENT_GATES = 25_207
    PARENT_PULSES = 7_414

    def test_compiles_are_fixpoints_that_keep_the_unitary(self, toronto):
        gates = pulses = 0
        for circuit, partition, unitary in _fixpoint_suite(toronto):
            opt = transpile_for_partition(circuit, toronto, partition,
                                          schedule=False).circuit
            _assert_level3_fixpoint(opt)
            g, p = _gates_and_pulses(opt)
            gates, pulses = gates + g, pulses + p
            if not unitary:
                continue
            routed = transpile_for_partition(
                circuit, toronto, partition, optimization_level=0,
                schedule=False).circuit
            u, v = _unitary(routed), _unitary(opt)
            idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
            np.testing.assert_allclose(u * (v[idx] / u[idx]), v,
                                       rtol=0, atol=1e-10)
        assert gates <= self.PARENT_GATES
        assert pulses <= self.PARENT_PULSES
