"""Unit tests for the parallel-job executor (crosstalk + ALAP/ASAP)."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.circuits.controlflow import ControlFlowOp
from repro.sim.executor import (
    Program,
    _crosstalk_scales,
    prepare_parallel,
    program_duration,
    run_parallel,
    run_single,
    spawn_seeds,
    timed_intervals,
)


def _fidelity(result, good=("000", "111")):
    return sum(result.probabilities.get(k, 0.0) for k in good)


class TestProgram:
    def test_partition_size_check(self):
        with pytest.raises(ValueError):
            Program(ghz_circuit(3), (0, 1))

    def test_duplicate_partition_rejected(self):
        with pytest.raises(ValueError):
            Program(ghz_circuit(2), (1, 1))

    def test_physical_edge_normalized(self):
        prog = Program(ghz_circuit(2), (5, 2))
        assert prog.physical_edge(0, 1) == (2, 5)


class TestTimedIntervals:
    def test_asap_serial_chain(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        iv = timed_intervals(qc, {"x": 35.0}, mode="asap")
        assert iv == [(0.0, 35.0), (35.0, 70.0)]

    def test_parallel_gates_overlap(self):
        qc = QuantumCircuit(2)
        qc.x(0).x(1)
        iv = timed_intervals(qc, {"x": 35.0}, mode="asap")
        assert iv[0] == iv[1] == (0.0, 35.0)

    def test_alap_counts_from_end(self):
        qc = QuantumCircuit(2)
        qc.x(0).x(0).x(1)
        iv = timed_intervals(qc, {"x": 10.0}, mode="alap")
        # The lone x on qubit 1 is scheduled against the end: (0, 10).
        assert iv[2] == (0.0, 10.0)

    def test_delay_uses_param_duration(self):
        qc = QuantumCircuit(1)
        qc.delay(0, 123.0)
        iv = timed_intervals(qc, {}, mode="asap")
        assert iv == [(0.0, 123.0)]

    def test_program_duration(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        dur = program_duration(qc, {"h": 35.0, "cx": 300.0})
        assert dur == pytest.approx(335.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling mode"):
            timed_intervals(ghz_circuit(2), {}, mode="sideways")


class TestRunParallel:
    def test_overlapping_partitions_rejected(self, toronto):
        qc = ghz_circuit(2).measure_all()
        with pytest.raises(ValueError):
            run_parallel(
                [Program(qc, (0, 1)), Program(qc.copy(), (1, 2))],
                toronto)

    def test_gate_on_missing_link_rejected(self, toronto):
        qc = ghz_circuit(2).measure_all()
        # (0, 2) is not a Toronto link.
        with pytest.raises(ValueError):
            run_parallel([Program(qc, (0, 2))], toronto)

    def test_ideal_mode_no_noise(self, toronto):
        qc = ghz_circuit(3).measure_all()
        res = run_parallel([Program(qc, (0, 1, 2))], toronto,
                           noisy=False, shots=0)[0]
        assert _fidelity(res) == pytest.approx(1.0)

    def test_noisy_single_program(self, toronto):
        qc = ghz_circuit(3).measure_all()
        res = run_single(qc, (0, 1, 2), toronto, shots=0)
        assert 0.5 < _fidelity(res) < 1.0

    def test_crosstalk_degrades_neighbours(self, toronto):
        """A strongly-interfering aggressor lowers the victim's fidelity."""
        # Find a strong ground-truth pair on the device.
        strong = None
        for e1, e2 in toronto.coupling.all_one_hop_edge_pairs():
            if toronto.crosstalk.factor(e1, e2) >= 2.5:
                strong = (e1, e2)
                break
        assert strong is not None, "seeded device should have strong pairs"
        (a1, a2), (b1, b2) = strong
        deep = QuantumCircuit(2, 2)
        deep.h(0)
        for _ in range(6):
            deep.cx(0, 1)
        deep.measure(0, 0)
        deep.measure(1, 1)
        solo = run_single(deep, (a1, a2), toronto, shots=0)
        together = run_parallel(
            [Program(deep, (a1, a2)), Program(deep.copy(), (b1, b2))],
            toronto, shots=0)[0]
        good = ("00", "11")
        assert _fidelity(together, good) < _fidelity(solo, good)

    def test_distant_programs_unaffected(self, manhattan):
        qc = ghz_circuit(2).measure_all()
        solo = run_single(qc, (0, 1), manhattan, shots=0)
        far = run_parallel(
            [Program(qc, (0, 1)), Program(qc.copy(), (63, 64))],
            manhattan, shots=0)[0]
        assert _fidelity(far, ("00", "11")) == pytest.approx(
            _fidelity(solo, ("00", "11")), abs=1e-9)

    def test_alap_beats_asap_for_short_program(self, toronto):
        deep = ghz_circuit(3)
        for _ in range(10):
            deep.cx(0, 1).cx(1, 2)
        deep.measure_all()
        short = ghz_circuit(3).measure_all()
        progs = lambda: [Program(deep.copy(), (0, 1, 2)),
                         Program(short.copy(), (3, 5, 8))]
        alap = run_parallel(progs(), toronto, shots=0,
                            scheduling="alap")[1]
        asap = run_parallel(progs(), toronto, shots=0,
                            scheduling="asap")[1]
        assert _fidelity(alap) > _fidelity(asap)

    def test_programs_sample_independently(self, manhattan):
        """Regression: one base seed must not correlate the multinomial
        draws of co-scheduled programs — each gets a spawned child
        stream."""
        qc = QuantumCircuit(2, 2)
        qc.ry(0.7, 0).ry(1.9, 1).cx(0, 1)
        qc.measure(0, 0).measure(1, 1)
        res = run_parallel(
            [Program(qc, (0, 1)), Program(qc.copy(), (63, 64))],
            manhattan, shots=2000, seed=11, noisy=False)
        assert sum(res[0].counts.values()) == 2000
        assert res[0].counts != res[1].counts

    def test_seeded_parallel_run_reproducible(self, manhattan):
        qc = QuantumCircuit(2, 2)
        qc.ry(0.7, 0).ry(1.9, 1).cx(0, 1)
        qc.measure(0, 0).measure(1, 1)
        progs = lambda: [Program(qc.copy(), (0, 1)),
                         Program(qc.copy(), (63, 64))]
        a = run_parallel(progs(), manhattan, shots=500, seed=3, noisy=False)
        b = run_parallel(progs(), manhattan, shots=500, seed=3, noisy=False)
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_spawn_seeds(self):
        assert spawn_seeds(None, 3) == [None, None, None]
        children = spawn_seeds(42, 3)
        assert len(children) == 3
        states = {tuple(c.generate_state(4)) for c in children}
        assert len(states) == 3  # pairwise-distinct streams

    def test_spawn_seeds_does_not_mutate_caller_sequence(self):
        import numpy as np

        ss = np.random.SeedSequence(3)
        a = [tuple(c.generate_state(4)) for c in spawn_seeds(ss, 2)]
        b = [tuple(c.generate_state(4)) for c in spawn_seeds(ss, 2)]
        assert a == b  # same object -> same streams on every call
        assert ss.n_children_spawned == 0
        # ...and the caller's own spawns don't collide with ours.
        own = {tuple(c.generate_state(4)) for c in ss.spawn(2)}
        assert own.isdisjoint(a)

    def test_include_crosstalk_flag(self, toronto):
        strong = None
        for e1, e2 in toronto.coupling.all_one_hop_edge_pairs():
            if toronto.crosstalk.factor(e1, e2) >= 2.5:
                strong = (e1, e2)
                break
        (a1, a2), (b1, b2) = strong
        deep = QuantumCircuit(2, 2)
        deep.h(0)
        for _ in range(6):
            deep.cx(0, 1)
        deep.measure(0, 0)
        deep.measure(1, 1)
        progs = lambda: [Program(deep.copy(), (a1, a2)),
                         Program(deep.copy(), (b1, b2))]
        with_ct = run_parallel(progs(), toronto, shots=0,
                               include_crosstalk=True)[0]
        without = run_parallel(progs(), toronto, shots=0,
                               include_crosstalk=False)[0]
        assert _fidelity(without, ("00", "11")) > _fidelity(
            with_ct, ("00", "11"))


# ----------------------------------------------------------------------
# The joint schedule against its loop oracles
# ----------------------------------------------------------------------

def _reference_intervals(circuit, gate_duration, mode):
    """Per-instruction timing built the slow way, list by list (oracle
    for :func:`timed_intervals`)."""

    def makespan(body):
        return max((end for _, end in
                    _reference_intervals(body, gate_duration, "asap")),
                   default=0.0)

    def asap_times(instructions):
        avail, cavail, out = {}, {}, []
        for inst in instructions:
            if isinstance(inst.gate, ControlFlowOp):
                dur = inst.gate.duration_bound(makespan)
            elif inst.name == "delay":
                dur = float(inst.params[0])
            else:
                dur = gate_duration.get(inst.name, 35.0)
            if inst.name == "barrier":
                dur = 0.0
            start = max([avail.get(q, 0.0) for q in inst.qubits]
                        + [cavail.get(c, 0.0) for c in inst.clbits]
                        + [0.0])
            end = start + dur
            for q in inst.qubits:
                avail[q] = end
            for c in inst.clbits:
                cavail[c] = end
            out.append((start, end))
        return out

    if mode == "asap":
        return asap_times(circuit.instructions)
    return list(reversed(asap_times(list(reversed(circuit.instructions)))))


def _loop_scales(programs, device, scheduling):
    """The O(N^2) pairwise overlap loop (oracle for the vectorized
    :func:`_crosstalk_scales`): every victim CX multiplies its
    aggressors' terms one by one, in aggressor order."""
    durations = device.calibration.gate_duration
    active = []
    for p_idx, prog in enumerate(programs):
        intervals = _reference_intervals(prog.circuit, durations,
                                         scheduling)
        for i_idx, inst in enumerate(prog.circuit):
            if (inst.gate.is_directive or len(inst.qubits) != 2
                    or isinstance(inst.gate, ControlFlowOp)):
                continue
            start, end = intervals[i_idx]
            active.append((p_idx, i_idx, start, end,
                           prog.physical_edge(*inst.qubits)))
    scales = [dict() for _ in programs]
    for p_idx, i_idx, start, end, edge in active:
        duration = max(end - start, 1e-9)
        factor = 1.0
        for q_idx, _, s2, e2, other in active:
            if q_idx == p_idx:
                continue
            overlap = min(end, e2) - max(start, s2)
            if overlap <= 0.0:
                continue
            pair_factor = device.crosstalk.factor(edge, other)
            if pair_factor <= 1.0:
                continue
            weight = min(overlap / duration, 1.0)
            factor *= 1.0 + (pair_factor - 1.0) * weight
        if factor > 1.0:
            scales[p_idx][i_idx] = factor
    return scales


def _random_chain(rng, coupling, used, length):
    """A random simple path of *length* physical qubits off *used*,
    starting next to *used* when it can (so links sit one hop apart)."""
    free = [q for q in range(coupling.num_qubits) if q not in used]
    near = sorted({n for q in used for n in coupling.neighbors(q)} - used)
    path = [int(rng.choice(near or free))]
    while len(path) < length:
        step = [q for q in coupling.neighbors(path[-1])
                if q not in used and q not in path]
        if not step:
            return None
        path.append(int(rng.choice(step)))
    return tuple(path)


def _random_program(rng, num_qubits, with_cx):
    """Gates, delays, barriers, mid-circuit measures and an ``if_test``
    whose body holds a CX, over a chain of *num_qubits* qubits."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(int(rng.integers(6, 24))):
        q, c = (int(i) for i in rng.integers(num_qubits, size=2))
        kind = int(rng.integers(11))
        if kind < 6 and with_cx and num_qubits > 1:
            a = int(rng.integers(num_qubits - 1))
            qc.cx(a, a + 1) if rng.random() < 0.5 else qc.cx(a + 1, a)
        elif kind == 6:
            qc.delay(q, float(rng.uniform(0.0, 450.0)))
        elif kind == 7:
            qc.barrier(*sorted({q, int(rng.integers(num_qubits))}))
        elif kind == 8:
            qc.measure(q, c)
        elif kind == 9 and with_cx and num_qubits > 1:
            body = QuantumCircuit(num_qubits, num_qubits)
            body.x(q).cx(0, 1)
            qc.if_test(([c], 1), body)
        else:
            (qc.sx, qc.h, qc.x)[int(rng.integers(3))](q)
            qc.rz(float(rng.uniform(-3.0, 3.0)), q)
    return qc.measure_all()


def _random_batch(rng, device):
    """1-5 programs on disjoint chains; one in four has no CX."""
    programs, used = [], set()
    for _ in range(int(rng.integers(1, 6))):
        chain = _random_chain(rng, device.coupling, used,
                              int(rng.integers(1, 5)))
        if chain is None:
            continue
        used.update(chain)
        circuit = _random_program(rng, len(chain), rng.random() >= 0.25)
        programs.append(Program(circuit, chain))
    return programs


def _scale_items(scales):
    """Keys, their order, and each value's exact bits."""
    for scale in scales:
        for value in scale.values():
            assert type(value) is float
    return [[(k, v.hex()) for k, v in scale.items()] for scale in scales]


def _assert_matches_oracles(programs, device, scheduling):
    """The joint schedule equals the loop oracles item for item; returns
    how many instructions got a nonzero boost."""
    durations = device.calibration.gate_duration
    effective, scales = prepare_parallel(programs, device,
                                         scheduling=scheduling)
    for prog in effective:
        reference = _reference_intervals(prog.circuit, durations,
                                         scheduling)
        assert timed_intervals(prog.circuit, durations,
                               mode=scheduling) == reference
        asap = _reference_intervals(prog.circuit, durations, "asap")
        assert program_duration(prog.circuit, durations).hex() == max(
            (end for _, end in asap), default=0.0).hex()
    expected = _scale_items(_loop_scales(effective, device, scheduling))
    assert _scale_items(_crosstalk_scales(effective, device,
                                          scheduling)) == expected
    if len(programs) > 1:
        assert _scale_items(scales) == expected
    return sum(len(scale) for scale in scales)


class TestJointScheduleOracle:
    """The one-pass timing and the numpy overlap reproduce the loops they
    replaced bit for bit, padding and control flow included."""

    @pytest.mark.parametrize("scheduling", ["alap", "asap"])
    def test_random_batches_match_loop_oracle(self, toronto, scheduling):
        rng = np.random.default_rng(2024)
        boosted = sum(
            _assert_matches_oracles(_random_batch(rng, toronto), toronto,
                                    scheduling) > 0
            for _ in range(400))
        assert boosted > 80  # batches that do carry crosstalk

    @pytest.mark.parametrize("scheduling", ["alap", "asap"])
    def test_vqe_batch_matches_loop_oracle(self, manhattan, scheduling):
        from repro.core import qucp_allocate
        from repro.transpiler import transpile_for_partition
        from repro.vqe import (group_commuting_terms, h2_hamiltonian,
                               measurement_circuit, ryrz_ansatz)

        groups = group_commuting_terms(h2_hamiltonian())
        circuits = [measurement_circuit(ryrz_ansatz([theta]), group)
                    for theta in np.linspace(-3.0, 3.0, 8)
                    for group in groups]
        assert len(circuits) == 16
        batch = qucp_allocate(circuits, manhattan)
        programs = [
            Program(transpile_for_partition(alloc.circuit, manhattan,
                                            alloc.partition).circuit,
                    alloc.partition)
            for alloc in sorted(batch.allocations, key=lambda a: a.index)]
        assert _assert_matches_oracles(programs, manhattan,
                                       scheduling) > 0
