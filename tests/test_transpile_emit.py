"""The compile passes emit instructions without ``QuantumCircuit.append``.

``decompose_to_basis``, ``route_circuit`` and ``fuse_oneq_runs`` push
instructions they built from already-validated ones straight onto the
output circuit, and ``decompose_to_basis`` rewrites each distinct 1q
gate once per call.  These tests pin both shortcuts to what the
validating path would have produced, bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.circuit import CircuitError, Instruction
from repro.circuits.controlflow import ControlFlowOp
from repro.circuits.gates import BASIS_GATES, gate
from repro.transpiler import basis as basis_mod
from repro.transpiler import (
    Layout,
    decompose_to_basis,
    route_circuit,
    transpile_for_partition,
)
from repro.transpiler import optimize as opt_mod
from repro.transpiler.basis import decompose_oneq_gate
from repro.transpiler.context import device_context
from repro.vqe import (
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
)
from repro.workloads import all_workloads, dynamic_workloads


def _connected(device, size, start=0):
    """A deterministic BFS-grown connected partition of *size* qubits."""
    seen, frontier = [start], deque([start])
    while frontier and len(seen) < size:
        for nb in sorted(device.coupling.neighbors(frontier.popleft())):
            if nb not in seen and len(seen) < size:
                seen.append(nb)
                frontier.append(nb)
    return tuple(sorted(seen))


def _revalidated(circuit: QuantumCircuit) -> QuantumCircuit:
    """*circuit* rebuilt through the public, validating append paths."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    for inst in circuit:
        assert all(type(q) is int for q in inst.qubits), inst
        assert all(type(c) is int for c in inst.clbits), inst
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                assert _revalidated(body) == body
            out._append_control_flow(inst.gate)  # noqa: SLF001
        else:
            out.append(inst.gate, inst.qubits, inst.clbits)
    return out


def _vqe_circuits():
    groups = group_commuting_terms(h2_hamiltonian())
    return [measurement_circuit(ryrz_ansatz([theta]), g)
            for theta in (0.0, -0.0, 0.7, -2.9) for g in groups]


def _random_circuits():
    circuits = []
    for seed in range(6):
        circuit = random_circuit(5, 16, seed=300 + seed)
        circuit.measure_all()
        circuits.append(circuit)
    return circuits


_SUITES = {
    "table2": lambda: [w.circuit() for w in all_workloads()],
    "dynamic": lambda: [w.circuit() for w in dynamic_workloads()],
    "vqe": _vqe_circuits,
    "random": _random_circuits,
}


class TestEmittedInstructionsAreValid:
    @pytest.mark.parametrize("suite", sorted(_SUITES))
    @pytest.mark.parametrize("device_name",
                             ["toronto", "manhattan", "melbourne"])
    def test_default_pipeline_output_passes_append(self, suite,
                                                   device_name, request):
        device = request.getfixturevalue(device_name)
        swaps = 0
        for circuit in _SUITES[suite]():
            partition = _connected(device, circuit.num_qubits)
            for level in range(4):
                result = transpile_for_partition(
                    circuit, device, partition, optimization_level=level)
                assert _revalidated(result.circuit) == result.circuit
                swaps += result.num_swaps
        if suite == "random":
            assert swaps > 0  # the random suite exercises swap emission


class TestRoutingChecksTheLayoutOnce:
    def test_off_device_layout_is_rejected(self, line5):
        # ``append`` caught this at the h; routing now checks up front.
        qc = QuantumCircuit(2, 2)
        qc.h(0).h(1).measure(1, 1)
        context = device_context(line5.coupling, line5.calibration)
        with pytest.raises(CircuitError, match="out of range"):
            route_circuit(qc, line5.coupling, Layout({0: 0, 1: 7}),
                          line5.calibration, context=context)


def _undeduplicated(circuit: QuantumCircuit) -> QuantumCircuit:
    """Basis decomposition through ``append``, each 1q gate rewritten
    afresh: what ``decompose_to_basis`` computed before it kept a
    per-call table of rewrites."""
    stage1 = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for inst in circuit:
        if inst.gate.is_directive or len(inst.qubits) == 1:
            stage1.append(inst.gate, inst.qubits, inst.clbits)
        else:
            basis_mod._decompose_multiq(stage1, inst)  # noqa: SLF001
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for inst in stage1:
        if inst.gate.is_directive or inst.name == "cx":
            out.append(inst.gate, inst.qubits, inst.clbits)
            continue
        for g in decompose_oneq_gate(inst.gate):
            out.append(g, inst.qubits)
    return out


def _bits(circuit: QuantumCircuit):
    """Instruction values, with ``repr`` telling ``-0.0`` from ``0.0``."""
    return [(inst.name, inst.gate.num_qubits,
             tuple(repr(p) for p in inst.params), inst.qubits,
             inst.clbits) for inst in circuit]


def _signed_zero_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(3, 3)
    for a, b in ((0.0, -0.0), (-0.0, 0.0)):
        qc.rz(a, 0).rz(b, 0).rz(a, 1)
        qc.u(a, b, a, 1).u(b, a, b, 2).u(a, a, b, 0)
        qc.u(math.pi / 2, a, b, 1).u(math.pi, b, a, 2).u(0.4, a, b, 0)
        qc.p(a, 2).p(b, 2).rx(b, 0).ry(a, 1).rx(a, 0).ry(b, 1)
        qc.append(gate("u2", a, b), (2,))
        qc.append(gate("u3", b, a, b), (0,))
        qc.cp(b, 0, 1).crz(a, 1, 2).rzz(b, 0, 2)
    # ``append`` lets a unitary carry clbits; stage 2 drops them.
    qc.append(gate("x"), (0,), (1,)).append(gate("h"), (2,), (0,))
    qc.measure_all()
    return qc


class TestPerCallRewrites:
    @pytest.mark.parametrize("make", [
        _signed_zero_circuit,
        lambda: _vqe_circuits()[3],
        lambda: random_circuit(4, 30, seed=11),
        lambda: [w.circuit() for w in all_workloads()][2],
    ])
    def test_same_bits_as_rewriting_every_gate(self, make):
        circuit = make()
        assert _bits(decompose_to_basis(circuit)) == \
            _bits(_undeduplicated(circuit))

    def test_signed_zero_rz_passes_through(self):
        qc = QuantumCircuit(1)
        qc.rz(0.0, 0).rz(-0.0, 0).rz(0.0, 0)
        assert [repr(i.params[0]) for i in decompose_to_basis(qc)] == \
            ["0.0", "-0.0", "0.0"]

    def test_each_distinct_gate_is_rewritten_once(self, monkeypatch):
        circuit = _vqe_circuits()[5]
        calls = []

        def counting(g):
            calls.append((g.name, g.params))
            return decompose_oneq_gate(g)

        monkeypatch.setattr(basis_mod, "decompose_oneq_gate", counting)
        decompose_to_basis(circuit)
        distinct = {(i.name, i.params) for i in circuit
                    if len(i.qubits) == 1 and not i.gate.is_directive
                    and i.name not in BASIS_GATES}
        assert sorted(calls) == sorted(distinct)
        assert len(calls) < sum(
            1 for i in circuit if i.name in ("ry", "h", "sdg"))
        # A second call starts from an empty table.
        calls.clear()
        decompose_to_basis(circuit)
        assert len(calls) == len(distinct)


class TestFusedRunMemoThreads:
    def test_hit_survives_a_concurrent_eviction(self, monkeypatch):
        run = [Instruction(gate("h"), (0,)),
               Instruction(gate("rz", 0.3), (0,)),
               Instruction(gate("h"), (0,))]
        other = [Instruction(gate("sx"), (0,)),
                 Instruction(gate("rz", 0.9), (0,)),
                 Instruction(gate("sx"), (0,))]
        key = tuple((i.name, i.params) for i in run)
        other_key = tuple((i.name, i.params) for i in other)
        evictors = []

        class EvictingMemo(OrderedDict):
            """On a hit of *key*, another job thread stores a new run
            before the hit is refreshed; with a bound of one entry that
            store evicts *key*."""

            def get(self, k, default=None):
                found = super().get(k, default)
                if k == key and found is not default and not evictors:
                    evictor = threading.Thread(target=opt_mod._fused_run,
                                               args=(other,))
                    evictors.append(evictor)
                    evictor.start()
                    evictor.join(timeout=0.25)
                return found

        memo = EvictingMemo()
        monkeypatch.setattr(opt_mod, "_FUSED_RUNS", memo)
        monkeypatch.setattr(opt_mod, "_FUSED_RUNS_MAX", 1)
        first = opt_mod._fused_run(run)  # a miss: stores *key*
        assert list(memo) == [key]
        assert opt_mod._fused_run(run) == first  # a hit, raced
        evictors[0].join()
        assert list(memo) == [other_key]
