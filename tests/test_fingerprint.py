"""One structural fingerprint per circuit, cached and interned.

:func:`repro.cache.keys.fingerprint` is cached on the circuit and read by
placement (``circuit_structure_key``), the compile cache
(``transpile_key``), the ideal-distribution table, the execution memos
and admission's cost model.  The unit tests pin what it holds; the
state machine mutates circuits through every public mutator between
serves and checks that no layer ever serves a stale value.
"""

import copy
import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache import ExecutionCache, circuit_key, fingerprint
from repro.cache import keys as keys_mod
from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.gates import Gate, gate
from repro.core import CompileService, ExecutionService
from repro.core.allocators import ProgramAllocation, circuit_structure_key
from repro.core.compile_service import _default_transpiler
from repro.hardware import linear_device
from repro.service.admission import CostModel
from repro.sim.executor import Program, run_parallel
from repro.sim.statevector import ideal_probabilities
from repro.vqe import (
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
)
from repro.workloads import all_workloads, dynamic_workloads


def _former_circuit_key(circuit):
    """The structural key as built before fingerprints: every entry
    from scratch on every call (the oracle)."""
    return (circuit.num_qubits, circuit.num_clbits,
            tuple(keys_mod._entry(inst) for inst in circuit))  # noqa: SLF001


def _families():
    groups = group_commuting_terms(h2_hamiltonian())
    random = []
    for seed in range(6):
        circuit = random_circuit(4, 12, seed=500 + seed)
        circuit.measure_all()
        random.append(circuit)
    return {
        "table2": [w.circuit() for w in all_workloads()],
        "vqe": [measurement_circuit(ryrz_ansatz([theta]), g)
                for theta in (0.0, 0.7, -2.9) for g in groups],
        "dynamic": [w.circuit() for w in dynamic_workloads()],
        "random": random,
    }


@pytest.mark.parametrize("family", ["table2", "vqe", "dynamic", "random"])
def test_key_and_counts_match_a_fresh_build(family):
    for circuit in _families()[family]:
        fp = fingerprint(circuit)
        assert fp.key == _former_circuit_key(circuit)
        assert circuit_key(circuit) == fp.key
        assert fp.size == circuit.size()
        assert fp.twoq == circuit.num_twoq_gates()
        assert fp.dynamic == circuit.has_control_flow()
        assert hash(fp) == hash(fp.key)


def test_static_circuits_cache_it_and_dynamic_ones_do_not():
    static = _families()["table2"][0]
    assert fingerprint(static) is fingerprint(static)
    assert static._fingerprint is fingerprint(static)  # noqa: SLF001
    dynamic = _families()["dynamic"][0]
    fingerprint(dynamic)
    assert dynamic._fingerprint is None  # noqa: SLF001


def test_equal_circuits_share_one_fingerprint_until_both_are_gone():
    def build():
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).rz(0.125, 2).cx(1, 2).measure_all()
        return qc

    first, second = build(), build()
    fp = fingerprint(first)
    assert fingerprint(second) is fp
    ref = weakref.ref(fp)
    del fp
    del first
    gc.collect()
    assert ref() is not None  # the second circuit still holds it
    del second
    gc.collect()
    assert ref() is None
    assert fingerprint(build()).key == _former_circuit_key(build())


def test_concurrent_first_reads_intern_one_object():
    def build(k):
        qc = QuantumCircuit(2, 2)
        qc.rz(0.001 * k, 0).cx(0, 1).measure_all()
        return qc

    got = {k: [] for k in range(20)}
    start = threading.Barrier(8, timeout=60)

    def work():
        for k in range(20):
            circuit = build(k)
            start.wait()  # every thread reads key k for the first time
            got[k].append(fingerprint(circuit))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, fps in got.items():
        assert len(fps) == 8
        assert all(fp is fps[0] for fp in fps), k


def test_copy_carries_it_and_an_append_to_the_copy_leaves_the_original():
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1)
    fp = fingerprint(qc)
    twin = qc.copy()
    assert twin._fingerprint is fp  # noqa: SLF001
    twin.measure_all()
    assert fingerprint(twin).key == _former_circuit_key(twin)
    assert fingerprint(twin) is not fp
    assert fingerprint(qc) is fp
    assert fp.key == _former_circuit_key(qc)


def test_a_register_resize_refingerprints():
    qc = QuantumCircuit(2, 1)
    qc.h(0).measure(0, 0)
    before = fingerprint(qc)
    qc.num_clbits = 2
    after = fingerprint(qc)
    assert after is not before
    assert after.key == _former_circuit_key(qc)


def test_mutating_an_if_body_after_appending_changes_the_outer_key():
    body = QuantumCircuit(2, 2)
    body.x(1)
    qc = QuantumCircuit(2, 2)
    qc.h(0).measure(0, 0)
    qc.if_test((0, 1), body)
    qc.measure(1, 1)
    before = circuit_key(qc)
    assert qc[2].gate.bodies[0] is body  # the op holds the caller's body
    body.z(1)
    after = circuit_key(qc)
    assert after != before
    assert after == _former_circuit_key(qc)


def test_unhashable_parameters_fail_when_keyed():
    # Gate angles are floats: a gate built directly around an array is
    # malformed, and keying its circuit says so at once.
    qc = QuantumCircuit(1)
    qc.append(Gate("rz", 1, (np.array([0.5]),)), [0])
    with pytest.raises(TypeError, match="unhashable"):
        fingerprint(qc)


def test_pickles_and_deep_copies_carry_no_fingerprint():
    device = linear_device(4, seed=7)
    for circuit in _families()["table2"][:4]:
        partition = tuple(range(circuit.num_qubits))
        if circuit.num_qubits > device.num_qubits:
            continue
        alloc = ProgramAllocation(0, circuit, partition, 0.5)
        artifact = _default_transpiler(circuit, device, alloc)
        cold = (pickle.dumps(circuit), pickle.dumps(artifact))
        fingerprint(circuit)
        fingerprint(artifact.circuit)
        assert (pickle.dumps(circuit), pickle.dumps(artifact)) == cold
        fresh = ExecutionCache._fresh(artifact)  # noqa: SLF001
        assert fresh.circuit._fingerprint is not None  # noqa: SLF001
        assert pickle.dumps(fresh) == cold[1]
        clone = copy.deepcopy(circuit)
        assert "_fingerprint" not in vars(clone)
        assert clone == circuit
        assert "_fingerprint" not in vars(pickle.loads(cold[0]))


def test_cache_hits_hand_out_fingerprinted_copies():
    device = linear_device(4, seed=7)
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1).measure_all()
    alloc = ProgramAllocation(0, qc, (0, 1), 0.5)
    service = CompileService()
    miss = service.transpile(qc, device, alloc)
    hit = service.transpile(qc, device, alloc)
    assert miss.circuit._fingerprint is None  # noqa: SLF001
    assert hit.circuit._fingerprint is fingerprint(miss.circuit)  # noqa: SLF001


# ----------------------------------------------------------------------
# mutation safety: a stateful machine over every public mutator
# ----------------------------------------------------------------------

#: A chain long enough to give each machine circuit its own partition.
_DEVICE = linear_device(12, seed=7)
_MAX_CIRCUITS = 3
_WIDTH = 3
_SHOTS = 32

_ONEQ = ("h", "x", "y", "z", "s", "sdg", "t", "sx")
_ONEQ_PARAM = ("rx", "ry", "rz", "p")
_TWOQ = ("cx", "cz", "swap")
_TWOQ_PARAM = ("rzz", "cp", "crz")

angles = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)


def _partition(index, circuit):
    start = index * _WIDTH
    return tuple(range(start, start + circuit.num_qubits))


class FingerprintMachine(RuleBasedStateMachine):
    """Build, serve, mutate and re-serve circuits; every served value
    must equal what a deep copy (no cached fingerprint) yields."""

    def __init__(self):
        super().__init__()
        self.circuits = []
        self.bodies = []  # if-bodies, mutated after their op is appended
        self.cache = ExecutionCache()
        self.compiler = CompileService(self.cache)
        self.executor = ExecutionService()
        self.costs = CostModel([_DEVICE])

    def _pick(self, which):
        return self.circuits[which % len(self.circuits)]

    # -- building ------------------------------------------------------
    @precondition(lambda self: len(self.circuits) < _MAX_CIRCUITS)
    @rule(qubits=st.integers(1, _WIDTH), clbits=st.integers(0, _WIDTH))
    def new_circuit(self, qubits, clbits):
        self.circuits.append(QuantumCircuit(qubits, clbits))

    @precondition(lambda self: 0 < len(self.circuits) < _MAX_CIRCUITS)
    @rule(which=st.integers(0, 7), name=st.sampled_from(_ONEQ),
          q=st.integers(0, 7))
    def copy_then_mutate(self, which, name, q):
        original = self._pick(which)
        before = _former_circuit_key(original)
        twin = original.copy()
        getattr(twin, name)(q % twin.num_qubits)
        self.circuits.append(twin)
        assert _former_circuit_key(original) == before

    # -- mutating ------------------------------------------------------
    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7), name=st.sampled_from(_ONEQ),
          q=st.integers(0, 7))
    def oneq(self, which, name, q):
        qc = self._pick(which)
        getattr(qc, name)(q % qc.num_qubits)

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7), name=st.sampled_from(_ONEQ_PARAM),
          theta=angles, q=st.integers(0, 7))
    def oneq_param(self, which, name, theta, q):
        qc = self._pick(which)
        getattr(qc, name)(theta, q % qc.num_qubits)

    @precondition(lambda self: any(c.num_qubits > 1 for c in self.circuits))
    @rule(which=st.integers(0, 7), name=st.sampled_from(_TWOQ),
          q=st.integers(0, 7), flip=st.booleans())
    def twoq(self, which, name, q, flip):
        qc = self._pick(which)
        if qc.num_qubits < 2:
            return
        a = q % (qc.num_qubits - 1)
        pair = (a + 1, a) if flip else (a, a + 1)
        getattr(qc, name)(*pair)

    @precondition(lambda self: any(c.num_qubits > 1 for c in self.circuits))
    @rule(which=st.integers(0, 7), name=st.sampled_from(_TWOQ_PARAM),
          theta=angles, q=st.integers(0, 7))
    def twoq_param(self, which, name, theta, q):
        qc = self._pick(which)
        if qc.num_qubits < 2:
            return
        a = q % (qc.num_qubits - 1)
        getattr(qc, name)(theta, a, a + 1)

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7),
          name=st.sampled_from(_ONEQ + _ONEQ_PARAM),
          theta=angles, q=st.integers(0, 7))
    def append(self, which, name, theta, q):
        qc = self._pick(which)
        params = (theta,) if name in _ONEQ_PARAM else ()
        qc.append(gate(name, *params), [q % qc.num_qubits])

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7), everything=st.booleans(),
          q=st.integers(0, 7))
    def barrier(self, which, everything, q):
        qc = self._pick(which)
        if everything:
            qc.barrier()
        else:
            qc.barrier(q % qc.num_qubits)

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7), q=st.integers(0, 7))
    def reset(self, which, q):
        qc = self._pick(which)
        qc.reset(q % qc.num_qubits)

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7), q=st.integers(0, 7),
          duration=st.sampled_from((16.0, 160.0)))
    def delay(self, which, q, duration):
        qc = self._pick(which)
        qc.delay(q % qc.num_qubits, duration)

    @precondition(lambda self: any(c.num_clbits for c in self.circuits))
    @rule(which=st.integers(0, 7), q=st.integers(0, 7), c=st.integers(0, 7))
    def measure(self, which, q, c):
        qc = self._pick(which)
        if qc.num_clbits:
            qc.measure(q % qc.num_qubits, c % qc.num_clbits)

    @precondition(lambda self: self.circuits)
    @rule(which=st.integers(0, 7))
    def measure_all(self, which):
        self._pick(which).measure_all()

    @precondition(lambda self: any(c.num_clbits for c in self.circuits))
    @rule(which=st.integers(0, 7), q=st.integers(0, 7), c=st.integers(0, 7),
          value=st.integers(0, 1))
    def if_test(self, which, q, c, value):
        qc = self._pick(which)
        if not qc.num_clbits:
            return
        body = QuantumCircuit(qc.num_qubits, qc.num_clbits)
        body.x(q % qc.num_qubits)
        qc.if_test((c % qc.num_clbits, value), body)
        self.bodies.append(body)

    @precondition(lambda self: self.bodies)
    @rule(which=st.integers(0, 7), name=st.sampled_from(_ONEQ),
          q=st.integers(0, 7))
    def mutate_if_body(self, which, name, q):
        body = self.bodies[which % len(self.bodies)]
        getattr(body, name)(q % body.num_qubits)

    # -- serving -------------------------------------------------------
    @invariant()
    def every_layer_serves_what_a_deep_copy_yields(self):
        programs, references = [], []
        for index, qc in enumerate(self.circuits):
            ref = copy.deepcopy(qc)
            assert "_fingerprint" not in vars(ref)
            twoq = ref.num_twoq_gates()
            assert circuit_structure_key(qc) == (
                ref.num_qubits, twoq, ref.size() - twoq)
            partition = _partition(index, qc)
            served = self.compiler.transpile(
                qc, _DEVICE, ProgramAllocation(0, qc, partition, 0.5))
            fresh = _default_transpiler(
                ref, _DEVICE, ProgramAllocation(0, ref, partition, 0.5))
            assert served.circuit == fresh.circuit
            assert served.initial_layout.as_dict() == \
                fresh.initial_layout.as_dict()
            assert self.cache.ideal(qc) == ideal_probabilities(ref)
            assert self.costs.program_ns(qc) == \
                CostModel([_DEVICE]).program_ns(ref)
            programs.append(Program(qc, partition))
            references.append(Program(ref, partition))
        if not programs:
            return
        got = self.executor.run_parallel(programs, _DEVICE, shots=_SHOTS,
                                         seed=11)
        want = run_parallel(references, _DEVICE, shots=_SHOTS, seed=11)
        for g, w in zip(got, want):
            assert g.probabilities == w.probabilities
            assert g.counts == w.counts
            assert g.measured_clbits == w.measured_clbits


FingerprintMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None)
test_fingerprint_machine = FingerprintMachine.TestCase
