"""The compile passes emit instructions without ``QuantumCircuit.append``.

``decompose_to_basis``, ``route_circuit`` and ``fuse_oneq_runs`` push
instructions they built from already-validated ones straight onto the
output circuit, and ``decompose_to_basis`` rewrites each distinct 1q
gate once per call.  These tests pin both shortcuts to what the
validating path would have produced, bit for bit.

``transpile()`` also replays layout, routing and ALAP plans memoized on
the partition context; a compile on a warm context (plan hit) must equal
one on a fresh context (plan miss), bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import sys
import threading
import time
import weakref
from collections import OrderedDict, deque

import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.circuit import CircuitError, Instruction
from repro.circuits.controlflow import ControlFlowOp
from repro.circuits.gates import BASIS_GATES, gate
from repro.transpiler import basis as basis_mod
from repro.transpiler import (
    DeviceContext,
    Layout,
    decompose_to_basis,
    route_circuit,
    transpile,
    transpile_for_partition,
)
from repro.transpiler import context as context_mod
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


def _vqe_circuits(thetas=(0.0, -0.0, 0.7, -2.9)):
    groups = group_commuting_terms(h2_hamiltonian())
    return [measurement_circuit(ryrz_ansatz([theta]), g)
            for theta in thetas for g in groups]


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


# ----------------------------------------------------------------------
# Plans memoized on the partition context
# ----------------------------------------------------------------------

def _shifted(circuit: QuantumCircuit, delta: float) -> QuantumCircuit:
    """*circuit* with every ``rz`` angle moved by *delta*: the same
    skeleton with other angles."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    for inst in circuit:
        g = gate("rz", inst.params[0] + delta) if inst.name == "rz" \
            else inst.gate
        out.append(g, inst.qubits, inst.clbits)
    return out


def _plan_vqe_circuits():
    return _vqe_circuits((0.0, -0.0, math.pi / 2, math.pi, 0.7))


def _plan_random_circuits():
    base = _random_circuits()
    return base + [_shifted(c, 0.25) for c in base]


_PLAN_SUITES = {
    "table2": _SUITES["table2"],
    "dynamic": _SUITES["dynamic"],
    "vqe": _plan_vqe_circuits,
    "random": _plan_random_circuits,
}


def _fresh(device) -> DeviceContext:
    return DeviceContext(device.coupling, device.calibration)


def _same_result(a, b) -> bool:
    return (_bits(a.circuit) == _bits(b.circuit)
            and (a.circuit.num_qubits, a.circuit.num_clbits)
            == (b.circuit.num_qubits, b.circuit.num_clbits)
            and a.initial_layout == b.initial_layout
            and a.final_layout == b.final_layout
            and a.num_swaps == b.num_swaps)


def _plan_counts(context: DeviceContext, partition) -> tuple:
    stats = context.partition_context(partition).stats
    return stats["plan_hits"], stats["plan_misses"]


class TestPlanHitEqualsMiss:
    @pytest.mark.parametrize("suite", sorted(_PLAN_SUITES))
    @pytest.mark.parametrize("device_name",
                             ["toronto", "manhattan", "melbourne"])
    def test_warm_context_compiles_like_a_fresh_one(self, suite,
                                                    device_name, request):
        device = request.getfixturevalue(device_name)
        warm = _fresh(device)
        hits = replayed_swaps = 0
        for circuit in _PLAN_SUITES[suite]():
            partition = _connected(device, circuit.num_qubits)
            for level in range(4):
                for schedule in (False, True):
                    kwargs = dict(optimization_level=level,
                                  schedule=schedule)
                    transpile_for_partition(circuit, device, partition,
                                            context=warm, **kwargs)
                    before = _plan_counts(warm, partition)
                    hit = transpile_for_partition(
                        circuit, device, partition, context=warm,
                        **kwargs)
                    after = _plan_counts(warm, partition)
                    miss = transpile_for_partition(
                        circuit, device, partition,
                        context=_fresh(device), **kwargs)
                    assert _same_result(hit, miss)
                    assert _revalidated(hit.circuit) == hit.circuit
                    if after[1] == before[1] and after[0] > before[0]:
                        hits += 1
                        replayed_swaps += hit.num_swaps
        assert hits > 0
        if suite == "random":
            assert replayed_swaps > 0  # hits replay swaps, too

    def test_other_angles_hit_the_same_plans(self, manhattan):
        circuit = _random_circuits()[0]
        partition = _connected(manhattan, circuit.num_qubits)
        warm = _fresh(manhattan)
        transpile_for_partition(circuit, manhattan, partition,
                                context=warm)
        shifted = _shifted(circuit, 0.5)
        hit = transpile_for_partition(shifted, manhattan, partition,
                                      context=warm)
        assert _plan_counts(warm, partition) == (2, 2)
        assert hit.num_swaps > 0
        miss = transpile_for_partition(shifted, manhattan, partition,
                                       context=_fresh(manhattan))
        assert _same_result(hit, miss)

    def test_handed_out_layouts_are_copies(self, toronto):
        circuit = _random_circuits()[1]
        partition = _connected(toronto, circuit.num_qubits)
        warm = _fresh(toronto)
        first = transpile_for_partition(circuit, toronto, partition,
                                        context=warm)
        first.initial_layout.swap_physical(0, 1)
        first.final_layout.swap_physical(0, 1)
        again = transpile_for_partition(circuit, toronto, partition,
                                        context=warm)
        miss = transpile_for_partition(circuit, toronto, partition,
                                       context=_fresh(toronto))
        assert _same_result(again, miss)


class TestPlanKeys:
    def test_seeds_get_separate_route_plans(self, manhattan):
        # Past seven physical qubits the greedy layout reads the seed.
        circuit = random_circuit(8, 12, seed=5)
        circuit.measure_all()
        partition = _connected(manhattan, 10)
        warm = _fresh(manhattan)
        for seed in (0, 1):
            transpile_for_partition(circuit, manhattan, partition,
                                    context=warm, schedule=False,
                                    seed=seed)
        assert _plan_counts(warm, partition) == (0, 2)
        for seed in (0, 1):
            hit = transpile_for_partition(circuit, manhattan, partition,
                                          context=warm, schedule=False,
                                          seed=seed)
            miss = transpile_for_partition(
                circuit, manhattan, partition, context=_fresh(manhattan),
                schedule=False, seed=seed)
            assert _same_result(hit, miss)
        assert _plan_counts(warm, partition) == (2, 2)

    def test_degenerate_angle_gets_its_own_plan(self, toronto):
        generic, degenerate = (
            measurement_circuit(ryrz_ansatz([theta]),
                                group_commuting_terms(h2_hamiltonian())[0])
            for theta in (0.7, 0.0))
        assert len(decompose_to_basis(degenerate)) < \
            len(decompose_to_basis(generic))
        partition = _connected(toronto, 2)
        warm = _fresh(toronto)
        transpile_for_partition(generic, toronto, partition, context=warm)
        hits, misses = _plan_counts(warm, partition)
        result = transpile_for_partition(degenerate, toronto, partition,
                                         context=warm)
        assert _plan_counts(warm, partition) == (hits, misses + 2)
        assert _same_result(result, transpile_for_partition(
            degenerate, toronto, partition, context=_fresh(toronto)))

    def test_idle_qubits_get_their_own_route_plan(self, toronto):
        # The layout places every logical qubit, used or not.
        narrow, wide = QuantumCircuit(2, 2), QuantumCircuit(3, 2)
        for qc in (narrow, wide):
            qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        partition = _connected(toronto, 3)
        warm = _fresh(toronto)
        transpile_for_partition(narrow, toronto, partition, context=warm)
        result = transpile_for_partition(wide, toronto, partition,
                                         context=warm)
        assert len(result.initial_layout) == 3
        assert _same_result(result, transpile_for_partition(
            wide, toronto, partition, context=_fresh(toronto)))

    def test_delay_durations_get_their_own_alap_plan(self, toronto):
        def circuit(duration):
            qc = QuantumCircuit(2, 2)
            qc.cx(0, 1).sx(0).sx(1).delay(1, duration).sx(1)
            return qc.measure(0, 0).measure(1, 1)

        partition = _connected(toronto, 2)
        warm = _fresh(toronto)
        transpile_for_partition(circuit(100.0), toronto, partition,
                                context=warm)
        result = transpile_for_partition(circuit(400.0), toronto,
                                         partition, context=warm)
        assert _plan_counts(warm, partition) == (1, 3)
        assert _same_result(result, transpile_for_partition(
            circuit(400.0), toronto, partition, context=_fresh(toronto)))

    def test_changed_durations_get_their_own_alap_plan(self, toronto):
        circuit = _random_circuits()[2]
        sub = _fresh(toronto).partition_context(
            _connected(toronto, circuit.num_qubits))
        slower = dataclasses.replace(
            sub.calibration,
            gate_duration={**sub.calibration.gate_duration, "cx": 410.0})
        transpile(circuit, sub.coupling, sub.calibration, schedule=True,
                  context=sub)
        assert (sub.stats["plan_hits"], sub.stats["plan_misses"]) == (0, 2)
        # The route plan reads only the context; the ALAP plan reads
        # the duration table, so it misses.
        result = transpile(circuit, sub.coupling, slower, schedule=True,
                           context=sub)
        assert (sub.stats["plan_hits"], sub.stats["plan_misses"]) == (1, 3)
        reference = transpile(
            circuit, sub.coupling, slower, schedule=True,
            context=DeviceContext(sub.coupling, slower))
        assert _same_result(result, reference)

    def test_route_plan_reads_the_context_calibration(self, manhattan):
        # Past seven physical qubits the greedy layout reads error rates.
        # The plan takes them from the context, so the call that builds
        # it cannot change what later calls replay.
        circuit = random_circuit(8, 12, seed=5)
        circuit.measure_all()
        partition = _connected(manhattan, 10)
        sub = _fresh(manhattan).partition_context(partition)
        cal = sub.calibration
        ranked = sorted(cal.twoq_error, key=cal.twoq_error.get)
        reversed_errors = dataclasses.replace(cal, twoq_error={
            link: cal.twoq_error[ranked[-1 - i]]
            for i, link in enumerate(ranked)})
        transpile(circuit, sub.coupling, reversed_errors, context=sub)
        hit = transpile(circuit, sub.coupling, cal, context=sub)
        assert (sub.stats["plan_hits"], sub.stats["plan_misses"]) == (1, 1)
        miss = transpile(circuit, sub.coupling, cal,
                         context=_fresh(manhattan).partition_context(
                             partition))
        assert _same_result(hit, miss)

    @pytest.mark.parametrize("route", ["sabre", "caller_layout"])
    def test_other_routes_replay_only_the_alap_plan(self, toronto, route):
        circuit = _random_circuits()[0]
        partition = _connected(toronto, circuit.num_qubits)
        kwargs = (dict(router="sabre") if route == "sabre" else
                  dict(initial_layout=Layout.trivial(circuit.num_qubits)))

        def compile_on(sub):
            return transpile(circuit, sub.coupling, sub.calibration,
                             schedule=True, context=sub, **kwargs)

        sub = _fresh(toronto).partition_context(partition)
        compile_on(sub)
        hit = compile_on(sub)
        assert (sub.stats["plan_hits"], sub.stats["plan_misses"]) == (1, 1)
        assert hit.num_swaps > 0
        assert _same_result(hit, compile_on(
            _fresh(toronto).partition_context(partition)))


class TestPlanCounters:
    def test_fresh_angles_on_warm_partitions_only_hit(self, manhattan):
        groups = group_commuting_terms(h2_hamiltonian())
        partitions, used = [], set()
        for start in range(manhattan.num_qubits):
            pair = _connected(manhattan, 2, start)
            if not used & set(pair):
                partitions.append(pair)
                used.update(pair)
        partitions = partitions[:16]
        assert len(partitions) == 16
        warm = _fresh(manhattan)

        def compile_all(theta0):
            for i, partition in enumerate(partitions):
                circuit = measurement_circuit(
                    ryrz_ansatz([theta0 + 0.01 * i]), groups[i % 2])
                transpile_for_partition(circuit, manhattan, partition,
                                        context=warm)

        def totals():
            counts = [_plan_counts(warm, p) for p in partitions]
            return tuple(sum(c[k] for c in counts) for k in (0, 1))

        compile_all(0.4)
        assert totals() == (0, 32)
        compile_all(1.1)
        assert totals() == (32, 32)


class TestPlanBound:
    def test_table_stays_within_its_bound(self, toronto, monkeypatch):
        monkeypatch.setattr(context_mod, "_PLANS_MAX", 4)
        circuits = [random_circuit(3, 6, seed=40 + i) for i in range(9)]
        partition = _connected(toronto, 3)
        warm = _fresh(toronto)
        sub = warm.partition_context(partition)
        for circuit in circuits:
            hit = transpile_for_partition(circuit, toronto, partition,
                                          context=warm)
            assert len(context_mod._PLANS) <= 4  # noqa: SLF001
            assert _same_result(hit, transpile_for_partition(
                circuit, toronto, partition, context=_fresh(toronto)))
        assert sub.stats["plan_misses"] == 18
        # The first skeleton was evicted long ago: it misses again.
        transpile_for_partition(circuits[0], toronto, partition,
                                context=warm)
        assert sub.stats["plan_misses"] == 20

    def test_plans_do_not_pin_their_context(self, toronto):
        circuit = _random_circuits()[1]
        partition = _connected(toronto, circuit.num_qubits)
        dropped = _fresh(toronto)
        transpile_for_partition(circuit, toronto, partition,
                                context=dropped)
        alive = weakref.ref(dropped)
        del dropped
        gc.collect()
        assert alive() is None
        later = _fresh(toronto)
        transpile_for_partition(circuit, toronto, partition, context=later)
        assert _plan_counts(later, partition) == (0, 2)


class TestPlanThreads:
    def test_shared_partitions_compile_like_serial(self, toronto,
                                                   monkeypatch):
        # A small bound makes threads evict each other's plans, too.
        monkeypatch.setattr(context_mod, "_PLANS_MAX", 3)
        circuits = _plan_random_circuits()[:4] + _plan_vqe_circuits()[4:8]
        partitions = [_connected(toronto, c.num_qubits, start)
                      for c in circuits for start in (0, 12)]
        jobs = [(c, p) for c in circuits for p in partitions
                if len(p) == c.num_qubits]
        serial = [transpile_for_partition(c, toronto, p,
                                          context=_fresh(toronto))
                  for c, p in jobs]
        shared = _fresh(toronto)
        failures = []
        deadline = time.monotonic() + 1.0

        def worker(offset):
            # The deadline, checked per compile, bounds the run however
            # many threads there are.
            for n in range(20 * len(jobs)):
                if time.monotonic() >= deadline:
                    break
                k = (n + offset) % len(jobs)
                circuit, partition = jobs[k]
                got = transpile_for_partition(circuit, toronto, partition,
                                              context=shared)
                if not _same_result(got, serial[k]):
                    failures.append(k)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range((os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        plan_hits = sum(shared.partition_context(p).stats["plan_hits"]
                        for p in set(partitions))
        assert plan_hits > 0
