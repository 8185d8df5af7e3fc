"""Context-cache equivalence: transpiling through the shared
:class:`DeviceContext` layer must be bit-identical to the uncached seed
behaviour, caches must count hits/misses, and mutated calibrations must
invalidate.
"""

import copy
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import networkx as nx
import pytest

from repro.cache import transpile_key
from repro.circuits import QuantumCircuit, qft_circuit, random_circuit
from repro.core import CompileService, ExecutionCache, get_allocator
from repro.core.compile_service import _default_transpiler
from repro.core.executor import execute_allocation
from repro.hardware import CouplingMap, ibm_melbourne, ibm_toronto, linear_device
from repro.transpiler import (
    DeviceContext,
    context_cache_stats,
    decompose_to_basis,
    device_context,
    edge_reliability_weight,
    noise_aware_layout,
    reset_context_cache,
    sabre_route,
    transpile,
    transpile_for_partition,
)
from repro.transpiler import context as context_mod
from repro.transpiler.context import UNREACHABLE


def _measured(circuit: QuantumCircuit) -> QuantumCircuit:
    out = circuit.copy()
    if not any(i.name == "measure" for i in out):
        out.measure_all()
    return out


def _seed_reliability_distance(coupling, calibration):
    """The seed implementation's per-call Dijkstra, reproduced inline
    (independent of the context module) as the equivalence oracle."""
    weighted = nx.Graph()
    weighted.add_nodes_from(range(coupling.num_qubits))
    for a, b in coupling.edges:
        if calibration is None:
            w = 1.0
        else:
            err = min(calibration.cx_error(a, b), 0.999)
            w = -math.log(1.0 - err) + 0.01
        weighted.add_edge(a, b, weight=w)
    return {
        src: dists
        for src, dists in nx.all_pairs_dijkstra_path_length(
            weighted, weight="weight")
    }


class TestContextTables:
    def test_reliability_tables_match_seed_computation(self):
        dev = ibm_toronto()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        oracle = _seed_reliability_distance(dev.coupling, dev.calibration)
        assert ctx.reliability_distance == oracle
        mat = ctx.reliability_matrix
        n = dev.num_qubits
        for src in range(n):
            for dst in range(n):
                expected = oracle[src].get(dst, UNREACHABLE)
                assert mat[src, dst] == expected  # bit-identical floats

    def test_edge_weight_single_source_of_truth(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        for (a, b), w in ctx.edge_weights.items():
            err = min(dev.calibration.cx_error(a, b), 0.999)
            assert w == -math.log(1.0 - err) + 0.01
        assert edge_reliability_weight(None) == 1.0

    def test_hop_matrix_matches_coupling_distance(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        for a in range(dev.num_qubits):
            for b in range(dev.num_qubits):
                assert ctx.hop_matrix[a, b] == dev.coupling.distance(a, b)

    def test_tables_are_lazy_and_cached(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        assert ctx.stats["tables_built"] == 0
        first = ctx.reliability_distance
        built = ctx.stats["tables_built"]
        assert built > 0
        assert ctx.reliability_distance is first  # no rebuild
        assert ctx.stats["tables_built"] == built


class TestTranspileEquivalence:
    @pytest.mark.parametrize("router", ["basic", "sabre"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_context_is_bit_identical(self, router, seed):
        """Warm shared context == per-call fresh context, full device."""
        dev = ibm_toronto()
        shared = DeviceContext(dev.coupling, dev.calibration)
        for i in range(3):
            circuit = _measured(
                random_circuit(5, 10, seed=seed * 10 + i))
            cold = transpile(
                circuit, dev.coupling, dev.calibration, seed=seed,
                router=router,
                context=DeviceContext(dev.coupling, dev.calibration))
            warm = transpile(circuit, dev.coupling, dev.calibration,
                             seed=seed, router=router, context=shared)
            via_registry = transpile(circuit, dev.coupling,
                                     dev.calibration, seed=seed,
                                     router=router)
            assert warm.circuit == cold.circuit
            assert via_registry.circuit == cold.circuit
            assert warm.initial_layout == cold.initial_layout
            assert warm.final_layout == cold.final_layout
            assert warm.num_swaps == cold.num_swaps

    @pytest.mark.parametrize("seed", [0, 3])
    def test_partition_path_bit_identical_and_memoized(self, seed):
        dev = ibm_toronto()
        circuit = _measured(qft_circuit(4))
        partition = get_allocator("qucp").best_placement(
            circuit, dev).partition
        ctx = DeviceContext(dev.coupling, dev.calibration)
        first = transpile_for_partition(circuit, dev, partition,
                                        seed=seed, context=ctx)
        assert ctx.stats["partition_misses"] == 1
        again = transpile_for_partition(circuit, dev, partition,
                                        seed=seed, context=ctx)
        assert ctx.stats["partition_hits"] == 1
        fresh = transpile_for_partition(
            circuit, dev, partition, seed=seed,
            context=DeviceContext(dev.coupling, dev.calibration))
        assert again.circuit == first.circuit == fresh.circuit
        assert again.final_layout == first.final_layout
        assert again.num_swaps == first.num_swaps

    def test_sabre_vectorized_matches_scalar_reference(self):
        """The numpy swap scoring reproduces the seed scalar loop
        bit-for-bit across devices, circuits, and seeds."""
        for dev in (ibm_toronto(), linear_device(6, seed=2),
                    ibm_melbourne()):
            for seed in range(4):
                circuit = random_circuit(
                    min(6, dev.num_qubits), 14, seed=seed)
                basis = decompose_to_basis(circuit)
                layout = noise_aware_layout(
                    basis, dev.coupling, dev.calibration, seed=seed)
                vec = sabre_route(basis, dev.coupling, layout,
                                  dev.calibration,
                                  score_mode="vectorized")
                ref = sabre_route(basis, dev.coupling, layout,
                                  dev.calibration,
                                  score_mode="reference")
                assert vec.circuit == ref.circuit
                assert vec.final_layout == ref.final_layout
                assert vec.num_swaps == ref.num_swaps

    def test_unknown_score_mode_rejected(self):
        dev = linear_device(4, seed=0)
        basis = decompose_to_basis(qft_circuit(3))
        layout = noise_aware_layout(basis, dev.coupling, dev.calibration)
        with pytest.raises(ValueError, match="score_mode"):
            sabre_route(basis, dev.coupling, layout, dev.calibration,
                        score_mode="fast")


class TestPartitionContextThreads:
    def test_racing_threads_build_each_partition_once(self):
        dev = ibm_toronto()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        partitions = [(0, 1, 2), (3, 5, 8), (11, 14, 16), (19, 20, 22)]
        barrier = threading.Barrier(6, timeout=30)
        got = [None] * 6

        def worker(i):
            barrier.wait()
            got[i] = [ctx.partition_context(p) for p in partitions]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ctx.stats["partition_misses"] == 4
        for k in range(len(partitions)):
            assert len({id(subs[k]) for subs in got}) == 1


class TestRegistry:
    def test_registry_hit_miss_counters(self):
        reset_context_cache()
        dev = linear_device(5, seed=4)
        ctx1 = device_context(dev.coupling, dev.calibration)
        ctx2 = device_context(dev.coupling, dev.calibration)
        assert ctx1 is ctx2
        stats = context_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_value_keyed_sharing_across_objects(self):
        """Equal coupling/calibration values share one context even for
        distinct objects (the fleet's twin-device case)."""
        reset_context_cache()
        a = linear_device(5, seed=4)
        b = linear_device(5, seed=4)
        assert a.calibration is not b.calibration
        assert device_context(a.coupling, a.calibration) \
            is device_context(b.coupling, b.calibration)

    def test_mutated_calibration_invalidates(self):
        reset_context_cache()
        dev = linear_device(5, seed=4)
        ctx1 = device_context(dev.coupling, dev.calibration)
        edge = dev.coupling.edges[0]
        w_before = ctx1.edge_weights[edge]
        old = dev.calibration.twoq_error[edge]
        try:
            dev.calibration.twoq_error[edge] = min(old * 5, 0.14)
            ctx2 = device_context(dev.coupling, dev.calibration)
            assert ctx2 is not ctx1
            assert ctx2.edge_weights[edge] != w_before
            assert ctx2.edge_weights[edge] == edge_reliability_weight(
                dev.calibration.twoq_error[edge])
            # The stale context still serves its frozen snapshot.
            assert ctx1.edge_weights[edge] == w_before
        finally:
            dev.calibration.twoq_error[edge] = old

    def test_lazy_tables_pinned_to_registration_snapshot(self):
        """Tables built *after* an in-place mutation must still reflect
        the values the context was fingerprinted under."""
        reset_context_cache()
        dev = linear_device(5, seed=4)
        edge = dev.coupling.edges[0]
        old = dev.calibration.twoq_error[edge]
        ctx = device_context(dev.coupling, dev.calibration)
        assert ctx.stats["tables_built"] == 0  # nothing materialized yet
        try:
            dev.calibration.twoq_error[edge] = min(old * 5, 0.14)
            assert ctx.edge_weights[edge] == edge_reliability_weight(old)
        finally:
            dev.calibration.twoq_error[edge] = old

    @pytest.mark.parametrize("field", [
        "oneq_error", "twoq_error", "readout_error", "t1", "t2",
        "detuning", "gate_duration"])
    def test_mutation_after_a_front_hit_gets_a_fresh_context(self, field):
        """Repeat lookups with the same objects are served by identity,
        but only while the calibration still equals the snapshot."""
        reset_context_cache()
        dev = linear_device(5, seed=4)
        ctx1 = device_context(dev.coupling, dev.calibration)
        assert device_context(dev.coupling, dev.calibration) is ctx1
        assert context_cache_stats()["hits"] == 1
        table = getattr(dev.calibration, field)
        key = next(iter(table))
        old = table[key]
        try:
            table[key] = (0.5, 0.5) if isinstance(old, tuple) \
                else old * 1.5 + 1.0
            ctx2 = device_context(dev.coupling, dev.calibration)
            assert ctx2 is not ctx1
            assert getattr(ctx2.calibration, field)[key] == table[key]
            assert getattr(ctx1.calibration, field)[key] == old
            assert context_cache_stats()["misses"] == 2
            assert device_context(dev.coupling, dev.calibration) is ctx2
        finally:
            table[key] = old
        # Restored values find the first context again.
        assert device_context(dev.coupling, dev.calibration) is ctx1

    def test_front_is_bounded_and_reset(self, monkeypatch):
        """Per-program calibration copies (CNA inflates one per
        program) must not grow the identity front past the registry's
        bound."""
        monkeypatch.setattr(context_mod, "_REGISTRY_MAX", 4)
        reset_context_cache()
        dev = linear_device(5, seed=4)
        for _ in range(10):
            device_context(dev.coupling, copy.deepcopy(dev.calibration))
        assert len(context_mod._front) == 4  # noqa: SLF001
        assert context_cache_stats()["entries"] == 1
        reset_context_cache()
        assert len(context_mod._front) == 0  # noqa: SLF001

    def test_none_calibration_contexts(self):
        reset_context_cache()
        cm = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        ctx = device_context(cm, None)
        assert all(w == 1.0 for w in ctx.edge_weights.values())
        assert ctx.reliability_distance[0][3] == 3.0


class TestCouplingMapLaziness:
    def test_distance_table_lazy(self):
        cm = CouplingMap(6, [(i, i + 1) for i in range(5)])
        assert cm._dist_cache is None
        assert cm.distance(0, 5) == 5
        assert cm._dist_cache is not None

    def test_one_hop_caches_match_direct_scan(self):
        dev = ibm_melbourne()
        cm = dev.coupling
        pairs = cm.all_one_hop_edge_pairs()
        assert pairs is cm.all_one_hop_edge_pairs()  # cached object
        expected = tuple(
            (e1, e2)
            for i, e1 in enumerate(cm.edges)
            for e2 in cm.edges[i + 1:]
            if cm.pair_distance(e1, e2) == 1
        )
        assert pairs == expected
        for edge in cm.edges:
            direct = tuple(
                other for other in cm.edges
                if other != edge and cm.pair_distance(edge, other) == 1
            )
            assert cm.one_hop_pairs(edge) == direct

    def test_one_hop_pairs_non_link_query(self):
        cm = CouplingMap(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # (0, 2) is not a device link; the historical scan semantics
        # still apply: only (3, 4) is disjoint from it at hop distance 1.
        assert cm.one_hop_pairs((0, 2)) == ((3, 4),)


class TestCompileService:
    @pytest.fixture()
    def job(self):
        dev = ibm_toronto()
        circuits = [_measured(qft_circuit(3)),
                    _measured(random_circuit(4, 8, seed=1))]
        return get_allocator("qucp").allocate(circuits, dev)

    @pytest.mark.parametrize("callers", [1, 4], ids=["serial", "threaded"])
    def test_service_matches_direct_execution(self, job, callers):
        direct = execute_allocation(job, shots=256, seed=5)
        svc = CompileService(cache=ExecutionCache())

        def run(_):
            return execute_allocation(job, shots=256, seed=5,
                                      compile_service=svc)

        with ThreadPoolExecutor(max_workers=callers) as pool:
            runs = list(pool.map(run, range(callers)))
        for via in runs:
            assert len(via) == len(direct)
            for a, b in zip(via, direct):
                assert a.transpiled.circuit == b.transpiled.circuit
                assert a.result.probabilities == b.result.probabilities
        # However the callers interleave, each program compiles once.
        assert svc.stats["submitted"] == 2

    def test_service_cache_short_circuit_and_counters(self, job):
        svc = CompileService(cache=ExecutionCache())
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 2
        assert svc.cache.transpile_misses == 2
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 2  # all cache hits
        assert svc.stats["short_circuits"] == 2
        assert svc.cache.transpile_hits == 2

    def test_results_do_not_alias(self, job):
        svc = CompileService(cache=ExecutionCache())
        first = svc.compile_allocation(job)
        second = svc.compile_allocation(job)
        assert first[0].circuit == second[0].circuit
        assert first[0].circuit is not second[0].circuit
        assert first[0].final_layout is not second[0].final_layout

    def test_mismatched_cache_rejected(self, job):
        svc = CompileService(cache=ExecutionCache())
        with pytest.raises(ValueError, match="cache"):
            execute_allocation(job, shots=64, cache=ExecutionCache(),
                               compile_service=svc)

    def test_compile_errors_propagate(self, job):
        def broken(circuit, device, allocation):
            raise RuntimeError("compiler exploded")

        svc = CompileService(cache=ExecutionCache())
        with pytest.raises(RuntimeError, match="compiler exploded"):
            svc.transpile(job.allocations[0].circuit, job.device,
                          job.allocations[0], broken)

    def _gated(self, started, release, then):
        """A hook that signals *started*, waits for *release*, then
        returns ``then(...)``'s result."""
        def hook(circuit, device, allocation):
            started.set()
            assert release.wait(timeout=30)
            return then(circuit, device, allocation)
        return hook

    def test_concurrent_requests_coalesce(self, job):
        """A request for a key another thread is compiling joins that
        compile instead of compiling twice."""
        started, release = threading.Event(), threading.Event()
        calls = []

        def compile_once(circuit, device, allocation):
            calls.append(allocation.index)
            return _default_transpiler(circuit, device, allocation)

        hook = self._gated(started, release, compile_once)
        svc = CompileService(cache=ExecutionCache())
        alloc = job.allocations[0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                first = pool.submit(svc.submit, alloc.circuit, job.device,
                                    alloc, hook)
                assert started.wait(timeout=30)
                joined = svc.submit(alloc.circuit, job.device, alloc, hook)
                assert not joined.done()
            finally:
                release.set()
            assert first.result(timeout=30) is joined
        assert joined.result(timeout=30).circuit == _default_transpiler(
            alloc.circuit, job.device, alloc).circuit
        assert calls == [alloc.index]
        assert svc.stats["submitted"] == 1
        assert svc.stats["coalesced"] == 1

    def test_inflight_compile_error_reaches_every_waiter(self, job):
        started, release = threading.Event(), threading.Event()

        def explode(circuit, device, allocation):
            raise RuntimeError("compiler exploded")

        hook = self._gated(started, release, explode)
        svc = CompileService(cache=ExecutionCache())
        alloc = job.allocations[0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                first = pool.submit(svc.submit, alloc.circuit, job.device,
                                    alloc, hook)
                assert started.wait(timeout=30)
                joined = svc.submit(alloc.circuit, job.device, alloc, hook)
            finally:
                release.set()
            owner = first.result(timeout=30)
        for fut in (owner, joined):
            with pytest.raises(RuntimeError, match="compiler exploded"):
                fut.result(timeout=30)
        # The failed compile left no in-flight entry behind: the next
        # request compiles again rather than joining a dead future.
        with pytest.raises(RuntimeError, match="compiler exploded"):
            svc.transpile(alloc.circuit, job.device, alloc, hook)
        assert svc.stats["submitted"] == 2
        assert svc.stats["coalesced"] == 1

    def test_interrupted_compile_fails_waiters_and_propagates(self, job):
        class Interrupt(BaseException):
            pass

        started, release = threading.Event(), threading.Event()

        def interrupt(circuit, device, allocation):
            raise Interrupt()

        hook = self._gated(started, release, interrupt)
        svc = CompileService(cache=ExecutionCache())
        alloc = job.allocations[0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                first = pool.submit(svc.submit, alloc.circuit, job.device,
                                    alloc, hook)
                assert started.wait(timeout=30)
                joined = svc.submit(alloc.circuit, job.device, alloc, hook)
            finally:
                release.set()
            # The interrupt propagates out of the compiling call ...
            with pytest.raises(Interrupt):
                first.result(timeout=30)
        # ... and the waiter is failed with it instead of hanging.
        with pytest.raises(Interrupt):
            joined.result(timeout=30)

    def test_default_transpiler_key_stable(self, job):
        """The default hook is module-level, so its cache key is stable
        across calls (id() of a fresh lambda would never hit)."""
        alloc = job.allocations[0]
        k1 = transpile_key(alloc.circuit, job.device, alloc,
                           _default_transpiler)
        k2 = transpile_key(alloc.circuit, job.device, alloc,
                           _default_transpiler)
        assert k1 == k2 and k1 is not None
