"""Cold-path compile optimizations: vectorized layout search vs the
scalar reference, structural cache-key dedup across queue indices, and
the compile service's one inline route."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, random_circuit
from repro.core import (
    AllocationResult,
    BatchJob,
    CompileService,
    ExecutionCache,
    ProgramAllocation,
    SubmittedProgram,
    get_allocator,
    index_sensitive_transpiler,
    run_batch,
)
from repro.core.cna import cna_compile
from repro.core.executor import _default_transpiler
from repro.hardware import CouplingMap, ibm_toronto, linear_device
from repro.hardware.calibration import generate_calibration
from repro.service import QuantumProvider
from repro.transpiler import (
    DeviceContext,
    Layout,
    interaction_counts,
    layout_cost,
    noise_aware_layout,
    transpile_for_partition,
)
from repro.transpiler.mapping import (
    _EXHAUSTIVE_LIMIT,
    _greedy_layout,
    _permutation_table,
)


def _random_connected_coupling(n: int, rng) -> CouplingMap:
    """Random spanning tree plus a few chords."""
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        if (min(a, b), max(a, b)) not in edges:
            edges.append((int(min(a, b)), int(max(a, b))))
    return CouplingMap(n, edges)


def _measured(circuit: QuantumCircuit) -> QuantumCircuit:
    out = circuit.copy()
    if not any(i.name == "measure" for i in out):
        out.measure_all()
    return out


def _cost_of(layout, circuit, ctx):
    inter = interaction_counts(circuit)
    measured = sorted({i.qubits[0] for i in circuit
                       if i.name == "measure"})
    return layout_cost(layout, inter, ctx.reliability_distance,
                       ctx.calibration, measured)


class TestVectorizedSearchEquivalence:
    @pytest.mark.parametrize("with_calibration", [True, False])
    def test_randomized_argmin_equivalence(self, with_calibration):
        """The vectorized search's layout costs exactly the reference
        scalar loop's best, over random devices and circuits."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, _EXHAUSTIVE_LIMIT + 1))
            coupling = _random_connected_coupling(n, rng)
            calibration = (generate_calibration(coupling, seed=seed)
                           if with_calibration else None)
            k = int(rng.integers(2, n + 1))
            circuit = _measured(
                random_circuit(k, int(rng.integers(5, 15)), seed=seed))
            ctx = DeviceContext(coupling, calibration)
            vec = noise_aware_layout(circuit, coupling, calibration,
                                     context=ctx,
                                     search_mode="vectorized")
            ref = noise_aware_layout(circuit, coupling, calibration,
                                     context=ctx,
                                     search_mode="reference")
            # rel tolerance: UNREACHABLE (1e9) terms make absolute
            # last-ulp noise exceed tiny fixed epsilons.
            assert _cost_of(vec, circuit, ctx) == pytest.approx(
                _cost_of(ref, circuit, ctx), rel=1e-9, abs=1e-9)

    def test_no_interaction_circuit(self):
        """Measure-only circuits (no 2q gates) pick minimal readout."""
        dev = linear_device(5, seed=3)
        circuit = QuantumCircuit(3, name="meas")
        circuit.measure_all()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        vec = noise_aware_layout(circuit, dev.coupling, dev.calibration,
                                 context=ctx, search_mode="vectorized")
        ref = noise_aware_layout(circuit, dev.coupling, dev.calibration,
                                 context=ctx, search_mode="reference")
        assert _cost_of(vec, circuit, ctx) == pytest.approx(
            _cost_of(ref, circuit, ctx), abs=1e-12)

    def test_exhaustive_limit_raised_to_seven(self):
        """7-qubit devices now search exhaustively (optimally), not
        greedily."""
        assert _EXHAUSTIVE_LIMIT == 7
        rng = np.random.default_rng(5)
        coupling = _random_connected_coupling(7, rng)
        calibration = generate_calibration(coupling, seed=5)
        circuit = _measured(random_circuit(5, 12, seed=5))
        ctx = DeviceContext(coupling, calibration)
        best = noise_aware_layout(circuit, coupling, calibration,
                                  context=ctx)
        greedy = _greedy_layout(circuit, coupling, calibration,
                                interaction_counts(circuit),
                                ctx.reliability_distance, seed=0)
        assert _cost_of(best, circuit, ctx) \
            <= _cost_of(greedy, circuit, ctx) + 1e-12

    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_zero_qubit_circuit(self, mode):
        """The empty circuit maps to the empty layout in both engines
        (the scalar loop's single empty permutation)."""
        dev = linear_device(4, seed=0)
        layout = noise_aware_layout(QuantumCircuit(0), dev.coupling,
                                    dev.calibration, search_mode=mode)
        assert len(layout) == 0

    def test_unknown_search_mode_rejected(self):
        dev = linear_device(4, seed=0)
        circuit = _measured(random_circuit(3, 5, seed=0))
        with pytest.raises(ValueError, match="search_mode"):
            noise_aware_layout(circuit, dev.coupling, dev.calibration,
                               search_mode="fast")

    def test_permutation_table_memoized_and_ordered(self):
        import itertools

        table = _permutation_table(5, 3)
        assert table is _permutation_table(5, 3)
        assert not table.flags.writeable
        expected = list(itertools.permutations(range(5), 3))
        assert [tuple(row) for row in table] == expected


class TestLayoutCostGuard:
    def test_measured_logical_absent_from_layout(self):
        """A measure-only logical beyond the placed set must not
        KeyError — it simply contributes nothing."""
        dev = linear_device(4, seed=1)
        ctx = DeviceContext(dev.coupling, dev.calibration)
        partial = Layout({0: 1, 1: 2})  # logical 2 unplaced
        cost = layout_cost(partial, {(0, 1): 2},
                           ctx.reliability_distance, dev.calibration,
                           measured_logicals=[0, 2])
        placed_only = layout_cost(partial, {(0, 1): 2},
                                  ctx.reliability_distance,
                                  dev.calibration,
                                  measured_logicals=[0])
        assert cost == placed_only

    def test_layout_contains(self):
        layout = Layout({0: 3, 1: 5})
        assert 0 in layout and 1 in layout
        assert 2 not in layout


class TestGreedyLayout:
    def test_deterministic_per_seed(self):
        dev = ibm_toronto()
        circuit = _measured(random_circuit(9, 20, seed=2))
        a = noise_aware_layout(circuit, dev.coupling, dev.calibration,
                               seed=3)
        b = noise_aware_layout(circuit, dev.coupling, dev.calibration,
                               seed=3)
        assert a == b

    def test_seed_breaks_ties(self):
        """With no calibration, quality degenerates to vertex degree —
        many equal-cost candidates; distinct seeds may choose distinct
        (equally good) placements, each deterministically."""
        coupling = CouplingMap(10, [(i, i + 1) for i in range(9)])
        circuit = _measured(random_circuit(4, 8, seed=0))
        layouts = {
            tuple(sorted(noise_aware_layout(
                circuit, coupling, None, seed=s).as_dict().items()))
            for s in range(8)
        }
        assert len(layouts) > 1  # the rng tie-break is really used


class TestStructuralCacheKey:
    def _alloc(self, circuit, partition, index):
        return ProgramAllocation(index, circuit, partition, 0.5)

    def test_dedup_across_queue_indices(self):
        """Identical programs at different allocation.index values share
        one default-key cache entry."""
        dev = ibm_toronto()
        cache = ExecutionCache()
        circuit = _measured(random_circuit(3, 6, seed=4))
        partition = get_allocator("qucp").best_placement(
            circuit, dev).partition
        for index in (0, 3, 17):
            cache.transpile(circuit, dev, self._alloc(
                circuit, partition, index), _default_transpiler)
        assert cache.transpile_misses == 1
        assert cache.transpile_hits == 2

    def test_index_sensitive_hook_does_not_dedup(self):
        dev = ibm_toronto()
        cache = ExecutionCache()
        circuit = _measured(random_circuit(3, 6, seed=4))
        partition = get_allocator("qucp").best_placement(
            circuit, dev).partition

        @index_sensitive_transpiler
        def hook(circ, device, alloc):
            return transpile_for_partition(circ, device, alloc.partition)

        k0 = cache.transpile_key(circuit, dev,
                                 self._alloc(circuit, partition, 0), hook)
        k1 = cache.transpile_key(circuit, dev,
                                 self._alloc(circuit, partition, 1), hook)
        assert k0 != k1
        d0 = cache.transpile_key(circuit, dev,
                                 self._alloc(circuit, partition, 0),
                                 _default_transpiler)
        d1 = cache.transpile_key(circuit, dev,
                                 self._alloc(circuit, partition, 1),
                                 _default_transpiler)
        assert d0 == d1

    def test_cna_adapter_is_index_sensitive(self):
        """CNA's per-index precompiled lookup must never alias across
        queue positions."""
        dev = ibm_toronto()
        circuits = [_measured(random_circuit(3, 6, seed=s))
                    for s in (1, 2)]
        compilation = cna_compile(circuits, dev)
        fn = compilation.transpiler_fn()
        cache = ExecutionCache()
        allocs = compilation.allocation.allocations
        keys = {
            cache.transpile_key(a.circuit, dev, a, fn) for a in allocs
        }
        assert len(keys) == len(allocs)
        # Same circuit/partition at two indices -> distinct entries.
        a0 = allocs[0]
        moved = ProgramAllocation(99, a0.circuit, a0.partition, a0.efs,
                                  a0.crosstalk_pairs)
        assert cache.transpile_key(a0.circuit, dev, a0, fn) \
            != cache.transpile_key(a0.circuit, dev, moved, fn)

    def test_partition_still_differentiates(self):
        dev = ibm_toronto()
        cache = ExecutionCache()
        circuit = _measured(random_circuit(3, 6, seed=4))
        k_a = cache.transpile_key(circuit, dev,
                                  self._alloc(circuit, (0, 1, 2), 0),
                                  _default_transpiler)
        k_b = cache.transpile_key(circuit, dev,
                                  self._alloc(circuit, (1, 2, 3), 0),
                                  _default_transpiler)
        assert k_a != k_b


class TestCompileServiceRouting:
    def test_auto_tiny_batch_runs_inline(self):
        dev = ibm_toronto()
        circuits = [_measured(random_circuit(3, 6, seed=1))]
        job = get_allocator("qucp").allocate(circuits, dev)
        svc = CompileService()
        futures = svc.submit_allocation(job)
        # Compiled on the calling thread: resolved when submit returns.
        assert all(f.done() for f in futures)
        assert svc.stats["submitted"] == 1
        assert svc.stats["chunks"] == 0
        alloc = job.allocations[0]
        assert futures[0].result().circuit == _default_transpiler(
            alloc.circuit, dev, alloc).circuit

    def test_unknown_mode_rejected(self):
        # The service has one route, so it takes no mode.
        for mode in ("fork", "thread", "process", "auto", "serial"):
            with pytest.raises(TypeError, match="mode"):
                CompileService(mode=mode)

    def test_repeat_compiles_once_matches_direct(self):
        """A batch compiles program by program, identically to calling
        the transpiler directly, and a repeated program is served from
        the cache instead of compiled twice."""
        dev = ibm_toronto()
        circuits = [_measured(random_circuit(3, 6, seed=s))
                    for s in range(4)]
        circuits.append(circuits[0].copy())
        job = AllocationResult(method="test", device=dev)
        engine = get_allocator("qucp")
        for i, c in enumerate(circuits):
            placement = engine.best_placement(c, dev)
            job.allocations.append(ProgramAllocation(
                i, c, placement.partition, placement.efs))
        svc = CompileService()
        got = svc.compile_allocation(job)
        for alloc, res in zip(job.allocations, got):
            want = _default_transpiler(alloc.circuit, dev, alloc)
            assert res.circuit == want.circuit
            assert res.initial_layout == want.initial_layout
            assert res.final_layout == want.final_layout
            assert res.num_swaps == want.num_swaps
        assert svc.stats["submitted"] == 4
        assert svc.stats["short_circuits"] == 1


class TestRunBatchCompiles:
    def test_each_program_compiles_once_through_the_service(self):
        """run_batch compiles each job inside its execution, through
        the service: a repeated job is all cache hits, and the results
        match a service-free run."""
        dev = ibm_toronto()
        circuits = [_measured(random_circuit(3, 6, seed=s))
                    for s in range(3)]
        job = get_allocator("qucp").allocate(circuits, dev)
        svc = CompileService()
        direct = run_batch([BatchJob(job, shots=64, seed=5)])
        via = run_batch([BatchJob(job, shots=64, seed=5)] * 2,
                        compile_service=svc)
        assert svc.stats["submitted"] == 3
        assert svc.stats["short_circuits"] == 3
        for outcomes in via:
            for a, b in zip(outcomes, direct[0]):
                assert a.transpiled.circuit == b.transpiled.circuit
                assert a.result.probabilities == b.result.probabilities


class TestSchedulerStructuralDedup:
    def test_repeat_submissions_hit_cache(self):
        """The same program at five distinct queue indices compiles
        once through the provider's compile service."""
        dev = ibm_toronto()
        base = _measured(random_circuit(3, 6, seed=9))
        subs = [SubmittedProgram(base.copy(), arrival_ns=i * 1e5)
                for i in range(5)]
        with QuantumProvider() as provider:
            backend = provider.backend(dev, max_batch_size=1,
                                       fidelity_threshold=0.0)
            backend.run(subs, shots=64, seed=1).result()
            stats = provider.compile_service.stats
        assert stats["submitted"] == 1
        assert stats["short_circuits"] == 4
