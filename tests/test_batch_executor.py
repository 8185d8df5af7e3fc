"""Unit tests for the batched execution API (run_batch + ExecutionCache)."""

import pytest

from repro.core import (
    BatchJob,
    ExecutionCache,
    execute_allocation,
    qucp_allocate,
    run_batch,
)
from repro.transpiler import transpile_for_partition
from repro.workloads import workload


def _allocation(device, names=("lin", "adder")):
    circuits = [workload(n).circuit() for n in names]
    return qucp_allocate(circuits, device)


class TestRunBatch:
    def test_matches_individual_execution(self, toronto):
        alloc = _allocation(toronto)
        batched = run_batch(
            [BatchJob(alloc, shots=0), BatchJob(alloc, shots=0)])
        single = execute_allocation(alloc, shots=0)
        for outcomes in batched:
            for got, want in zip(outcomes, single):
                assert got.result.probabilities == pytest.approx(
                    want.result.probabilities)
                assert got.ideal == pytest.approx(want.ideal)

    def test_accepts_bare_allocation_results(self, toronto):
        alloc = _allocation(toronto, names=("lin",))
        outcomes = run_batch([alloc], seed=0)
        assert len(outcomes) == 1
        assert sum(outcomes[0][0].result.counts.values()) == 8192

    def test_batch_seed_reproducible_and_per_job_independent(self, toronto):
        alloc = _allocation(toronto, names=("adder",))
        jobs = lambda: [BatchJob(alloc, shots=512), BatchJob(alloc, shots=512)]
        a = run_batch(jobs(), seed=7)
        b = run_batch(jobs(), seed=7)
        assert a[0][0].result.counts == b[0][0].result.counts
        assert a[1][0].result.counts == b[1][0].result.counts
        # Independent child streams: identical jobs sample differently.
        assert a[0][0].result.counts != a[1][0].result.counts

    def test_explicit_job_seed_pins_job(self, toronto):
        alloc = _allocation(toronto, names=("adder",))
        a = run_batch([BatchJob(alloc, shots=256, seed=5)], seed=1)
        b = run_batch([BatchJob(alloc, shots=256, seed=5)], seed=2)
        assert a[0][0].result.counts == b[0][0].result.counts


class TestExecutionCache:
    def test_transpile_cached_across_jobs(self, toronto):
        calls = []

        def counting_transpiler(circuit, device, allocation):
            calls.append(allocation.partition)
            return transpile_for_partition(circuit, device,
                                           allocation.partition)

        alloc = _allocation(toronto)
        cache = ExecutionCache()
        run_batch(
            [BatchJob(alloc, shots=0, transpiler_fn=counting_transpiler),
             BatchJob(alloc, shots=0, transpiler_fn=counting_transpiler)],
            cache=cache)
        # Two jobs x two programs, but each program transpiles once.
        assert len(calls) == 2
        assert cache.transpile_misses == 2
        assert cache.transpile_hits == 2

    def test_ideal_distribution_cached(self, toronto):
        alloc = _allocation(toronto, names=("lin", "lin", "lin"))
        cache = ExecutionCache()
        run_batch([BatchJob(alloc, shots=0)], cache=cache)
        # Three copies of the same workload: one ideal computation.
        assert cache.ideal_misses == 1
        assert cache.ideal_hits == 2

    def test_equal_circuits_share_entries_across_instances(self, toronto):
        # Structurally identical circuits built twice hit the same key.
        cache = ExecutionCache()
        run_batch([BatchJob(_allocation(toronto, names=("adder",)), shots=0),
                   BatchJob(_allocation(toronto, names=("adder",)), shots=0)],
                  cache=cache)
        assert cache.transpile_hits >= 1
        assert cache.ideal_hits >= 1

    def test_outcomes_do_not_alias_cached_objects(self, toronto):
        """Mutating one outcome's ideal dict or transpiled circuit must
        not corrupt siblings or later cache hits."""
        alloc = _allocation(toronto, names=("lin", "lin"))
        cache = ExecutionCache()
        first = run_batch([BatchJob(alloc, shots=0)], cache=cache)[0]
        assert first[0].transpiled is not first[1].transpiled
        assert first[0].transpiled.circuit is not first[1].transpiled.circuit
        assert (first[0].transpiled.final_layout
                is not first[1].transpiled.final_layout)
        first[0].ideal.clear()
        first[0].transpiled.circuit._instructions.clear()  # noqa: SLF001
        layout = first[0].transpiled.final_layout
        before = layout.as_dict()
        layout.swap_physical(layout.physical(0), layout.physical(1))
        assert layout.as_dict() != before  # the mutation really happened
        again = run_batch([BatchJob(alloc, shots=0)], cache=cache)[0]
        assert len(again[0].ideal) > 0
        assert len(again[0].transpiled.circuit) > 0
        assert again[0].transpiled.final_layout.as_dict() == before

    def test_max_entries_evicts_oldest(self, toronto):
        cache = ExecutionCache(max_entries=1)
        run_batch([BatchJob(_allocation(toronto, names=("lin", "adder")),
                            shots=0)], cache=cache)
        assert len(cache._ideal_table) == 1  # noqa: SLF001
        assert len(cache.l1) == 1
        cache.clear()
        assert len(cache._ideal_table) == 0  # noqa: SLF001

    def test_max_entries_zero_disables_caching(self, toronto):
        cache = ExecutionCache(max_entries=0)
        alloc = _allocation(toronto, names=("lin",))
        run_batch([BatchJob(alloc, shots=0), BatchJob(alloc, shots=0)],
                  cache=cache)
        assert cache.transpile_hits == 0
        assert len(cache.l1) == 0

    def test_cache_sensitive_to_partition(self, toronto):
        """Same circuit on a different partition must re-transpile."""
        cache = ExecutionCache()
        circuit = workload("adder").circuit()
        a1 = qucp_allocate([circuit], toronto)
        # Force a different placement by occupying the best partition.
        a2 = qucp_allocate([workload("adder").circuit(),
                            workload("adder").circuit()], toronto)
        parts = {a1.allocations[0].partition}
        parts.update(a.partition for a in a2.allocations)
        run_batch([BatchJob(a1, shots=0), BatchJob(a2, shots=0)],
                  cache=cache)
        assert cache.transpile_misses == len(parts)
