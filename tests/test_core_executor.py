"""Unit tests for the core execution pipeline (allocate -> run -> score)."""

import pytest

from repro.core import (
    CompileService,
    execute_allocation,
    qucp_allocate,
    run_batch,
)
from repro.core.executor import ExecutionOutcome
from repro.sim import ideal_probabilities
from repro.workloads import workload


class TestExecuteAllocation:
    def test_outcomes_in_input_order(self, toronto):
        circuits = [workload(n).circuit() for n in ("lin", "alu", "adder")]
        alloc = qucp_allocate(circuits, toronto)
        outcomes = execute_allocation(alloc, shots=256, seed=0)
        assert [o.allocation.index for o in outcomes] == [0, 1, 2]
        assert [o.allocation.circuit.name for o in outcomes] == [
            "linearsolver", "alu-v0_27", "adder"]

    def test_counts_match_shots(self, toronto):
        circuits = [workload("adder").circuit()]
        alloc = qucp_allocate(circuits, toronto)
        out = execute_allocation(alloc, shots=512, seed=1)[0]
        assert sum(out.result.counts.values()) == 512

    def test_seeded_reproducibility(self, toronto):
        circuits = [workload("adder").circuit() for _ in range(2)]
        alloc = qucp_allocate(circuits, toronto)
        a = execute_allocation(alloc, shots=256, seed=42)
        b = execute_allocation(alloc, shots=256, seed=42)
        for x, y in zip(a, b):
            assert x.result.counts == y.result.counts

    def test_ideal_reference_matches_logical_circuit(self, toronto):
        circuit = workload("lin").circuit()
        alloc = qucp_allocate([circuit], toronto)
        out = execute_allocation(alloc, shots=16, seed=0)[0]
        assert out.ideal == pytest.approx(ideal_probabilities(circuit))

    def test_pst_uses_most_likely_ideal_outcome(self, toronto):
        circuit = workload("adder").circuit()
        alloc = qucp_allocate([circuit], toronto)
        out = execute_allocation(alloc, shots=0, seed=0)[0]
        expected = max(out.ideal, key=out.ideal.get)
        assert out.pst() == pytest.approx(
            out.result.probabilities.get(expected, 0.0))

    def test_jsd_zero_for_noiseless(self, toronto):
        circuit = workload("lin").circuit()
        alloc = qucp_allocate([circuit], toronto)
        out = execute_allocation(alloc, shots=0, seed=0,
                                 include_crosstalk=False)[0]
        # Still noisy (gate errors) so JSD > 0, but small and finite.
        assert 0.0 < out.jsd() < 0.5

    def test_custom_transpiler_hook_called(self, toronto):
        calls = []

        def spy_transpiler(circuit, device, allocation):
            from repro.transpiler import transpile_for_partition

            calls.append(allocation.index)
            return transpile_for_partition(circuit, device,
                                           allocation.partition)

        circuits = [workload("adder").circuit() for _ in range(2)]
        alloc = qucp_allocate(circuits, toronto)
        execute_allocation(alloc, shots=16, seed=0,
                           transpiler_fn=spy_transpiler)
        assert sorted(calls) == [0, 1]

    def test_transpiled_circuits_fit_partitions(self, toronto):
        circuits = [workload(n).circuit() for n in ("qec", "bell")]
        alloc = qucp_allocate(circuits, toronto)
        outcomes = execute_allocation(alloc, shots=16, seed=0)
        for out in outcomes:
            assert (out.transpiled.circuit.num_qubits
                    == len(out.allocation.partition))

    def test_library_path_compiles_through_compile_service(self, toronto,
                                                            monkeypatch):
        """Without services, the library entry points still compile every
        program through a (private) CompileService: one compile path."""
        submitted = []
        real = CompileService.submit

        def counting(self, circuit, device, allocation, transpiler_fn=None):
            submitted.append(allocation.index)
            return real(self, circuit, device, allocation, transpiler_fn)

        monkeypatch.setattr(CompileService, "submit", counting)
        circuits = [workload(n).circuit() for n in ("lin", "alu", "adder")]
        job = qucp_allocate(circuits, toronto)
        execute_allocation(job, shots=16, seed=0)
        assert sorted(submitted) == [0, 1, 2]
        submitted.clear()
        run_batch([job, job], seed=0)
        assert sorted(submitted) == [0, 0, 1, 1, 2, 2]
