"""Equivalence-class cache keys: qubit-relabel canonicalization, the
randomized proof that reused artifacts are execution-identical, and the
provider-level persistent-store integration (cache_path, RunMetadata
counters)."""

import dataclasses

import numpy as np
import pytest

from repro.cache import (
    canonical_form,
    circuit_key,
    invert_relabel,
    remap_layout,
    transpile_key,
)
from repro.circuits import QuantumCircuit, random_circuit
from repro.core import CompileService, ExecutionCache, qucp_allocate
from repro.core.compile_service import _default_transpiler
from repro.service import QuantumProvider
from repro.sim import ideal_probabilities
from repro.transpiler import Layout
from repro.workloads import workload


def _measured(circuit):
    out = circuit.copy()
    if not any(i.name == "measure" for i in out):
        out.num_clbits = max(out.num_clbits, out.num_qubits)
        out.measure_all()
    return out


def _permuted(circuit, perm):
    """*circuit* with logical qubit ``q`` renamed to ``perm[q]``
    (clbits untouched, so the measured distribution is preserved)."""
    return circuit.remapped({q: perm[q]
                             for q in range(circuit.num_qubits)})


class TestCanonicalForm:
    def test_first_appearance_order_is_identity_for_ordered_circuit(self):
        qc = QuantumCircuit(3, 3).h(0).cx(0, 1).cx(1, 2).measure_all()
        form = canonical_form(qc)
        assert form.relabel is None
        assert form.key == form.exact_key
        assert form.exact_key == circuit_key(qc)

    def test_permuted_twins_share_one_canonical_form(self):
        qc = QuantumCircuit(3, 3).h(0).cx(0, 1).cx(1, 2).measure_all()
        twin = _permuted(qc, (2, 0, 1))
        f0, f1 = canonical_form(qc), canonical_form(twin)
        assert f0.exact_key != f1.exact_key
        assert f0.key == f1.key
        assert f0.invariants == f1.invariants
        assert f1.relabel is not None

    def test_different_circuits_stay_distinct(self):
        a = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        b = QuantumCircuit(2, 2).h(0).cz(0, 1).measure_all()
        assert canonical_form(a).key != canonical_form(b).key

    def test_unused_qubits_keep_relative_order(self):
        # Only qubit 2 is touched; 0 and 1 trail in original order.
        qc = QuantumCircuit(3, 1).h(2).measure(2, 0)
        form = canonical_form(qc)
        assert form.relabel == (1, 2, 0)
        assert invert_relabel(form.relabel) == (2, 0, 1)

    def test_relabel_roundtrip_on_layouts(self):
        layout = Layout({0: 5, 1: 9, 2: 3})
        relabel = (2, 0, 1)
        there = remap_layout(layout, relabel)
        back = remap_layout(there, invert_relabel(relabel))
        assert back.as_dict() == layout.as_dict()

    def test_randomized_canonical_key_is_permutation_invariant(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            qc = _measured(random_circuit(4, 8, seed=seed))
            perm = tuple(int(p) for p in rng.permutation(qc.num_qubits))
            twin = _permuted(qc, perm)
            assert canonical_form(qc).key == canonical_form(twin).key


class TestEquivalenceReuse:
    """Reusing a representative's artifact for a relabeled twin must be
    invisible in execution: identical noiseless distributions, layouts
    consistently remapped."""

    def _alloc_pair(self, device, circuit, perm):
        base = qucp_allocate([circuit], device).allocations[0]
        twin = dataclasses.replace(base, circuit=_permuted(
            circuit, perm))
        return base, twin

    def test_twin_hits_equivalence_tier(self, toronto):
        cache = ExecutionCache()
        qc = _measured(random_circuit(3, 8, seed=2))
        base, twin = self._alloc_pair(toronto, qc, (1, 2, 0))
        CompileService(cache).transpile(base.circuit, toronto, base,
                                        _default_transpiler)
        assert cache.transpile_misses == 1
        CompileService(cache).transpile(twin.circuit, toronto, twin,
                                        _default_transpiler)
        assert cache.transpile_misses == 1
        assert cache.stats["equivalence_hits"] == 1

    def test_index_sensitive_hooks_never_alias_classes(self, toronto):
        from repro.cache import index_sensitive_transpiler

        @index_sensitive_transpiler
        def hook(circuit, device, allocation):
            return _default_transpiler(circuit, device, allocation)

        qc = _measured(random_circuit(3, 8, seed=3))
        base, twin = self._alloc_pair(toronto, qc, (1, 2, 0))
        key = transpile_key(base.circuit, toronto, base, hook)
        assert key.canonical is None and key.digest is None
        cache = ExecutionCache()
        CompileService(cache).transpile(base.circuit, toronto, base, hook)
        CompileService(cache).transpile(twin.circuit, toronto, twin, hook)
        assert cache.stats["equivalence_hits"] == 0
        assert cache.transpile_misses == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_reuse_is_execution_identical(self, toronto, seed):
        rng = np.random.default_rng(100 + seed)
        qc = _measured(random_circuit(3, 10, seed=seed))
        perm = tuple(int(p) for p in rng.permutation(qc.num_qubits))
        base, twin = self._alloc_pair(toronto, qc, perm)

        cache = ExecutionCache()
        rep = CompileService(cache).transpile(base.circuit, toronto, base,
                                              _default_transpiler)
        reused = CompileService(cache).transpile(twin.circuit, toronto,
                                                 twin, _default_transpiler)
        fresh = _default_transpiler(twin.circuit, toronto, twin)

        # The physical circuit is label-invariant: reuse hands back the
        # representative's compiled artifact verbatim.
        assert circuit_key(reused.circuit) == circuit_key(rep.circuit)
        # Execution identity: the reused artifact's noiseless output
        # equals both an independent compile of the twin and the twin's
        # logical ideal.  (A fresh compile may break layout ties
        # differently, so circuits are not compared gate-for-gate.)
        logical = ideal_probabilities(twin.circuit)
        reused_probs = ideal_probabilities(reused.circuit)
        fresh_probs = ideal_probabilities(fresh.circuit)
        assert reused_probs == pytest.approx(logical, abs=1e-9)
        assert fresh_probs == pytest.approx(logical, abs=1e-9)
        # Layouts arrive in each requester's own labeling; mapping both
        # through their respective relabelings lands on one canonical
        # layout (same physical qubits, class-consistent logical names).
        base_form = canonical_form(base.circuit)
        twin_form = canonical_form(twin.circuit)
        canon_from_twin = remap_layout(reused.initial_layout,
                                       twin_form.relabel)
        canon_from_base = remap_layout(rep.initial_layout,
                                       base_form.relabel)
        assert canon_from_twin.as_dict() == canon_from_base.as_dict()

    def test_persistent_reuse_matches_in_memory_reuse(self, toronto,
                                                      tmp_path):
        path = str(tmp_path / "store.db")
        qc = _measured(random_circuit(3, 8, seed=5))
        base, twin = self._alloc_pair(toronto, qc, (2, 0, 1))
        warm = ExecutionCache(store_path=path)
        CompileService(warm).transpile(base.circuit, toronto, base,
                                       _default_transpiler)
        # Cold process simulation: new cache, same store, twin request.
        cold = ExecutionCache(store_path=path)
        served = CompileService(cold).transpile(twin.circuit, toronto,
                                                twin, _default_transpiler)
        assert cold.stats["promotions"] == 1
        assert ideal_probabilities(served.circuit) == pytest.approx(
            ideal_probabilities(twin.circuit), abs=1e-9)

    def test_ideal_distributions_shared_across_class(self, toronto):
        cache = ExecutionCache()
        qc = _measured(random_circuit(3, 8, seed=6))
        twin = _permuted(qc, (1, 2, 0))
        first = cache.ideal(qc)
        second = cache.ideal(twin)
        # Keyed by the exact key: the twin computes its own distribution.
        assert (cache.ideal_misses, cache.ideal_hits) == (2, 0)
        assert second == pytest.approx(first, abs=1e-12)
        assert second == pytest.approx(ideal_probabilities(twin),
                                       abs=1e-9)


class TestProviderPersistentStore:
    def test_cache_path_attaches_store(self, toronto, tmp_path):
        path = str(tmp_path / "provider.db")
        with QuantumProvider(cache_path=path) as provider:
            assert provider.cache_path == path
            assert provider.cache.persistent is not None

    def test_cache_path_env_default(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.db")
        monkeypatch.setenv("REPRO_CACHE_PATH", path)
        with QuantumProvider() as provider:
            assert provider.cache_path == path
        monkeypatch.delenv("REPRO_CACHE_PATH")
        with QuantumProvider() as provider:
            assert provider.cache_path is None

    def test_warm_store_run_and_metadata_counters(self, tmp_path):
        path = str(tmp_path / "provider.db")
        circuits = [workload("lin").circuit(),
                    workload("adder").circuit()]
        with QuantumProvider(cache_path=path) as warm:
            backend = warm.simulator("ibm_toronto")
            first = backend.run(circuits, shots=0).result()
            assert first.metadata.cache_promotions == 0
            assert warm.cache_stats()["persistent_writes"] >= 2
        # A brand-new provider (fresh in-memory caches, same store)
        # serves every compile from the store: no submissions reach a
        # worker, and the promotions surface in the job metadata.
        with QuantumProvider(cache_path=path) as cold:
            backend = cold.simulator("ibm_toronto")
            result = backend.run(circuits, shots=0).result()
            stats = cold.cache_stats()
            assert stats["submitted"] == 0
            assert stats["promotions"] >= 2
            assert result.metadata.cache_promotions >= 2
            assert result.metadata.transpile_misses == 0
            payload = result.to_dict()
            assert payload["metadata"]["cache_promotions"] >= 2
            assert "cache_evictions" in payload["metadata"]


class TestDynamicCircuitKeys:
    """Control-flow circuits participate in the equivalence cache: keys
    hash nested bodies recursively and canonicalization sees through
    qubit relabels of dynamic circuits."""

    def _teleport(self):
        from repro.workloads import dynamic_circuit

        return dynamic_circuit("teleportation")

    def test_fresh_builds_share_keys(self):
        # Two independent builder calls produce distinct objects whose
        # structural keys must still collide (cache hits across jobs).
        assert circuit_key(self._teleport()) == circuit_key(
            self._teleport())

    def test_fresh_loop_parameter_builds_share_keys(self):
        from repro.circuits import Parameter

        def build():
            theta = Parameter("theta")  # fresh object every call
            body = QuantumCircuit(1, 1)
            body.rz(theta, 0)
            qc = QuantumCircuit(1, 1)
            qc.for_loop(range(3), body, loop_parameter=theta)
            qc.measure(0, 0)
            return qc

        assert circuit_key(build()) == circuit_key(build())

    def test_permuted_dynamic_twins_share_canonical_form(self):
        qc = self._teleport()
        twin = qc.remapped({0: 2, 1: 0, 2: 1})
        f0, f1 = canonical_form(qc), canonical_form(twin)
        assert f0.exact_key != f1.exact_key
        assert f0.key == f1.key

    def test_indexset_distinguishes_keys(self):
        def loop(reps):
            body = QuantumCircuit(1, 1)
            body.x(0)
            qc = QuantumCircuit(1, 1)
            qc.for_loop(range(reps), body)
            qc.measure(0, 0)
            return qc

        assert circuit_key(loop(3)) != circuit_key(loop(4))

    def test_condition_value_distinguishes_keys(self):
        def branch(value):
            qc = QuantumCircuit(2, 2)
            qc.h(0)
            qc.measure(0, 0)
            fix = QuantumCircuit(2, 2)
            fix.x(1)
            qc.if_test(([0], value), fix)
            qc.measure(1, 1)
            return qc

        assert circuit_key(branch(0)) != circuit_key(branch(1))

    def test_while_cap_distinguishes_keys(self):
        def rus(cap):
            qc = QuantumCircuit(1, 1)
            qc.h(0)
            qc.measure(0, 0)
            retry = QuantumCircuit(1, 1)
            retry.reset(0)
            retry.h(0)
            retry.measure(0, 0)
            qc.while_loop(([0], 0), retry, max_iterations=cap)
            return qc

        assert circuit_key(rus(4)) != circuit_key(rus(5))

    def test_body_contents_reach_the_key(self):
        def branch(gate):
            qc = QuantumCircuit(2, 2)
            qc.h(0)
            qc.measure(0, 0)
            fix = QuantumCircuit(2, 2)
            fix._add(gate, [1])
            qc.if_test(([0], 1), fix)
            qc.measure(1, 1)
            return qc

        assert circuit_key(branch("x")) != circuit_key(branch("z"))

    def test_static_keys_unaffected_by_dynamic_support(self):
        # Historical static-entry form is preserved: a plain circuit's
        # key contains no control-flow payload markers.
        qc = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        assert circuit_key(qc) == circuit_key(qc.copy())
