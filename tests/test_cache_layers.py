"""The layered compile-cache subsystem: memory LRU tier, SQLite WAL
persistent tier (including corruption fallback and cross-process
sharing), tier composition inside ExecutionCache, structural keys of
dynamic circuits and relabeled twins, the index-sensitive hook marking,
and the provider-level persistent-store integration (cache_path,
RunMetadata counters)."""

import dataclasses
import multiprocessing
import os
import sqlite3
import threading

import numpy as np
import pytest

from repro.cache import (
    MemoryCache,
    PersistentCache,
    circuit_key,
    index_sensitive_transpiler,
    transpile_key,
)
from repro.cache import keys as keys_mod
from repro.circuits import random_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.core import CompileService, ExecutionCache, qucp_allocate
from repro.core.allocators import ProgramAllocation
from repro.core.compile_service import _default_transpiler
from repro.hardware import ibm_manhattan, ibm_toronto
from repro.service import QuantumProvider
from repro.sim import ideal_probabilities
from repro.workloads import synthesize_traffic, workload


def _allocation(device, names=("lin", "adder")):
    circuits = [workload(n).circuit() for n in names]
    return qucp_allocate(circuits, device)


class TestMemoryCache:
    def test_roundtrip_and_counters(self):
        mem = MemoryCache()
        assert mem.get("a") is None
        mem.put("a", 1)
        assert mem.get("a") == 1
        assert mem.stats == {"hits": 1, "misses": 1, "evictions": 0,
                             "entries": 1}

    def test_lru_eviction_order(self):
        mem = MemoryCache(max_entries=2)
        mem.put("a", 1)
        mem.put("b", 2)
        assert mem.get("a") == 1  # refresh "a": "b" is now LRU
        mem.put("c", 3)
        assert "b" not in mem
        assert mem.get("a") == 1
        assert mem.get("c") == 3
        assert mem.evictions == 1

    def test_replacing_existing_key_does_not_evict(self):
        mem = MemoryCache(max_entries=2)
        mem.put("a", 1)
        mem.put("b", 2)
        mem.put("a", 10)
        assert len(mem) == 2
        assert mem.evictions == 0
        assert mem.get("a") == 10

    def test_zero_cap_stores_nothing(self):
        mem = MemoryCache(max_entries=0)
        mem.put("a", 1)
        assert len(mem) == 0
        assert mem.get("a") is None

    def test_clear_keeps_counters(self):
        mem = MemoryCache()
        mem.put("a", 1)
        mem.get("a")
        mem.clear()
        assert len(mem) == 0
        assert mem.hits == 1


class TestPersistentCache:
    def test_roundtrip_and_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = PersistentCache(path)
        store.put("k1", b"payload-1")
        store.put("k2", b"payload-2")
        assert store.get("k1") == b"payload-1"
        assert len(store) == 2
        store.close()
        # A second connection (as another process would open) sees the
        # committed rows.
        again = PersistentCache(path)
        assert again.get("k2") == b"payload-2"
        assert again.get("missing") is None
        assert again.stats["hits"] == 1
        assert again.stats["misses"] == 1
        again.close()

    def test_rows_with_invariants_still_read(self, tmp_path):
        """Earlier builds at schema version 1 filled the ``invariants``
        column and indexed it; their files stay readable and writable,
        rows this build writes leave the column at its default, and the
        index nothing reads any more is dropped on open."""
        path = str(tmp_path / "store.db")
        PersistentCache(path).close()
        conn = sqlite3.connect(path)
        conn.execute("CREATE INDEX IF NOT EXISTS artifacts_invariants "
                     "ON artifacts (invariants)")
        conn.execute("INSERT INTO artifacts (key, invariants, payload, "
                     "created) VALUES ('old', 'inv-a', x'01', 0)")
        conn.commit()
        conn.close()
        store = PersistentCache(path)
        assert not store.disabled
        conn = sqlite3.connect(path)
        try:
            indexes = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name = 'artifacts_invariants'").fetchall()
        finally:
            conn.close()
        assert indexes == []
        assert store.get("old") == b"\x01"
        store.put("new", b"payload")
        assert store.get("new") == b"payload"
        store.close()
        conn = sqlite3.connect(path)
        try:
            rows = dict(conn.execute(
                "SELECT key, invariants FROM artifacts").fetchall())
        finally:
            conn.close()
        assert rows == {"old": "inv-a", "new": ""}

    def test_delete_and_clear(self, tmp_path):
        store = PersistentCache(str(tmp_path / "store.db"))
        store.put("k1", b"x")
        store.put("k2", b"y")
        store.delete("k1")
        assert store.get("k1") is None
        store.clear()
        assert len(store) == 0

    def test_garbage_file_disables_with_warning(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = PersistentCache(str(path))
        assert store.disabled
        # Disabled store degrades to misses/no-ops, never crashes.
        store.put("k", b"v")
        assert store.get("k") is None
        assert len(store) == 0

    def test_truncated_store_falls_back_cold(self, tmp_path):
        path = tmp_path / "store.db"
        store = PersistentCache(str(path))
        for i in range(20):
            store.put(f"k{i}", b"x" * 512)
        store.close()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.warns(RuntimeWarning, match="unusable"):
            reopened = PersistentCache(str(path))
            # Init may survive truncation (header intact); the first
            # query then hits the torn pages.  Either way: warn + miss.
            assert reopened.get("k0") is None
        assert reopened.disabled

    def test_newer_schema_left_untouched(self, tmp_path):
        path = str(tmp_path / "store.db")
        PersistentCache(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="schema"):
            store = PersistentCache(path)
        assert store.disabled

    def test_job_store_file_refused(self, tmp_path, line5):
        """A job store shares the ``meta`` convention but is not a
        compile cache: the cache refuses it untouched, and a provider
        given one file for both stores keeps serving its jobs."""
        from repro.circuits import ghz_circuit
        from repro.service import QuantumProvider

        path = str(tmp_path / "jobs.sqlite")
        prov = QuantumProvider(devices=[line5], store_path=path)
        job = prov.simulator(line5).run(
            [ghz_circuit(2).measure_all()], shots=16, seed=1)
        payload = job.result().to_dict()
        prov.shutdown()
        with pytest.warns(RuntimeWarning, match="another application"):
            store = PersistentCache(path)
        assert store.disabled
        store.put("k", b"v")
        assert store.get("k") is None
        store.close()
        conn = sqlite3.connect(path)
        try:
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
        finally:
            conn.close()
        assert "artifacts" not in tables
        with pytest.warns(RuntimeWarning, match="another application"):
            both = QuantumProvider(devices=[line5], store_path=path,
                                   cache_path=path)
        try:
            assert not both.store.disabled
            assert both.job(job.job_id).result().to_dict() == payload
        finally:
            both.shutdown()


def _spawn_writer(path, worker_id, n_entries):
    """Write one worker's slice plus the shared key (spawn target)."""
    from repro.cache import PersistentCache

    store = PersistentCache(path)
    for i in range(n_entries):
        store.put(f"w{worker_id}-k{i}", f"w{worker_id}-v{i}".encode())
    store.put("shared", b"shared-value")
    read_back = store.get(f"w{worker_id}-k0")
    store.close()
    return read_back


class TestCrossProcessStore:
    def test_two_processes_share_one_wal_store(self, tmp_path):
        path = str(tmp_path / "shared.db")
        n = 25
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            results = pool.starmap(_spawn_writer,
                                   [(path, 0, n), (path, 1, n)])
        assert results == [b"w0-v0", b"w1-v0"]
        store = PersistentCache(path)
        assert len(store) == 2 * n + 1
        for wid in (0, 1):
            for i in range(n):
                assert store.get(f"w{wid}-k{i}") == \
                    f"w{wid}-v{i}".encode()
        assert store.get("shared") == b"shared-value"
        store.close()


#: Store digests of the dynamic suite's circuits, placed on Toronto.
_DYNAMIC_DIGESTS = {
    "teleportation": "2dfe2faa2ac9cd9f49c42aedf0891d0c"
                     "5b370f02a27dfd147772833534b9f97e",
    "repeat_until_success": "57e76873fef710929956f7c641cff924"
                            "8a5e01a620bafb21156bba74186528e1",
    "echo_loop": "4d62080df6f134a1e04d72f0c391a0b4"
                 "e9db3a49659901e23e3c877c8adbe785",
    "conditional_fixup": "d817c6f6809f120dd55866371d879c29"
                         "aeb5d22ccba38877732eed8a97e1efb7",
}


class TestTieredExecutionCache:
    @staticmethod
    def _key(alloc, device):
        return transpile_key(alloc.circuit, device, alloc,
                             _default_transpiler)

    def test_persistable_key_has_digest(self, toronto):
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = self._key(alloc, toronto)
        assert key.digest is not None

    def test_persistent_digests_are_pinned(self):
        # The on-disk key format: any change here orphans every
        # existing store's entries.  The first circuit's qubits appear
        # in index order, so earlier builds gave it the same digest; the
        # second is keyed by its own exact structure.
        device = ibm_toronto()
        identity = QuantumCircuit(3, 3)
        identity.h(0).cx(0, 1).rz(0.25, 2).cx(0, 2).measure_all()
        relabeled = QuantumCircuit(3, 3)
        relabeled.h(1).cx(1, 0).rz(0.25, 2).cx(1, 2).measure_all()
        assert keys_mod._DIGEST_SCHEMA == 1  # noqa: SLF001
        for circuit, digest in (
                (identity, "3bcb6702e88d209bf1d76bbec59252bc"
                           "233a04701a5d344553884f445c30276d"),
                (relabeled, "07d42b36cee1531ddcefd68e51ac6f23"
                            "0799f4746f5b0dabaa2780648ba31f67")):
            alloc = ProgramAllocation(0, circuit, (3, 5, 8), 0.875,
                                      ((1, 2), (5, 8)))
            key = transpile_key(circuit, device, alloc, _default_transpiler)
            assert key.digest == digest

    @pytest.mark.parametrize("name", sorted(_DYNAMIC_DIGESTS))
    def test_dynamic_circuit_digests_are_pinned(self, name):
        # Control-flow payloads (conditions, indexsets, nested bodies)
        # are part of the on-disk key format too.
        from repro.workloads import dynamic_circuit

        c = dynamic_circuit(name)
        alloc = ProgramAllocation(0, c, (3, 5, 8, 11, 14)[:c.num_qubits],
                                  0.5)
        key = transpile_key(c, ibm_toronto(), alloc, _default_transpiler)
        assert key.digest == _DYNAMIC_DIGESTS[name]

    def test_storeless_compiles_hash_no_digests(self, toronto,
                                                monkeypatch, tmp_path):
        real = keys_mod.key_digest
        calls = []

        def counting(parts):
            calls.append(parts)
            return real(parts)

        keys_mod.device_digest(toronto)  # warm the per-device memo
        monkeypatch.setattr(keys_mod, "key_digest", counting)
        job = _allocation(toronto, names=("lin", "adder", "bell"))
        CompileService().compile_allocation(job)
        assert calls == []
        # With a store attached, the store reads the digests.
        cache = ExecutionCache(store_path=str(tmp_path / "s.db"))
        CompileService(cache=cache).compile_allocation(job)
        assert calls

    def test_exact_hits_hash_no_digests(self, toronto, monkeypatch,
                                       tmp_path):
        real = keys_mod.key_digest
        calls = []

        def counting(parts):
            calls.append(parts)
            return real(parts)

        keys_mod.device_digest(toronto)  # warm the per-device memo
        monkeypatch.setattr(keys_mod, "key_digest", counting)
        job = _allocation(toronto, names=("lin", "adder", "bell"))
        service = CompileService(
            ExecutionCache(store_path=str(tmp_path / "s.db")))
        service.compile_allocation(job)
        assert len(calls) == 3  # each miss walks on to the store
        calls.clear()
        service.compile_allocation(job)
        assert calls == []
        assert service.stats["transpile_hits"] == 3

    def test_keying_copies_no_circuit(self, toronto, monkeypatch):
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        copies = []
        real = QuantumCircuit.copy

        def counting(self, name=None):
            copies.append(self)
            return real(self, name)

        monkeypatch.setattr(QuantumCircuit, "copy", counting)
        key = transpile_key(alloc.circuit, toronto, alloc,
                            _default_transpiler)
        assert key.digest is not None
        assert copies == []
        device, hook = key.sources
        assert device is toronto and hook is _default_transpiler

    def test_lazy_digest_uses_the_circuit_as_keyed(self, toronto):
        circuit = QuantumCircuit(3, 3)
        circuit.h(1).cx(1, 0).measure_all()
        twin = circuit.copy()
        alloc = ProgramAllocation(0, circuit, (3, 5, 8), 0.5)
        key = transpile_key(circuit, toronto, alloc, _default_transpiler)
        circuit.x(2)  # mutated after keying, before the lazy read
        expected = transpile_key(twin, toronto, alloc, _default_transpiler)
        assert key.digest == expected.digest

    def test_undeclared_hook_not_persisted(self, toronto, tmp_path):
        def hook(circuit, device, allocation):  # no persistent token
            return _default_transpiler(circuit, device, allocation)

        cache = ExecutionCache(store_path=str(tmp_path / "s.db"))
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = transpile_key(alloc.circuit, toronto, alloc, hook)
        assert key.digest is None
        result = CompileService(cache).transpile(alloc.circuit, toronto,
                                                 alloc, hook)
        assert result is not None
        assert len(cache.persistent) == 0

    def test_warm_store_serves_cold_cache(self, toronto, tmp_path):
        path = str(tmp_path / "store.db")
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        warm = ExecutionCache(store_path=path)
        compiled = CompileService(warm).transpile(alloc.circuit, toronto,
                                                  alloc, _default_transpiler)
        assert len(warm.persistent) == 1

        cold = ExecutionCache(store_path=path)
        key = self._key(alloc, toronto)
        served = cold.lookup_transpile_raw(key, toronto,
                                           _default_transpiler)
        assert served is not None
        assert circuit_key(served.circuit) == \
            circuit_key(compiled.circuit)
        assert served.initial_layout.as_dict() == \
            compiled.initial_layout.as_dict()
        assert cold.stats["promotions"] == 1
        # Promotion populated L1: the next lookup skips the store.
        persistent_hits = cold.persistent.hits
        assert cold.lookup_transpile_raw(key, toronto,
                                         _default_transpiler) is not None
        assert cold.persistent.hits == persistent_hits

    def test_corrupt_row_recompiles_and_heals(self, toronto, tmp_path):
        path = str(tmp_path / "store.db")
        cache = ExecutionCache(store_path=path)
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = self._key(alloc, toronto)
        cache.persistent.put(key.digest, b"not a pickle")
        cold = ExecutionCache(store_path=path)
        assert cold.lookup_transpile_raw(key, toronto,
                                         _default_transpiler) is None
        assert cold.stats["decode_errors"] == 1
        # The torn row was dropped; a real compile republishes it.
        result = CompileService(cold).transpile(alloc.circuit, toronto,
                                                alloc, _default_transpiler)
        assert result is not None
        assert len(cold.persistent) == 1
        healed = ExecutionCache(store_path=path)
        assert healed.lookup_transpile_raw(key, toronto,
                                           _default_transpiler) is not None

    def test_cold_service_on_warm_store_compiles_nothing(self, toronto,
                                                         tmp_path):
        path = str(tmp_path / "store.db")
        job = _allocation(toronto)
        warm = CompileService(cache=ExecutionCache(store_path=path))
        warm.compile_allocation(job)
        assert warm.stats["submitted"] == 2
        cold = CompileService(cache=ExecutionCache(store_path=path))
        cold.compile_allocation(job)
        assert cold.stats["submitted"] == 0
        assert cold.stats["promotions"] == 2

    def test_default_max_entries(self):
        assert ExecutionCache().max_entries == 4096
        assert ExecutionCache(max_entries=None).max_entries is None


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


class TestRelabeledTwins:
    """A qubit-relabeled twin is another structure: it gets its own
    keys and compiles its own artifact in its own labeling."""

    @staticmethod
    def _alloc_pair(device, circuit, perm):
        base = qucp_allocate([circuit], device).allocations[0]
        twin = dataclasses.replace(base, circuit=_permuted(circuit, perm))
        assert circuit_key(twin.circuit) != circuit_key(base.circuit)
        return base, twin

    @staticmethod
    def _digest(device, circuit):
        alloc = ProgramAllocation(0, circuit,
                                  tuple(range(circuit.num_qubits)), 0.5)
        return transpile_key(circuit, device, alloc,
                             _default_transpiler).digest

    def test_different_circuits_stay_distinct(self, toronto):
        a = QuantumCircuit(2, 2).h(0).cx(0, 1).measure_all()
        b = QuantumCircuit(2, 2).h(0).cz(0, 1).measure_all()
        assert circuit_key(a) != circuit_key(b)
        assert self._digest(toronto, a) != self._digest(toronto, b)

    def test_randomized_twins_key_apart(self, toronto):
        rng = np.random.default_rng(11)
        for seed in range(8):
            qc = _measured(random_circuit(4, 8, seed=seed))
            perm = tuple(int(p) for p in rng.permutation(qc.num_qubits))
            if perm == tuple(range(qc.num_qubits)):
                continue
            twin = _permuted(qc, perm)
            assert circuit_key(twin) != circuit_key(qc)
            assert self._digest(toronto, twin) != self._digest(toronto, qc)

    def test_unused_qubits_key_by_position(self, toronto):
        # The same one-qubit program on register slot 2 and on slot 0.
        high = QuantumCircuit(3, 1).h(2).measure(2, 0)
        low = QuantumCircuit(3, 1).h(0).measure(0, 0)
        assert circuit_key(high) != circuit_key(low)
        assert self._digest(toronto, high) != self._digest(toronto, low)
        cache = ExecutionCache()
        assert cache.ideal(high) == cache.ideal(low)
        assert (cache.ideal_misses, cache.ideal_hits) == (2, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_twin_compiles_its_own_artifact(self, toronto, seed):
        rng = np.random.default_rng(100 + seed)
        qc = _measured(random_circuit(3, 10, seed=seed))
        perm = tuple(int(p) for p in rng.permutation(qc.num_qubits))
        base, twin = self._alloc_pair(toronto, qc, perm)
        cache = ExecutionCache()
        service = CompileService(cache)
        service.transpile(base.circuit, toronto, base, _default_transpiler)
        served = service.transpile(twin.circuit, toronto, twin,
                                   _default_transpiler)
        assert cache.transpile_misses == 2
        fresh = _default_transpiler(twin.circuit, toronto, twin)
        assert circuit_key(served.circuit) == circuit_key(fresh.circuit)
        assert served.initial_layout.as_dict() == \
            fresh.initial_layout.as_dict()
        assert served.final_layout.as_dict() == \
            fresh.final_layout.as_dict()
        assert ideal_probabilities(served.circuit) == pytest.approx(
            ideal_probabilities(twin.circuit), abs=1e-9)

    def test_twin_misses_a_store_written_by_the_base(self, toronto,
                                                     tmp_path):
        path = str(tmp_path / "store.db")
        qc = _measured(random_circuit(3, 8, seed=5))
        base, twin = self._alloc_pair(toronto, qc, (2, 0, 1))
        CompileService(ExecutionCache(store_path=path)).transpile(
            base.circuit, toronto, base, _default_transpiler)
        # Cold process simulation: new cache, same store, twin request.
        cold = CompileService(ExecutionCache(store_path=path))
        served = cold.transpile(twin.circuit, toronto, twin,
                                _default_transpiler)
        assert cold.stats["submitted"] == 1
        assert cold.stats["promotions"] == 0
        assert len(cold.cache.persistent) == 2
        fresh = _default_transpiler(twin.circuit, toronto, twin)
        assert circuit_key(served.circuit) == circuit_key(fresh.circuit)
        assert served.initial_layout.as_dict() == \
            fresh.initial_layout.as_dict()

    def test_exact_repeat_from_store_matches_in_memory_compile(
            self, toronto, tmp_path):
        path = str(tmp_path / "store.db")
        qc = _measured(random_circuit(3, 8, seed=5))
        base = qucp_allocate([qc], toronto).allocations[0]
        memory = CompileService(ExecutionCache()).transpile(
            base.circuit, toronto, base, _default_transpiler)
        CompileService(ExecutionCache(store_path=path)).transpile(
            base.circuit, toronto, base, _default_transpiler)
        # Cold process simulation: new cache, same store, same request.
        cold = CompileService(ExecutionCache(store_path=path))
        served = cold.transpile(base.circuit, toronto, base,
                                _default_transpiler)
        assert cold.stats["submitted"] == 0
        assert cold.stats["promotions"] == 1
        assert circuit_key(served.circuit) == circuit_key(memory.circuit)
        assert served.initial_layout.as_dict() == \
            memory.initial_layout.as_dict()
        assert served.final_layout.as_dict() == \
            memory.final_layout.as_dict()
        assert ideal_probabilities(served.circuit) == pytest.approx(
            ideal_probabilities(base.circuit), abs=1e-9)

    def test_store_serves_each_twin_its_own_artifact(self, toronto,
                                                     tmp_path):
        path = str(tmp_path / "store.db")
        qc = _measured(random_circuit(3, 8, seed=7))
        base, twin = self._alloc_pair(toronto, qc, (1, 2, 0))
        warm = CompileService(ExecutionCache(store_path=path))
        for alloc in (base, twin):
            warm.transpile(alloc.circuit, toronto, alloc,
                           _default_transpiler)
        assert len(warm.cache.persistent) == 2
        cold = CompileService(ExecutionCache(store_path=path))
        for alloc in (base, twin):
            served = cold.transpile(alloc.circuit, toronto, alloc,
                                    _default_transpiler)
            fresh = _default_transpiler(alloc.circuit, toronto, alloc)
            assert circuit_key(served.circuit) == \
                circuit_key(fresh.circuit)
            assert served.initial_layout.as_dict() == \
                fresh.initial_layout.as_dict()
            assert served.final_layout.as_dict() == \
                fresh.final_layout.as_dict()
        assert cold.stats["submitted"] == 0
        assert cold.stats["promotions"] == 2

    def test_twins_count_no_equivalence_hits(self, toronto):
        qc = _measured(random_circuit(3, 8, seed=4))
        base, twin = self._alloc_pair(toronto, qc, (2, 0, 1))
        service = CompileService(ExecutionCache())
        for alloc in (base, twin, base):
            service.transpile(alloc.circuit, toronto, alloc,
                              _default_transpiler)
        assert "equivalence_hits" not in service.cache.stats
        # Kept at a constant 0 for readers of the service counters.
        assert service.stats["equivalence_hits"] == 0
        assert service.stats["chunks"] == 0
        assert (service.stats["transpile_misses"],
                service.stats["transpile_hits"]) == (2, 1)

    def test_index_sensitive_hooks_get_no_digest(self, toronto):
        @index_sensitive_transpiler
        def hook(circuit, device, allocation):
            return _default_transpiler(circuit, device, allocation)

        qc = _measured(random_circuit(3, 8, seed=3))
        base, twin = self._alloc_pair(toronto, qc, (1, 2, 0))
        key = transpile_key(base.circuit, toronto, base, hook)
        assert key.digest is None
        cache = ExecutionCache()
        CompileService(cache).transpile(base.circuit, toronto, base, hook)
        CompileService(cache).transpile(twin.circuit, toronto, twin, hook)
        assert cache.transpile_misses == 2

    def test_twin_computes_its_own_ideal_distribution(self):
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
        # serves every compile from the store: it compiles nothing, and
        # the promotions surface in the job metadata.
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
    """Control-flow circuits key structurally: keys hash nested bodies
    recursively, so fresh builds of one dynamic program share cache
    entries and any structural difference splits them."""

    def _teleport(self):
        from repro.workloads import dynamic_circuit

        return dynamic_circuit("teleportation")

    def test_fresh_builds_share_keys(self):
        # Two independent builder calls produce distinct objects whose
        # structural keys must still collide (cache hits across jobs).
        assert circuit_key(self._teleport()) == circuit_key(
            self._teleport())

    def test_permuted_dynamic_twins_key_apart(self, toronto):
        qc = self._teleport()
        twin = qc.remapped({0: 2, 1: 0, 2: 1})
        assert circuit_key(qc) != circuit_key(twin)
        keys = [transpile_key(c, toronto,
                              ProgramAllocation(0, c, (3, 5, 8), 0.5),
                              _default_transpiler)
                for c in (qc, twin)]
        assert keys[0] != keys[1]
        assert keys[0].digest != keys[1].digest

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


class TestShims:
    def test_index_sensitive_marking_unchanged(self):
        @index_sensitive_transpiler
        def hook(circuit, device, allocation):
            return None

        assert getattr(hook, "_observes_allocation_index")


class TestSingleCoreRouting:
    """Whatever the host's core count (one, unknown or many) every
    compile runs on the calling thread.  Measured, a process route
    never beat inline compilation on the one- and two-core hosts tried,
    so no host shape or batch shape sends a compile anywhere else."""

    @staticmethod
    def _compiling_threads(monkeypatch, cores, device, circuits=None):
        """Compile a batch on *device* with ``os.cpu_count`` reporting
        *cores*; return the thread each compile ran on."""
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        if circuits is None:
            circuits = [workload(n).circuit()
                        for n in ("lin", "adder", "bell")]
        threads = []

        def hook(circuit, device, allocation):
            threads.append(threading.get_ident())
            return _default_transpiler(circuit, device, allocation)

        futures = CompileService().submit_allocation(
            qucp_allocate(circuits, device), hook)
        # Inline: every future is resolved when submit returns.
        assert all(f.done() for f in futures)
        assert len(threads) == len(circuits)
        return threads

    def test_auto_mode_single_core_host(self, monkeypatch):
        threads = self._compiling_threads(monkeypatch, 1, ibm_manhattan())
        assert set(threads) == {threading.get_ident()}

    def test_auto_mode_unknown_core_count(self, monkeypatch):
        threads = self._compiling_threads(monkeypatch, None,
                                          ibm_manhattan())
        assert set(threads) == {threading.get_ident()}

    def test_cold_process_regression_batch_stays_serial_on_one_core(
            self, monkeypatch):
        # Heavy-tail programs on a 27q device, one core: a process
        # route measured 0.47x serial on this shape.
        heavy_tail = [s.circuit for s in synthesize_traffic(
            4, mix="heavy_tail", seed=7)]
        threads = self._compiling_threads(monkeypatch, 1, ibm_toronto(),
                                          circuits=heavy_tail)
        assert set(threads) == {threading.get_ident()}

    def test_multi_core_wide_device_stays_serial(self, monkeypatch):
        # Many cores and a 65q device: a process route's best case.
        threads = self._compiling_threads(monkeypatch, 4, ibm_manhattan())
        assert set(threads) == {threading.get_ident()}

    def test_multi_core_narrow_device_stays_serial(self, monkeypatch):
        threads = self._compiling_threads(monkeypatch, 4, ibm_toronto())
        assert set(threads) == {threading.get_ident()}
