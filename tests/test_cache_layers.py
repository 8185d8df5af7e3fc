"""The layered compile-cache subsystem: memory LRU tier, SQLite WAL
persistent tier (including corruption fallback and cross-process
sharing), tier composition inside ExecutionCache, and the
index-sensitive hook marking."""

import multiprocessing
import os
import sqlite3
import threading

import pytest

from repro.cache import (
    MemoryCache,
    PersistentCache,
    circuit_key,
    index_sensitive_transpiler,
    transpile_key,
)
from repro.cache import keys as keys_mod
from repro.circuits.circuit import QuantumCircuit
from repro.core import CompileService, ExecutionCache, qucp_allocate
from repro.core.allocators import ProgramAllocation
from repro.core.compile_service import _default_transpiler
from repro.hardware import ibm_manhattan, ibm_toronto
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
        store.put("k1", b"payload-1", "inv-a")
        store.put("k2", b"payload-2", "inv-a")
        assert store.get("k1") == b"payload-1"
        assert len(store) == 2
        assert store.invariant_classes() == {"inv-a": 2}
        store.close()
        # A second connection (as another process would open) sees the
        # committed rows.
        again = PersistentCache(path)
        assert again.get("k2") == b"payload-2"
        assert again.get("missing") is None
        assert again.stats["hits"] == 1
        assert again.stats["misses"] == 1
        again.close()

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
        store.put(f"w{worker_id}-k{i}", f"w{worker_id}-v{i}".encode(),
                  f"class-{i % 3}")
    store.put("shared", b"shared-value", "class-shared")
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


class TestTieredExecutionCache:
    @staticmethod
    def _key(alloc, device):
        return transpile_key(alloc.circuit, device, alloc,
                             _default_transpiler)

    def test_persistable_key_has_digest(self, toronto):
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = self._key(alloc, toronto)
        assert key.digest is not None
        assert key.invariants is not None

    def test_persistent_digests_are_pinned(self):
        # The on-disk key format.  These values predate lazy digests;
        # any change here orphans every existing store's entries.
        device = ibm_toronto()
        circuit = QuantumCircuit(3, 3)
        circuit.h(1).cx(1, 0).rz(0.25, 2).cx(1, 2).measure_all()
        alloc = ProgramAllocation(0, circuit, (3, 5, 8), 0.875,
                                  ((1, 2), (5, 8)))
        key = transpile_key(circuit, device, alloc, _default_transpiler)
        assert keys_mod._DIGEST_SCHEMA == 1  # noqa: SLF001
        assert key.relabel == (1, 0, 2)
        assert key.digest == ("0e72628d4803bdadc1e0ae7d0372ecc8"
                              "8fb77187f80cffb09725412adf73dfd1")
        assert key.invariants == ("86451c8cd06ebefa5c4fb991d509d392"
                                  "1a46badbc0cead267b7a478e98f3c0d7")

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

    def test_exact_hits_never_canonicalize(self, toronto, monkeypatch):
        real = keys_mod.canonical_form
        calls = []

        def counting(circuit, exact=None):
            calls.append(circuit)
            return real(circuit, exact)

        monkeypatch.setattr(keys_mod, "canonical_form", counting)
        job = _allocation(toronto, names=("lin", "adder", "bell"))
        service = CompileService()
        service.compile_allocation(job)
        assert len(calls) == 3  # each miss walks on to the class table
        calls.clear()
        service.compile_allocation(job)
        assert calls == []
        assert service.stats["transpile_hits"] == 3

    def test_lazy_forms_match_canonical_form(self, toronto):
        circuit = QuantumCircuit(3, 3)
        circuit.h(1).cx(1, 0).rz(0.25, 2).cx(1, 2).measure_all()
        identity = QuantumCircuit(2, 2)
        identity.h(0).cx(0, 1).measure_all()
        for qc in (circuit, identity):
            alloc = ProgramAllocation(0, qc, (3, 5, 8)[:qc.num_qubits],
                                      0.5)
            key = transpile_key(qc, toronto, alloc, _default_transpiler)
            form = keys_mod.canonical_form(qc)
            assert key.relabel == form.relabel
            assert key.canonical[0] == form.key
            assert key.exact[0].key == form.exact_key
        # An identity relabel shares the exact tuple, not a copy of it.
        assert key.relabel is None
        assert key.canonical[0] is key.exact[0].key

    def test_lazy_forms_use_the_circuit_as_keyed(self, toronto):
        circuit = QuantumCircuit(3, 3)
        circuit.h(1).cx(1, 0).measure_all()
        twin = circuit.copy()
        alloc = ProgramAllocation(0, circuit, (3, 5, 8), 0.5)
        key = transpile_key(circuit, toronto, alloc, _default_transpiler)
        circuit.x(2)  # mutated after keying, before any lazy read
        expected = transpile_key(twin, toronto, alloc, _default_transpiler)
        assert key.canonical == expected.canonical
        assert key.relabel == expected.relabel
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
        cache.persistent.put(key.digest, b"not a pickle", "inv")
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
