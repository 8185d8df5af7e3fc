"""Durability-layer tests: the job store's persistence and degradation
contracts, Result round-trips, retry-policy determinism, and the
provider's resume-on-restart path."""

import copyreg
import gc
import io
import json
import math
import pickle
import sqlite3
import sys
import threading
import time
import tracemalloc
import warnings

import networkx as nx
import pytest

from repro.cache.tiered import dumps_artifact
from repro.circuits import Gate, Instruction, QuantumCircuit, ghz_circuit
from repro.core import CompileService, ExecutionCache, qucp_allocate
from repro.core.faults import (
    corrupt_file,
    locked_database,
    write_foreign_store,
)
from repro.hardware import linear_device
from repro.service import (
    JobError,
    JobSet,
    JobStatus,
    JobStore,
    JobTimeoutError,
    ProgramResult,
    QuantumProvider,
    Result,
    RetryPolicy,
    RunMetadata,
    ScheduleRecord,
    StoredJob,
    StoredTransition,
)
from repro.service.store import _CHECK_PAGE, _SpecUnpickler
from repro.vqe import qaoa_circuit, ryrz_ansatz
from repro.workloads import all_workloads, dynamic_workloads


def make_provider(tmp_path=None, **kwargs):
    if tmp_path is not None:
        kwargs.setdefault("store_path", str(tmp_path / "jobs.sqlite"))
    return QuantumProvider(**kwargs)


def minimal_result(job_id="job-000001"):
    return Result(metadata=RunMetadata(
        job_id=job_id, backend_name="test", method="direct", shots=0,
        num_programs=0, num_hardware_jobs=0, throughput=0.0))


# ----------------------------------------------------------------------
# JobStore: CRUD + reopen
# ----------------------------------------------------------------------

class TestJobStoreCrud:
    def test_submission_recorded(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev", b"spec")
            rec = store.get("job-000001")
            assert rec.status == "queued"
            assert rec.attempts == 0
            assert rec.spec == b"spec"
            assert rec.is_pending
            assert not store.disabled

    def test_transition_audit_trail(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "running", attempt=1)
            store.record_transition("job-000001", JobStatus.DONE,
                                    attempt=1)
            trail = [(t.status, t.attempt)
                     for t in store.transitions("job-000001")]
            assert trail == [("queued", 0), ("running", 1), ("done", 1)]
            assert not store.get("job-000001").is_pending

    def test_reopen_reloads_everything(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        payload = {"metadata": {"job_id": "job-000002"},
                   "programs": [], "schedule": None}
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev-a")
            store.record_transition("job-000001", "running", attempt=1)
            store.record_submission("job-000002", 2, "dev-b", b"xx")
            store.record_transition("job-000002", "done", attempt=1)
            store.record_result("job-000002", payload)
        with JobStore(path) as fresh:
            assert len(fresh) == 2
            assert fresh.stats["loaded"] == 2
            assert [r.job_id for r in fresh.jobs()] == [
                "job-000001", "job-000002"]
            # The job that was RUNNING at "crash" time is the one a
            # restart must re-run.
            assert [r.job_id for r in fresh.pending()] == ["job-000001"]
            done = fresh.get("job-000002")
            assert done.result == payload
            assert done.spec == b"xx"
            assert fresh.max_job_number() == 2
            trail = [t.status for t in fresh.transitions("job-000001")]
            assert trail == ["queued", "running"]

    def test_error_text_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "error", attempt=2,
                                    error="worker exploded")
        with JobStore(path) as fresh:
            rec = fresh.get("job-000001")
            assert rec.status == "error"
            assert rec.attempts == 2
            assert rec.error == "worker exploded"

    def test_transition_for_unknown_job_is_noop(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_transition("job-999999", "done")
            store.record_result("job-999999", {})
            assert store.get("job-999999") is None
            assert len(store) == 0

    def test_max_job_number_empty(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            assert store.max_job_number() == 0

    def test_two_handles_share_one_ledger(self, tmp_path):
        """Every read is a query: a second handle on the same file sees
        the first one's writes, not a snapshot taken at open."""
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as first, JobStore(path) as second:
            assert len(second) == 0
            first.record_submission("job-000003", 3, "dev")
            first.record_transition("job-000003", "running", attempt=1)
            assert second.get("job-000003").status == "running"
            assert [t.status for t in second.transitions("job-000003")] \
                == ["queued", "running"]
            assert second.max_job_number() == 3
            assert len(second) == 1


# ----------------------------------------------------------------------
# JobStore: degradation (never crash, warn once, keep serving)
# ----------------------------------------------------------------------

class TestJobStoreDegradation:
    def _assert_usable_in_memory(self, store):
        """A degraded store must keep full in-memory service."""
        store.record_submission("job-000001", 1, "dev")
        store.record_transition("job-000001", "done", attempt=1)
        store.record_result("job-000001", {"ok": True})
        rec = store.get("job-000001")
        assert rec.status == "done"
        assert rec.result == {"ok": True}
        store.close()

    def test_garbage_file_degrades(self, tmp_path):
        path = corrupt_file(str(tmp_path / "s.sqlite"), mode="garbage")
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = JobStore(path)
        assert store.disabled
        self._assert_usable_in_memory(store)

    def test_foreign_database_refused_and_untouched(self, tmp_path):
        path = write_foreign_store(str(tmp_path / "theirs.sqlite"))
        with pytest.warns(RuntimeWarning, match="another application"):
            store = JobStore(path)
        assert store.disabled
        self._assert_usable_in_memory(store)
        conn = sqlite3.connect(path)
        try:
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
            rows = conn.execute(
                "SELECT COUNT(*) FROM somebody_elses_data").fetchone()[0]
        finally:
            conn.close()
        assert "jobs" not in tables
        assert rows == 1

    def test_compile_cache_file_refused(self, tmp_path):
        """A PersistentCache file shares the ``meta`` convention but is
        not a job store — the table scan must catch it."""
        from repro.cache import PersistentCache

        path = str(tmp_path / "cache.sqlite")
        cache = PersistentCache(path)
        cache.put("k", b"artifact-bytes")
        cache.close()
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = JobStore(path)
        assert store.disabled
        store.close()
        # The cache file is still a valid compile cache afterwards.
        reopened = PersistentCache(path)
        assert reopened.get("k") == b"artifact-bytes"
        reopened.close()

    def test_locked_database_degrades_fast(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        JobStore(path).close()
        with locked_database(path):
            with pytest.warns(RuntimeWarning, match="unusable"):
                store = JobStore(path, timeout=0.05)
            assert store.disabled
            self._assert_usable_in_memory(store)

    def test_newer_schema_left_untouched(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='99' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="schema version"):
            store = JobStore(path)
        assert store.disabled
        store.close()
        conn = sqlite3.connect(path)
        try:
            version = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()[0]
            jobs = conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
        finally:
            conn.close()
        assert version == "99"
        assert jobs == 1

    def test_warns_exactly_once(self, tmp_path):
        path = corrupt_file(str(tmp_path / "s.sqlite"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = JobStore(path)
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "done")
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert store.stats["disabled"] == 1
        store.close()

    def test_open_checks_rows_a_page_at_a_time(self, tmp_path):
        """Opening parses every row but holds one page of replay specs
        at a time; a damaged row on the last page still refuses the
        file, with one warning."""
        path = str(tmp_path / "s.sqlite")
        jobs = 300  # more than four pages of 16 KB specs (~4.7 MB)
        assert jobs > 4 * _CHECK_PAGE
        with JobStore(path) as store:
            for n in range(1, jobs + 1):
                store.record_submission(f"job-{n:06d}", n, "dev",
                                        bytes(16 * 1024))
        tracemalloc.start()
        try:
            with JobStore(path) as fresh:
                _, peak = tracemalloc.get_traced_memory()
                assert fresh.stats["loaded"] == jobs
                assert not fresh.disabled
        finally:
            tracemalloc.stop()
        # One fetch of the whole table peaks near 4.9 MB; a page, ~1 MB.
        assert peak < 2 * 1024 * 1024
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE jobs SET result = 'not json' "
                         "WHERE job_number = ?", (jobs,))
        conn.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            refused = JobStore(path)
        runtime = [str(w.message) for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1 and "unusable" in runtime[0]
        assert refused.disabled
        assert refused.stats["loaded"] == 0
        assert len(refused) == 0
        refused.close()

    def test_mid_life_mirror_failure_degrades(self, tmp_path):
        """Losing the connection after open degrades writes, not reads."""
        path = str(tmp_path / "s.sqlite")
        store = JobStore(path)
        store.record_submission("job-000001", 1, "dev")
        store._db._conn.close()  # simulate the handle dying under us
        with pytest.warns(RuntimeWarning, match="unusable"):
            store.record_transition("job-000001", "done", attempt=1)
        assert store.disabled
        assert store.get("job-000001").status == "done"
        store.close()

    def test_mid_life_failure_on_unreadable_file_keeps_serving(
            self, tmp_path):
        """The file fails mid-life and cannot be copied either: one
        warning, and the in-memory ledger serves every later write."""
        path = str(tmp_path / "s.sqlite")
        store = JobStore(path)
        store.record_submission("job-000001", 1, "dev")
        store._db._conn.close()
        corrupt_file(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.record_transition("job-000001", "done", attempt=1)
            store.record_submission("job-000002", 2, "dev")
            store.record_result("job-000002", {"ok": True})
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert store.disabled
        rec = store.get("job-000002")
        assert rec.status == "done"
        assert rec.result == {"ok": True}
        assert [t.status for t in store.transitions("job-000002")] == [
            "queued", "done"]
        assert store.max_job_number() == 2
        store.close()

    def test_concurrent_writers_land_in_one_ledger(self, tmp_path):
        """Job threads racing the mid-life switch to memory all land in
        one ledger: no row and no counted write is lost."""
        store = JobStore(str(tmp_path / "s.sqlite"))
        threads, per_thread = 8, 25
        start = threading.Barrier(threads + 1)

        def writer(t):
            start.wait(timeout=30)
            for i in range(per_thread):
                number = t * per_thread + i + 1
                store.record_submission(f"job-{number:06d}", number, "dev")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=writer, args=(t,))
                   for t in range(threads)]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for worker in workers:
                    worker.start()
                start.wait(timeout=30)
                with store._db._lock:  # the file dies between statements
                    store._db._conn.close()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert store.disabled
        total = threads * per_thread
        assert len(store) == total
        assert store.writes == 2 * total
        assert all(len(store.transitions(f"job-{n:06d}")) == 1
                   for n in range(1, total + 1))
        store.close()


# ----------------------------------------------------------------------
# Result / RunMetadata / ProgramResult round-trips
# ----------------------------------------------------------------------

class TestResultRoundTrip:
    def test_program_result_round_trip(self):
        prog = ProgramResult(
            index=3, circuit_name="ghz_2", partition=(4, 5), efs=0.125,
            counts={"00": 7, "11": 9}, probabilities={"00": 0.4,
                                                      "11": 0.6},
            pst=0.9, jsd=0.01, device_name="line-5", hardware_job=1,
            turnaround_ns=1234.5)
        payload = prog.to_dict()
        assert ProgramResult.from_dict(payload).to_dict() == payload

    def test_program_result_none_turnaround(self):
        prog = ProgramResult(
            index=0, circuit_name="c", partition=(0,), efs=0.0,
            counts={}, probabilities={"0": 1.0}, pst=1.0, jsd=0.0,
            device_name="d", hardware_job=0)
        payload = prog.to_dict()
        back = ProgramResult.from_dict(payload)
        assert back.turnaround_ns is None
        assert back.to_dict() == payload

    def test_metadata_nan_serializes_to_null_and_back(self):
        meta = RunMetadata(
            job_id="job-000001", backend_name="b", method="m", shots=16,
            num_programs=2, num_hardware_jobs=1, throughput=1.5,
            makespan_ns=float("nan"),
            mean_turnaround_ns=float("nan"))
        payload = meta.to_dict()
        assert payload["makespan_ns"] is None
        assert payload["mean_turnaround_ns"] is None
        back = RunMetadata.from_dict(payload)
        # null is the canonical spelling of a NaN timing: the round
        # trip converges (None stays None) instead of oscillating.
        assert back.makespan_ns is None
        assert back.to_dict() == payload

    def test_metadata_full_round_trip(self):
        meta = RunMetadata(
            job_id="job-000009", backend_name="fleet[a,b]",
            method="online-qucp(th=0.3)", shots=4096, num_programs=5,
            num_hardware_jobs=2, throughput=3.25, makespan_ns=1e6,
            mean_turnaround_ns=5e5, rejected=(1, 3),
            transpile_hits=2, transpile_misses=3,
            cache_evictions=1, cache_promotions=1, execution_batches=2,
            attempts=3,
            rejection_reasons=((1, "too wide"), (3, "no coupling")))
        payload = json.loads(json.dumps(meta.to_dict()))
        back = RunMetadata.from_dict(payload)
        assert back == meta
        assert back.to_dict() == payload

    def test_payload_with_retired_execution_counters_loads(self):
        # A stored payload from a build whose metadata still carried the
        # execution pool's chunk and fallback counters, the race count
        # and the compile request count.
        stored = json.loads("""{
          "metadata": {"job_id": "job-000001",
            "backend_name": "linear5-simulator", "method": "qucp(sigma=4)",
            "shots": 16, "num_programs": 1, "num_hardware_jobs": 1,
            "throughput": 0.4, "makespan_ns": null,
            "mean_turnaround_ns": null, "rejected": [],
            "compile_requests": 0, "transpile_hits": 0,
            "transpile_misses": 1, "cache_evictions": 0,
            "cache_promotions": 0, "execution_batches": 1,
            "execution_chunks": 0, "execution_fallbacks": 0, "races": 0,
            "attempts": 1, "rejection_reasons": {}, "dynamic_programs": 0},
          "programs": [{"index": 0, "circuit_name": "ghz2",
            "partition": [3, 4], "efs": 0.059998602631518884,
            "counts": {"00": 8, "10": 1, "11": 7},
            "probabilities": {"00": 0.4768721976601297,
              "01": 0.029628713138589228, "10": 0.023333208228843935,
              "11": 0.4701658809724371},
            "pst": 0.4768721976601297, "jsd": 0.0270094201454751,
            "device_name": "linear5", "hardware_job": 0,
            "turnaround_ns": null}],
          "schedule": null}""")
        back = Result.from_dict(stored)
        assert back.metadata.execution_batches == 1
        assert back.counts(0) == {"00": 8, "10": 1, "11": 7}
        want = json.loads(json.dumps(stored))
        del want["metadata"]["execution_chunks"]
        del want["metadata"]["execution_fallbacks"]
        del want["metadata"]["races"]
        del want["metadata"]["compile_requests"]
        assert back.to_dict() == want

    def test_result_round_trip_is_bit_identical(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()] * 2, shots=64, seed=11)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        # Through JSON bytes, exactly as the store holds it.
        stored = json.loads(json.dumps(payload))
        back = Result.from_dict(stored)
        assert back.to_dict() == payload
        assert back.counts(0) == payload["programs"][0]["counts"]

    def test_rehydrated_schedule_is_a_read_only_record(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [ghz_circuit(2).measure_all()], shots=16, seed=3)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        back = Result.from_dict(payload)
        record = back.schedule
        assert isinstance(record, ScheduleRecord)
        assert record.num_jobs == payload["schedule"]["num_jobs"]
        with pytest.raises(AttributeError):
            record.num_jobs = 99
        with pytest.raises(AttributeError):
            record.no_such_field
        assert back.to_dict()["schedule"] == payload["schedule"]

    def test_nan_timings_round_trip_through_store(self, tmp_path):
        """A direct-run result (NaN-free but None-timing) survives the
        actual SQLite round trip bit-identically."""
        res = minimal_result()
        assert math.isnan(res.mean_pst())  # no programs
        payload = res.to_dict()
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_result("job-000001", payload)
        with JobStore(path) as fresh:
            stored = fresh.get("job-000001").result
        assert Result.from_dict(stored).to_dict() == payload


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_is_deterministic_per_job_and_attempt(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        for attempt in (1, 2, 3):
            assert a.delay_s("job-000042", attempt) == \
                b.delay_s("job-000042", attempt)
        assert a.delay_s("job-000001", 1) != a.delay_s("job-000002", 1)
        assert a.delay_s("job-000001", 1) != a.delay_s("job-000001", 2)

    def test_delay_bounds_and_cap(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0,
                             max_backoff_s=0.3, jitter=0.1)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.3), (9, 0.3)):
            delay = policy.delay_s("job-000001", attempt)
            assert base * 0.9 <= delay <= base * 1.1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.25, jitter=0.0)
        assert policy.delay_s("anything", 1) == 0.25
        assert policy.delay_s("anything", 2) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s("job", 0)

    def test_non_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retries(OSError("flaky disk"))
        assert not policy.retries(JobError("all rejected"))

    def test_run_attempt_timeout(self):
        policy = RetryPolicy(attempt_timeout_s=0.05)
        with pytest.raises(JobTimeoutError) as info:
            policy.run_attempt(lambda: time.sleep(5), "job-000001", 2)
        assert info.value.job_id == "job-000001"
        assert info.value.attempt == 2
        assert policy.run_attempt(lambda: "ok", "job-000001", 1) == "ok"

    def test_flaky_job_retries_to_success(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.005))
        try:
            backend = prov.simulator(line5)
            calls = {"n": 0}

            def flaky(job_id):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise OSError("transient glitch")
                return minimal_result(job_id)

            job = prov._submit_job(backend, flaky)
            result = job.result()
            assert job.status() is JobStatus.DONE
            assert job.attempts == 3
            # The surviving attempt's count lands in the metadata.
            assert result.metadata.attempts == 3
        finally:
            prov.shutdown()

    def test_exhausted_attempts_surface_last_error(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.005))
        try:
            def doomed(job_id):
                raise OSError("still broken")

            job = prov._submit_job(prov.simulator(line5), doomed)
            with pytest.raises(OSError, match="still broken"):
                job.result()
            assert job.status() is JobStatus.ERROR
            assert job.attempts == 2
        finally:
            prov.shutdown()

    def test_job_error_is_not_retried(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=5, backoff_s=0.005))
        try:
            calls = {"n": 0}

            def rejected(job_id):
                calls["n"] += 1
                raise JobError("all rejected", job_id=job_id,
                               reasons={0: "too wide"})

            job = prov._submit_job(prov.simulator(line5), rejected)
            with pytest.raises(JobError, match="program 0: too wide"):
                job.result()
            assert calls["n"] == 1
            assert job.attempts == 1
        finally:
            prov.shutdown()

    def test_timed_out_attempt_retries(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.005,
                                     attempt_timeout_s=0.2))
        try:
            calls = {"n": 0}

            def slow_then_fast(job_id):
                calls["n"] += 1
                if calls["n"] == 1:
                    time.sleep(2.0)  # abandoned by the timeout
                return minimal_result(job_id)

            job = prov._submit_job(prov.simulator(line5),
                                   slow_then_fast)
            result = job.result(timeout=30)
            assert result.metadata.attempts == 2
        finally:
            prov.shutdown()


# ----------------------------------------------------------------------
# Provider durability: persist, rehydrate, resume
# ----------------------------------------------------------------------

class TestProviderDurability:
    def test_completed_job_persisted_with_trail(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=32, seed=5)
            payload = job.result().to_dict()
            rec = prov.store.get(job.job_id)
            assert rec.status == "done"
            assert rec.result == payload
            assert rec.spec is not None
            trail = [t.status
                     for t in prov.store.transitions(job.job_id)]
            assert trail == ["queued", "running", "done"]
        finally:
            prov.shutdown()

    def test_restart_reserves_results_bit_identically(self, tmp_path,
                                                      line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.simulator(line5).run(
            [ghz_circuit(3).measure_all()], shots=64, seed=9)
        payload = job.result().to_dict()
        job_id = job.job_id
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.DONE
            rehydrated = handle.result()
            assert rehydrated.to_dict() == payload
            assert isinstance(rehydrated.schedule, (type(None),
                                                    ScheduleRecord))
        finally:
            fresh.shutdown()

    def test_restart_resumes_interrupted_job(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.simulator(line5).run(
            [ghz_circuit(2).measure_all()] * 2, shots=32, seed=4)
        payload = job.result().to_dict()
        job_id = job.job_id
        prov.shutdown()

        # Simulate dying mid-run: rewind the stored status to RUNNING.
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            store.record_transition(job_id, "running", attempt=1)

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.job_id == job_id
            result = handle.result(timeout=120)
            assert handle.status() is JobStatus.DONE
            # The replay is the same deterministic computation: same
            # programs, same counts, same schedule.
            replayed = result.to_dict()
            assert replayed["programs"] == payload["programs"]
            assert replayed["schedule"] == payload["schedule"]
            rec = fresh.store.get(job_id)
            assert rec.status == "done"
        finally:
            fresh.shutdown()

    def test_unreplayable_interrupted_job_errors(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov._submit_job(prov.simulator(line5),
                               lambda job_id: minimal_result(job_id))
        job.result()
        job_id = job.job_id
        prov.shutdown()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            assert store.get(job_id).spec is None  # no replay recipe
            store.record_transition(job_id, "running", attempt=1)

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="not.*replayable"):
                handle.result()
        finally:
            fresh.shutdown()

    def test_malformed_spec_fails_the_job_not_the_provider(self,
                                                           tmp_path):
        """A replay spec that unpickles but cannot be re-run errors its
        job; every provider opened on the store still starts."""
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1,
                                    "ibm_toronto-simulator",
                                    pickle.dumps({"kind": "simulator"}))
        for _ in range(2):
            prov = QuantumProvider(store_path=path)
            try:
                handle = prov.job("job-000001")
                assert handle.status() is JobStatus.ERROR
                with pytest.raises(RuntimeError, match="not replayable"):
                    handle.result()
                assert prov.store.get("job-000001").status == "error"
            finally:
                prov.shutdown()

    def test_reopen_holds_no_finished_handles(self, tmp_path, line5):
        """A restart registers only what it resumes; finished jobs stay
        in the store and ``job()`` serves them bit-identically."""
        prov = make_provider(tmp_path, devices=[line5], job_history=2)
        payloads = {}
        try:
            sim = prov.simulator(line5)
            for seed in range(5):
                job = sim.run([ghz_circuit(2).measure_all()], shots=8,
                              seed=seed)
                payloads[job.job_id] = job.result().to_dict()
        finally:
            prov.shutdown()
        fresh = make_provider(tmp_path, devices=[line5], job_history=2)
        try:
            assert fresh.jobs() == []
            for job_id, payload in payloads.items():
                assert fresh.job(job_id).result().to_dict() == payload
        finally:
            fresh.shutdown()

    def test_history_leaves_no_records_in_memory(self, tmp_path, line5):
        """``job_history`` bounds a durable provider's memory: the store
        keeps no record or transition of the jobs it serves."""
        prov = make_provider(tmp_path, devices=[line5], job_history=4)
        try:
            sim = prov.simulator(line5)
            for seed in range(200):
                sim.run([ghz_circuit(2).measure_all()], shots=8,
                        seed=seed).result()
            assert len(prov.store) == 200
            assert len(prov.jobs()) == 4
            gc.collect()
            alive = [obj for obj in gc.get_objects()
                     if isinstance(obj, (StoredJob, StoredTransition))]
            assert alive == []
        finally:
            prov.shutdown()

    def test_error_job_rehydrates_as_error(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.backend(line5).run(
            [ghz_circuit(8).measure_all()], shots=16, seed=1)
        with pytest.raises(JobError):
            job.result()
        job_id = job.job_id
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="rejected"):
                handle.result()
        finally:
            fresh.shutdown()

    def test_job_numbering_continues_after_restart(self, tmp_path,
                                                   line5):
        prov = make_provider(tmp_path, devices=[line5])
        first = prov.simulator(line5).run(
            [ghz_circuit(2).measure_all()], shots=8, seed=1)
        first.result()
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            second = fresh.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=8, seed=2)
            second.result()
            assert first.job_id == "job-000001"
            assert second.job_id == "job-000002"
        finally:
            fresh.shutdown()

    def test_env_var_supplies_store_path(self, tmp_path, line5,
                                         monkeypatch):
        path = str(tmp_path / "env-jobs.sqlite")
        monkeypatch.setenv("REPRO_JOB_STORE", path)
        prov = QuantumProvider(devices=[line5])
        try:
            assert prov.store_path == path
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=8, seed=1)
            job.result()
            assert prov.store.get(job.job_id).status == "done"
        finally:
            prov.shutdown()

    def test_evicted_handle_falls_back_to_store(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5], job_history=1)
        try:
            sim = prov.simulator(line5)
            first = sim.run([ghz_circuit(2).measure_all()], shots=8,
                            seed=1)
            payload = first.result().to_dict()
            second = sim.run([ghz_circuit(2).measure_all()], shots=8,
                             seed=2)
            second.result()
            third = sim.run([ghz_circuit(2).measure_all()], shots=8,
                            seed=3)
            third.result()
            # The registry is bounded, but the durable store still
            # resolves the evicted id.
            assert len(prov.jobs()) <= 2
            handle = prov.job(first.job_id)
            assert handle.result().to_dict() == payload
        finally:
            prov.shutdown()

    def test_cancelled_job_recorded_and_rehydrated(self, tmp_path,
                                                   line5):
        from concurrent.futures import CancelledError

        prov = make_provider(tmp_path, devices=[line5])
        release = threading.Event()
        blocker = prov._submit_job(
            prov.simulator(line5),
            lambda job_id: (release.wait(30),
                            minimal_result(job_id))[1])
        queued = prov._submit_job(
            prov.simulator(line5),
            lambda job_id: minimal_result(job_id))
        try:
            assert queued.cancel()
            assert queued.status() is JobStatus.CANCELLED
            release.set()
            blocker.result()
            assert prov.store.get(queued.job_id).status == "cancelled"
            queued_id = queued.job_id
        finally:
            release.set()
            prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(queued_id)
            assert handle.status() is JobStatus.CANCELLED
            with pytest.raises(CancelledError):
                handle.result()
        finally:
            fresh.shutdown()

    def test_corrupt_store_degrades_but_jobs_run(self, tmp_path, line5):
        path = corrupt_file(str(tmp_path / "jobs.sqlite"))
        with pytest.warns(RuntimeWarning, match="unusable"):
            prov = QuantumProvider(devices=[line5], store_path=path)
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=16, seed=1)
            result = job.result()
            assert job.status() is JobStatus.DONE
            assert len(result.programs) == 1
            # Still tracked (in memory), just not durable.
            assert prov.store.disabled
            assert prov.store.get(job.job_id).status == "done"
        finally:
            prov.shutdown()


# ----------------------------------------------------------------------
# Replay specs: stored devices and compact circuits
# ----------------------------------------------------------------------

def references_device(spec):
    """Whether encoded *spec* references a stored device row."""
    return _SpecUnpickler.device.__qualname__.encode() in spec


class TaggedCircuit(QuantumCircuit):
    """A circuit subclass: it has no compact form."""


def circuit_signature(circuit):
    """Value-level form of a plain circuit: types and float bits too."""
    return (type(circuit), circuit.name, circuit.num_qubits,
            circuit.num_clbits,
            [(type(inst.gate), inst.name, inst.gate.num_qubits,
              type(inst.params),
              [(type(p), p.hex() if isinstance(p, float) else repr(p))
               for p in inst.params],
              inst.qubits, inst.clbits) for inst in circuit])


def spec_round_trip(tmp_path, spec):
    with JobStore(str(tmp_path / "codec.sqlite")) as store:
        store.record_submission("job-000001", 1, "dev", spec)
        return store.load_spec(store.get("job-000001"))


def table_ii_circuits():
    return [w.circuit()
            for w in sorted(all_workloads(), key=lambda w: w.name)]


def vqe_circuits():
    angles = [0.3, -0.0, -1.25, 2.0, 0.0, 1e-300, -7.5, 0.1, 3.0, -2.0,
              0.5, 5e-324]
    return [ryrz_ansatz([0.7]), ryrz_ansatz(angles)]


def qaoa_circuits():
    return [qaoa_circuit(nx.cycle_graph(4), [0.4, -0.0], [1.1, 0.2])]


class TestSpecCodec:
    @pytest.mark.parametrize("family", [table_ii_circuits, vqe_circuits,
                                        qaoa_circuits])
    def test_plain_circuits_round_trip_as_tuples(self, tmp_path, family):
        circuits = family()
        assert all(c.compact() is not None for c in circuits)
        loaded = spec_round_trip(tmp_path, {"circuits": circuits})
        assert loaded["circuits"] == circuits
        assert ([circuit_signature(c) for c in loaded["circuits"]]
                == [circuit_signature(c) for c in circuits])

    def test_parameter_types_and_bits_survive(self, tmp_path):
        qc = QuantumCircuit(2, 1, name="odd-params")
        qc.rz(-0.0, 0)
        qc.append(Gate("rz", 1, (3,)), [1])  # an int, as built
        qc.append(Gate("u", 1, (float("inf"), 5e-324, -1e308)), [0])
        qc.measure(1, 0)
        loaded = spec_round_trip(tmp_path, {"circuits": [qc]})
        assert circuit_signature(loaded["circuits"][0]) \
            == circuit_signature(qc)
        assert math.copysign(1.0, loaded["circuits"][0][0].params[0]) < 0

    def test_directive_wider_than_its_operands_survives(self, tmp_path):
        qc = QuantumCircuit(3)
        qc.append(Gate("barrier", 3), [0, 1])  # accepted by append
        qc.h(2)
        loaded = spec_round_trip(tmp_path, {"circuits": [qc]})["circuits"]
        assert loaded[0][0].gate.num_qubits == 3
        assert loaded[0][0].qubits == (0, 1)
        assert circuit_signature(loaded[0]) == circuit_signature(qc)

    def test_control_flow_circuits_keep_the_default_pickle(self, tmp_path):
        circuits = [w.circuit() for w in dynamic_workloads()]
        assert circuits and all(c.compact() is None for c in circuits)
        loaded = spec_round_trip(tmp_path, {"circuits": circuits})
        assert loaded["circuits"] == circuits

    def test_extra_state_keeps_the_default_pickle(self, tmp_path):
        labelled = ghz_circuit(2)
        labelled.metadata = {"owner": "alice"}
        tagged = TaggedCircuit(1)
        tagged.h(0)
        assert labelled.compact() is None and tagged.compact() is None
        loaded = spec_round_trip(tmp_path, {"circuits": [labelled,
                                                         tagged]})
        assert loaded["circuits"][0].metadata == {"owner": "alice"}
        assert type(loaded["circuits"][1]) is TaggedCircuit

    def test_compile_store_payloads_keep_the_default_reduction(
            self, toronto):
        """The compact form is for replay specs only: a compile-store
        artifact pickles its circuits, instructions and gates by the
        default reduction, byte for byte what earlier builds wrote."""

        class DefaultReduction(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is QuantumCircuit:
                    return copyreg.__newobj__, (QuantumCircuit,), \
                        obj.__getstate__()
                if type(obj) in (Instruction, Gate):
                    return copyreg.__newobj__, (type(obj),), obj.__dict__
                return NotImplemented

        service = CompileService(ExecutionCache())
        for circuit in table_ii_circuits():
            (artifact,) = service.compile_allocation(
                qucp_allocate([circuit], toronto))
            reference = io.BytesIO()
            DefaultReduction(reference, pickle.HIGHEST_PROTOCOL).dump(
                artifact)
            assert dumps_artifact(artifact) == reference.getvalue()

    def test_one_object_per_stored_device_per_load(self, tmp_path):
        device, twin = linear_device(4, seed=1), linear_device(4, seed=1)
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev",
                                    {"a": device, "b": twin})
            store.record_submission("job-000002", 2, "dev",
                                    {"a": device, "b": [twin, device],
                                     "c": twin})
            record = store.get("job-000002")
            assert references_device(record.spec)
            spec = store.load_spec(record)
        assert spec["a"] is spec["b"][0] is spec["b"][1] is spec["c"]
        assert pickle.dumps(spec["a"]) == pickle.dumps(device)

    def test_one_row_per_distinct_device(self, tmp_path):
        """Each distinct device value gets one row however many jobs,
        objects or handles carry it; a handle pickles the first spec of
        each device object it sees inline."""
        path = str(tmp_path / "s.sqlite")
        device, twin = linear_device(4, seed=1), linear_device(4, seed=1)
        other = linear_device(4, seed=2)
        specs = [(1, device), (2, device), (3, device), (4, twin),
                 (5, other), (6, other)]
        with JobStore(path) as store, JobStore(path) as second:
            for number, dev in specs:
                store.record_submission(f"job-{number:06d}", number,
                                        "dev", {"device": dev})
            second.record_submission("job-000007", 7, "dev",
                                     {"device": device})
            inline = [n for n in range(1, 8)
                      if not references_device(
                          store.get(f"job-{n:06d}").spec)]
        assert inline == [1, 4, 5, 7]
        with sqlite3.connect(path) as conn:
            rows = conn.execute("SELECT digest, device FROM devices "
                                "ORDER BY rowid").fetchall()
        assert [bytes(blob) for _, blob in rows] == [
            pickle.dumps(device, pickle.HIGHEST_PROTOCOL),
            pickle.dumps(other, pickle.HIGHEST_PROTOCOL)]

    def test_concurrent_submissions_store_each_device_once(self,
                                                           tmp_path):
        """Client threads racing first sightings: every spec loads its
        own device, and each device value has one row."""
        devices = [linear_device(4, seed=s) for s in range(3)]
        threads, per_thread = 8, 12
        start = threading.Barrier(threads)
        with JobStore(str(tmp_path / "s.sqlite")) as store:

            def submit(t):
                start.wait(timeout=30)
                for i in range(per_thread):
                    number = t * per_thread + i + 1
                    store.record_submission(
                        f"job-{number:06d}", number, "dev",
                        {"device": devices[number % 3]})

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=submit, args=(t,))
                       for t in range(threads)]
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            for number in range(1, threads * per_thread + 1):
                spec = store.load_spec(store.get(f"job-{number:06d}"))
                assert pickle.dumps(spec["device"]) \
                    == pickle.dumps(devices[number % 3])
            assert store._run("SELECT COUNT(*) FROM devices") == [(3,)]

    def test_bytes_are_stored_as_they_are(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            blob = pickle.dumps({"kind": "simulator"})
            store.record_submission("job-000001", 1, "dev", blob)
            assert store.get("job-000001").spec == blob
            assert store.load_spec(store.get("job-000001")) == {
                "kind": "simulator"}

    def test_unpicklable_spec_is_stored_as_none(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev",
                                    {"hook": lambda: None})
            record = store.get("job-000001")
            assert record.spec is None and record.status == "queued"
            with pytest.raises(ValueError, match="no replay spec"):
                store.load_spec(record)

    def test_missing_device_row_is_not_replayable(self, tmp_path, line5):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "x", {"d": line5})
            store.record_submission("job-000002", 2, "x", {"d": line5})
        with sqlite3.connect(path) as conn:
            conn.execute("DELETE FROM devices")
        with JobStore(path) as store:
            assert store.load_spec(store.get("job-000001"))["d"].name \
                == line5.name
            with pytest.raises(LookupError):
                store.load_spec(store.get("job-000002"))

    def test_memory_ledger_keeps_referenced_devices(self, tmp_path,
                                                    line5):
        """A file that fails mid-life and cannot be copied leaves an
        in-memory ledger that still holds every device row the handle's
        specs reference, a spec encoded before the switch included."""
        path = str(tmp_path / "s.sqlite")
        store = JobStore(path)
        store.record_submission("job-000001", 1, "dev", {"d": line5})
        store._db._conn.close()
        corrupt_file(path)
        with pytest.warns(RuntimeWarning, match="unusable"):
            store.record_submission("job-000002", 2, "dev", {"d": line5})
        assert store.disabled and store.get("job-000001") is None
        record = store.get("job-000002")
        assert references_device(record.spec)
        assert pickle.dumps(store.load_spec(record)["d"]) \
            == pickle.dumps(line5)
        store.close()

    def test_parent_format_spec_resumes(self, tmp_path, line5):
        """A spec pickled whole (inline device, dataclass circuits), as
        earlier builds wrote it, still resumes to DONE."""
        prov = make_provider(tmp_path, devices=[line5])
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()] * 2, shots=64, seed=8)
            counts = [job.result().counts(i) for i in range(2)]
            spec = prov.store.load_spec(prov.store.get(job.job_id))
        finally:
            prov.shutdown()
        legacy = pickle.dumps(spec)
        assert not references_device(legacy)
        path = str(tmp_path / "legacy.sqlite")
        with JobStore(path) as store:
            store.record_submission(job.job_id, 1, "legacy", legacy)
        fresh = QuantumProvider(devices=[line5], store_path=path)
        try:
            handle = fresh.job(job.job_id)
            assert handle.wait(timeout=120) is JobStatus.DONE
            result = handle.result()
            assert [result.counts(i) for i in range(2)] == counts
        finally:
            fresh.shutdown()

    def test_prebuilt_allocation_resumes_from_a_device_reference(
            self, tmp_path, line5):
        """The loaded allocation and the backend share one device
        object, as ``SimulatorBackend.run`` requires."""
        prov = make_provider(tmp_path, devices=[line5])
        try:
            sim = prov.simulator(line5)
            sim.run([ghz_circuit(2).measure_all()], shots=16,
                    seed=1).result()  # stores the device
            allocation = qucp_allocate(
                [ghz_circuit(2).measure_all()] * 2, line5)
            job = sim.run(allocation, shots=64, seed=6)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            assert references_device(store.get(job.job_id).spec)
            store.record_transition(job.job_id, "running", attempt=1)
        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job.job_id)
            assert handle.wait(timeout=120) is JobStatus.DONE
            assert handle.result().to_dict()["programs"] \
                == payload["programs"]
        finally:
            fresh.shutdown()

    def test_cloud_job_on_a_two_device_fleet_resumes(self, tmp_path):
        first, second = linear_device(5, seed=7), linear_device(4, seed=3)
        prov = make_provider(tmp_path)
        try:
            fleet = prov.fleet_backend([first, second])
            circuits = [ghz_circuit(2).measure_all()] * 3
            fleet.run(circuits, shots=16, seed=1).result()  # stores both
            job = fleet.run(circuits, shots=64, seed=9)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        path = str(tmp_path / "jobs.sqlite")
        with sqlite3.connect(path) as conn:
            assert conn.execute("SELECT COUNT(*) FROM devices"
                                ).fetchone()[0] == 2
        with JobStore(path) as store:
            assert references_device(store.get(job.job_id).spec)
            store.record_transition(job.job_id, "running", attempt=1)
        fresh = make_provider(tmp_path)
        try:
            handle = fresh.job(job.job_id)
            assert handle.wait(timeout=120) is JobStatus.DONE
            replayed = handle.result().to_dict()
            assert replayed["programs"] == payload["programs"]
            assert replayed["schedule"] == payload["schedule"]
        finally:
            fresh.shutdown()


# ----------------------------------------------------------------------
# JobSet partial-failure mode
# ----------------------------------------------------------------------

class TestJobSetPartialFailure:
    def test_return_exceptions_collects_in_order(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            sim = prov.simulator(line5)
            good = sim.run([ghz_circuit(2).measure_all()], shots=8,
                           seed=1)
            # Every submission too wide for the fleet: a JobError.
            bad = prov.backend(line5).run(
                [ghz_circuit(8).measure_all()], shots=8, seed=1)
            tail = sim.run([ghz_circuit(2).measure_all()], shots=8,
                           seed=2)
            jobs = JobSet([good, bad, tail])

            collected = jobs.results(return_exceptions=True)
            assert isinstance(collected[0], Result)
            assert isinstance(collected[1], JobError)
            assert isinstance(collected[2], Result)
            assert collected[1].reasons  # structured, per-program

            # The default mode still aborts on the first failure.
            with pytest.raises(JobError):
                jobs.results()
        finally:
            prov.shutdown()

    def test_cancelled_member_contributes_its_exception(self, line5):
        from concurrent.futures import CancelledError

        prov = QuantumProvider(devices=[line5])
        release = threading.Event()
        try:
            blocker = prov._submit_job(
                prov.simulator(line5),
                lambda job_id: (release.wait(30),
                                minimal_result(job_id))[1])
            queued = prov._submit_job(
                prov.simulator(line5),
                lambda job_id: minimal_result(job_id))
            assert queued.cancel()
            release.set()
            jobs = JobSet([blocker, queued])
            collected = jobs.results(return_exceptions=True)
            assert isinstance(collected[0], Result)
            assert isinstance(collected[1], CancelledError)
        finally:
            release.set()
            prov.shutdown()
