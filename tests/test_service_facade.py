"""Provider/Backend/Job facade: discovery, lifecycle, results, sessions.

The equivalence of facade jobs with the engine layer is covered by
``test_service_equivalence.py``; this file exercises the object model
itself — device discovery and sharing, job lifecycle (status, cancel,
error surfacing), typed results and their JSON form, sweeps, sessions,
and the satellite serialization/error-message contracts.
"""

import json
import math
import threading
from concurrent.futures import CancelledError

import pytest

import repro
from repro.circuits import ghz_circuit
from repro.core import (
    CloudScheduler,
    ScheduleOutcome,
    SubmittedProgram,
    UnknownAllocatorError,
    execute_allocation,
    get_allocator,
    qucp_allocate,
    resolve_allocator,
    run_batch,
)
from repro.core.executor import BatchJob
from repro.hardware import ibm_toronto, linear_device
from repro.service import (
    BackendConfiguration,
    JobStatus,
    QuantumProvider,
    Session,
)
from repro.workloads import workload


def small_programs():
    return [workload("adder").circuit(), ghz_circuit(3).measure_all()]


@pytest.fixture()
def provider():
    prov = QuantumProvider()
    yield prov
    prov.shutdown()


# ----------------------------------------------------------------------
# provider: discovery + shared instances
# ----------------------------------------------------------------------

class TestProvider:
    def test_builtin_devices_discoverable(self, provider):
        assert provider.available_devices() == [
            "ibm_manhattan", "ibm_melbourne", "ibm_toronto"]

    def test_device_instances_are_shared(self, provider):
        assert provider.device("ibm_toronto") is provider.device(
            "ibm_toronto")

    def test_unknown_device_lists_available(self, provider):
        from repro.service import UnknownDeviceError
        with pytest.raises(UnknownDeviceError,
                           match="did you mean 'ibm_toronto'") as excinfo:
            provider.device("ibm_tornto")
        # Plain message (KeyError.__str__ would repr-quote it).
        assert str(excinfo.value).startswith("unknown device")
        assert "ibm_melbourne" in str(excinfo.value)

    def test_add_device_and_backend_on_it(self, provider):
        dev = linear_device(6, seed=3)
        provider.add_device(dev)
        assert dev.name in provider.available_devices()
        backend = provider.backend(dev.name)
        assert backend.devices == (dev,)

    def test_add_device_name_collision_rejected(self, provider):
        provider.add_device(linear_device(5, seed=1), name="lin")
        with pytest.raises(ValueError, match="already registered"):
            provider.add_device(linear_device(5, seed=2), name="lin")

    def test_device_object_accepted_directly(self, provider):
        dev = linear_device(7, seed=9)
        backend = provider.simulator(dev)
        assert backend.device is dev
        # And it became discoverable under its own name.
        assert provider.device(dev.name) is dev

    def test_default_provider_is_shared_and_options_fork(self):
        assert repro.provider() is repro.provider()
        fresh = repro.provider(job_workers=1)
        assert fresh is not repro.provider()
        fresh.shutdown()

    def test_concurrent_first_lookup_yields_one_instance(self):
        import concurrent.futures
        prov = QuantumProvider()
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                seen = set(pool.map(
                    lambda _: id(prov.device("ibm_melbourne")),
                    range(32)))
            assert len(seen) == 1
        finally:
            prov.shutdown()

    def test_job_history_evicts_finished_only(self):
        prov = QuantumProvider(job_history=2)
        try:
            backend = prov.simulator("ibm_toronto")
            jobs = [backend.run(small_programs()[0], shots=0)
                    for _ in range(4)]
            for job in jobs:
                job.wait()
            # One more submission triggers eviction past the bound.
            last = backend.run(small_programs()[0], shots=0)
            last.result()
            retained = {j.job_id for j in prov.jobs()}
            assert len(retained) <= 3  # bound + the in-flight one
            assert jobs[0].job_id not in retained
            with pytest.raises(KeyError):
                prov.job(jobs[0].job_id)
            # Explicit retirement empties the registry.
            assert prov.retire_finished() == len(retained)
            assert prov.jobs() == []
        finally:
            prov.shutdown()

    def test_job_history_evicts_oldest_finished_past_live_head(self):
        """Eviction skips a live head and drops only the oldest finished
        handle: after each submission the registry holds exactly the
        blocker and the newest job."""
        prov = QuantumProvider(job_workers=2, job_history=2)
        release = threading.Event()
        try:
            backend = prov.simulator("ibm_toronto")
            blocker = prov._submit_job(
                backend, lambda job_id: release.wait(60))
            for _ in range(4):
                job = backend.run(small_programs()[0], shots=0)
                assert [j.job_id for j in prov.jobs()] == [
                    blocker.job_id, job.job_id]
                assert job.wait(timeout=60) is JobStatus.DONE
            assert not blocker.done()
        finally:
            release.set()
            prov.shutdown()

    def test_submit_after_shutdown_refused(self):
        prov = QuantumProvider()
        backend = prov.simulator("ibm_toronto")
        prov.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            backend.run(small_programs(), shots=0)


# ----------------------------------------------------------------------
# jobs: lifecycle
# ----------------------------------------------------------------------

class TestJobLifecycle:
    def test_job_completes_with_stable_id(self, provider):
        backend = provider.simulator("ibm_toronto")
        job = backend.run(small_programs(), shots=128, seed=1)
        result = job.result()
        assert job.status() is JobStatus.DONE
        assert job.done()
        assert job.exception() is None
        assert result.metadata.job_id == job.job_id
        assert provider.job(job.job_id) is job
        assert job in provider.jobs()

    def test_unknown_job_id(self, provider):
        with pytest.raises(KeyError):
            provider.job("job-999999")

    def test_error_surfaces_through_status_and_result(self, provider):
        backend = provider.simulator("ibm_toronto")
        # No measurements -> execute_allocation raises.
        job = backend.run(ghz_circuit(3), shots=64)
        assert job.wait() is JobStatus.ERROR
        assert isinstance(job.exception(), ValueError)
        with pytest.raises(ValueError, match="no measurements"):
            job.result()

    def test_cancel_queued_job(self, provider):
        backend = provider.simulator("ibm_toronto")
        release = threading.Event()

        def stalling_transpiler(circuit, device, allocation):
            release.wait(10)
            from repro.transpiler import transpile_for_partition
            return transpile_for_partition(circuit, device,
                                           allocation.partition)

        blocker = backend.run(small_programs()[0], shots=0,
                              transpiler_fn=stalling_transpiler)
        queued = backend.run(small_programs()[1], shots=0)
        assert queued.status() is JobStatus.QUEUED
        assert queued.cancel()
        release.set()
        assert queued.wait() is JobStatus.CANCELLED
        with pytest.raises(CancelledError):
            queued.result()
        assert blocker.wait() is JobStatus.DONE

    def test_cancel_finished_job_fails(self, provider):
        backend = provider.simulator("ibm_toronto")
        job = backend.run(small_programs()[0], shots=0)
        job.result()
        assert not job.cancel()


# ----------------------------------------------------------------------
# backends: configuration + results
# ----------------------------------------------------------------------

class TestBackends:
    def test_configuration_defaults_match_engine(self, provider):
        cfg = provider.backend("ibm_toronto").configuration
        engine = CloudScheduler(ibm_toronto())
        assert cfg.fidelity_threshold == engine.fidelity_threshold
        assert cfg.batch_window_ns == engine.batch_window_ns
        assert cfg.job_overhead_ns == engine.job_overhead_ns
        assert cfg.max_batch_size == engine.max_batch_size

    def test_configuration_replace_ignores_none(self):
        cfg = BackendConfiguration(shots=1024)
        assert cfg.replace(shots=None) is cfg
        assert cfg.replace(shots=64).shots == 64

    def test_simulator_accepts_prebuilt_allocation(self, provider):
        device = provider.device("ibm_toronto")
        allocation = qucp_allocate(small_programs(), device)
        result = provider.simulator("ibm_toronto").run(
            allocation, shots=128, seed=5).result()
        assert [p.partition for p in result.programs] == [
            tuple(part) for part in allocation.partitions]
        assert result.metadata.method == allocation.method
        assert result.metadata.throughput == pytest.approx(
            allocation.throughput())

    def test_foreign_allocation_rejected(self, provider):
        other = qucp_allocate(small_programs(),
                              provider.device("ibm_manhattan"))
        with pytest.raises(ValueError, match="different instance"):
            provider.simulator("ibm_toronto").run(other, shots=0)

    def test_allocator_with_prebuilt_allocation_rejected(self, provider):
        allocation = qucp_allocate(small_programs(),
                                   provider.device("ibm_toronto"))
        with pytest.raises(ValueError, match="pre-built"):
            provider.simulator("ibm_toronto").run(
                allocation, shots=0, allocator="qumc")

    def test_allocator_override_per_run(self, provider):
        backend = provider.simulator("ibm_toronto")
        result = backend.run(small_programs(), shots=0,
                             allocator="qucloud").result()
        assert result.metadata.method == get_allocator(
            "qucloud").method_label()

    def test_shared_cache_across_backends(self, provider):
        programs = small_programs()
        provider.simulator("ibm_toronto").run(programs,
                                              shots=0).result()
        repeat = provider.simulator("ibm_toronto").run(
            programs, shots=0).result()
        assert repeat.metadata.transpile_misses == 0
        assert repeat.metadata.transpile_hits >= len(programs)

    def test_result_accessors(self, provider):
        result = provider.simulator("ibm_toronto").run(
            small_programs(), shots=256, seed=2).result()
        assert sum(result.counts(0).values()) == 256
        assert result.probabilities(1)
        assert 0.0 <= result.mean_pst() <= 1.0
        assert 0.0 <= result.mean_jsd() <= 1.0
        with pytest.raises(KeyError):
            result.program(99)

    def test_run_sweep_matches_run_batch(self, provider):
        device = provider.device("ibm_toronto")
        allocation = qucp_allocate(small_programs(), device)
        jobs = [BatchJob(allocation, shots=128) for _ in range(3)]
        reference = run_batch(jobs, seed=11)
        sweep = provider.simulator("ibm_toronto").run_sweep(
            [BatchJob(allocation, shots=128) for _ in range(3)], seed=11)
        assert len(sweep) == 3
        for ref_outs, res in zip(reference, sweep.results()):
            for ref, prog in zip(
                    sorted(ref_outs, key=lambda o: o.allocation.index),
                    res.programs):
                assert ref.result.counts == prog.counts

    def test_fleet_backend_policy_validated(self, provider):
        with pytest.raises(ValueError, match="placement policy"):
            provider.fleet_backend(["ibm_toronto", "ibm_melbourne"],
                                   policy="fastest")

    def test_cloud_backend_fails_fast_on_bad_allocator(self, provider):
        backend = provider.backend("ibm_toronto")
        # Submit-time errors, not a Job that dies at result() time.
        with pytest.raises(UnknownAllocatorError, match="did you mean"):
            backend.run(small_programs(), allocator="qcup")
        with pytest.raises(ValueError, match="incrementally"):
            backend.run(small_programs(), allocator="cna")

    def test_result_to_dict_can_include_raw_outcomes(self, provider):
        result = provider.simulator("ibm_toronto").run(
            small_programs(), shots=32, seed=1).result()
        payload = result.to_dict(include_outcomes=True)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["outcomes"][0][0]["counts"]
        assert "outcomes" not in result.to_dict()


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------

class TestSession:
    def test_session_tracks_jobs_and_is_reproducible(self, provider):
        programs = small_programs()

        def run_session():
            with provider.session("ibm_toronto", shots=128,
                                  seed=42) as sess:
                for prog in programs:
                    sess.run(prog)
                return [r.counts(0) for r in sess.results()]

        assert run_session() == run_session()

    def test_session_defaults_and_close(self, provider):
        sess = provider.session("ibm_toronto", shots=64)
        job = sess.run(small_programs()[0])
        assert sess.jobs.jobs == [job]
        assert job.result().metadata.shots == 64
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.run(small_programs()[0])

    def test_session_on_simulator_backend(self, provider):
        backend = provider.simulator("ibm_toronto")
        with Session(backend, shots=32, warm=False) as sess:
            results = [sess.run(c) for c in small_programs()]
            statuses = sess.jobs.wait()
        assert all(s is JobStatus.DONE for s in statuses)
        assert all(r.result().metadata.shots == 32 for r in results)

    def test_session_seeds_never_collide_with_caller_spawn(self,
                                                           provider):
        import numpy as np
        base = np.random.SeedSequence(7)
        sess = provider.session("ibm_toronto", seed=base, warm=False)
        children = [sess._next_seed() for _ in range(3)]
        # Caller-side derivations from the same base must all differ
        # from the session's private streams.
        from repro.sim.executor import spawn_seeds
        others = list(base.spawn(3)) + spawn_seeds(base, 3)
        keys = {tuple(c.spawn_key) for c in children}
        assert len(keys) == 3
        assert keys.isdisjoint(tuple(o.spawn_key) for o in others)

    def test_warm_builds_context_tables(self, provider):
        backend = provider.backend("ibm_melbourne")
        backend.warm()
        from repro.core import allocation_engine
        ctx = allocation_engine(provider.device("ibm_melbourne")).context
        assert ctx.stats["tables_built"] > 0


# ----------------------------------------------------------------------
# satellite: JSON-safe serialization
# ----------------------------------------------------------------------

class TestSerialization:
    def test_execution_outcome_to_dict_round_trips(self):
        device = ibm_toronto()
        outcomes = execute_allocation(
            qucp_allocate(small_programs(), device), shots=64, seed=1)
        payload = [o.to_dict() for o in outcomes]
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored[0]["counts"]
        assert isinstance(restored[0]["partition"][0], int)

    def test_schedule_outcome_to_dict_round_trips(self):
        scheduler = CloudScheduler(ibm_toronto(), fidelity_threshold=0.5)
        outcome = scheduler.schedule(
            [SubmittedProgram(c) for c in small_programs()])
        payload = outcome.to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["num_jobs"] == outcome.num_jobs
        assert restored["jobs"][0]["members"] == [0, 1]
        assert set(restored["completion_ns"]) == {"0", "1"}

    def test_schedule_outcome_nan_turnaround_serializes_null(self):
        outcome = ScheduleOutcome(
            num_jobs=0, makespan_ns=0.0, mean_turnaround_ns=math.nan,
            mean_throughput=0.0, rejected=[0])
        payload = outcome.to_dict()
        assert payload["mean_turnaround_ns"] is None
        assert json.loads(json.dumps(payload)) == payload

    def test_result_to_dict_shares_engine_format(self, provider):
        backend = provider.backend("ibm_toronto")
        result = backend.run(small_programs(), shots=64, seed=3).result()
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schedule"]["num_jobs"] == result.schedule.num_jobs
        assert (payload["metadata"]["job_id"]
                == result.metadata.job_id)


# ----------------------------------------------------------------------
# satellite: unknown-allocator error message
# ----------------------------------------------------------------------

class TestUnknownAllocatorError:
    def test_lists_available_allocators(self):
        with pytest.raises(UnknownAllocatorError) as excinfo:
            get_allocator("nope")
        message = str(excinfo.value)
        for name in ("cna", "multiqc", "qucloud", "qucp", "qumc"):
            assert repr(name) in message

    def test_suggests_close_match(self):
        with pytest.raises(UnknownAllocatorError,
                           match="did you mean 'qucp'"):
            get_allocator("qcup")

    def test_resolve_allocator_path(self):
        with pytest.raises(UnknownAllocatorError, match="available"):
            resolve_allocator("quantum")

    def test_still_a_keyerror_with_plain_str(self):
        with pytest.raises(KeyError) as excinfo:
            get_allocator("bogus")
        # KeyError.__str__ normally repr-quotes; the subclass must not.
        assert str(excinfo.value).startswith("unknown allocator")
        assert excinfo.value.known == (
            "cna", "multiqc", "qucloud", "qucp", "qumc")
