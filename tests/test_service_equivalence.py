"""Facade-vs-engine equivalence (the API-redesign acceptance gate).

A scheduler-backed facade job must reproduce a direct
``CloudScheduler.schedule`` + ``run_batch`` drive of the engine layer
**bit-identically**: same seeds in, same dispatch decisions, same queue
timings, same sampled counts out.  Also covers the degenerate compile
routes reached through the Job path — a batch of one, single-partition
allocations, wider and concurrent batches, hook errors — which all
compile inline through the provider's compile service.
"""

import math

import pytest

from repro.core import (
    CloudScheduler,
    SubmittedProgram,
    execute_allocation,
    qucp_allocate,
    run_batch,
)
from repro.core.compile_service import CompileService
from repro.core.executor import BatchJob, ExecutionCache, _default_transpiler
from repro.hardware import DeviceFleet, ibm_melbourne, ibm_toronto
from repro.service import JobStatus, QuantumProvider
from repro.workloads import synthesize_traffic, workload


@pytest.fixture()
def provider():
    prov = QuantumProvider()
    yield prov
    prov.shutdown()


def traffic(n=10, seed=3):
    return synthesize_traffic(n, pattern="poisson",
                              mean_interarrival_ns=2e5,
                              mix="heavy_tail", seed=seed)


def reference_counts(outcome, shots, seed):
    """The engine-layer execution convention for a schedule outcome:
    one BatchJob per dispatched hardware job, in dispatch order, child
    RNG streams spawned from the batch seed."""
    jobs = [BatchJob(job.allocation, shots=shots) for job in outcome.jobs]
    outs = run_batch(jobs, seed=seed, cache=ExecutionCache())
    counts = {}
    for job_outs in outs:
        for out in job_outs:
            counts[out.allocation.index] = out.result.counts
    return counts


def assert_schedules_identical(got, want):
    """Bit-exact schedule comparison (timings are float-equal, not
    approx: both sides must run the identical event sequence)."""
    assert got.num_jobs == want.num_jobs
    assert got.makespan_ns == want.makespan_ns
    assert got.completion_ns == want.completion_ns
    assert got.rejected == want.rejected
    if math.isnan(want.mean_turnaround_ns):
        assert math.isnan(got.mean_turnaround_ns)
    else:
        assert got.mean_turnaround_ns == want.mean_turnaround_ns
    assert got.mean_throughput == want.mean_throughput
    for gjob, wjob in zip(got.jobs, want.jobs):
        assert gjob.device_index == wjob.device_index
        assert gjob.device_name == wjob.device_name
        assert gjob.start_ns == wjob.start_ns
        assert gjob.end_ns == wjob.end_ns
        assert gjob.members == wjob.members
        got_allocs = sorted(gjob.allocation.allocations,
                            key=lambda a: a.index)
        want_allocs = sorted(wjob.allocation.allocations,
                             key=lambda a: a.index)
        for galloc, walloc in zip(got_allocs, want_allocs):
            assert galloc.partition == walloc.partition
            assert galloc.efs == walloc.efs
            assert galloc.crosstalk_pairs == walloc.crosstalk_pairs


# ----------------------------------------------------------------------
# the acceptance gate: Job.result() == CloudScheduler.schedule + run_batch
# ----------------------------------------------------------------------

class TestSchedulerEquivalence:
    def test_single_device_job_bit_identical(self, provider):
        subs = traffic(10)
        shots, seed = 256, 11

        backend = provider.backend("ibm_toronto", fidelity_threshold=0.5,
                                   batch_window_ns=2e5)
        result = backend.run(subs, shots=shots, seed=seed).result()

        engine = CloudScheduler(ibm_toronto(), fidelity_threshold=0.5,
                                batch_window_ns=2e5)
        outcome = engine.schedule(subs)

        assert_schedules_identical(result.schedule, outcome)

        # Counts: bit-identical to the engine execution convention.
        want = reference_counts(outcome, shots, seed)
        assert {p.index for p in result.programs} == set(want)
        for prog in result.programs:
            assert prog.counts == want[prog.index]

        # Turnarounds surfaced per program match the engine's.
        want_turnaround = outcome.turnaround_ns(subs)
        for prog in result.programs:
            assert prog.turnaround_ns == want_turnaround[prog.index]

    def test_fleet_job_bit_identical(self, provider):
        subs = traffic(12, seed=9)
        backend = provider.fleet_backend(
            ["ibm_toronto", "ibm_melbourne"], policy="least_loaded",
            fidelity_threshold=1.0)
        result = backend.run(subs, shots=128, seed=4).result()

        fleet = DeviceFleet([ibm_toronto(), ibm_melbourne()],
                            policy="least_loaded")
        outcome = CloudScheduler(fleet,
                                 fidelity_threshold=1.0).schedule(subs)
        assert_schedules_identical(result.schedule, outcome)
        want = reference_counts(outcome, 128, 4)
        for prog in result.programs:
            assert prog.counts == want[prog.index]

    def test_serial_configuration_equivalent(self, provider):
        subs = traffic(6, seed=21)
        backend = provider.backend("ibm_toronto", fidelity_threshold=0.0,
                                   max_batch_size=1)
        result = backend.run(subs, shots=64, seed=2).result()
        outcome = CloudScheduler(ibm_toronto(), fidelity_threshold=0.0,
                                 max_batch_size=1).schedule(subs)
        assert result.schedule.num_jobs == len(subs)
        assert_schedules_identical(result.schedule, outcome)

    def test_schedule_only_mode(self, provider):
        subs = traffic(8, seed=5)
        backend = provider.backend("ibm_toronto", fidelity_threshold=0.5)
        result = backend.run(subs, execute=False).result()
        outcome = CloudScheduler(
            ibm_toronto(), fidelity_threshold=0.5).schedule(subs)
        assert_schedules_identical(result.schedule, outcome)
        assert result.programs == []
        assert result.outcomes == []
        assert result.metadata.num_hardware_jobs == outcome.num_jobs
        assert result.metadata.shots == 0

    def test_rejected_submissions_reported(self, provider):
        # An 8-qubit GHZ does not fit the 5-qubit linear device.
        from repro.circuits import ghz_circuit
        from repro.hardware import linear_device
        dev = linear_device(5, seed=1)
        provider.add_device(dev)
        subs = [SubmittedProgram(workload("bell").circuit()),
                SubmittedProgram(ghz_circuit(8).measure_all())]
        backend = provider.backend(dev.name)
        result = backend.run(subs, shots=32, seed=1).result()
        assert result.metadata.rejected == (1,)
        assert [p.index for p in result.programs] == [0]
        with pytest.raises(KeyError, match="rejected"):
            result.program(1)


# ----------------------------------------------------------------------
# degenerate compile routes through the Job path: all inline
# ----------------------------------------------------------------------

class TestAutoRouteDegenerates:
    def test_batch_of_one_runs_inline(self):
        with QuantumProvider() as prov:
            job = prov.simulator("ibm_toronto").run(
                workload("adder").circuit(), shots=64, seed=1)
            result = job.result()
        svc = prov.compile_service
        assert svc.stats["submitted"] == 1
        assert result.programs[0].counts

    def test_single_partition_allocation_through_scheduler(self):
        with QuantumProvider() as prov:
            backend = prov.backend("ibm_toronto", max_batch_size=1)
            subs = [SubmittedProgram(workload("adder").circuit()),
                    SubmittedProgram(workload("bell").circuit())]
            result = backend.run(subs, shots=64, seed=7).result()
        assert result.schedule.num_jobs == 2
        assert len(result.programs) == 2

    def test_wider_batch_runs_inline(self):
        with QuantumProvider() as prov:
            circuits = [workload(n).circuit()
                        for n in ("adder", "bell", "lin", "var")]
            result = prov.simulator("ibm_toronto").run(
                circuits, shots=0, seed=1).result()
        assert prov.compile_service.stats["submitted"] == 4
        assert len(result.programs) == 4

    def test_job_path_matches_service_free_run(self):
        circuits = [workload(n).circuit() for n in ("adder", "bell", "lin")]
        with QuantumProvider() as prov:
            job = prov.simulator("ibm_toronto").run(circuits, shots=64,
                                                    seed=5)
            result = job.result()
            assert job.status() is JobStatus.DONE
        want = execute_allocation(qucp_allocate(circuits, ibm_toronto()),
                                  shots=64, seed=5)
        for prog, ref in zip(result.programs, want):
            assert prog.counts == ref.result.counts

    def test_concurrent_jobs_compile_once(self):
        circuits = [workload(n).circuit() for n in ("adder", "bell", "lin")]
        with QuantumProvider(job_workers=2) as prov:
            sim = prov.simulator("ibm_toronto")
            jobs = [sim.run(circuits, shots=64, seed=5) for _ in range(2)]
            results = [job.result() for job in jobs]
            stats = prov.compile_service.stats
        # Whichever job thread compiles a program first, the other one
        # joins that compile or hits its cached result.
        assert stats["submitted"] == 3
        assert stats["coalesced"] + stats["short_circuits"] == 3
        for a, b in zip(*(r.programs for r in results)):
            assert a.counts == b.counts

    def test_custom_transpiler_uses_service(self):
        calls = []

        def hook(circuit, device, allocation):
            calls.append(allocation.index)
            return _default_transpiler(circuit, device, allocation)

        base = workload("bell").circuit()
        subs = [SubmittedProgram(base.copy(), arrival_ns=i * 1e5)
                for i in range(3)]
        with QuantumProvider() as prov:
            backend = prov.backend("ibm_toronto", max_batch_size=1,
                                   fidelity_threshold=0.0)
            result = backend.run(subs, shots=32, seed=3,
                                 transpiler_fn=hook).result()
            stats = prov.compile_service.stats
        # One hook call: the two repeats are served from the cache.
        assert len(calls) == 1
        assert stats["submitted"] == 1
        assert stats["short_circuits"] == 2
        assert len(result.programs) == 3

    def test_non_pool_errors_still_propagate(self):
        svc = CompileService()

        def broken_transpiler(circuit, device, allocation):
            raise RuntimeError("bad hook")

        device = ibm_toronto()
        allocation = qucp_allocate([workload("adder").circuit()], device)
        fut = svc.submit(allocation.allocations[0].circuit, device,
                         allocation.allocations[0], broken_transpiler)
        with pytest.raises(RuntimeError, match="bad hook"):
            fut.result()
        # Through the Job path the hook's own error fails the job.
        with QuantumProvider() as prov:
            job = prov.simulator("ibm_toronto").run(
                workload("adder").circuit(), shots=16, seed=1,
                transpiler_fn=broken_transpiler)
            with pytest.raises(RuntimeError, match="bad hook"):
                job.result()
            assert job.status() is JobStatus.ERROR

    def test_cloud_backend_keys_each_program_once(self, monkeypatch):
        """Each program is keyed once, by the compile that serves it."""
        import repro.core.executor as executor_mod

        real = executor_mod.compute_transpile_key
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "compute_transpile_key",
                            counting)
        subs = traffic(16, seed=4)
        with QuantumProvider() as prov:
            backend = prov.fleet_backend(
                [ibm_toronto(), ibm_toronto(seed=28)])
            result = backend.run(subs, shots=64, seed=1).result()
        assert not result.metadata.rejected
        assert len(calls) == 16
