"""Facade-vs-engine equivalence (the API-redesign acceptance gate).

A scheduler-backed facade job must reproduce a direct
``CloudScheduler.schedule`` + ``run_batch`` drive of the engine layer
**bit-identically**: same seeds in, same dispatch decisions, same queue
timings, same sampled counts out.  Also covers the
``CompileService(mode="auto")`` degenerate routes reached through the
Job path — batch of 1, single-partition allocations, and the inline
fallback when the process pool is broken.
"""

import math
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core import (
    CloudScheduler,
    SubmittedProgram,
    execute_allocation,
    qucp_allocate,
    run_batch,
)
from repro.core.compile_service import CompileService
from repro.core.executor import BatchJob, ExecutionCache
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
# auto-mode degenerate routes through the Job path
# ----------------------------------------------------------------------

class TestAutoRouteDegenerates:
    def test_batch_of_one_runs_inline(self):
        with QuantumProvider(compile_mode="auto") as prov:
            job = prov.simulator("ibm_toronto").run(
                workload("adder").circuit(), shots=64, seed=1)
            result = job.result()
        svc = prov.compile_service
        # One program -> serial route: compiled inline, no pool spun up.
        assert svc._pool._executor is None
        assert svc.stats["submitted"] == 1
        assert result.programs[0].counts

    def test_single_partition_allocation_through_scheduler(self):
        with QuantumProvider(compile_mode="auto") as prov:
            backend = prov.backend("ibm_toronto", max_batch_size=1)
            subs = [SubmittedProgram(workload("adder").circuit()),
                    SubmittedProgram(workload("bell").circuit())]
            result = backend.run(subs, shots=64, seed=7).result()
        svc = prov.compile_service
        # Every dispatched batch holds one program -> all serial.
        assert svc._pool._executor is None
        assert result.schedule.num_jobs == 2
        assert len(result.programs) == 2

    def test_wider_batch_runs_inline(self):
        with QuantumProvider(compile_mode="auto") as prov:
            circuits = [workload(n).circuit()
                        for n in ("adder", "bell", "lin", "var")]
            result = prov.simulator("ibm_toronto").run(
                circuits, shots=0, seed=1).result()
        svc = prov.compile_service
        # 4 programs on a 27q device stay below the process thresholds
        # on any core count: compiled inline, no pool spun up.
        assert svc._pool._executor is None
        assert len(result.programs) == 4

    def _broken_submit_pool(self):
        class _BrokenPool:
            def submit(self, *args, **kwargs):
                raise BrokenExecutor("process pool is terminated")

            def shutdown(self, wait=True):
                pass
        return _BrokenPool()

    def _dying_worker_pool(self):
        class _DyingPool:
            def submit(self, *args, **kwargs):
                fut = Future()
                fut.set_exception(BrokenExecutor("worker died"))
                return fut

            def shutdown(self, wait=True):
                pass
        return _DyingPool()

    def test_broken_pool_falls_back_inline_through_job_path(self):
        with QuantumProvider(compile_mode="process") as prov:
            prov.compile_service._pool._executor = (
                self._broken_submit_pool())
            circuits = [workload(n).circuit()
                        for n in ("adder", "bell", "lin")]
            job = prov.simulator("ibm_toronto").run(circuits, shots=64,
                                                    seed=5)
            result = job.result()
            assert job.status() is JobStatus.DONE
        assert prov.compile_service.stats["fallbacks"] == 3
        # The fallback compiles are real: counts match a service-free run.
        device = ibm_toronto()
        want = execute_allocation(qucp_allocate(circuits, device),
                                  shots=64, seed=5)
        for prog, ref in zip(result.programs, want):
            assert prog.counts == ref.result.counts

    def test_mid_chunk_worker_death_falls_back_inline(self):
        with QuantumProvider(compile_mode="process") as prov:
            prov.compile_service._pool._executor = (
                self._dying_worker_pool())
            circuits = [workload(n).circuit() for n in ("adder", "bell")]
            result = prov.simulator("ibm_toronto").run(
                circuits, shots=32, seed=2).result()
        assert prov.compile_service.stats["fallbacks"] == 2
        assert len(result.programs) == 2
        assert all(p.counts for p in result.programs)

    def test_broken_pool_is_replaced_for_the_next_batch(self):
        with QuantumProvider(compile_mode="process") as prov:
            svc = prov.compile_service
            svc._pool._executor = self._broken_submit_pool()
            circuits = [workload(n).circuit() for n in ("adder", "bell")]
            prov.simulator("ibm_toronto").run(circuits, shots=0,
                                              seed=1).result()
            assert svc.stats["fallbacks"] == 2
            # The dead pool was dropped: the next process-route batch
            # builds a real pool instead of falling back forever.
            assert svc._pool._executor is None

    def test_non_pool_errors_still_propagate(self):
        svc = CompileService(mode="serial")

        def broken_transpiler(circuit, device, allocation):
            raise RuntimeError("bad hook")

        device = ibm_toronto()
        allocation = qucp_allocate([workload("adder").circuit()], device)
        fut = svc.submit(allocation.allocations[0].circuit, device,
                         allocation.allocations[0], broken_transpiler)
        with pytest.raises(RuntimeError, match="bad hook"):
            fut.result()
        assert svc.stats["fallbacks"] == 0
