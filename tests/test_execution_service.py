"""ExecutionService bit-identity and routing (the perf-opt acceptance gate).

Sharded execution must be **bit-identical** to the serial
:func:`repro.sim.executor.run_parallel` path — same counts, same
probabilities, same clbit records — regardless of mode (serial /
process / auto) or worker count, because the joint half of the batch
(ASAP padding, crosstalk scales, seed spawning) runs in the parent and
each program's RNG stream is a pre-spawned ``SeedSequence`` child.  The
randomized suite here sweeps programs x shots x seeds x worker counts.
Also covers the measured ``choose_route`` decision table and the
broken-pool inline fallbacks of the process pool both services share.
"""

from concurrent.futures import BrokenExecutor, Future

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core import (
    CompileService,
    ExecutionService,
    execute_allocation,
    qucp_allocate,
    run_batch,
)
from repro.core.execution_service import (
    _PROCESS_MIN_BATCH_MS,
    _SERIAL_MAX_BATCH,
)
from repro.hardware import ibm_toronto
from repro.sim.executor import Program, run_parallel
from repro.workloads import workload

#: Disjoint linear chains of ibm_toronto's heavy-hex coupling map —
#: every consecutive pair is a real link, so locally nearest-neighbour
#: circuits are always executable on them.
CHAINS = [(0, 1, 2), (3, 5, 8), (12, 13, 14, 16), (19, 20), (22, 25, 26)]


def random_program(chain, rng, depth=12):
    """A random device-respecting program on *chain* (local NN CXs)."""
    n = len(chain)
    circuit = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        if n > 1 and r < 0.35:
            i = int(rng.integers(0, n - 1))
            circuit.cx(i, i + 1)
        elif r < 0.6:
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)),
                       int(rng.integers(0, n)))
        elif r < 0.8:
            circuit.h(int(rng.integers(0, n)))
        else:
            circuit.x(int(rng.integers(0, n)))
    circuit.measure_all()
    return Program(circuit, chain)


def random_job(rng, max_programs=5):
    k = int(rng.integers(1, min(max_programs, len(CHAINS)) + 1))
    picked = sorted(rng.choice(len(CHAINS), size=k, replace=False))
    return [random_program(CHAINS[i], rng) for i in picked]


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.counts == w.counts
        assert g.probabilities == w.probabilities
        assert g.shots == w.shots
        assert g.measured_clbits == w.measured_clbits


class TestShardedEquivalence:
    """Randomized: every route x worker count reproduces serial exactly."""

    @pytest.mark.parametrize("trial", range(4))
    def test_routes_and_worker_counts_are_bit_identical(self, trial):
        rng = np.random.default_rng(1000 + trial)
        device = ibm_toronto()
        programs = random_job(rng)
        shots = int(rng.choice([0, 257, 1024]))
        seed = int(rng.integers(0, 2**31))
        want = run_parallel(programs, device, shots=shots, seed=seed)
        routes = [("serial", 1), ("process", 1), ("process", 2),
                  ("process", 3), ("auto", 2)]
        for mode, workers in routes:
            with ExecutionService(max_workers=workers, mode=mode) as svc:
                got = svc.run_parallel(programs, device, shots=shots,
                                       seed=seed)
            assert_identical(got, want)

    def test_seed_sequence_and_options_round_trip(self):
        rng = np.random.default_rng(7)
        device = ibm_toronto()
        programs = random_job(rng, max_programs=3)
        base = np.random.SeedSequence(99)
        for kwargs in (
            dict(seed=base, shots=128),
            dict(seed=11, shots=64, noisy=False),
            dict(seed=11, shots=64, include_crosstalk=False),
            dict(seed=11, shots=64, scheduling="asap"),
        ):
            want = run_parallel(programs, device, **kwargs)
            with ExecutionService(max_workers=2, mode="process") as svc:
                got = svc.run_parallel(programs, device, **kwargs)
            assert_identical(got, want)

    def test_one_service_many_batches(self):
        rng = np.random.default_rng(21)
        device = ibm_toronto()
        with ExecutionService(max_workers=2, mode="process") as svc:
            for trial in range(3):
                programs = random_job(rng, max_programs=3)
                want = run_parallel(programs, device, shots=93, seed=trial)
                got = svc.run_parallel(programs, device, shots=93,
                                       seed=trial)
                assert_identical(got, want)
            assert svc.stats["batches"] == 3
            assert svc.stats["process_batches"] == 3
            assert svc.stats["chunks"] >= 3
            assert svc.stats["fallbacks"] == 0

    def test_validation_still_raises_in_parent(self):
        device = ibm_toronto()
        bad = QuantumCircuit(2, 2)
        bad.cx(0, 1)
        bad.measure_all()
        with ExecutionService(mode="process") as svc:
            with pytest.raises(ValueError, match="no such link"):
                svc.run_parallel([Program(bad, (0, 2))], device, shots=16)


class TestChooseRoute:
    """The measured decision table from the committed crossover run."""

    def test_tiny_batches_stay_serial_at_any_width(self):
        for width in (1, 7, 12):
            assert ExecutionService.choose_route(
                [width] * _SERIAL_MAX_BATCH, 4096, cores=8) == "serial"

    def test_single_core_never_routes_to_a_pool(self):
        assert ExecutionService.choose_route([7] * 64, 4096,
                                             cores=1) == "serial"

    def test_small_cheap_batches_stay_serial(self):
        est = ExecutionService.estimate_batch_ms([1] * 3, 0)
        assert est < _PROCESS_MIN_BATCH_MS
        assert ExecutionService.choose_route([1] * 3, 0, cores=8) == "serial"

    def test_moderate_batches_stay_serial(self):
        # Below the fork-amortization threshold the batch runs inline;
        # there is no thread route in between.
        est = ExecutionService.estimate_batch_ms([3] * 4, 4096)
        assert est < _PROCESS_MIN_BATCH_MS
        assert ExecutionService.choose_route([3] * 4, 4096,
                                             cores=8) == "serial"

    def test_heavy_batches_take_the_process_pool(self):
        est = ExecutionService.estimate_batch_ms([7] * 16, 4096)
        assert est >= _PROCESS_MIN_BATCH_MS
        assert ExecutionService.choose_route([7] * 16, 4096,
                                             cores=8) == "process"

    def test_mixed_batch_priced_per_program(self):
        # A wide program no longer prices its narrow co-tenants at its
        # own width (the full bench_execution batch: 12 programs, widths
        # 3-7, that the pool cannot speed up on 2 cores).
        widths = [7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3]
        est = ExecutionService.estimate_batch_ms
        assert est(widths, 4096) < est([7] * len(widths), 4096)
        assert ExecutionService.choose_route(widths, 4096,
                                             cores=2) == "serial"

    def test_estimate_grows_with_width_batch_and_shots(self):
        est = ExecutionService.estimate_batch_ms
        assert est([5] * 4, 1024) < est([6] * 4, 1024) < est([9] * 4, 1024)
        assert est([5] * 4, 1024) < est([5] * 8, 1024)
        assert est([5] * 4, 0) < est([5] * 4, 65536)

    def test_unknown_mode_rejected(self):
        for mode in ("fleet", "thread"):
            with pytest.raises(ValueError, match="unknown mode"):
                ExecutionService(mode=mode)


class _BrokenSubmitPool:
    def submit(self, *args, **kwargs):
        raise BrokenExecutor("process pool is terminated")

    def shutdown(self, wait=True):
        pass


class _DyingWorkerPool:
    def submit(self, *args, **kwargs):
        fut = Future()
        fut.set_exception(BrokenExecutor("worker died"))
        return fut

    def shutdown(self, wait=True):
        pass


#: Both services run on one ProcessPool, so every fallback case runs
#: against each of them.
SERVICES = pytest.mark.parametrize(
    "service", [ExecutionService, CompileService],
    ids=["execution", "compile"])


class TestPoolFallbacks:
    """Pool health must never fail a batch — and never change a bit."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.device = ibm_toronto()
        self.programs = random_job(rng, max_programs=4)
        self.want = run_parallel(self.programs, self.device, shots=77,
                                 seed=13)
        self.job = qucp_allocate(
            [workload(n).circuit() for n in ("adder", "bell", "lin")],
            self.device)

    def _serve(self, svc):
        """Run this case's batch through *svc*, check it against the
        serial reference, and return how many programs it held."""
        if isinstance(svc, ExecutionService):
            got = svc.run_parallel(self.programs, self.device, shots=77,
                                   seed=13)
            assert_identical(got, self.want)
            return len(self.programs)
        got = svc.compile_allocation(self.job)
        with CompileService(mode="serial") as ser:
            want = ser.compile_allocation(self.job)
        for g, w in zip(got, want):
            assert g.circuit == w.circuit
            assert g.final_layout == w.final_layout
        return len(self.job.allocations)

    @SERVICES
    def test_broken_submit_falls_back_inline(self, service):
        svc = service(max_workers=2, mode="process")
        svc._pool._executor = _BrokenSubmitPool()  # noqa: SLF001
        served = self._serve(svc)
        assert svc.stats["fallbacks"] == served
        # The dead pool was dropped: the next process-route batch builds
        # a fresh one instead of falling back forever.
        assert svc._pool._executor is None  # noqa: SLF001
        svc.shutdown()

    @SERVICES
    def test_mid_chunk_worker_death_falls_back_inline(self, service):
        svc = service(max_workers=2, mode="process")
        svc._pool._executor = _DyingWorkerPool()  # noqa: SLF001
        served = self._serve(svc)
        assert svc.stats["fallbacks"] == served
        assert svc._pool._executor is None  # noqa: SLF001
        svc.shutdown()

    def test_late_discard_keeps_the_replacement_pool(self):
        # Compare-and-swap: discarding an executor that was already
        # replaced must not drop the healthy replacement.
        from repro.core.pool import ProcessPool

        pool = ProcessPool(max_workers=1)
        stale = pool.executor()
        pool.discard(stale)
        fresh = pool.executor()
        assert fresh is not stale
        pool.discard(stale)
        assert pool.executor() is fresh
        pool.shutdown()

    def test_program_errors_still_propagate(self):
        # A failing *simulation* is a real error, not pool health: the
        # fallback must not swallow it (only BrokenExecutor degrades).
        class _FailingChunkPool:
            def submit(self, *args, **kwargs):
                fut = Future()
                fut.set_exception(RuntimeError("simulation exploded"))
                return fut

            def shutdown(self, wait=True):
                pass

        svc = ExecutionService(max_workers=2, mode="process")
        svc._pool._executor = _FailingChunkPool()  # noqa: SLF001
        with pytest.raises(RuntimeError, match="simulation exploded"):
            svc.run_parallel(self.programs, self.device, shots=8, seed=1)
        assert svc.stats["fallbacks"] == 0
        svc.shutdown()


class TestExecutorWiring:
    """run_batch / execute_allocation with a service are bit-identical."""

    def test_execute_allocation_with_service(self):
        device = ibm_toronto()
        circuits = [workload(n).circuit() for n in ("adder", "bell", "lin")]
        allocation = qucp_allocate(circuits, device)
        want = execute_allocation(allocation, shots=64, seed=5)
        with ExecutionService(max_workers=2, mode="process") as svc:
            got = execute_allocation(allocation, shots=64, seed=5,
                                     execution_service=svc)
        assert svc.stats["batches"] == 1
        for g, w in zip(got, want):
            assert g.result.counts == w.result.counts
            assert g.result.probabilities == w.result.probabilities

    def test_run_batch_with_service(self):
        device = ibm_toronto()
        circuits = [workload(n).circuit() for n in ("adder", "bell")]
        jobs = [qucp_allocate(circuits, device),
                qucp_allocate(circuits[::-1], device)]
        want = run_batch(jobs, seed=17)
        with ExecutionService(max_workers=2, mode="process") as svc:
            got = run_batch(jobs, seed=17, execution_service=svc)
        assert svc.stats["batches"] == len(jobs)
        for gj, wj in zip(got, want):
            for g, w in zip(gj, wj):
                assert g.result.counts == w.result.counts
