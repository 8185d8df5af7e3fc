"""ExecutionService bit-identity and memos.

The service must be **bit-identical** to the library
:func:`repro.sim.executor.run_parallel` path — same counts, same
probabilities, same clbit records — because the joint half of the batch
(ASAP padding, crosstalk scales, seed spawning) is the library's own and
each program's RNG stream is a pre-spawned ``SeedSequence`` child.  The
randomized suite here sweeps programs x shots x seeds x the run options.
Also covers the memo contract: a task- or schedule-memo hit is
bit-identical to a fresh simulation, and anything a distribution
depends on misses.
"""

import sys
import threading

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core import (
    CompileService,
    ExecutionService,
    execute_allocation,
    get_allocator,
    qucp_allocate,
    run_batch,
)
from repro.core import execution_service as execution_service_mod
from repro.core.compile_service import _default_transpiler
from repro.hardware import ibm_manhattan, ibm_toronto
from repro.sim import executor as sim_executor
from repro.sim.executor import Program, prepare_parallel, run_parallel
from repro.vqe import (
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
)
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


def assert_bit_identical(got, want):
    """:func:`assert_identical`, plus the probabilities' key order."""
    assert_identical(got, want)
    for g, w in zip(got, want):
        assert list(g.probabilities.items()) == list(w.probabilities.items())


def transpiled_programs(circuits, device, method="qucp"):
    """Allocate *circuits* with *method* and transpile them as the
    service would: the programs a batch on *device* actually simulates."""
    allocation = get_allocator(method).allocate(circuits, device)
    compiler = CompileService()
    return [Program(compiler.transpile(a.circuit, device, a,
                                       _default_transpiler).circuit,
                    a.partition)
            for a in sorted(allocation.allocations, key=lambda a: a.index)]


class TestShardedEquivalence:
    """Randomized: the service reproduces the library path exactly."""

    @pytest.mark.parametrize("trial", range(4))
    def test_routes_and_worker_counts_are_bit_identical(self, trial):
        rng = np.random.default_rng(1000 + trial)
        device = ibm_toronto()
        programs = random_job(rng)
        shots = int(rng.choice([0, 257, 1024]))
        seed = int(rng.integers(0, 2**31))
        want = run_parallel(programs, device, shots=shots, seed=seed)
        got = ExecutionService().run_parallel(programs, device, shots=shots,
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
            got = ExecutionService().run_parallel(programs, device, **kwargs)
            assert_identical(got, want)

    def test_one_service_many_batches(self):
        rng = np.random.default_rng(21)
        device = ibm_toronto()
        svc = ExecutionService()
        for trial in range(3):
            programs = random_job(rng, max_programs=3)
            want = run_parallel(programs, device, shots=93, seed=trial)
            got = svc.run_parallel(programs, device, shots=93, seed=trial)
            assert_identical(got, want)
        assert svc.stats["batches"] == 3
        assert svc.stats["serial_batches"] == 3

    def test_validation_still_raises_in_parent(self):
        device = ibm_toronto()
        bad = QuantumCircuit(2, 2)
        bad.cx(0, 1)
        bad.measure_all()
        with pytest.raises(ValueError, match="no such link"):
            ExecutionService().run_parallel([Program(bad, (0, 2))], device,
                                            shots=16)


class TestExecutorWiring:
    """run_batch / execute_allocation with a service are bit-identical."""

    def test_execute_allocation_with_service(self):
        device = ibm_toronto()
        circuits = [workload(n).circuit() for n in ("adder", "bell", "lin")]
        allocation = qucp_allocate(circuits, device)
        want = execute_allocation(allocation, shots=64, seed=5)
        svc = ExecutionService()
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
        svc = ExecutionService()
        got = run_batch(jobs, seed=17, execution_service=svc)
        assert svc.stats["batches"] == len(jobs)
        for gj, wj in zip(got, want):
            for g, w in zip(gj, wj):
                assert g.result.counts == w.result.counts


class TestMemos:
    """Task and schedule memos: a hit is a fresh simulation, bit for bit."""

    def _table2_batch(self, device):
        # QuCP steers clear of crosstalk; QuCloud's placement leaves
        # overlapping CX links, so the batch carries nonzero scales.
        circuits = [workload(n).circuit()
                    for n in ("adder", "bell", "lin", "fredkin")]
        programs = transpiled_programs(circuits, device, method="qucloud")
        _, scales = prepare_parallel(programs, device)
        assert any(scales), "the batch must carry crosstalk scales"
        return programs

    def test_hit_equals_fresh_simulation_table2_toronto(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        svc = ExecutionService()
        first = svc.run_parallel(programs, device, shots=512, seed=3)
        assert_bit_identical(
            first, run_parallel(programs, device, shots=512, seed=3))
        # A repeat with another seed is served from the memo, and still
        # samples each task with its own child stream.
        got = svc.run_parallel(programs, device, shots=1000, seed=4)
        assert_bit_identical(
            got, run_parallel(programs, device, shots=1000, seed=4))
        stats = svc.stats
        assert stats["memo_misses"] == len(programs)
        assert stats["memo_hits"] == len(programs)
        assert stats["schedule_hits"] == 1
        assert stats["serial_batches"] == 1

    def test_hit_equals_fresh_simulation_vqe_manhattan(self):
        device = ibm_manhattan()
        circuits = [measurement_circuit(ryrz_ansatz([theta]), group)
                    for theta in (0.3, -1.2)
                    for group in group_commuting_terms(h2_hamiltonian())]
        programs = transpiled_programs(circuits, device)
        svc = ExecutionService()
        for seed in (8, 9):
            got = svc.run_parallel(programs, device, shots=2048, seed=seed)
            assert_bit_identical(
                got, run_parallel(programs, device, shots=2048, seed=seed))
        assert svc.stats["memo_hits"] == len(programs)

    def test_hit_with_seed_sequence_and_no_shots(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        svc = ExecutionService()
        base = np.random.SeedSequence(42)
        for shots in (0, 300, 300):
            got = svc.run_parallel(programs, device, shots=shots, seed=base)
            assert_bit_identical(
                got, run_parallel(programs, device, shots=shots, seed=base))
        assert svc.stats["memo_hits"] == 2 * len(programs)

    def test_in_place_calibration_edit_misses(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        svc = ExecutionService()
        svc.run_parallel(programs, device, shots=64, seed=1)
        cx = next(inst for inst in programs[0].circuit
                  if inst.name == "cx")
        edge = programs[0].physical_edge(*cx.qubits)
        old = device.calibration.twoq_error[edge]
        try:
            device.calibration.twoq_error[edge] = min(old * 5, 0.14)
            got = svc.run_parallel(programs, device, shots=64, seed=1)
            assert_bit_identical(
                got, run_parallel(programs, device, shots=64, seed=1))
        finally:
            device.calibration.twoq_error[edge] = old
        stats = svc.stats
        assert stats["memo_hits"] == 0
        assert stats["schedule_hits"] == 0
        # Restoring the value makes the first entries current again.
        svc.run_parallel(programs, device, shots=64, seed=1)
        assert svc.stats["memo_hits"] == len(programs)

    def test_different_partition_misses(self):
        device = ibm_toronto()
        rng = np.random.default_rng(31)
        program = random_program(CHAINS[0], rng)
        moved = Program(program.circuit, (3, 5, 8))
        svc = ExecutionService()
        svc.run_parallel([program], device, shots=64, seed=2)
        got = svc.run_parallel([moved], device, shots=64, seed=2)
        assert_bit_identical(got, run_parallel([moved], device, shots=64,
                                               seed=2))
        assert svc.stats["memo_hits"] == 0

    def test_different_scales_miss(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        _, scales = prepare_parallel(programs, device)
        k = next(i for i, s in enumerate(scales) if s)
        svc = ExecutionService()
        svc.run_parallel(programs, device, shots=64, seed=5)
        # Alone, the same program on the same partition has no scales.
        alone = [programs[k]]
        got = svc.run_parallel(alone, device, shots=64, seed=5)
        assert_bit_identical(got, run_parallel(alone, device, shots=64,
                                               seed=5))
        assert svc.stats["memo_hits"] == 0
        got = svc.run_parallel(programs, device, shots=64, seed=5,
                               include_crosstalk=False)
        assert_bit_identical(got, run_parallel(
            programs, device, shots=64, seed=5, include_crosstalk=False))
        # Without scales, the programs that had none in the first batch
        # hit, and so does the one the solo batch stored.
        assert svc.stats["memo_hits"] == sum(1 for s in scales if not s) + 1

    def test_memos_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(execution_service_mod, "_TASK_MEMO_ENTRIES", 3)
        monkeypatch.setattr(execution_service_mod,
                            "_SCHEDULE_MEMO_ENTRIES", 2)
        device = ibm_toronto()
        rng = np.random.default_rng(17)
        svc = ExecutionService()
        for _ in range(6):
            svc.run_parallel(random_job(rng, max_programs=2), device,
                             shots=16, seed=0)
        assert svc.stats["memo_misses"] > 3
        assert len(svc._tasks) <= 3  # noqa: SLF001
        assert len(svc._schedules) <= 2  # noqa: SLF001

    def test_mutating_a_result_does_not_corrupt_later_hits(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        want = run_parallel(programs, device, shots=128, seed=6)
        svc = ExecutionService()
        # A miss, then two hits: the first hit's mutations must not
        # reach the second.
        for _ in range(3):
            got = svc.run_parallel(programs, device, shots=128, seed=6)
            assert_bit_identical(got, want)
            for result in got:
                result.probabilities.clear()
                result.probabilities["bogus"] = 1.0
                result.counts["bogus"] = 7
        assert svc.stats["memo_hits"] == 2 * len(programs)

    def test_feed_forward_programs_are_simulated_every_time(
            self, monkeypatch):
        device = ibm_toronto()
        midcircuit = QuantumCircuit(2, 2)
        midcircuit.h(0)
        midcircuit.measure(0, 0)
        midcircuit.cx(0, 1)
        midcircuit.measure(1, 1)
        flip = QuantumCircuit(2, 2)
        flip.x(1)
        dynamic = QuantumCircuit(2, 2)
        dynamic.h(0)
        dynamic.measure(0, 0)
        dynamic.if_test((0, 1), flip)
        dynamic.measure(1, 1)
        programs = [Program(midcircuit, (0, 1)), Program(dynamic, (3, 5))]
        want = run_parallel(programs, device, shots=200, seed=12)

        calls = []
        real = sim_executor.run_circuit

        def counting(circuit, *args, **kwargs):
            calls.append(circuit)
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(sim_executor, "run_circuit", counting)
        svc = ExecutionService()
        for _ in range(3):
            got = svc.run_parallel(programs, device, shots=200, seed=12)
            assert_bit_identical(got, want)
        assert len(calls) == 3 * len(programs)
        assert svc.stats["memo_hits"] == 0
        # The control-flow program keeps the batch out of the schedule
        # memo, though its fingerprint would be hashable.
        assert svc.stats["schedule_hits"] == 0
        assert len(svc._tasks) == 0  # noqa: SLF001

    def test_schedule_hit_equals_fresh_prepare_parallel(self):
        device = ibm_toronto()
        programs = self._table2_batch(device)
        svc = ExecutionService()
        device_key = svc._intern(  # noqa: SLF001
            execution_service_mod._device_key(device))  # noqa: SLF001
        for scheduling in ("alap", "asap"):
            effective, scales = prepare_parallel(programs, device,
                                                 scheduling=scheduling)
            for _ in range(2):
                plan = svc._schedule(  # noqa: SLF001
                    programs, device, device_key, scheduling, True, True)
                assert [p for p, _, _ in plan] == effective
                assert [dict(s) for _, _, s in plan] == scales
            got = svc.run_parallel(programs, device, shots=99, seed=2,
                                   scheduling=scheduling)
            assert_bit_identical(got, run_parallel(
                programs, device, shots=99, seed=2, scheduling=scheduling))
        assert svc.stats["schedule_hits"] == 4

    def test_concurrent_batches_share_the_memos(self):
        # Job threads share one service: every result must still equal
        # its fresh simulation, and no counter update may be lost.
        device = ibm_toronto()
        rng = np.random.default_rng(23)
        jobs = [random_job(rng, max_programs=3) for _ in range(3)]
        wants = [run_parallel(job, device, shots=64, seed=4)
                 for job in jobs]
        svc = ExecutionService()
        errors = []

        def worker(offset):
            try:
                for i in range(6):
                    k = (offset + i) % len(jobs)
                    got = svc.run_parallel(jobs[k], device, shots=64,
                                           seed=4)
                    assert_bit_identical(got, wants[k])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = svc.stats
        assert stats["batches"] == 8 * 6
        assert stats["memo_hits"] + stats["memo_misses"] == \
            stats["programs"]
        assert stats["schedule_hits"] + stats["schedule_misses"] == \
            stats["batches"]
