"""Unit tests for the online multi-user scheduler."""

import pytest

from repro.core import OnlineScheduler, SubmittedProgram, allocation_engine
from repro.workloads import workload


def _stream(names, spacing_ns=0.0):
    return [
        SubmittedProgram(workload(n).circuit(), arrival_ns=i * spacing_ns,
                         user=f"user{i}")
        for i, n in enumerate(names)
    ]


class TestOnlineScheduler:
    def test_zero_threshold_admits_only_solo_optimal(self, toronto):
        """At threshold 0 a non-head program joins a batch only when it
        still gets exactly its solo-best placement (zero degradation)."""
        subs = _stream(["adder", "fred", "lin"])
        scheduler = OnlineScheduler(toronto, fidelity_threshold=0.0)
        out = scheduler.schedule(subs)
        engine = allocation_engine(toronto)
        for batch in out.batches:
            for alloc in batch.allocations:
                solo = engine.solo_best(scheduler.allocator, alloc.circuit)
                assert alloc.efs <= solo.efs * (1 + 1e-9)

    def test_zero_threshold_serial_for_identical_copies(self, toronto):
        """Identical copies contend for the same best region, so
        threshold 0 degenerates to serial service (the Fig. 4 regime)."""
        subs = _stream(["adder", "adder", "adder"])
        out = OnlineScheduler(toronto,
                              fidelity_threshold=0.0).schedule(subs)
        assert out.num_jobs == 3

    def test_batching_reduces_jobs(self, toronto):
        subs = _stream(["adder", "fred", "lin", "4mod", "bell", "qec"])
        serial = OnlineScheduler(toronto,
                                 fidelity_threshold=0.0).schedule(subs)
        batched = OnlineScheduler(toronto,
                                  fidelity_threshold=1.0).schedule(subs)
        assert batched.num_jobs < serial.num_jobs
        assert batched.makespan_ns < serial.makespan_ns

    def test_batching_improves_turnaround(self, toronto):
        subs = _stream(["adder", "fred", "lin", "4mod", "bell", "qec"])
        serial = OnlineScheduler(toronto,
                                 fidelity_threshold=0.0).schedule(subs)
        batched = OnlineScheduler(toronto,
                                  fidelity_threshold=1.0).schedule(subs)
        assert batched.mean_turnaround_ns <= serial.mean_turnaround_ns

    def test_batched_throughput_higher(self, toronto):
        subs = _stream(["adder", "fred", "lin", "4mod"])
        serial = OnlineScheduler(toronto,
                                 fidelity_threshold=0.0).schedule(subs)
        batched = OnlineScheduler(toronto,
                                  fidelity_threshold=1.0).schedule(subs)
        assert batched.mean_throughput > serial.mean_throughput

    def test_every_program_completes_once(self, toronto):
        subs = _stream(["adder", "fred", "lin", "4mod", "bell"])
        out = OnlineScheduler(toronto,
                              fidelity_threshold=0.8).schedule(subs)
        scheduled = [
            alloc.index for batch in out.batches
            for alloc in batch.allocations
        ]
        assert sorted(scheduled) == list(range(len(subs)))

    def test_batch_partitions_disjoint(self, toronto):
        subs = _stream(["adder", "fred", "lin", "4mod", "bell", "qec"])
        out = OnlineScheduler(toronto,
                              fidelity_threshold=1.0).schedule(subs)
        for batch in out.batches:
            seen = set()
            for alloc in batch.allocations:
                assert not seen & set(alloc.partition)
                seen.update(alloc.partition)

    def test_late_arrivals_not_batched_early(self, toronto):
        # Second program arrives long after the first job must start.
        subs = _stream(["adder", "fred"], spacing_ns=1e9)
        out = OnlineScheduler(toronto,
                              fidelity_threshold=1.0).schedule(subs)
        assert out.num_jobs == 2

    def test_negative_threshold_rejected(self, toronto):
        with pytest.raises(ValueError):
            OnlineScheduler(toronto, fidelity_threshold=-0.5)

    def test_empty_submission_rejected(self, toronto):
        with pytest.raises(ValueError):
            OnlineScheduler(toronto).schedule([])

    def test_oversized_program_rejected_not_fatal(self, line5):
        """An oversized head no longer kills the service: it lands in
        the rejected list and the rest of the queue is served."""
        from repro.circuits import ghz_circuit
        from repro.workloads import workload

        subs = [SubmittedProgram(ghz_circuit(6).measure_all()),
                SubmittedProgram(workload("adder").circuit())]
        out = OnlineScheduler(line5).schedule(subs)
        assert out.rejected == [0]
        assert sorted(out.completion_ns) == [1]
        assert out.num_jobs == 1

    def test_all_programs_oversized(self, line5):
        from repro.circuits import ghz_circuit

        subs = [SubmittedProgram(ghz_circuit(6).measure_all())]
        out = OnlineScheduler(line5).schedule(subs)
        assert out.rejected == [0]
        assert out.num_jobs == 0
        assert out.makespan_ns == 0.0
