"""Semantics of the discrete-event cloud scheduler.

Covers the acceptance points: threshold=0 single-device service equals
the analytic serial FIFO model, arrival-time batching boundaries (late
arrivals never join an in-flight batch), the rejection path, batching
windows, priorities, fleet placement policies, allocator racing, and
equivalence with the pre-refactor single-device scheduler on recorded
golden traces.
"""

import json
import os

import pytest

from repro.circuits import ghz_circuit
from repro.core import (
    CloudScheduler,
    JobSpec,
    QucpAllocator,
    SubmittedProgram,
    allocation_engine,
    get_allocator,
    simulate_fifo_queue,
)
from repro.hardware import DeviceFleet, ibm_melbourne, linear_device
from repro.sim.executor import program_duration
from repro.workloads import workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "allocator_golden.json")


def _stream(names, spacing_ns=0.0, **kwargs):
    return [
        SubmittedProgram(workload(n).circuit(), arrival_ns=i * spacing_ns,
                         user=f"user{i}", **kwargs)
        for i, n in enumerate(names)
    ]


@pytest.fixture(scope="module")
def line8_pair():
    return (linear_device(8, seed=11), linear_device(8, seed=12))


class TestGoldenTraces:
    def test_event_engine_reproduces_legacy_scheduler(self, toronto):
        """The discrete-event engine must replay the synchronous
        pre-refactor single-device QuCP scheduler traces bit-for-bit."""
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)["scheduler"]
        for name, entry in golden.items():
            subs = [
                SubmittedProgram(workload(n).circuit(),
                                 arrival_ns=i * entry["spacing_ns"],
                                 user=f"user{i}")
                for i, n in enumerate(entry["workloads"])
            ]
            out = CloudScheduler(
                toronto,
                fidelity_threshold=entry["threshold"]).schedule(subs)
            assert out.num_jobs == entry["num_jobs"], name
            assert out.makespan_ns == pytest.approx(
                entry["makespan_ns"]), name
            assert out.mean_turnaround_ns == pytest.approx(
                entry["mean_turnaround_ns"]), name
            assert out.mean_throughput == pytest.approx(
                entry["mean_throughput"]), name
            members = [sorted(a.index for a in b.allocations)
                       for b in out.batches]
            assert members == entry["batch_members"], name
            assert out.rejected == []


class TestSerialDegeneracy:
    def test_threshold_zero_equals_fifo_queue(self, toronto):
        """Identical copies contend for one best region, so threshold=0
        single-device service is exactly the analytic FIFO model."""
        n = 4
        subs = _stream(["adder"] * n, spacing_ns=1.2e6)
        scheduler = CloudScheduler(toronto, fidelity_threshold=0.0)
        out = scheduler.schedule(subs)
        assert out.num_jobs == n

        exec_ns = scheduler.job_overhead_ns + program_duration(
            subs[0].circuit, toronto.calibration.gate_duration)
        fifo = simulate_fifo_queue([
            JobSpec(exec_ns, arrival_ns=s.arrival_ns) for s in subs])
        for i in range(n):
            assert out.completion_ns[i] == pytest.approx(
                fifo.completion_ns[i])
        assert out.makespan_ns == pytest.approx(fifo.makespan_ns)
        assert out.mean_turnaround_ns == pytest.approx(
            fifo.mean_turnaround_ns)

    def test_max_batch_size_one_is_strict_serial(self, toronto):
        """Mixed circuits can co-schedule even at threshold=0 (exactly-
        zero degradation joins); max_batch_size=1 must forbid it and
        match the analytic FIFO model."""
        names = ["adder", "fredkin", "lin", "4mod", "bell"]
        subs = _stream(names, spacing_ns=2e5)
        scheduler = CloudScheduler(toronto, fidelity_threshold=0.0,
                                   max_batch_size=1)
        out = scheduler.schedule(subs)
        assert out.num_jobs == len(subs)
        assert all(len(b.allocations) == 1 for b in out.batches)

        fifo = simulate_fifo_queue([
            JobSpec(scheduler.job_overhead_ns + program_duration(
                s.circuit, toronto.calibration.gate_duration),
                arrival_ns=s.arrival_ns)
            for s in subs])
        for i in range(len(subs)):
            assert out.completion_ns[i] == pytest.approx(
                fifo.completion_ns[i])

    def test_invalid_max_batch_size_rejected(self, toronto):
        with pytest.raises(ValueError):
            CloudScheduler(toronto, max_batch_size=0)


class TestBatchingBoundaries:
    def test_late_arrival_never_joins_in_flight_batch(self, toronto):
        """Program 1 arrives just after program 0 dispatched: it must
        wait for the next job even though the batch is still running."""
        subs = [
            SubmittedProgram(workload("adder").circuit(), arrival_ns=0.0),
            SubmittedProgram(workload("fredkin").circuit(),
                             arrival_ns=100.0),
        ]
        out = CloudScheduler(toronto, fidelity_threshold=1.0).schedule(subs)
        assert out.num_jobs == 2
        assert out.jobs[0].members == (0,)
        assert out.jobs[1].start_ns >= out.jobs[0].end_ns

    def test_batch_window_collects_arrivals(self, toronto):
        subs = [
            SubmittedProgram(workload("adder").circuit(), arrival_ns=0.0),
            SubmittedProgram(workload("fredkin").circuit(),
                             arrival_ns=5e4),
        ]
        eager = CloudScheduler(toronto,
                               fidelity_threshold=1.0).schedule(subs)
        windowed = CloudScheduler(
            toronto, fidelity_threshold=1.0,
            batch_window_ns=2e5).schedule(subs)
        assert eager.num_jobs == 2
        assert windowed.num_jobs == 1
        assert windowed.jobs[0].start_ns == pytest.approx(2e5)
        assert windowed.jobs[0].members == (0, 1)


class TestRejection:
    def test_oversized_for_whole_fleet_rejected(self, line5):
        subs = [SubmittedProgram(ghz_circuit(6).measure_all()),
                SubmittedProgram(workload("adder").circuit())]
        out = CloudScheduler(line5, fidelity_threshold=1.0).schedule(subs)
        assert out.rejected == [0]
        assert list(out.completion_ns) == [1]

    def test_blocked_head_does_not_idle_other_devices(self, line5):
        """Work-conserving dispatch: a head waiting for the one busy
        device that fits it must not keep later programs off idle
        devices."""
        fleet = DeviceFleet([line5, ibm_melbourne()],
                            policy="round_robin")
        subs = [
            SubmittedProgram(ghz_circuit(6).measure_all(),
                             arrival_ns=0.0),
            SubmittedProgram(ghz_circuit(6).measure_all(),
                             arrival_ns=1.0),
            SubmittedProgram(workload("adder").circuit(), arrival_ns=2.0),
        ]
        out = CloudScheduler(fleet, fidelity_threshold=1.0).schedule(subs)
        assert out.rejected == []
        adder_job = next(j for j in out.jobs if j.members == (2,))
        first_ghz = next(j for j in out.jobs if j.members == (0,))
        # The adder dispatched onto the idle line5 at its arrival, not
        # after Melbourne freed up.
        assert adder_job.device_name == "linear5"
        assert adder_job.start_ns == pytest.approx(2.0)
        assert adder_job.start_ns < first_ghz.end_ns
        # FIFO position preserved: the second ghz still runs on
        # Melbourne as soon as it frees.
        second_ghz = next(j for j in out.jobs if j.members == (1,))
        assert second_ghz.start_ns == pytest.approx(first_ghz.end_ns)

    def test_program_waits_for_the_device_it_fits(self, line5):
        """6q program fits Melbourne but not the 5q line: it must be
        routed there, not rejected."""
        fleet = DeviceFleet([line5, ibm_melbourne()],
                            policy="round_robin")
        subs = [SubmittedProgram(ghz_circuit(6).measure_all()),
                SubmittedProgram(workload("adder").circuit())]
        out = CloudScheduler(fleet, fidelity_threshold=0.0).schedule(subs)
        assert out.rejected == []
        assert out.jobs[0].device_name == "ibm_melbourne"
        assert out.jobs[0].members == (0,)


class TestPriorities:
    def test_open_window_priority_head_does_not_idle_device(self, toronto):
        """A high-priority arrival still inside its batching window must
        not hold the device idle while a window-closed lower-priority
        program is ready to run."""
        subs = [
            SubmittedProgram(workload("adder").circuit(), arrival_ns=0.0),
            SubmittedProgram(workload("adder").circuit(),
                             arrival_ns=9e5, priority=5),
        ]
        out = CloudScheduler(toronto, fidelity_threshold=0.0,
                             batch_window_ns=1e6).schedule(subs)
        # The low-priority program dispatches when its own window closes
        # (t=1e6), not when the priority head's window closes (t=1.9e6).
        assert out.jobs[0].members == (0,)
        assert out.jobs[0].start_ns == pytest.approx(1e6)

    def test_high_priority_served_first(self, toronto):
        subs = [
            SubmittedProgram(workload("adder").circuit(), user="u0"),
            SubmittedProgram(workload("adder").circuit(), user="u1"),
            SubmittedProgram(workload("adder").circuit(), user="vip",
                             priority=5),
        ]
        out = CloudScheduler(toronto, fidelity_threshold=0.0).schedule(subs)
        assert out.num_jobs == 3
        assert out.jobs[0].members == (2,)
        assert out.completion_ns[2] < out.completion_ns[0]


class TestFleetPolicies:
    def _timeline(self, line8_pair, policy):
        fleet = DeviceFleet(line8_pair, policy=policy)
        subs = [
            SubmittedProgram(workload("alu-v0_27").circuit(),
                             arrival_ns=0.0),
            SubmittedProgram(workload("adder").circuit(), arrival_ns=10.0),
            SubmittedProgram(workload("adder").circuit(), arrival_ns=1e7),
        ]
        return CloudScheduler(
            fleet, fidelity_threshold=0.0).schedule(subs), subs

    def test_round_robin_rotates(self, line8_pair):
        out, _ = self._timeline(line8_pair, "round_robin")
        # alu -> device0, adder -> device1 (0 busy), cursor back to 0.
        assert [j.device_index for j in out.jobs] == [0, 1, 0]

    def test_least_loaded_balances(self, line8_pair):
        out, _ = self._timeline(line8_pair, "least_loaded")
        # Device 0 carried the long alu job, so the late adder goes to 1.
        assert [j.device_index for j in out.jobs] == [0, 1, 1]

    def test_best_fidelity_picks_lowest_solo_efs(self, line8_pair):
        out, subs = self._timeline(line8_pair, "best_fidelity")
        allocator = get_allocator("qucp")
        solo = [
            allocation_engine(dev).solo_best(allocator, subs[2].circuit)
            for dev in line8_pair
        ]
        expected = min(range(2), key=lambda i: solo[i].efs)
        assert out.jobs[2].device_index == expected

    def test_two_device_fleet_halves_turnaround(self, line8_pair):
        subs = _stream(["adder"] * 6)
        serial = CloudScheduler(line8_pair[0],
                                fidelity_threshold=0.0).schedule(subs)
        fleet = CloudScheduler(DeviceFleet(line8_pair),
                               fidelity_threshold=0.0).schedule(subs)
        assert fleet.mean_turnaround_ns < 0.7 * serial.mean_turnaround_ns
        busy = fleet.device_busy_ns()
        assert len(busy) == 2  # both devices actually served jobs


class TestConfigurationErrors:
    def test_non_incremental_allocator_rejected(self, toronto):
        with pytest.raises(ValueError):
            CloudScheduler(toronto, allocator="cna")

    def test_negative_window_rejected(self, toronto):
        with pytest.raises(ValueError):
            CloudScheduler(toronto, batch_window_ns=-1.0)

    def test_negative_threshold_rejected(self, toronto):
        with pytest.raises(ValueError):
            CloudScheduler(toronto, fidelity_threshold=-0.1)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            DeviceFleet([])

    def test_unknown_policy_rejected(self, line5):
        with pytest.raises(ValueError):
            DeviceFleet([line5], policy="random")

    def test_sigma_with_explicit_allocator_rejected(self, toronto):
        """sigma only parameterizes the default QuCP allocator; pairing
        it with an explicit allocator must fail loudly, not be silently
        ignored."""
        from repro.core import select_parallel_count
        from repro.workloads import workload

        with pytest.raises(ValueError):
            CloudScheduler(toronto, allocator="qucp", sigma=8.0)
        with pytest.raises(ValueError):
            select_parallel_count(workload("adder").circuit(), toronto,
                                  threshold=0.5, sigma=8.0,
                                  allocator="qucp")

    def test_sigma_configures_default_allocator(self, toronto):
        scheduler = CloudScheduler(toronto, sigma=8.0)
        assert scheduler.allocator.sigma == 8.0

    def test_allocator_registry_drives_scheduler(self, toronto):
        """Every incremental registry method can serve the queue."""
        subs = _stream(["adder", "fredkin"])
        for name in ("qucp", "qumc", "qucloud", "multiqc"):
            out = CloudScheduler(
                toronto, allocator=name,
                fidelity_threshold=1.0).schedule(subs)
            assert sorted(out.completion_ns) == [0, 1], name


class TestSchedulerRacing:
    def test_race_wins_recorded_and_reproducible(self, toronto):
        subs = _stream(["adder", "bell", "lin", "fredkin"], spacing_ns=1e5)
        scheduler = CloudScheduler(toronto,
                                   race_allocators=("qumc", "qucloud"))
        out = scheduler.schedule(subs)
        assert sum(out.race_wins.values()) == out.num_jobs
        again = CloudScheduler(
            toronto,
            race_allocators=("qumc", "qucloud")).schedule(subs)
        assert again.race_wins == out.race_wins
        assert [j.members for j in again.jobs] == [j.members
                                                   for j in out.jobs]
        assert again.makespan_ns == out.makespan_ns

    def test_racing_never_admits_fewer_than_the_primary(self, toronto):
        subs = _stream(["adder", "bell", "lin", "fredkin", "adder"],
                       spacing_ns=5e4)
        plain = CloudScheduler(toronto).schedule(subs)
        raced = CloudScheduler(
            toronto, race_allocators=("qumc", "qucloud")).schedule(subs)
        assert len(raced.rejected) <= len(plain.rejected)

    def test_non_incremental_challenger_rejected_at_construction(
            self, toronto):
        with pytest.raises(ValueError, match="incremental"):
            CloudScheduler(toronto, race_allocators=("cna",))

    def test_duplicate_challenger_is_dropped(self, toronto):
        # Racing the primary against itself is a no-op; the scheduler
        # must fold it away rather than burn a duplicate evaluation.
        scheduler = CloudScheduler(toronto, race_allocators=("qucp",))
        assert scheduler.challengers == ()

    def test_identical_challenger_never_wins(self, toronto):
        # A challenger that packs exactly like the primary ties on every
        # dispatch, and ties stay with the primary.
        class QucpTwin(QucpAllocator):
            name = "qucp-twin"

        subs = _stream(["adder", "bell", "lin", "fredkin", "adder"],
                       spacing_ns=5e4)
        plain = CloudScheduler(toronto).schedule(subs)
        raced = CloudScheduler(
            toronto, race_allocators=(QucpTwin(),)).schedule(subs)
        assert raced.race_wins == {"qucp": raced.num_jobs}
        want, got = plain.to_dict(), raced.to_dict()
        del want["race_wins"], got["race_wins"]
        assert got == want

    def test_dispatch_commits_the_lowest_scoring_pack(self, toronto):
        # Everything arrives at once, so the first job is one dispatch's
        # pack; each allocator's un-raced first job is its candidate.
        subs = _stream(["fredkin", "4mod", "qec", "lin"])
        names = ("qucp", "qumc", "qucloud")
        packs = {
            name: CloudScheduler(toronto, allocator=name).schedule(
                subs).jobs[0]
            for name in names}

        def score(job):
            efs = [a.efs for a in job.allocation.allocations]
            return (-len(efs), sum(efs) / len(efs))

        winner = min(names, key=lambda name: score(packs[name]))
        # The case discriminates: the primary's pack loses.
        assert score(packs[winner]) < score(packs["qucp"])
        raced = CloudScheduler(
            toronto, race_allocators=names[1:]).schedule(subs)
        assert raced.jobs[0].to_dict() == packs[winner].to_dict()
        assert raced.race_wins.get(winner, 0) >= 1
