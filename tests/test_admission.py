"""Admission-control unit tests: token buckets, quotas, the cost
model, and the controller's accept/shed/reject decisions — all pure
functions of the virtual arrival stream."""

import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import DeviceFleet, linear_device
from repro.service import (
    PRIORITY_CLASSES,
    AdmissionController,
    AdmissionPolicy,
    CostModel,
    JobError,
    OverloadedError,
    QuotaExceededError,
    TokenBucket,
    UserQuota,
)
from repro.workloads import workload


@pytest.fixture(scope="module")
def fleet():
    return DeviceFleet([linear_device(5, seed=0),
                        linear_device(6, seed=1)])


@pytest.fixture(scope="module")
def bell():
    return workload("bell").circuit()


def controller(fleet, **policy_kwargs):
    policy_kwargs.setdefault("quotas", {
        "alice": UserQuota(rate_per_s=1000.0, burst=4,
                           priority_class="interactive"),
        "bob": UserQuota(rate_per_s=1000.0, burst=4,
                         priority_class="best_effort"),
    })
    return AdmissionController(AdmissionPolicy(**policy_kwargs),
                               CostModel(fleet))


class TestTokenBucket:
    def test_burst_then_refusal_with_retry_hint(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2)
        assert bucket.try_take(0.0) == (True, None)
        assert bucket.try_take(0.0) == (True, None)
        ok, retry = bucket.try_take(0.0)
        assert not ok
        # 1 token at 1000/s = 1 ms = 1e6 ns away.
        assert retry == pytest.approx(1e6)

    def test_refills_on_virtual_time(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=1)
        assert bucket.try_take(0.0)[0]
        assert not bucket.try_take(0.0)[0]
        assert bucket.try_take(1e6)[0]  # exactly one refill later

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3)
        bucket.try_take(0.0)
        for _ in range(3):
            assert bucket.try_take(1e12)[0]  # capped at burst, not more
        assert not bucket.try_take(1e12)[0]

    def test_oversized_take_is_hopeless(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2)
        ok, retry = bucket.try_take(0.0, amount=3)
        assert not ok and retry is None

    def test_backwards_time_is_clamped(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=1)
        bucket.try_take(1e9)
        ok, _ = bucket.try_take(0.0)  # out-of-order probe: no refill
        assert not ok

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 1).try_take(0.0, amount=0)


class TestUserQuota:
    def test_priority_mapping(self):
        assert UserQuota(1.0, 1, "interactive").priority \
            == PRIORITY_CLASSES["interactive"]
        assert UserQuota(1.0, 1).priority_class == "batch"

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            UserQuota(1.0, 1, "platinum")

    def test_class_gaps_are_wide(self):
        # Aging promotes one level per interval; the tiers are spaced
        # so promotion across a class takes many intervals.
        levels = sorted(PRIORITY_CLASSES.values())
        assert all(b - a >= 10 for a, b in zip(levels, levels[1:]))


class TestCostModel:
    def test_deterministic_and_memoized(self, fleet, bell):
        cost = CostModel(fleet)
        first = cost.program_ns(bell)
        assert first > 0
        assert cost.program_ns(bell) == first

    def test_mutated_circuit_is_repriced(self, fleet):
        circuit = workload("bell").circuit()
        cost = CostModel(fleet)
        first = cost.program_ns(circuit)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert cost.program_ns(circuit) > first

    def test_memo_is_bounded(self, fleet):
        # A long-lived gateway pricing fresh-angle circuits must not grow
        # the memo by one entry per circuit forever.
        circuits = []
        for i in range(4097):
            circuit = QuantumCircuit(2)
            circuit.rz(1e-3 * (i + 1), 0)
            for _ in range(i % 5):
                circuit.cx(0, 1)
            circuits.append(circuit)
        cost = CostModel(fleet)
        first = [cost.program_ns(c) for c in circuits]
        assert len(cost._memo) <= 4096
        # Evicted and resident entries alike price exactly as before.
        assert [cost.program_ns(c) for c in circuits] == first

    def test_job_adds_overhead(self, fleet, bell):
        cost = CostModel(fleet, job_overhead_ns=1e6)
        assert cost.job_ns([bell]) == pytest.approx(
            1e6 + cost.program_ns(bell))
        with pytest.raises(ValueError):
            cost.job_ns([])


class TestAdmissionController:
    def test_accept_carries_class_and_priority(self, fleet, bell):
        ctl = controller(fleet)
        decision = ctl.decide("alice", [bell], 0.0)
        assert decision.admitted and decision.status == "accepted"
        assert decision.priority_class == "interactive"
        assert decision.priority == PRIORITY_CLASSES["interactive"]

    def test_unknown_user_rejected(self, fleet, bell):
        ctl = controller(fleet)
        decision = ctl.decide("mallory", [bell], 0.0)
        assert not decision.admitted and decision.status == "rejected"
        assert decision.retry_after_ns is None  # no quota: hopeless

    def test_default_quota_covers_unknown_users(self, fleet, bell):
        ctl = controller(fleet, default_quota=UserQuota(10.0, 1))
        assert ctl.decide("mallory", [bell], 0.0).admitted

    def test_quota_exhaustion_rejects_with_hint(self, fleet, bell):
        ctl = controller(fleet)
        for _ in range(4):
            assert ctl.decide("alice", [bell], 0.0).admitted
        decision = ctl.decide("alice", [bell], 0.0)
        assert decision.status == "rejected"
        assert decision.retry_after_ns > 0

    def test_depth_backpressure_sheds(self, fleet, bell):
        ctl = controller(fleet, max_queue_depth=2)
        ctl.decide("alice", [bell], 0.0)
        ctl.decide("alice", [bell], 0.0)
        decision = ctl.decide("alice", [bell], 0.0)
        assert decision.status == "shed"
        assert decision.retry_after_ns > 0

    def test_backlog_drains_with_virtual_time(self, fleet, bell):
        ctl = controller(fleet, max_queue_depth=2)
        ctl.decide("alice", [bell], 0.0)
        ctl.decide("alice", [bell], 0.0)
        assert ctl.decide("alice", [bell], 0.0).status == "shed"
        # Far in the virtual future the backlog has drained (and the
        # bucket refilled): the same request is admitted again.
        assert ctl.decide("alice", [bell], 1e10).admitted

    def test_wait_backpressure_sheds(self, fleet, bell):
        ctl = controller(fleet, max_est_wait_ns=1.0)
        # Two devices: the first two jobs start immediately, the third
        # must wait for a virtual server and exceeds the 1 ns limit.
        assert ctl.decide("alice", [bell], 0.0).admitted
        assert ctl.decide("alice", [bell], 0.0).admitted
        assert ctl.decide("alice", [bell], 0.0).status == "shed"

    def test_deadline_shedding(self, fleet, bell):
        ctl = controller(fleet)
        service = ctl.cost.job_ns([bell])
        tight = ctl.decide("alice", [bell], 0.0,
                           deadline_ns=service * 0.5)
        assert tight.status == "shed"
        assert "deadline" in tight.reason
        ok = ctl.decide("alice", [bell], 0.0, deadline_ns=service * 10)
        assert ok.admitted

    def test_errors_are_typed_and_nonretryable(self, fleet, bell):
        ctl = controller(fleet, max_queue_depth=1)
        with pytest.raises(QuotaExceededError) as exc_info:
            ctl.admit("mallory", [bell], 0.0)
        assert isinstance(exc_info.value, JobError)
        ctl.admit("alice", [bell], 0.0)
        with pytest.raises(OverloadedError) as shed_info:
            ctl.admit("alice", [bell], 0.0)
        payload = shed_info.value.to_dict()
        assert payload["status"] == "shed"
        assert payload["retry_after_ns"] is not None

    def test_counters_and_summary_invariant(self, fleet, bell):
        ctl = controller(fleet, max_queue_depth=3)
        outcomes = [ctl.decide("alice" if i % 2 else "bob", [bell],
                               i * 1e4).status
                    for i in range(12)]
        summary = ctl.summary()
        total = summary["total"]
        assert total["accepted"] + total["shed"] + total["rejected"] \
            == len(outcomes)
        assert set(summary["per_class"]) == set(PRIORITY_CLASSES)

    def test_replay_is_bit_identical(self, fleet, bell):
        stream = [("alice" if i % 3 else "bob", i * 2e4)
                  for i in range(30)]

        def run():
            ctl = controller(fleet, max_queue_depth=4)
            return [ctl.decide(u, [bell], t).to_dict()
                    for u, t in stream]

        assert run() == run()

    def test_input_validation(self, fleet, bell):
        ctl = controller(fleet)
        with pytest.raises(ValueError):
            ctl.decide("alice", [], 0.0)
        with pytest.raises(ValueError):
            ctl.decide("alice", [bell], -1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_est_wait_ns=0.0)
