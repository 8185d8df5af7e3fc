"""Gateway + overload-protection integration tests: auth-gated
submit/status/result/cancel, refusals persisted terminally, the
accept/shed partition replaying bit-identically, fenced retry
abandonment, and deterministic shutdown of queued work."""

import os
import threading
import time

import pytest

from repro.circuits import QuantumCircuit
from repro.core import CompileService, qucp_allocate
from repro.core.executor import ExecutionCache
from repro.hardware import ibm_manhattan, linear_device
from repro.service import (
    AdmissionPolicy,
    Gateway,
    JobStatus,
    QuantumProvider,
    RetryPolicy,
    UserQuota,
)
from repro.service.retry import (
    JobTimeoutError,
    publication_allowed,
)
from repro.vqe import (
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
)
from repro.workloads import synthesize_traffic, workload

TOKENS = {"tok-a": "alice", "tok-b": "bob", "tok-c": "carol"}
BY_USER = {user: token for token, user in TOKENS.items()}


def quota_policy(**kwargs):
    kwargs.setdefault("quotas", {
        "alice": UserQuota(2000.0, 4, "interactive"),
        "bob": UserQuota(2000.0, 4, "batch"),
        "carol": UserQuota(2000.0, 4, "best_effort"),
    })
    kwargs.setdefault("max_queue_depth", 6)
    return AdmissionPolicy(**kwargs)


def make_gateway(provider, **policy_kwargs):
    backend = provider.fleet_backend(
        [linear_device(5, seed=0), linear_device(6, seed=1)],
        name="gw-fleet", batch_window_ns=0.0, priority_aging_ns=2e5)
    return Gateway(backend, quota_policy(**policy_kwargs), TOKENS,
                   shots=0, execute=False)


def overload_stream(num=30, seed=11):
    """A sustained past-knee arrival stream across the three users."""
    return synthesize_traffic(num, pattern="poisson",
                              mean_interarrival_ns=2e5, seed=seed,
                              num_users=3)


def drive(gateway, stream):
    """Submit the stream round-robin across the tokens; returns the
    per-submission (ok, status, job_id) tuples."""
    tokens = list(TOKENS)
    out = []
    for i, sub in enumerate(stream):
        response = gateway.submit(tokens[i % 3], sub.circuit,
                                  sub.arrival_ns)
        out.append((response["ok"],
                    response.get("status") or response.get("error"),
                    response["job_id"]))
    return out


class TestGatewayAuth:
    def test_bad_token_turned_away(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            qc = workload("bell").circuit()
            assert gateway.submit("wrong", qc, 0.0)["error"] == "AuthError"
            assert gateway.status(None, "job-000001")["ok"] is False
            assert gateway.counts["auth_failed"] == 2
            assert gateway.counts["submitted"] == 0

    def test_foreign_ticket_looks_unknown(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            qc = workload("bell").circuit()
            job_id = gateway.submit("tok-a", qc, 0.0)["job_id"]
            mine = gateway.status("tok-a", job_id)
            theirs = gateway.status("tok-b", job_id)
            assert mine["ok"]
            assert not theirs["ok"]
            assert theirs["error"] == "UnknownJobError"

    def test_needs_tokens(self):
        with QuantumProvider() as provider:
            backend = provider.fleet_backend(
                [linear_device(5, seed=0)], name="f")
            with pytest.raises(ValueError):
                Gateway(backend, quota_policy(), {})


class TestGatewayLifecycle:
    def test_submit_flush_result_roundtrip(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            responses = drive(gateway, overload_stream())
            accepted = [r for r in responses if r[0]]
            refused = [r for r in responses if not r[0]]
            assert accepted and refused  # past the knee: both happen
            flushed = gateway.flush(seed=5)
            assert flushed["programs"] == len(accepted)
            ticket = gateway.ticket(accepted[0][2])
            result = gateway.result(BY_USER[ticket.user], accepted[0][2])
            assert result["ok"] and result["status"] == "done"
            assert result["turnaround_ns"][0] > 0

    def test_refusals_carry_retry_hints(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            responses = drive(gateway, overload_stream())
            shed_ids = [job_id for ok, status, job_id in responses
                        if not ok and status == "shed"]
            assert shed_ids
            ticket = gateway.ticket(shed_ids[0])
            refusal = gateway.result(BY_USER[ticket.user], shed_ids[0])
            assert refusal["ok"] is False
            assert refusal["status"] == "shed"
            assert refusal["retry_after_ns"] is not None

    def test_accounting_invariant(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            drive(gateway, overload_stream())
            counts = gateway.summary()["counts"]
            assert counts["accepted"] + counts["shed"] \
                + counts["rejected"] == counts["submitted"] > 0

    def test_cancel_before_flush_only(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            qc = workload("bell").circuit()
            first = gateway.submit("tok-a", qc, 0.0)["job_id"]
            second = gateway.submit("tok-a", qc, 1e5)["job_id"]
            assert gateway.cancel("tok-a", first)["ok"]
            assert gateway.status("tok-a", first)["status"] == "cancelled"
            gateway.flush()
            assert gateway.cancel("tok-a", second)["ok"] is False
            # The cancelled ticket never reached the scheduler.
            assert gateway.carriers[-1].result().metadata.num_programs == 1

    def test_handle_envelope_dispatch(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            qc = workload("bell").circuit()
            submitted = gateway.handle({
                "op": "submit", "token": "tok-a",
                "circuits": qc, "arrival_ns": 0.0})
            assert submitted["ok"]
            assert gateway.handle({"op": "flush"})["programs"] == 1
            status = gateway.handle({
                "op": "status", "token": "tok-a",
                "job_id": submitted["job_id"]})
            assert status["ok"]
            assert gateway.handle({"op": "summary"})["counts"][
                "submitted"] == 1
            assert gateway.handle({"op": "nope"})["error"] \
                == "UnknownOpError"
            bad = gateway.handle({"op": "submit", "token": "tok-a"})
            assert bad["ok"] is False


class TestRefusalDurability:
    def test_refusals_stored_terminally_and_rehydrated(self, tmp_path):
        store_path = os.fspath(tmp_path / "jobs.sqlite")
        with QuantumProvider(store_path=store_path) as provider:
            gateway = make_gateway(provider)
            responses = drive(gateway, overload_stream())
            refused_ids = [job_id for ok, _, job_id in responses
                           if not ok]
            assert refused_ids
            for job_id in refused_ids:
                record = provider.store.get(job_id)
                assert record.status in ("shed", "rejected")
                assert not record.is_pending
        # A restarted provider neither re-queues nor re-runs refusals.
        with QuantumProvider(store_path=store_path) as resumed:
            assert resumed.store.pending() == []
            job = resumed.job(refused_ids[0])
            assert job.status() in (JobStatus.SHED, JobStatus.REJECTED)
            with pytest.raises(Exception) as exc_info:
                job.result()
            assert "admission" in str(exc_info.value).lower() \
                or "shed" in str(exc_info.value).lower() \
                or "backpressure" in str(exc_info.value).lower()

    def test_refusals_share_the_job_id_space(self):
        with QuantumProvider() as provider:
            gateway = make_gateway(provider)
            responses = drive(gateway, overload_stream(num=10))
            numbers = [int(job_id.split("-")[1])
                       for _, _, job_id in responses]
            assert numbers == sorted(numbers)
            assert len(set(numbers)) == len(numbers)


class TestOverloadReplay:
    def test_accept_shed_partition_replays_bit_identically(self):
        """Satellite: the same traffic trace through two fresh gateways
        produces the identical accept/shed partition, ids included."""
        def run():
            with QuantumProvider() as provider:
                gateway = make_gateway(provider)
                responses = drive(gateway, overload_stream())
                return responses, gateway.summary()["counts"], [
                    gateway.ticket(job_id).decision.to_dict()
                    for _, _, job_id in responses]

        first = run()
        second = run()
        assert first == second

    def test_interactive_flood_cannot_starve_best_effort(self):
        """Satellite: under a sustained 2x-saturation flood, every
        accepted best-effort program still completes (aging)."""
        with QuantumProvider() as provider:
            gateway = make_gateway(provider, max_queue_depth=None)
            stream = overload_stream(num=40)
            responses = drive(gateway, stream)
            accepted = [job_id for ok, _, job_id in responses if ok]
            assert gateway.flush(seed=2)["programs"] == len(accepted)
            best_effort = [
                job_id for job_id in accepted
                if gateway.ticket(job_id).decision.priority_class
                == "best_effort"]
            assert best_effort
            for job_id in best_effort:
                ticket = gateway.ticket(job_id)
                result = gateway.result(BY_USER[ticket.user], job_id)
                assert result["ok"]
                assert all(t is not None and t > 0
                           for t in result["turnaround_ns"])


class TestAttemptFencing:
    def test_abandoned_attempt_cannot_publish(self):
        """Satellite: a timed-out attempt's daemon thread keeps running
        but its writes into gated shared state are discarded."""
        cache = ExecutionCache()
        cache.write_gate = publication_allowed
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        release = threading.Event()
        finished = threading.Event()

        def slow_attempt():
            release.wait(5.0)  # outlive the timeout deliberately
            cache.ideal(qc)    # late publication attempt
            finished.set()

        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=0.05)
        with pytest.raises(JobTimeoutError):
            policy.run_attempt(slow_attempt, "job-fence", 1)
        release.set()
        assert finished.wait(5.0)
        assert cache.gated_writes == 1
        assert cache.stats["ideal_misses"] == 1
        # The live (unfenced) caller recomputes: still a miss, proving
        # the abandoned thread's value never landed in the table.
        cache.ideal(qc)
        assert cache.stats["ideal_misses"] == 2

    def test_live_attempt_publishes_normally(self):
        cache = ExecutionCache()
        cache.write_gate = publication_allowed
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure_all()

        def quick_attempt():
            cache.ideal(qc)
            return "done"

        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=5.0)
        assert policy.run_attempt(quick_attempt, "job-live", 1) == "done"
        assert cache.gated_writes == 0
        cache.ideal(qc)
        assert cache.stats["ideal_hits"] == 1

    def test_abandoned_attempt_compiles_are_fenced(self):
        """The compile service publishes on the attempt thread, so an
        abandoned attempt's compiles never reach the cache."""
        cache = ExecutionCache()
        cache.write_gate = publication_allowed
        service = CompileService(cache=cache)
        circuits = [measurement_circuit(ryrz_ansatz([theta]), group)
                    for theta in (0.3, -1.2, 2.0, -0.4)
                    for group in group_commuting_terms(h2_hamiltonian())]
        allocation = qucp_allocate(circuits, ibm_manhattan())
        assert len(allocation.allocations) == 8
        release = threading.Event()
        finished = threading.Event()

        def slow_attempt():
            release.wait(5.0)  # outlive the timeout deliberately
            service.compile_allocation(allocation)
            finished.set()

        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=0.05)
        with pytest.raises(JobTimeoutError):
            policy.run_attempt(slow_attempt, "job-compile-fence", 1)
        release.set()
        assert finished.wait(30.0)
        assert cache.gated_writes == 8
        assert len(cache.l1) == 0


class TestDeterministicShutdown:
    def test_queued_jobs_cancelled_and_recorded(self, tmp_path):
        """shutdown(wait=False) cancels not-yet-started jobs in
        submission order and stores them CANCELLED, so resume never
        silently re-runs them — and no queued job starts while those
        store writes run."""
        store_path = os.fspath(tmp_path / "jobs.sqlite")
        provider = QuantumProvider(store_path=store_path, job_workers=1)
        backend = provider.simulator(linear_device(4, seed=0))
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.measure_all()
        # Hold the single job worker, and free it while the first
        # cancellation is being recorded: the worker must then find
        # nothing left to start.
        gate = threading.Event()
        provider._pool.submit(gate.wait, 30.0)  # noqa: SLF001
        record = provider.store.record_transition

        def record_and_release(job_id, status, **kwargs):
            record(job_id, status, **kwargs)
            if status == "cancelled":
                gate.set()
                time.sleep(0.05)

        provider.store.record_transition = record_and_release
        jobs = [backend.run(qc, shots=128, seed=i) for i in range(5)]
        provider.shutdown(wait=False)
        statuses = [job.status() for job in jobs]
        # Cancellation is a suffix — here all of it: no job submitted
        # after the first cancelled one may have run.
        assert statuses == [JobStatus.CANCELLED] * len(jobs)
        with QuantumProvider(store_path=store_path) as resumed:
            stored = {r.job_id: r.status for r in resumed.store.jobs()}
            assert [stored[job.job_id] for job in jobs] == \
                ["cancelled"] * len(jobs)
            # Cancelled jobs are terminal: not pending, never resumed.
            pending_ids = {r.job_id for r in resumed.store.pending()}
            assert not pending_ids & {job.job_id for job in jobs}

    def test_graceful_shutdown_still_drains(self):
        provider = QuantumProvider(job_workers=1)
        backend = provider.simulator(linear_device(4, seed=0))
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        jobs = [backend.run(qc, shots=64, seed=i) for i in range(3)]
        provider.shutdown(wait=True)
        assert all(job.status() is JobStatus.DONE for job in jobs)
