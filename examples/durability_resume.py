"""Durability and fault tolerance: kill the provider, keep the jobs.

The service facade persists every submission, status transition, and
completed result into a SQLite job store (``store_path=`` /
``REPRO_JOB_STORE``), so the provider process is disposable:

Part 1 runs two jobs on one backend with a store attached (the first
job's replay spec carries the device, which the store then keeps in
one row; the second spec references that row), throws the provider
away, and shows a *fresh* provider on the same store re-serving the
completed result bit-identically — served from the store on demand,
with no handle rebuilt at restart — then simulates a crash (both jobs
killed while RUNNING) and shows the restart re-queueing them from their
stored replay specs and driving them to DONE.

Part 2 injects a deterministic device outage into a two-device fleet
with a committed :class:`~repro.core.FaultPlan`: the dead device's
in-flight batch re-queues to the survivor, everything still completes,
and — because the plan is pure data — a second run replays the
identical schedule.

Part 3 shows the :class:`~repro.service.RetryPolicy`'s deterministic
backoff schedule (same job id, same delays, every run).

Writes a summary to ``CHAOS_resume.json`` (uploaded as a CI artifact
by the chaos job).

Run:  python examples/durability_resume.py
"""

import json
import os
import tempfile

import repro
from repro.circuits import ghz_circuit
from repro.core import FaultPlan
from repro.service import JobStore, QuantumProvider, RetryPolicy
from repro.workloads import synthesize_traffic

FAST = bool(os.environ.get("REPRO_FAST"))


def run(store_path: str) -> None:
    summary = {}
    shots = 256 if FAST else 1024

    # ------------------------------------------------------------------
    print("=== Part 1: durable jobs survive the provider ===\n")
    provider = repro.provider(store_path=store_path)
    backend = provider.simulator("ibm_toronto")
    circuits = [ghz_circuit(3).measure_all()] * (2 if FAST else 4)
    job = backend.run(circuits, shots=shots, seed=7)
    payload = job.result().to_dict()
    job_id = job.job_id
    print(f"ran {job_id} ({len(circuits)} programs, {shots} shots) "
          f"with store {store_path}")
    trail = [t.status for t in provider.store.transitions(job_id)]
    print(f"stored audit trail: {' -> '.join(trail)}")
    second = backend.run(circuits[:1], shots=shots, seed=8)
    payloads = {job_id: payload, second.job_id: second.result().to_dict()}
    sizes = [len(provider.store.get(jid).spec) for jid in payloads]
    print(f"replay specs: {sizes[0]} B for {job_id} (device inline), "
          f"{sizes[1]} B for {second.job_id} (device stored once, "
          "referenced)")
    summary["spec_bytes"] = sizes
    provider.shutdown()
    print("provider shut down (the process could die here)\n")

    restarted = QuantumProvider(store_path=store_path)
    # Finished jobs stay in the store: the restart rebuilds no handle
    # until job() asks for one.
    summary["restarted_handles"] = len(restarted.jobs())
    print(f"fresh provider holds {summary['restarted_handles']} handles "
          "before job() is called")
    rehydrated = restarted.job(job_id).result().to_dict()
    identical = rehydrated == payload
    print(f"fresh provider re-serves {job_id}: "
          f"bit-identical = {identical}")
    summary["rehydrated_identical"] = identical
    restarted.shutdown()

    # Simulate a crash: rewind the stored statuses to RUNNING, as if the
    # process had been killed mid-attempt.
    with JobStore(store_path) as store:
        for jid in payloads:
            store.record_transition(jid, "running", attempt=1)
    print(f"simulated crash: {', '.join(payloads)} marked RUNNING in "
          "the store")
    resumed_provider = QuantumProvider(store_path=store_path)
    statuses, identical = [], []
    for jid, original in payloads.items():
        resumed = resumed_provider.job(jid)
        replayed = resumed.result().to_dict()
        statuses.append(resumed.status().value)
        identical.append(replayed["programs"] == original["programs"])
        print(f"restart re-queued {jid} from its replay spec: "
              f"status={statuses[-1]}, programs identical = "
              f"{identical[-1]}")
    summary["resumed_status"] = statuses
    summary["resumed_programs_identical"] = all(identical)
    resumed_provider.shutdown()

    # ------------------------------------------------------------------
    print("\n=== Part 2: a committed device outage, replayed ===\n")
    plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                   duration_ns=2e6)
    traffic = synthesize_traffic(4 if FAST else 8, pattern="poisson",
                                 mean_interarrival_ns=2e5,
                                 mix="uniform", seed=5)
    schedules = []
    for attempt in range(2):
        prov = QuantumProvider()
        fleet = prov.fleet_backend(["ibm_toronto", "ibm_melbourne"],
                                   fidelity_threshold=1.0,
                                   fault_plan=plan)
        result = fleet.run(traffic, shots=shots, seed=2).result()
        schedules.append(result.to_dict()["schedule"])
        prov.shutdown()
    sched = schedules[0]
    print(f"outage at t=0.5ms for 2ms on ibm_toronto: "
          f"{sched['outages']} outage(s), re-queued programs "
          f"{sched['requeued']}, {len(traffic)} submissions, "
          f"{len(sched['completion_ns'])} completed")
    replay_identical = schedules[0] == schedules[1]
    print(f"second run replays the identical schedule: "
          f"{replay_identical}")
    summary["outages"] = sched["outages"]
    summary["requeued"] = sched["requeued"]
    summary["completed"] = len(sched["completion_ns"])
    summary["replay_identical"] = replay_identical

    # ------------------------------------------------------------------
    print("\n=== Part 3: deterministic retry backoff ===\n")
    policy = RetryPolicy(max_attempts=4, backoff_s=0.05, jitter=0.1,
                         seed=0)
    delays = [policy.delay_s(job_id, k) for k in (1, 2, 3)]
    print(f"retry delays for {job_id}: "
          + ", ".join(f"{d * 1e3:.1f}ms" for d in delays)
          + "  (same every run — chaos tests assert exact traces)")
    summary["retry_delays_s"] = delays

    out = os.path.join(os.getcwd(), "CHAOS_resume.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"\nwrote {out}")

    ok = (summary["rehydrated_identical"]
          and summary["restarted_handles"] == 0
          and summary["spec_bytes"][1] < summary["spec_bytes"][0]
          and summary["resumed_status"] == ["done", "done"]
          and summary["resumed_programs_identical"]
          and summary["replay_identical"]
          and summary["completed"] == len(traffic))
    print("durability demo:", "OK" if ok else "FAILED")
    if not ok:
        raise SystemExit(1)


def main() -> None:
    # The job store lives only as long as the demo: every provider on it
    # has shut down when run() returns or raises.
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as workdir:
        run(os.path.join(workdir, "jobs.sqlite"))


if __name__ == "__main__":
    main()
