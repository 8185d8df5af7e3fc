"""Failure-injection tests: the library must fail loudly and precisely
when inputs are broken, not silently mis-simulate — and, for
*infrastructure* faults (device outages, killed processes), degrade
deterministically instead of failing at all."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.circuits import CircuitError, QuantumCircuit, gate, ghz_circuit
from repro.core import (
    CloudScheduler,
    FaultPlan,
    SubmittedProgram,
    qucp_allocate,
)
from repro.hardware import (
    CouplingMap,
    DeviceFleet,
    generate_calibration,
    linear_device,
)
from repro.service import JobError, QuantumProvider
from repro.sim import KrausChannel, NoiseModel, run_circuit
from repro.sim.executor import Program, run_parallel
from repro.transpiler import Layout, transpile
from repro.workloads import synthesize_traffic, workload


class TestBrokenCircuits:
    def test_gate_arity_mismatch(self):
        qc = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            qc.append(gate("cx"), [0, 1, 2])

    def test_measure_without_clbits(self):
        qc = QuantumCircuit(1, 0)
        with pytest.raises(CircuitError):
            qc.measure(0, 0)

    def test_compose_onto_missing_qubits(self):
        small = QuantumCircuit(2)
        big = ghz_circuit(3)
        with pytest.raises(CircuitError):
            small.compose(big)


class TestBrokenDevices:
    def test_disconnected_partition_unroutable(self, toronto):
        """A partition whose induced graph is disconnected cannot host a
        program needing entanglement across the cut."""
        from repro.transpiler import transpile_for_partition
        import networkx as nx

        qc = ghz_circuit(2).measure_all()
        # Qubits 0 and 26 are far apart: induced subgraph has no edge.
        with pytest.raises((nx.NetworkXNoPath, ValueError,
                            nx.NodeNotFound)):
            transpile_for_partition(qc, toronto, (0, 26))

    def test_calibration_missing_link(self):
        coupling = CouplingMap(3, [(0, 1), (1, 2)])
        cal = generate_calibration(coupling, seed=0)
        with pytest.raises(KeyError):
            cal.cx_error(0, 2)

    def test_program_larger_than_device(self, line5):
        with pytest.raises(RuntimeError):
            qucp_allocate([ghz_circuit(6).measure_all()], line5)


class TestBrokenNoise:
    def test_non_cptp_channel_rejected(self):
        bad = (np.eye(2, dtype=complex) * 1.1,)
        with pytest.raises(ValueError):
            KrausChannel(bad)

    def test_negative_error_rates_harmless(self):
        """Negative calibration entries must not produce negative
        probabilities — channel_for treats them as noiseless."""
        nm = NoiseModel(oneq_error={0: -0.5})
        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        res = run_circuit(qc, noise_model=nm, shots=0)
        assert res.probabilities["1"] == pytest.approx(1.0)

    def test_error_rate_above_one_clipped(self):
        nm = NoiseModel(twoq_error={(0, 1): 5.0})
        qc = ghz_circuit(2).measure_all()
        res = run_circuit(qc, noise_model=nm, shots=0)
        total = sum(res.probabilities.values())
        assert total == pytest.approx(1.0)
        assert all(v >= 0 for v in res.probabilities.values())


class TestBrokenParallelJobs:
    def test_program_with_gate_outside_partition(self, toronto):
        qc = QuantumCircuit(3, 3)
        qc.cx(0, 2)  # local (0, 2) -> physical (0, 2): not a link
        qc.measure_all()
        with pytest.raises(ValueError):
            run_parallel([Program(qc, (0, 1, 2))], toronto)

    def test_zero_shot_run_still_reports_probabilities(self, toronto):
        qc = workload("adder").circuit()
        alloc = qucp_allocate([qc], toronto)
        from repro.core import execute_allocation

        out = execute_allocation(alloc, shots=0)[0]
        assert out.result.counts == {}
        assert sum(out.result.probabilities.values()) == pytest.approx(
            1.0)

    def test_transpile_level_out_of_range(self, line5):
        with pytest.raises(ValueError):
            transpile(ghz_circuit(2), line5.coupling,
                      optimization_level=-1)

    def test_layout_for_wrong_device_size(self, line5):
        qc = ghz_circuit(2)
        bad_layout = Layout({0: 7, 1: 8})  # physical qubits don't exist
        with pytest.raises(Exception):
            transpile(qc, line5.coupling, line5.calibration,
                      initial_layout=bad_layout)


# ----------------------------------------------------------------------
# Infrastructure chaos: deterministic fault injection
# ----------------------------------------------------------------------

def _traffic(n, seed):
    """A small deterministic poisson arrival stream."""
    return synthesize_traffic(n, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="uniform",
                              seed=seed)


class TestDeviceOutageChaos:
    """A committed FaultPlan replays the identical failure sequence."""

    def _fleet(self, toronto, melbourne):
        return DeviceFleet([toronto, melbourne])

    def test_midrun_outage_requeues_and_completes(self, toronto,
                                                  melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        sched = CloudScheduler(self._fleet(toronto, melbourne),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(6, seed=5))
        assert out.outages == 1
        # The outage interrupted an in-flight batch: its programs
        # re-queued and still completed on the surviving device.
        assert out.requeued
        assert not out.rejected
        assert set(out.completion_ns) == set(range(6))
        for member in out.requeued:
            assert member in out.completion_ns

    def test_committed_plan_is_replay_identical(self, toronto,
                                                melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        runs = []
        for _ in range(2):
            sched = CloudScheduler(self._fleet(toronto, melbourne),
                                   fidelity_threshold=1.0,
                                   fault_plan=plan)
            runs.append(sched.schedule(_traffic(6, seed=5)).to_dict())
        assert runs[0] == runs[1]

    def test_recovered_device_rejoins(self, toronto):
        plan = FaultPlan.device_outage(0, start_ns=5e5, duration_ns=1e6)
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        # Sole device died and came back: everything still completes.
        assert out.outages == 1
        assert not out.rejected
        assert set(out.completion_ns) == set(range(4))

    def test_permanent_outage_rejects_with_reasons(self, toronto):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=1.0)
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        # The only device never comes back: nothing can complete, and
        # every program is rejected with a structured reason instead of
        # stranding the queue.
        assert sorted(out.rejected) == [0, 1, 2, 3]
        assert not out.completion_ns
        assert set(out.rejection_reasons) == {0, 1, 2, 3}
        for reason in out.rejection_reasons.values():
            assert "offline" in reason

    def test_overlapping_outages_require_both_recoveries(self, toronto):
        plan = (FaultPlan.device_outage(0, start_ns=4e5, duration_ns=4e6)
                .with_outage(0, start_ns=5e5, duration_ns=1e6))
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        assert out.outages == 2
        assert not out.rejected
        assert set(out.completion_ns) == set(range(4))

    def test_unknown_device_fails_at_construction(self, toronto):
        plan = FaultPlan.device_outage("ibm_nowhere", start_ns=0.0)
        with pytest.raises(ValueError, match="unknown device"):
            CloudScheduler(DeviceFleet(toronto), fault_plan=plan)

    def test_ambiguous_twin_name_fails_at_construction(self):
        twin_a = linear_device(5, seed=1)
        twin_b = linear_device(5, seed=2)
        assert twin_a.name == twin_b.name
        plan = FaultPlan.device_outage(twin_a.name, start_ns=0.0)
        with pytest.raises(ValueError, match="ambiguous"):
            CloudScheduler(DeviceFleet([twin_a, twin_b]),
                           fault_plan=plan)
        # By index the same twin is addressable.
        CloudScheduler(DeviceFleet([twin_a, twin_b]),
                       fault_plan=FaultPlan.device_outage(1, 0.0))

    def test_fault_plan_through_the_facade(self, toronto, melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        prov = QuantumProvider(devices=[toronto, melbourne])
        try:
            backend = prov.fleet_backend(
                ["ibm_toronto", "ibm_melbourne"],
                fidelity_threshold=1.0, fault_plan=plan)
            job = backend.run(_traffic(6, seed=5), shots=32, seed=2)
            result = job.result()
        finally:
            prov.shutdown()
        assert result.schedule.outages == 1
        # Every non-rejected program still produced counts.
        assert not result.metadata.rejected
        assert len(result.programs) == 6
        assert all(sum(p.counts.values()) == 32
                   for p in result.programs)


class TestStructuredRejections:
    def test_partial_rejection_reasons_in_metadata(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [SubmittedProgram(ghz_circuit(2).measure_all()),
                 SubmittedProgram(ghz_circuit(8).measure_all())],
                shots=16, seed=1)
            result = job.result()
        finally:
            prov.shutdown()
        assert result.metadata.rejected == (1,)
        assert result.metadata.rejection_reasons == (
            (1, "circuit fits no device coupling map in the fleet"),)
        # The JSON payload carries them too.
        payload = result.to_dict()
        assert payload["metadata"]["rejection_reasons"] == {
            "1": "circuit fits no device coupling map in the fleet"}

    def test_total_rejection_is_a_typed_job_error(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [ghz_circuit(8).measure_all()], shots=16, seed=1)
            with pytest.raises(JobError) as info:
                job.result()
        finally:
            prov.shutdown()
        assert info.value.job_id == job.job_id
        assert set(info.value.reasons) == {0}
        assert "program 0" in str(info.value)


class TestCompileFaultChaos:
    """A compile that crashes fails its own job, never the provider:
    the next job on the same backend completes."""

    def test_failed_compile_fails_only_its_job(self, line5):
        def crashing(circuit, device, allocation):
            raise RuntimeError("compiler crashed")

        prov = QuantumProvider(devices=[line5])
        try:
            backend = prov.backend(line5)
            bad = backend.run([ghz_circuit(2).measure_all()] * 3,
                              shots=16, seed=1, transpiler_fn=crashing)
            with pytest.raises(RuntimeError, match="compiler crashed"):
                bad.result()
            good = backend.run([ghz_circuit(2).measure_all()] * 3,
                               shots=16, seed=1)
            assert len(good.result().programs) == 3
        finally:
            prov.shutdown()


class TestKillAndResume:
    """Kill a provider mid-flight; a fresh one on the same store must
    re-serve finished results bit-identically and drive interrupted
    jobs to DONE."""

    CHILD = textwrap.dedent("""
        import json, os, sys, threading

        from repro.circuits import ghz_circuit
        from repro.hardware import linear_device
        from repro.service import QuantumProvider

        store, out_path = sys.argv[1], sys.argv[2]
        dev = linear_device(5, seed=7)
        prov = QuantumProvider(devices=[dev], store_path=store)
        sim = prov.simulator(dev)

        job1 = sim.run([ghz_circuit(2).measure_all()] * 2, shots=64,
                       seed=3)
        payload = job1.result().to_dict()

        # Occupy the single job worker so the next submission stays
        # QUEUED, then die without any shutdown.
        blocker = prov._submit_job(
            sim, lambda job_id: threading.Event().wait(60))
        job2 = sim.run([ghz_circuit(3).measure_all()], shots=32, seed=4)

        with open(out_path, "w") as fh:
            json.dump({"job1": job1.job_id, "payload": payload,
                       "blocker": blocker.job_id,
                       "job2": job2.job_id}, fh)
        os._exit(1)
    """)

    @staticmethod
    def _record_statements(prov):
        """Every statement *prov*'s store runs on its file, in order."""
        db = prov.store._db
        execute = db.execute
        statements = []

        def recording(statement, params=()):
            statements.append((statement, params))
            return execute(statement, params)

        db.execute = recording
        return statements

    @staticmethod
    def _resume_every_cut(tmp_path, statements, start, job_id, counts):
        """Replay *statements* up to each cut after *start* into a fresh
        store: a provider reopened on it drives *job_id* to DONE with
        *counts*."""
        from repro.service import JobStatus, JobStore

        for k in range(start + 1, len(statements) + 1):
            path = str(tmp_path / f"prefix-{k}.sqlite")
            with JobStore(path) as replay:
                for statement, params in statements[:k]:
                    assert replay._db.execute(statement,
                                              params) is not None
            resumed = QuantumProvider(devices=[linear_device(5, seed=7)],
                                      store_path=path)
            try:
                again = resumed.job(job_id)
                cut = statements[k - 1][0]
                assert again.wait(timeout=120) is JobStatus.DONE, cut
                result = again.result()
                assert [result.counts(i) for i in range(2)] == counts, cut
            finally:
                resumed.shutdown()

    def test_every_write_boundary_resumes(self, tmp_path):
        """Cut one job's store writes after any statement: a provider
        reopened on that prefix drives the job to DONE with the
        original counts (never to a finished-but-failed job)."""
        dev = linear_device(5, seed=7)
        prov = QuantumProvider(devices=[dev],
                               store_path=str(tmp_path / "jobs.sqlite"))
        writes = self._record_statements(prov)
        try:
            job = prov.simulator(dev).run(
                [ghz_circuit(2).measure_all()] * 2, shots=64, seed=3)
            counts = [job.result().counts(i) for i in range(2)]
        finally:
            prov.shutdown()
        assert writes
        self._resume_every_cut(tmp_path, writes, 0, job.job_id, counts)

    def test_every_write_boundary_of_a_referencing_job_resumes(
            self, tmp_path):
        """Job 1 stores the device; cut job 2, whose spec references
        that row, after any of its statements: a provider reopened on
        that prefix drives job 2 to DONE with the original counts."""
        from repro.service.store import _SpecUnpickler

        dev = linear_device(5, seed=7)
        prov = QuantumProvider(devices=[dev],
                               store_path=str(tmp_path / "jobs.sqlite"))
        writes = self._record_statements(prov)
        try:
            sim = prov.simulator(dev)
            sim.run([ghz_circuit(3).measure_all()], shots=32,
                    seed=2).result()
            first = len(writes)
            job = sim.run([ghz_circuit(2).measure_all()] * 2, shots=64,
                          seed=3)
            counts = [job.result().counts(i) for i in range(2)]
        finally:
            prov.shutdown()
        own = writes[first:]
        assert any("INTO devices" in s for s, _ in writes[:first])
        assert not any("INTO devices" in s for s, _ in own)
        spec = own[0][1][5]  # the jobs insert's spec parameter
        assert _SpecUnpickler.device.__qualname__.encode() in spec
        self._resume_every_cut(tmp_path, writes, first, job.job_id,
                               counts)

    def test_kill_and_resume(self, tmp_path):
        from repro.service import JobStatus, JobStore

        store = str(tmp_path / "jobs.sqlite")
        out_path = str(tmp_path / "child.json")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, store, out_path],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        with open(out_path) as fh:
            child = json.load(fh)

        # The store witnessed the crash: job2 still queued.
        with JobStore(store) as audit:
            assert audit.get(child["job1"]).status == "done"
            assert audit.get(child["job2"]).status == "queued"

        prov = QuantumProvider(devices=[linear_device(5, seed=7)],
                               store_path=store)
        try:
            # Finished work re-serves bit-identically.
            job1 = prov.job(child["job1"])
            assert job1.status() is JobStatus.DONE
            assert job1.result().to_dict() == child["payload"]

            # The interrupted replayable job is driven to DONE.
            job2 = prov.job(child["job2"])
            result = job2.result(timeout=240)
            assert job2.status() is JobStatus.DONE
            assert result.metadata.job_id == child["job2"]
            assert sum(result.counts(0).values()) == 32
            assert prov.store.get(child["job2"]).status == "done"

            # The non-replayable blocker surfaces as a structured error.
            blocker = prov.job(child["blocker"])
            assert blocker.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="replayable"):
                blocker.result()
        finally:
            prov.shutdown()
