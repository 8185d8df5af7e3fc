"""Timing-precision tests for ALAP scheduling and duration accounting."""

import pytest

from repro.circuits import QuantumCircuit
from repro.sim.executor import program_duration, timed_intervals
from repro.transpiler import schedule_alap

DUR = {"x": 10.0, "sx": 10.0, "rz": 0.0, "cx": 100.0, "measure": 50.0}


class TestAlapDelayPlacement:
    def test_gap_duration_exact(self):
        # q1 idles between its two CX interactions while q0 runs 3 X.
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.x(0).x(0).x(0)
        qc.cx(0, 1)
        scheduled = schedule_alap(qc, DUR)
        delays = [i for i in scheduled if i.name == "delay"]
        assert len(delays) == 1
        assert delays[0].qubits == (1,)
        assert delays[0].params[0] == pytest.approx(30.0)

    def test_makespan_unchanged_by_scheduling(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.x(0).x(0)
        qc.cx(0, 1)
        before = program_duration(qc, DUR)
        after = program_duration(schedule_alap(qc, DUR), DUR)
        assert after == pytest.approx(before)

    def test_no_leading_delays(self):
        """Qubits waiting in |0> before their first gate get no delay."""
        qc = QuantumCircuit(2)
        qc.x(0).x(0).x(0)
        qc.cx(0, 1)
        scheduled = schedule_alap(qc, DUR)
        assert scheduled.count_ops().get("delay", 0) == 0

    def test_rz_is_free(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).x(0)
        assert program_duration(qc, DUR) == pytest.approx(10.0)


class TestTimedIntervals:
    def test_alap_end_alignment_across_qubits(self):
        qc = QuantumCircuit(2)
        qc.x(0).x(0).x(1)
        iv = timed_intervals(qc, DUR, mode="alap")
        # Both final gates end at time-from-end 0.
        assert iv[1][0] == pytest.approx(0.0)
        assert iv[2][0] == pytest.approx(0.0)

    def test_asap_measure_duration(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        iv = timed_intervals(qc, DUR, mode="asap")
        assert iv[1] == (10.0, 60.0)

    def test_program_duration_max_over_qubits(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        qc.cx(0, 1)
        qc.x(1)
        assert program_duration(qc, DUR) == pytest.approx(120.0)

    def test_program_duration_prices_delay_by_param(self):
        """Regression: delays were billed at the 35 ns fallback instead of
        their actual duration, so ALAP/ASAP estimates disagreed with the
        timed_intervals schedule used for crosstalk overlap."""
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.delay(0, 500.0)
        qc.x(0)
        assert program_duration(qc, DUR) == pytest.approx(520.0)

    def test_program_duration_agrees_with_timed_intervals(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.delay(0, 321.0)
        qc.barrier()
        qc.x(1)
        # Hand-computed: cx 0-100, delay 100-421, barrier free, x 421-431.
        assert program_duration(qc, DUR) == pytest.approx(431.0)
        makespan = max(e for _, e in timed_intervals(qc, DUR, mode="asap"))
        assert makespan == pytest.approx(431.0)

    def test_program_duration_barrier_free(self):
        qc = QuantumCircuit(2)
        qc.x(0).barrier().x(0)
        assert program_duration(qc, DUR) == pytest.approx(20.0)

    def test_barrier_takes_no_time(self):
        qc = QuantumCircuit(2)
        qc.x(0).barrier().x(0)
        assert program_duration(qc, DUR) == pytest.approx(20.0)
