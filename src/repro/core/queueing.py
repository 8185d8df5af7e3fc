"""Queueing model: why parallel execution shortens the wait.

The paper's motivation (Sec. I/II): cloud access to quantum chips means
long FIFO queues — "it takes several days to get the result if we submit a
circuit on IBM public quantum chips".  Multi-programming batches k
compatible circuits into one hardware job, dividing both queue length and
total runtime.

This module provides a deterministic FIFO queue simulator over submitted
jobs plus the batching policy, quantifying the "total runtime reduction up
to six times" the paper cites for its 6-copy Manhattan experiments.

It is the *analytic* counterpart of the discrete-event service layer in
:mod:`repro.core.scheduler`: a single-device :class:`~.scheduler.
CloudScheduler` at ``max_batch_size=1`` serves jobs exactly like this
FIFO model (each program its own hardware job, arrival order, one
device), which the scheduler tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

__all__ = ["JobSpec", "QueueReport", "simulate_fifo_queue",
           "batched_speedup"]


@dataclass(frozen=True)
class JobSpec:
    """One submitted hardware job.

    ``execution_ns`` is the on-device time (shots x schedule makespan
    plus per-job overhead); ``arrival_ns`` when it joins the queue.
    """

    execution_ns: float
    arrival_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.execution_ns <= 0:
            raise ValueError("execution time must be positive")
        if self.arrival_ns < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass
class QueueReport:
    """FIFO simulation outcome."""

    completion_ns: Tuple[float, ...]
    waiting_ns: Tuple[float, ...]
    makespan_ns: float
    arrival_ns: Tuple[float, ...] = ()

    @property
    def turnaround_ns(self) -> Tuple[float, ...]:
        """Per-job completion - arrival (waiting + execution)."""
        arrivals = self.arrival_ns or (0.0,) * len(self.completion_ns)
        return tuple(c - a for c, a in zip(self.completion_ns, arrivals))

    @property
    def mean_turnaround_ns(self) -> float:
        """Average waiting + execution time per job."""
        turnaround = self.turnaround_ns
        return float(sum(turnaround) / len(turnaround))

    @property
    def mean_waiting_ns(self) -> float:
        """Average time spent queued."""
        return float(sum(self.waiting_ns) / len(self.waiting_ns))


def simulate_fifo_queue(jobs: Sequence[JobSpec]) -> QueueReport:
    """Run jobs through a single-device FIFO queue.

    Jobs are served in arrival order (ties keep submission order); the
    device handles one job at a time.
    """
    if not jobs:
        raise ValueError("no jobs submitted")
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i].arrival_ns, i))
    completion = [0.0] * len(jobs)
    waiting = [0.0] * len(jobs)
    device_free = 0.0
    for idx in order:
        job = jobs[idx]
        start = max(device_free, job.arrival_ns)
        waiting[idx] = start - job.arrival_ns
        device_free = start + job.execution_ns
        completion[idx] = device_free
    return QueueReport(tuple(completion), tuple(waiting),
                       makespan_ns=device_free,
                       arrival_ns=tuple(j.arrival_ns for j in jobs))


def batched_speedup(
    num_programs: int,
    batch_size: int,
    execution_ns: float,
    batch_overhead: float = 0.0,
) -> Dict[str, float]:
    """Serial vs multiprogrammed turnaround for a homogeneous workload.

    *num_programs* identical programs, each a job of *execution_ns* when
    run alone.  Multiprogramming packs *batch_size* programs per job; a
    batched job runs for ``execution_ns * (1 + batch_overhead)`` (ALAP
    alignment means the batch is as long as its longest member, plus any
    compilation/loading overhead).

    Returns makespans and the runtime-reduction factor.
    """
    if num_programs <= 0 or batch_size <= 0:
        raise ValueError("counts must be positive")
    serial = simulate_fifo_queue(
        [JobSpec(execution_ns) for _ in range(num_programs)])
    num_batches = -(-num_programs // batch_size)  # ceil division
    batched = simulate_fifo_queue(
        [JobSpec(execution_ns * (1.0 + batch_overhead))
         for _ in range(num_batches)])
    return {
        "serial_makespan_ns": serial.makespan_ns,
        "batched_makespan_ns": batched.makespan_ns,
        "serial_mean_turnaround_ns": serial.mean_turnaround_ns,
        "batched_mean_turnaround_ns": batched.mean_turnaround_ns,
        "runtime_reduction": serial.makespan_ns / batched.makespan_ns,
    }
