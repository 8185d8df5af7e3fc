"""Asynchronous job handles over the provider's job pool.

A :class:`Job` is the facade's unit of work: a stable id, a lifecycle
(:class:`JobStatus`), and a blocking :meth:`Job.result` — the same shape
cloud provider SDKs expose, so code written against this API ports to a
real service by swapping the provider.  Jobs are created by backends
(never directly) and run on the owning provider's thread pool, so
``backend.run(...)`` returns immediately and the caller overlaps its own
work — or more submissions — with execution.

A :class:`JobSet` aggregates handles from iterative workloads (a VQE
scan's per-point jobs, a sweep's per-configuration jobs) behind the
same status/result/cancel surface.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import (TYPE_CHECKING, Callable, Iterator, List, Mapping,
                    Optional, Sequence, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .backend import BaseBackend
    from .result import Result

__all__ = ["JobStatus", "JobError", "Job", "JobSet"]


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    #: Between attempts under a :class:`~repro.service.RetryPolicy`:
    #: the last attempt failed and the job is backing off before the
    #: next one.  Not final — the job returns to RUNNING.
    RETRYING = "retrying"
    DONE = "done"
    CANCELLED = "cancelled"
    ERROR = "error"
    #: Refused by admission control to protect an overloaded service
    #: (backpressure or an unmeetable deadline).  Terminal: the work
    #: never entered the queue, and a restart must not re-queue it.
    SHED = "shed"
    #: Refused by admission control as the caller's fault (no quota, or
    #: the user's token bucket was empty).  Terminal, like SHED.
    REJECTED = "rejected"

    @property
    def is_final(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobStatus.DONE, JobStatus.CANCELLED,
                        JobStatus.ERROR, JobStatus.SHED,
                        JobStatus.REJECTED)


class JobError(RuntimeError):
    """Structured job failure: what failed, and why, per program.

    Raised (and surfaced through :meth:`Job.result`) when a job cannot
    produce any result — most prominently when the scheduler rejected
    *every* submission.  ``reasons`` maps submission index to the
    rejection reason; partial rejections do **not** raise (the job
    completes and lists them in ``Result.metadata.rejected`` /
    ``rejection_reasons``).

    Deterministic by construction, so it is non-retryable under the
    default :class:`~repro.service.RetryPolicy`.
    """

    def __init__(self, message: str, job_id: str = "",
                 reasons: Optional[Mapping[int, str]] = None) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.reasons = dict(reasons or {})

    def __str__(self) -> str:
        base = super().__str__()
        if not self.reasons:
            return base
        detail = "; ".join(f"program {i}: {reason}" for i, reason
                           in sorted(self.reasons.items()))
        return f"{base} ({detail})"


class _JobState:
    """Mutable run state shared between a job handle and the pool task.

    The retry wrapper updates it from inside the worker; the handle's
    :meth:`Job.status` reads it without locking (single-writer,
    monotonic fields — a torn read returns an adjacent state, never an
    invalid one).
    """

    __slots__ = ("attempts", "retrying", "last_error")

    def __init__(self) -> None:
        self.attempts = 0
        self.retrying = False
        self.last_error: Optional[BaseException] = None


class Job:
    """Handle of one asynchronous submission.

    Created by a backend's ``run`` method; the underlying work executes
    on the provider's job pool.  ``job_id`` is stable for the provider's
    lifetime and resolvable back through
    :meth:`~repro.service.QuantumProvider.job`.
    """

    def __init__(self, job_id: str, backend: "Union[BaseBackend, str]",
                 future: "Future[Result]",
                 state: Optional[_JobState] = None,
                 on_cancel: Optional[Callable[[], None]] = None,
                 final_status: Optional[JobStatus] = None) -> None:
        self._job_id = job_id
        self._backend = backend
        self._future = future
        self._state = state or _JobState()
        self._on_cancel = on_cancel
        # Terminal-state refinement for rehydrated handles: a stored
        # SHED/REJECTED job resolves to an exception future, but its
        # reported status should stay the stored refusal, not ERROR.
        self._final_status = final_status

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        """Stable provider-scoped identifier."""
        return self._job_id

    @property
    def backend(self) -> "Union[BaseBackend, str]":
        """The backend this job was submitted to (its name, for jobs
        rehydrated from a store after a restart)."""
        return self._backend

    @property
    def attempts(self) -> int:
        """Attempts started so far (1 for a job that never retried)."""
        return max(1, self._state.attempts)

    # ------------------------------------------------------------------
    def status(self) -> JobStatus:
        """Current lifecycle state (non-blocking)."""
        fut = self._future
        if fut.cancelled():
            return JobStatus.CANCELLED
        if fut.done():
            if self._final_status is not None:
                return self._final_status
            return (JobStatus.ERROR if fut.exception() is not None
                    else JobStatus.DONE)
        # The retry wrapper runs *inside* the pool task, so the future
        # stays RUNNING through backoff sleeps — the shared state is
        # what distinguishes an attempt from the gap between attempts.
        if self._state.retrying:
            return JobStatus.RETRYING
        if fut.running():
            return JobStatus.RUNNING
        return JobStatus.QUEUED

    def done(self) -> bool:
        """Whether the job reached a final state."""
        return self.status().is_final

    def cancel(self) -> bool:
        """Cancel if still queued; returns whether it worked.

        A job already running on the pool cannot be interrupted (the
        simulation kernels hold no cancellation points); it runs to
        completion and reports DONE.
        """
        cancelled = self._future.cancel()
        if cancelled and self._on_cancel is not None:
            self._on_cancel()
        return cancelled

    def result(self, timeout: Optional[float] = None) -> "Result":
        """Block until the job finishes and return its :class:`Result`.

        Re-raises the job's error if it failed, :class:`concurrent.
        futures.CancelledError` if it was cancelled, and
        :class:`TimeoutError` if *timeout* (seconds) elapses first.
        """
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """The job's error, or ``None`` once it succeeded (blocking)."""
        return self._future.exception(timeout)

    def wait(self, timeout: Optional[float] = None) -> JobStatus:
        """Block until the job is final (or *timeout* elapses); returns
        the current status either way — never raises."""
        try:
            self._future.exception(timeout)
        except (CancelledError, FuturesTimeoutError, TimeoutError):
            pass
        return self.status()

    def __repr__(self) -> str:
        name = getattr(self._backend, "name", self._backend)
        return (f"<Job {self._job_id} on {name!r}: "
                f"{self.status().value}>")


class JobSet:
    """An ordered group of jobs addressed as one unit.

    Used for sweeps and sessions: ``results()`` blocks for everything,
    ``statuses()`` polls everything, ``cancel()`` cancels whatever has
    not started.  Indexing and iteration yield the member jobs in
    submission order.
    """

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        self._jobs: List[Job] = list(jobs)

    def add(self, job: Job) -> None:
        """Append one more handle (sessions grow their set per run)."""
        self._jobs.append(job)

    @property
    def jobs(self) -> List[Job]:
        """The member handles, in submission order."""
        return list(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> Job:
        return self._jobs[index]

    # ------------------------------------------------------------------
    def statuses(self) -> List[JobStatus]:
        """Current state of every member (non-blocking)."""
        return [job.status() for job in self._jobs]

    def done(self) -> bool:
        """Whether every member reached a final state."""
        return all(job.done() for job in self._jobs)

    def cancel(self) -> List[bool]:
        """Try to cancel every member; per-job success flags."""
        return [job.cancel() for job in self._jobs]

    @staticmethod
    def _deadline_steps(timeout: Optional[float]):
        """Per-member timeouts sharing one overall deadline.

        *timeout* bounds the whole call, not each member — a set of 20
        queued jobs with ``timeout=10`` blocks ~10 s total, not 200.
        """
        if timeout is None:
            while True:
                yield None
        deadline = time.monotonic() + timeout
        while True:
            yield max(0.0, deadline - time.monotonic())

    def results(self, timeout: Optional[float] = None,
                return_exceptions: bool = False
                ) -> "List[Union[Result, BaseException]]":
        """Block for every member's result, in submission order.

        *timeout* (seconds) bounds the whole call; ``TimeoutError`` if
        it elapses before every member finished.

        With ``return_exceptions=True`` a failed (or cancelled, or
        timed-out) member contributes its exception at its position
        instead of aborting the whole call — one ERROR member no longer
        forfeits the results of the ones after it.
        """
        steps = self._deadline_steps(timeout)
        if not return_exceptions:
            return [job.result(step)
                    for job, step in zip(self._jobs, steps)]
        collected: "List[Union[Result, BaseException]]" = []
        for job, step in zip(self._jobs, steps):
            try:
                collected.append(job.result(step))
            except (CancelledError, Exception) as exc:  # noqa: B014
                collected.append(exc)
        return collected

    def wait(self, timeout: Optional[float] = None) -> List[JobStatus]:
        """Block until every member is final (or the overall *timeout*
        elapses); returns the states."""
        steps = self._deadline_steps(timeout)
        return [job.wait(step) for job, step in zip(self._jobs, steps)]

    def __repr__(self) -> str:
        states = ", ".join(s.value for s in self.statuses())
        return f"<JobSet of {len(self._jobs)}: [{states}]>"
