"""Retry and timeout policy for provider jobs.

A :class:`RetryPolicy` makes transient infrastructure failures (a wedged
store, an injected chaos fault) survivable without making deterministic
failures (a rejected program, a broken circuit) slow: the policy re-runs
a failed attempt with exponential backoff and a **seeded, per-job
deterministic jitter** — two runs of the same job id under the same
policy sleep the same schedule, so chaos tests assert exact retry traces
— while exceptions on the ``non_retryable`` list (a
:class:`~repro.service.JobError` by default) propagate immediately.

Per-attempt timeouts run the attempt on a daemon thread: the simulation
kernels hold no cancellation points, so a timed-out attempt is
*abandoned* (left to finish in the background) rather than interrupted,
and the job moves on to its next attempt or fails with
:class:`JobTimeoutError`.

Abandoned attempts are **fenced**: each timed attempt carries an
:class:`AttemptFence` token in its thread's local storage, and the
fence is marked abandoned the instant the timeout fires.  Shared sinks
(the provider wires :func:`publication_allowed` into the
:class:`~repro.core.ExecutionCache`'s write gate) consult it before
accepting a write, so a superseded attempt that keeps simulating in the
background can no longer publish stale artifacts into state the live
attempt — or any other job — reads.  The fence is thread-local by
design, and every compile runs, and publishes, on the attempt thread
itself, so none of an abandoned attempt's compile writes escape it.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

import numpy as np

from .job import JobError

__all__ = ["RetryPolicy", "JobTimeoutError", "AttemptFence",
           "current_fence", "publication_allowed"]


class AttemptFence:
    """Publication token of one timed attempt.

    Created per attempt by :meth:`RetryPolicy.run_attempt`, installed in
    the attempt thread's local storage, and flipped to ``abandoned``
    when the timeout fires.  A single monotonic flag — readable without
    locking from any thread the attempt runs code on.
    """

    __slots__ = ("job_id", "attempt", "abandoned")

    def __init__(self, job_id: str, attempt: int) -> None:
        self.job_id = job_id
        self.attempt = attempt
        self.abandoned = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "abandoned" if self.abandoned else "live"
        return f"<AttemptFence {self.job_id}#{self.attempt} {state}>"


_FENCE = threading.local()


def current_fence() -> Optional[AttemptFence]:
    """The fence of the attempt running on this thread, if any."""
    return getattr(_FENCE, "fence", None)


def publication_allowed() -> bool:
    """Whether this thread may publish into shared state.

    ``True`` on any thread not running a fenced attempt (the common
    case — unfenced work is never superseded), ``False`` once this
    thread's attempt has been abandoned by its timeout.
    """
    fence = current_fence()
    return fence is None or not fence.abandoned


class JobTimeoutError(TimeoutError):
    """An attempt exceeded the policy's per-attempt timeout."""

    def __init__(self, job_id: str, attempt: int,
                 timeout_s: float) -> None:
        super().__init__(
            f"job {job_id} attempt {attempt} exceeded "
            f"{timeout_s:g}s attempt timeout")
        self.job_id = job_id
        self.attempt = attempt
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how spaced, and how long each attempt may run.

    The default policy (3 attempts, 50 ms base backoff doubling per
    retry, ±10% deterministic jitter, no attempt timeout) retries
    infrastructure errors twice before surfacing them.  A
    ``RetryPolicy(max_attempts=1)`` disables retries entirely.
    """

    #: Total attempts (first try included); must be >= 1.
    max_attempts: int = 3
    #: Sleep before retry *k* (1-based): ``backoff_s * factor**(k-1)``,
    #: capped at ``max_backoff_s``, then jittered.
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    #: Jitter fraction: the delay is scaled by a deterministic factor
    #: drawn from [1 - jitter, 1 + jitter], seeded by (seed, job id,
    #: attempt) — spread in a fleet, reproducible in a test.
    jitter: float = 0.1
    seed: int = 0
    #: Seconds one attempt may run; ``None`` = unbounded.
    attempt_timeout_s: Optional[float] = None
    #: Exception types that fail immediately (deterministic failures:
    #: retrying them would re-compute the same error, slower).
    non_retryable: Tuple[Type[BaseException], ...] = field(
        default=(JobError,))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if (self.attempt_timeout_s is not None
                and self.attempt_timeout_s <= 0):
            raise ValueError("attempt_timeout_s must be positive")

    # ------------------------------------------------------------------
    def retries(self, exc: BaseException) -> bool:
        """Whether *exc* is worth another attempt."""
        return not isinstance(exc, tuple(self.non_retryable))

    def delay_s(self, job_id: str, attempt: int) -> float:
        """Deterministic backoff before retry *attempt* (1-based: the
        delay slept after attempt *attempt* failed)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.backoff_s * self.backoff_factor ** (attempt - 1),
                   self.max_backoff_s)
        if self.jitter == 0 or base == 0:
            return float(base)
        rng = np.random.default_rng(
            [self.seed, zlib.crc32(job_id.encode("utf-8")), attempt])
        scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return float(base * scale)

    def run_attempt(self, fn: Callable[[], object], job_id: str,
                    attempt: int) -> object:
        """Run one attempt, bounded by ``attempt_timeout_s``.

        Without a timeout the call is inline.  With one, the attempt
        runs on a daemon thread; on timeout it is abandoned (the
        kernels cannot be interrupted) and :class:`JobTimeoutError`
        raises — itself retryable under the policy.  The abandoned
        thread's :class:`AttemptFence` is marked *before* the error
        raises, so by the time the next attempt (or the caller) runs,
        the stale thread can no longer publish into gated shared state.
        """
        if self.attempt_timeout_s is None:
            return fn()
        outcome: dict = {}
        done = threading.Event()
        fence = AttemptFence(job_id, attempt)

        def target() -> None:
            _FENCE.fence = fence
            try:
                outcome["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome["error"] = exc
            finally:
                _FENCE.fence = None
                done.set()

        worker = threading.Thread(
            target=target, name=f"{job_id}-attempt-{attempt}",
            daemon=True)
        worker.start()
        if not done.wait(self.attempt_timeout_s):
            fence.abandoned = True
            raise JobTimeoutError(job_id, attempt, self.attempt_timeout_s)
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]
