"""Multi-tenant admission control: quotas, backpressure, load shedding.

The scheduler (:class:`~repro.core.CloudScheduler`) is closed-loop: it
serves whatever it is given, however overloaded.  This module is the
open-loop guard in front of it — the component that decides, *per
submission*, whether work enters the system at all:

- **Per-user token buckets** (:class:`UserQuota`): each user gets a
  sustained rate plus a burst allowance; exceeding it raises
  :class:`QuotaExceededError` (``REJECTED`` — the caller's fault, with
  a retry-after hint telling it exactly when the bucket refills).
- **Priority classes**: ``interactive`` / ``batch`` / ``best_effort``
  map onto the scheduler's integer per-user priorities; combined with
  the scheduler's ``priority_aging_ns`` a sustained interactive flood
  cannot starve best-effort work.
- **Backpressure + deadline shedding**: the controller tracks a
  *virtual* copy of the fleet queue (d servers, per-program service
  times from the measured calibration cost table) and sheds work —
  :class:`OverloadedError`, ``SHED`` — when the estimated backlog
  crosses the policy's depth/wait thresholds or when a submission's
  estimated wait already exceeds its deadline.  Shedding up front is
  the whole point: a deadline the queue cannot meet should cost the
  caller a structured refusal now, not a timeout later.

Everything is clocked by the submission's **virtual arrival time**
(the same nanoseconds the event queue runs on), never the wall clock:
admission is a pure function of the arrival stream, so replaying a
committed traffic trace reproduces the identical accept/shed/reject
partition bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache import MemoryCache, fingerprint
from ..circuits.circuit import QuantumCircuit
from ..core.scheduler import json_safe_num
from ..hardware.fleet import DeviceFleet
from ..sim.executor import program_duration
from .job import JobError

__all__ = [
    "PRIORITY_CLASSES",
    "AdmissionError",
    "QuotaExceededError",
    "OverloadedError",
    "UserQuota",
    "TokenBucket",
    "CostModel",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionController",
]

#: Priority classes and the scheduler per-user priorities they map to.
#: The gaps are deliberately wide so waiting-time aging (one level per
#: ``priority_aging_ns``) takes several intervals — not one tick — to
#: promote best-effort work past interactive work.
PRIORITY_CLASSES: Mapping[str, int] = {
    "interactive": 20,
    "batch": 10,
    "best_effort": 0,
}


class AdmissionError(JobError):
    """A submission refused at the door, with structured context.

    Subclasses :class:`~repro.service.JobError`, so it is deterministic
    and non-retryable under the default retry policy — resubmitting the
    identical request at the identical virtual time refuses again.
    ``retry_after_ns`` (``None`` when retrying cannot help, e.g. no
    quota configured) tells the caller when the refusing condition is
    expected to clear, in virtual nanoseconds.
    """

    #: Terminal store status this refusal maps to.
    status = "rejected"

    def __init__(self, message: str, user: str = "",
                 retry_after_ns: Optional[float] = None,
                 details: Optional[Mapping[str, object]] = None) -> None:
        super().__init__(message)
        self.user = user
        self.retry_after_ns = retry_after_ns
        self.details = dict(details or {})

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload (what the gateway returns to the caller)."""
        return {
            "error": type(self).__name__,
            "status": self.status,
            "message": str(self),
            "user": self.user,
            "retry_after_ns": json_safe_num(self.retry_after_ns),
            "details": dict(self.details),
        }


class QuotaExceededError(AdmissionError):
    """The user's token bucket is empty (or the user has no quota).

    A per-caller refusal — the system has capacity, *this user* asked
    for more than their share.  Stored as ``REJECTED``.
    """

    status = "rejected"


class OverloadedError(AdmissionError):
    """The service shed the submission to protect itself.

    A system-level refusal: backlog past the backpressure thresholds,
    or an estimated wait the submission's deadline cannot absorb.
    Stored as ``SHED``.
    """

    status = "shed"


@dataclass(frozen=True)
class UserQuota:
    """One user's admission contract.

    ``rate_per_s`` is a sustained budget in *programs* per virtual
    second; ``burst`` is the bucket depth (how far above the sustained
    rate a quiet user may spike).  ``priority_class`` names the service
    tier every admitted program is tagged with.
    """

    rate_per_s: float
    burst: int
    priority_class: str = "batch"

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("quota rate must be positive")
        if self.burst < 1:
            raise ValueError("quota burst must be at least 1 program")
        if self.priority_class not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority class {self.priority_class!r}; "
                f"expected one of {sorted(PRIORITY_CLASSES)}")

    @property
    def priority(self) -> int:
        """The scheduler per-user priority for this tier."""
        return PRIORITY_CLASSES[self.priority_class]


class TokenBucket:
    """Deterministic token bucket on the virtual clock.

    Refill is computed lazily from the elapsed virtual time between
    observations — no timers, no wall clock — so a replayed arrival
    stream drains and refills the bucket identically.  Time moving
    backwards (out-of-order probes) contributes zero refill rather
    than raising: the bucket is monotone in the arrival stream.
    """

    def __init__(self, rate_per_s: float, burst: int) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self.tokens = float(burst)
        self._last_ns: Optional[float] = None

    def _refill(self, now_ns: float) -> None:
        if self._last_ns is not None and now_ns > self._last_ns:
            gained = (now_ns - self._last_ns) * self.rate_per_s / 1e9
            self.tokens = min(float(self.burst), self.tokens + gained)
        if self._last_ns is None or now_ns > self._last_ns:
            self._last_ns = now_ns

    def try_take(self, now_ns: float, amount: int = 1
                 ) -> Tuple[bool, Optional[float]]:
        """Take *amount* tokens at virtual time *now_ns*.

        Returns ``(True, None)`` on success, else ``(False,
        retry_after_ns)`` — the virtual delay after which the bucket
        will hold *amount* tokens (``None`` when *amount* exceeds the
        bucket depth and no amount of waiting helps).
        """
        if amount < 1:
            raise ValueError("must take at least one token")
        self._refill(now_ns)
        if amount > self.burst:
            return False, None
        if self.tokens + 1e-9 >= amount:
            self.tokens -= amount
            return True, None
        deficit = amount - self.tokens
        return False, deficit / self.rate_per_s * 1e9


#: LRU bound on :class:`CostModel`'s per-circuit estimate memo (the
#: in-memory cache tables' default bound).
_MEMO_MAX_ENTRIES = 4096


class CostModel:
    """Estimated per-program service time from the measured cost table.

    Uses the same calibration ``gate_duration`` tables and
    :func:`~repro.sim.executor.program_duration` the scheduler prices
    dispatches with, averaged across the fleet — an *estimate* (the
    real batch may co-schedule, and runs on one concrete device), but
    a deterministic one, which is what admission needs.
    """

    def __init__(self, fleet: DeviceFleet,
                 job_overhead_ns: float = 1e6) -> None:
        if not isinstance(fleet, DeviceFleet):
            fleet = DeviceFleet(fleet)
        self.fleet = fleet
        self.job_overhead_ns = float(job_overhead_ns)
        self._durations = [dev.calibration.gate_duration for dev in fleet]
        self._memo = MemoryCache(_MEMO_MAX_ENTRIES)

    def program_ns(self, circuit: QuantumCircuit) -> float:
        """Mean over the fleet of the circuit's measured duration.

        Memoized on the circuit's fingerprint in a bounded LRU table,
        so a circuit mutated after its first estimate is priced afresh,
        no other circuit can ever read its entry, and a long-lived
        gateway pricing fresh-angle circuits holds at most
        ``_MEMO_MAX_ENTRIES`` estimates.
        """
        key = fingerprint(circuit)
        hit = self._memo.get(key)
        if hit is None:
            hit = sum(program_duration(circuit, d)
                      for d in self._durations) / len(self._durations)
            self._memo.put(key, hit)
        return hit

    def job_ns(self, circuits: Sequence[QuantumCircuit]) -> float:
        """Estimated service time of the circuits as one hardware job:
        the fixed per-job overhead plus the longest member."""
        if not circuits:
            raise ValueError("a job has at least one circuit")
        return self.job_overhead_ns + max(self.program_ns(c)
                                          for c in circuits)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Tenant quotas plus the thresholds that trigger shedding.

    *quotas* maps user name to :class:`UserQuota`; *default_quota*
    covers users not listed (``None`` = unknown users are rejected —
    the closed-gateway posture).  ``max_queue_depth`` bounds the
    estimated number of admitted-but-unfinished programs;
    ``max_est_wait_ns`` bounds the estimated queueing delay a new
    submission would see.  Crossing either sheds (``None`` disables
    that threshold).
    """

    quotas: Mapping[str, UserQuota] = field(default_factory=dict)
    default_quota: Optional[UserQuota] = None
    max_queue_depth: Optional[int] = None
    max_est_wait_ns: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "quotas", dict(self.quotas))
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.max_est_wait_ns is not None and self.max_est_wait_ns <= 0:
            raise ValueError("max_est_wait_ns must be positive")

    def quota_for(self, user: str) -> Optional[UserQuota]:
        return self.quotas.get(user, self.default_quota)


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one submission."""

    user: str
    admitted: bool
    #: ``accepted`` | ``shed`` | ``rejected`` — the JobStore status.
    status: str
    reason: str
    priority_class: Optional[str] = None
    #: Scheduler per-user priority (admitted submissions only).
    priority: Optional[int] = None
    #: Estimated queueing delay the submission faces (admitted) or
    #: would have faced (refused).
    est_wait_ns: float = 0.0
    retry_after_ns: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "user": self.user,
            "admitted": bool(self.admitted),
            "status": self.status,
            "reason": self.reason,
            "priority_class": self.priority_class,
            "priority": (None if self.priority is None
                         else int(self.priority)),
            "est_wait_ns": float(self.est_wait_ns),
            "retry_after_ns": json_safe_num(self.retry_after_ns),
        }

    def error(self) -> Optional[AdmissionError]:
        """The typed error this refusal raises (``None`` if admitted)."""
        if self.admitted:
            return None
        cls = OverloadedError if self.status == "shed" else QuotaExceededError
        return cls(self.reason, user=self.user,
                   retry_after_ns=self.retry_after_ns,
                   details={"est_wait_ns": float(self.est_wait_ns),
                            "priority_class": self.priority_class})


class AdmissionController:
    """Stateful admission gate over one fleet.

    Holds the per-user token buckets and a virtual d-server mirror of
    the fleet queue (a heap of device-available times, advanced by the
    cost model's service estimates).  All state changes happen in
    :meth:`decide`, keyed only by the submission stream — replaying a
    trace replays the decisions.
    """

    def __init__(self, policy: AdmissionPolicy, cost_model: CostModel
                 ) -> None:
        self.policy = policy
        self.cost = cost_model
        self._buckets: Dict[str, TokenBucket] = {}
        # Virtual servers: one entry per fleet device, holding the
        # time it is estimated to free up.
        self._avail: List[float] = [0.0] * len(cost_model.fleet)
        heapq.heapify(self._avail)
        # Estimated completion times of admitted programs (pruned
        # lazily) — the backpressure queue-depth signal.
        self._backlog: List[float] = []
        self.counters: Dict[str, Dict[str, int]] = {
            cls: {"accepted": 0, "shed": 0, "rejected": 0}
            for cls in PRIORITY_CLASSES}

    # ------------------------------------------------------------------
    def _bucket(self, user: str, quota: UserQuota) -> TokenBucket:
        bucket = self._buckets.get(user)
        if bucket is None:
            bucket = TokenBucket(quota.rate_per_s, quota.burst)
            self._buckets[user] = bucket
        return bucket

    def _queue_depth(self, now_ns: float) -> int:
        self._backlog = [t for t in self._backlog if t > now_ns]
        return len(self._backlog)

    def est_wait_ns(self, now_ns: float) -> float:
        """Estimated delay before a new submission starts service."""
        return max(0.0, self._avail[0] - now_ns)

    def _count(self, priority_class: Optional[str], status: str) -> None:
        if priority_class is not None:
            self.counters[priority_class][status] += 1

    # ------------------------------------------------------------------
    def decide(self, user: str, circuits: Sequence[QuantumCircuit],
               arrival_ns: float,
               deadline_ns: Optional[float] = None) -> AdmissionDecision:
        """Admit or refuse one submission at virtual time *arrival_ns*.

        *deadline_ns* is relative to arrival: the caller's bound on
        queueing delay + service time.  Never raises — the gateway
        turns refusals into the typed errors via
        :meth:`AdmissionDecision.error`.
        """
        if not circuits:
            raise ValueError("a submission has at least one circuit")
        if arrival_ns < 0:
            raise ValueError("arrival time must be non-negative")
        quota = self.policy.quota_for(user)
        if quota is None:
            decision = AdmissionDecision(
                user=user, admitted=False, status="rejected",
                reason=f"no quota configured for user {user!r}",
                est_wait_ns=self.est_wait_ns(arrival_ns))
            return decision  # unknown tier: not counted per class
        cls = quota.priority_class

        ok, retry_after = self._bucket(user, quota).try_take(
            arrival_ns, amount=len(circuits))
        if not ok:
            self._count(cls, "rejected")
            return AdmissionDecision(
                user=user, admitted=False, status="rejected",
                reason=(f"quota exceeded: {len(circuits)} program(s) "
                        f"over {user!r}'s rate "
                        f"{quota.rate_per_s:g}/s burst {quota.burst}"
                        if retry_after is not None else
                        f"burst {quota.burst} cannot ever admit "
                        f"{len(circuits)} programs in one submission"),
                priority_class=cls,
                est_wait_ns=self.est_wait_ns(arrival_ns),
                retry_after_ns=retry_after)

        est_wait = self.est_wait_ns(arrival_ns)
        service = self.cost.job_ns(circuits)
        depth = self._queue_depth(arrival_ns)
        limit = self.policy.max_queue_depth
        if limit is not None and depth + len(circuits) > limit:
            self._count(cls, "shed")
            return AdmissionDecision(
                user=user, admitted=False, status="shed",
                reason=(f"backpressure: estimated backlog "
                        f"{depth}+{len(circuits)} programs over the "
                        f"depth limit {limit}"),
                priority_class=cls, est_wait_ns=est_wait,
                retry_after_ns=est_wait + service)
        max_wait = self.policy.max_est_wait_ns
        if max_wait is not None and est_wait > max_wait:
            self._count(cls, "shed")
            return AdmissionDecision(
                user=user, admitted=False, status="shed",
                reason=(f"backpressure: estimated wait "
                        f"{est_wait:.0f} ns over the limit "
                        f"{max_wait:.0f} ns"),
                priority_class=cls, est_wait_ns=est_wait,
                retry_after_ns=max(0.0, est_wait - max_wait))
        if deadline_ns is not None and est_wait + service > deadline_ns:
            self._count(cls, "shed")
            return AdmissionDecision(
                user=user, admitted=False, status="shed",
                reason=(f"deadline unmeetable: estimated "
                        f"wait+service {est_wait + service:.0f} ns "
                        f"exceeds deadline {deadline_ns:.0f} ns"),
                priority_class=cls, est_wait_ns=est_wait,
                retry_after_ns=est_wait)

        # Admit: advance the virtual queue the way the fleet would.
        start = max(arrival_ns, heapq.heappop(self._avail))
        end = start + service
        heapq.heappush(self._avail, end)
        self._backlog.extend([end] * len(circuits))
        self._count(cls, "accepted")
        return AdmissionDecision(
            user=user, admitted=True, status="accepted",
            reason="ok", priority_class=cls, priority=quota.priority,
            est_wait_ns=est_wait)

    def admit(self, user: str, circuits: Sequence[QuantumCircuit],
              arrival_ns: float,
              deadline_ns: Optional[float] = None) -> AdmissionDecision:
        """Like :meth:`decide`, but refusals raise their typed error."""
        decision = self.decide(user, circuits, arrival_ns, deadline_ns)
        error = decision.error()
        if error is not None:
            raise error
        return decision

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-safe per-class accept/shed/reject counters."""
        total = {"accepted": 0, "shed": 0, "rejected": 0}
        for counts in self.counters.values():
            for k, v in counts.items():
                total[k] += v
        return {
            "per_class": {cls: dict(counts)
                          for cls, counts in sorted(self.counters.items())},
            "total": total,
        }
