"""Event-driven multi-user, multi-device scheduler: the cloud scenario.

Jobs from different users arrive over time.  A serial service runs each
program as its own hardware job; a **multi-programming service** holds a
short batching window, packs the queued programs that fit together
(allocator partitions + the fidelity threshold), and dispatches them as
one job — across a :class:`~repro.hardware.fleet.DeviceFleet` of one or
more heterogeneous devices.

The engine is a discrete-event simulation (:mod:`repro.core.events`):
ARRIVAL events feed the pending queue, DISPATCH events pack and launch
batches, COMPLETION events free devices.  Strictly serial single-device
FIFO service is the ``max_batch_size=1``, one-device degenerate point;
``fidelity_threshold=0`` is the paper's Sec. IV-B operating point, which
still co-schedules programs whose placements degrade by exactly zero.

Admission reuses the memoized :class:`~.allocators.AllocationEngine`:
"where does this program go solo / inside the current batch?" is cached
by circuit structure and chip state, so repeated admission checks cost a
dictionary lookup instead of a candidate rescan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compile_service import CompileService

from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..hardware.fleet import DeviceFleet
from ..sim.executor import program_duration
from .allocators import (
    AllocationEngine,
    AllocationResult,
    Allocator,
    EMPTY_CONTEXT,
    Placement,
    PlacementContext,
    ProgramAllocation,
    allocation_engine,
    resolve_allocator,
)
from .events import EventKind, EventQueue
from .faults import FaultPlan, ResolvedOutage
from .health import (
    DeviceFailurePlan,
    FleetHealth,
    HealthPolicy,
    ResolvedBurst,
)

__all__ = ["SubmittedProgram", "DispatchedBatch", "ScheduleOutcome",
           "CloudScheduler", "json_safe_num", "percentile"]


def json_safe_num(value: Optional[float]) -> Optional[float]:
    """``None`` for NaN/None, ``float(value)`` otherwise.

    Strict JSON rejects NaN; every ``to_dict`` serialization path
    (schedule outcomes, run metadata, results) routes optional timings
    through this one helper so the convention cannot drift.
    """
    if value is None or math.isnan(value):
        return None
    return float(value)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile of *values* (linear interpolation between
    closest ranks, numpy's default) — NaN for an empty sequence."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass(frozen=True)
class SubmittedProgram:
    """One user submission.

    *priority*: higher values are served first; ties fall back to
    arrival time, then submission order (the default 0 everywhere
    degenerates to plain FIFO).
    """

    circuit: QuantumCircuit
    arrival_ns: float = 0.0
    user: str = "anonymous"
    priority: int = 0


@dataclass(frozen=True)
class DispatchedBatch:
    """One hardware job as dispatched by the event engine."""

    device_index: int
    device_name: str
    start_ns: float
    end_ns: float
    allocation: AllocationResult

    @property
    def duration_ns(self) -> float:
        """Wall-clock length of the job."""
        return self.end_ns - self.start_ns

    @property
    def members(self) -> Tuple[int, ...]:
        """Submission indices packed into this job."""
        return tuple(sorted(a.index for a in self.allocation.allocations))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary of this hardware job."""
        ordered = sorted(self.allocation.allocations, key=lambda a: a.index)
        return {
            "device_index": int(self.device_index),
            "device_name": self.device_name,
            "start_ns": float(self.start_ns),
            "end_ns": float(self.end_ns),
            "duration_ns": float(self.duration_ns),
            "method": self.allocation.method,
            "members": [int(i) for i in self.members],
            "allocations": [
                {
                    "index": int(a.index),
                    "circuit": a.circuit.name,
                    "partition": [int(q) for q in a.partition],
                    "efs": float(a.efs),
                    "crosstalk_pairs": [[int(u), int(v)]
                                        for u, v in a.crosstalk_pairs],
                }
                for a in ordered
            ],
        }


@dataclass
class ScheduleOutcome:
    """Result of scheduling a stream of submissions.

    ``mean_turnaround_ns`` averages over *completed* submissions and is
    NaN when everything was rejected (check :attr:`rejected`).
    """

    num_jobs: int
    makespan_ns: float
    mean_turnaround_ns: float
    mean_throughput: float
    rejected: List[int] = field(default_factory=list)
    completion_ns: Dict[int, float] = field(default_factory=dict)
    jobs: List[DispatchedBatch] = field(default_factory=list)
    #: Transpile requests handed to the compile service (0 without one).
    #: The service's own stats say how many actually compiled vs. hit
    #: the structural cache — identical programs at different queue
    #: indices dedup into one compile.
    compile_requests: int = 0
    #: Turnaround tail percentiles (NaN when nothing completed).  Means
    #: hide exactly the tail a production queue is judged by.
    turnaround_p50_ns: float = math.nan
    turnaround_p95_ns: float = math.nan
    turnaround_p99_ns: float = math.nan
    #: Deepest the pending queue ever got (arrivals waiting for a
    #: device), the saturation signal a rate sweep looks for.
    max_queue_depth: int = 0
    #: Dispatches won per raced allocator (empty without challengers).
    race_wins: Dict[str, int] = field(default_factory=dict)
    #: Why each rejected submission was rejected (typed rejection: the
    #: service attaches these to its :class:`~repro.service.JobError`).
    rejection_reasons: Dict[int, str] = field(default_factory=dict)
    #: Device outages the fault plan injected during this run.
    outages: int = 0
    #: Submission indices re-queued after their in-flight batch failed
    #: under a device outage or an injected device failure, in failure
    #: order (an index can appear more than once under cascading
    #: failures).
    requeued: List[int] = field(default_factory=list)
    #: Hardware jobs that ran but *failed* (injected device failures);
    #: their programs re-queued and completed elsewhere, and the failed
    #: jobs are not in :attr:`jobs`.
    batch_failures: int = 0
    #: Circuit-breaker trips (device quarantined) and readmissions
    #: (half-open probes closed the breaker) across the run.
    breaker_trips: int = 0
    breaker_readmissions: int = 0
    #: Per-device breaker summaries keyed by fleet index (empty when no
    #: health policy was active).
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def batches(self) -> List[AllocationResult]:
        """Per-job allocations, in dispatch order (derived from
        :attr:`jobs` so the two views can never desynchronize)."""
        return [job.allocation for job in self.jobs]

    def turnaround_ns(self, submissions: Sequence[SubmittedProgram]
                      ) -> Dict[int, float]:
        """Per-completed-submission turnaround (completion - arrival)."""
        return {
            i: done - submissions[i].arrival_ns
            for i, done in self.completion_ns.items()
        }

    def device_busy_ns(self) -> Dict[int, float]:
        """Accumulated busy time per fleet device index (names can
        repeat across a fleet; indices cannot)."""
        busy: Dict[int, float] = {}
        for job in self.jobs:
            busy[job.device_index] = (
                busy.get(job.device_index, 0.0) + job.duration_ns)
        return busy

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary: plain scalars, lists, and str-keyed dicts.

        ``mean_turnaround_ns`` is ``None`` (not NaN, which strict JSON
        rejects) when every submission was rejected.  The same format
        backs :meth:`repro.service.Result.to_dict` and the scheduler
        benchmark's artifacts.
        """
        return {
            "num_jobs": int(self.num_jobs),
            "makespan_ns": float(self.makespan_ns),
            "mean_turnaround_ns": json_safe_num(self.mean_turnaround_ns),
            "mean_throughput": float(self.mean_throughput),
            "rejected": [int(i) for i in self.rejected],
            "completion_ns": {str(i): float(t) for i, t
                              in sorted(self.completion_ns.items())},
            "compile_requests": int(self.compile_requests),
            "turnaround_p50_ns": json_safe_num(self.turnaround_p50_ns),
            "turnaround_p95_ns": json_safe_num(self.turnaround_p95_ns),
            "turnaround_p99_ns": json_safe_num(self.turnaround_p99_ns),
            "max_queue_depth": int(self.max_queue_depth),
            "race_wins": {str(k): int(v)
                          for k, v in sorted(self.race_wins.items())},
            "rejection_reasons": {
                str(i): str(r)
                for i, r in sorted(self.rejection_reasons.items())},
            "outages": int(self.outages),
            "requeued": [int(i) for i in self.requeued],
            "batch_failures": int(self.batch_failures),
            "breaker_trips": int(self.breaker_trips),
            "breaker_readmissions": int(self.breaker_readmissions),
            "breakers": {str(k): dict(v)
                         for k, v in sorted(self.breakers.items())},
            "jobs": [job.to_dict() for job in self.jobs],
        }


class CloudScheduler:
    """Discrete-event multi-programming service over a device fleet.

    Parameters
    ----------
    fleet:
        A :class:`DeviceFleet`, a single :class:`Device`, or a sequence
        of devices (wrapped with the fleet's default policy).
    allocator:
        Incremental allocation strategy — a registry name or an
        :class:`Allocator` instance.  Default QuCP with the paper sigma.
    fidelity_threshold:
        Maximum admitted relative EFS degradation vs. a program's own
        solo-best placement (the Sec. IV-B knob).  0 admits a co-tenant
        only when it still gets exactly its solo-best placement; for
        strictly serial one-program-per-job service combine it with
        ``max_batch_size=1``.
    max_batch_size:
        Cap on programs per hardware job (``None`` = unlimited); 1
        forces serial service regardless of threshold.
    batch_window_ns:
        How long a batch head waits after its arrival before it may
        dispatch, letting later arrivals join its batch.  0 dispatches
        as soon as a device frees up.
    job_overhead_ns:
        Fixed per-job cost (load/compile/readout reset), the quantity
        batching amortizes.
    sigma:
        QuCP's crosstalk parameter, for the default allocator only —
        combining it with an explicit *allocator* is an error (pass the
        parameter to the allocator instead, e.g.
        ``get_allocator("qucp", sigma=...)``).
    compile_service:
        Optional :class:`~repro.core.compile_service.CompileService`.
        When set, each dispatched batch's programs are submitted to the
        service's worker pool *at dispatch time*, so compilation
        overlaps the rest of the scheduling run; :meth:`schedule`
        returns only after every submitted transpile has landed in the
        service's cache, ready for cache-hit execution.  Cache keys are
        structural, so a program resubmitted at a different queue index
        (or by a different user) re-uses the earlier compile instead of
        re-transpiling.  Dispatch-time submissions dedup through every
        cache tier: a qubit-relabeled twin of an earlier program reuses
        its equivalence class's artifact, and with a persistent store
        attached (``QuantumProvider(cache_path=...)``) batches dedup
        against artifacts compiled by *other processes* — a cold
        scheduler on a warm store dispatches without compiling at all.
    race_allocators:
        Challenger allocators (incremental registry names or instances)
        raced against the primary at every dispatch.  The primary packs
        the batch, then each challenger packs the same batch in
        declaration order; a challenger's pack replaces the current one
        only when it admits more programs, or as many at a strictly
        lower mean EFS.  Ties stay with the earlier allocator, so a
        fixed seed reproduces the same winners, and a dispatch never
        admits fewer programs than the primary alone would.  Challengers
        that duplicate the primary's or an earlier challenger's name are
        dropped.  Per-allocator wins land in
        :attr:`ScheduleOutcome.race_wins`; ``bench_scheduler.py``'s
        racing phase measures the effect across arrival rates.
    fault_plan:
        Optional :class:`~repro.core.faults.FaultPlan` of device
        outages, injected into the event stream: at each outage's start
        time the device goes offline — its in-flight batch (if any)
        fails and the batch's programs re-queue, in priority order, to
        the surviving devices — and at the recovery time it rejoins the
        fleet.  A program that fits only devices that are offline for
        the rest of the run is rejected (with the reason recorded in
        :attr:`ScheduleOutcome.rejection_reasons`) instead of stranding
        the queue.  The plan is pure data, so a committed plan replays
        the identical failure sequence on every run.
    failure_plan:
        Optional :class:`~repro.core.health.DeviceFailurePlan` of
        scripted device *misbehaviour*: a batch dispatched on a device
        inside one of the plan's burst windows runs to completion and
        then **fails** — its programs re-queue, in priority order, and
        the per-device circuit breaker records the failure.  Unlike a
        ``fault_plan`` outage the scheduler is never told the device is
        bad; the breaker has to *infer* it from the failures (trip →
        quarantine → half-open probes → readmission).  Supplying a plan
        enables breakers with the default :class:`HealthPolicy` unless
        ``health_policy`` overrides it.
    health_policy:
        Optional :class:`~repro.core.health.HealthPolicy` controlling
        when per-device circuit breakers trip and readmit.  A tripped
        (OPEN) device is skipped by dispatch exactly like an offline
        one; after ``cooldown_ns`` it turns HALF_OPEN and the next
        dispatches act as probes — ``probe_successes`` clean probes
        close the breaker, one failed probe re-opens it.  A device
        failing under a *permanent* burst stays quarantined and counts
        as gone for hold-vs-reject decisions.
    priority_aging_ns:
        When set, a pending program's effective priority grows by 1 for
        every this-many virtual nanoseconds it has waited, so sustained
        high-priority traffic cannot starve ``best_effort`` work: every
        queued program eventually out-prioritizes fresh arrivals.  The
        aged priority is a pure function of (arrival, now), so replays
        stay bit-identical.  ``None`` (default) preserves strict
        priority order.
    """

    def __init__(
        self,
        fleet: Union[DeviceFleet, Device, Sequence[Device]],
        allocator: Union[str, Allocator, None] = None,
        fidelity_threshold: float = 0.3,
        batch_window_ns: float = 0.0,
        job_overhead_ns: float = 1e6,
        sigma: Optional[float] = None,
        max_batch_size: Optional[int] = None,
        compile_service: "Optional[CompileService]" = None,
        race_allocators: Optional[Sequence[Union[str, Allocator]]] = None,
        fault_plan: Optional[FaultPlan] = None,
        failure_plan: Optional[DeviceFailurePlan] = None,
        health_policy: Optional[HealthPolicy] = None,
        priority_aging_ns: Optional[float] = None,
    ) -> None:
        if fidelity_threshold < 0:
            raise ValueError("fidelity threshold must be non-negative")
        if batch_window_ns < 0:
            raise ValueError("batch window must be non-negative")
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max batch size must be at least 1")
        if priority_aging_ns is not None and priority_aging_ns <= 0:
            raise ValueError("priority aging interval must be positive")
        if not isinstance(fleet, DeviceFleet):
            fleet = DeviceFleet(fleet)
        self.fleet = fleet
        self.allocator = resolve_allocator(allocator, sigma,
                                           require_incremental=True)
        self.fidelity_threshold = fidelity_threshold
        self.batch_window_ns = batch_window_ns
        self.job_overhead_ns = job_overhead_ns
        self.max_batch_size = max_batch_size
        self.compile_service = compile_service
        challengers: List[Allocator] = []
        names = {self.allocator.name}
        for item in race_allocators or ():
            challenger = resolve_allocator(item, None,
                                           require_incremental=True)
            if challenger.name not in names:
                names.add(challenger.name)
                challengers.append(challenger)
        self.challengers: Tuple[Allocator, ...] = tuple(challengers)
        self.fault_plan = fault_plan
        # Resolve now so a bad plan (unknown device name, ambiguous twin
        # names) fails at construction, not mid-schedule.
        self._outages: List[ResolvedOutage] = (
            fault_plan.resolve(self.fleet) if fault_plan else [])
        self.failure_plan = failure_plan
        self._bursts: List[ResolvedBurst] = (
            failure_plan.resolve(self.fleet) if failure_plan else [])
        if health_policy is None and self._bursts:
            health_policy = HealthPolicy()
        self.health_policy = health_policy
        self.priority_aging_ns = priority_aging_ns

    @staticmethod
    def _pack_score(batch: AllocationResult,
                    admitted: Sequence[int]) -> Tuple[int, float]:
        """Lower wins: most programs admitted, then lowest mean EFS."""
        if not admitted:
            return (0, math.inf)
        mean_efs = (sum(a.efs for a in batch.allocations)
                    / len(batch.allocations))
        return (-len(admitted), mean_efs)

    # ------------------------------------------------------------------
    def _engine(self, device_index: int) -> AllocationEngine:
        return allocation_engine(self.fleet[device_index])

    def _solo(self, device_index: int,
              circuit: QuantumCircuit) -> Optional[Placement]:
        return self._engine(device_index).solo_best(self.allocator, circuit)

    def _try_admit(
        self,
        device_index: int,
        circuit: QuantumCircuit,
        ctx: PlacementContext,
        is_head: bool,
        allocator: Optional[Allocator] = None,
    ) -> Optional[Placement]:
        """Admit *circuit* iff its batch placement degrades at most
        ``fidelity_threshold`` relative to its own solo-best placement
        on the same device."""
        allocator = allocator or self.allocator
        engine = self._engine(device_index)
        placement = engine.best_placement(allocator, circuit, ctx)
        if placement is None or is_head:
            return placement
        solo = engine.solo_best(allocator, circuit)
        if solo is None or solo.efs <= 0:
            return placement
        degradation = (placement.efs - solo.efs) / solo.efs
        if degradation > self.fidelity_threshold + 1e-12:
            return None
        return placement

    def _pack_batch(
        self,
        allocator: Allocator,
        device_index: int,
        head: int,
        admission_order: Sequence[int],
        submissions: Sequence[SubmittedProgram],
    ) -> Tuple[AllocationResult, List[int]]:
        """Pack one hardware job with *allocator*: the head admits first
        on the empty chip (always its solo-best placement), the rest of
        the queue follows in priority order under the fidelity
        threshold.  Pure given the engine memos, so every raced
        allocator can pack the same dispatch and only the winner's pack
        is committed."""
        device = self.fleet[device_index]
        batch = AllocationResult(
            method=(f"online-{allocator.name}"
                    f"(th={self.fidelity_threshold:g})"),
            device=device)
        ctx = EMPTY_CONTEXT
        admitted: List[int] = []
        for idx in admission_order:
            if (self.max_batch_size is not None
                    and len(admitted) >= self.max_batch_size):
                break
            placement = self._try_admit(
                device_index, submissions[idx].circuit, ctx,
                is_head=idx == head, allocator=allocator)
            if placement is None:
                continue
            batch.allocations.append(ProgramAllocation(
                idx, submissions[idx].circuit,
                placement.partition, placement.efs,
                placement.suspects))
            ctx = ctx.extended(placement.partition, device)
            admitted.append(idx)
        return batch, admitted

    # ------------------------------------------------------------------
    def schedule(self, submissions: Sequence[SubmittedProgram]
                 ) -> ScheduleOutcome:
        """Serve *submissions* through the discrete-event engine.

        Programs that fit no device in the fleet (even on an idle chip)
        are rejected into :attr:`ScheduleOutcome.rejected` instead of
        stalling the service; everything else completes exactly once.
        """
        if not submissions:
            raise ValueError("no submissions")
        for sub in submissions:
            if sub.arrival_ns < 0:
                raise ValueError("arrival times must be non-negative")

        def order_key(i: int) -> Tuple[float, float, int]:
            return (-submissions[i].priority, submissions[i].arrival_ns, i)

        aging = self.priority_aging_ns

        def aged_key(now: float):
            """Order key with waiting-time priority boost: a pure
            function of (arrival, now), so replays stay bit-identical."""
            def key(i: int) -> Tuple[float, float, int]:
                sub = submissions[i]
                waited = max(0.0, now - sub.arrival_ns)
                boost = int(waited // aging)
                return (-(sub.priority + boost), sub.arrival_ns, i)
            return key

        n_devices = len(self.fleet)
        events = EventQueue()
        pending: List[int] = []
        busy = [False] * n_devices
        load = [0.0] * n_devices
        rr_cursor = 0
        completion: Dict[int, float] = {}
        rejected: List[int] = []
        jobs: List[DispatchedBatch] = []
        compile_futures: List = []
        race_wins: Dict[str, int] = {}
        max_queue_depth = 0
        # Fault-plan state.  ``outage_depth`` counts overlapping outages
        # (offline == depth > 0); ``eventually_dead`` latches once a
        # permanent outage fires, so hold-vs-reject decisions know the
        # device will never serve again.  ``epoch`` invalidates the
        # COMPLETION event of a batch the outage already failed — heap
        # events cannot be removed, so stale ones are skipped instead.
        outage_depth = [0] * n_devices
        eventually_dead = [False] * n_devices
        epoch = [0] * n_devices
        inflight: List[Optional[DispatchedBatch]] = [None] * n_devices
        requeued: List[int] = []
        rejection_reasons: Dict[int, str] = {}
        outage_count = 0
        # Circuit-breaker state: one breaker per device whenever a
        # health policy is active (a failure plan implies the default).
        health: Optional[FleetHealth] = (
            FleetHealth(n_devices, self.health_policy)
            if self.health_policy is not None else None)
        bursts = self._bursts
        batch_failures = 0

        def burst_covers(d: int, dispatch_ns: float) -> bool:
            return any(b.covers(d, dispatch_ns) for b in bursts)

        def burst_is_permanent(d: int, dispatch_ns: float) -> bool:
            return any(b.until_ns is None and b.covers(d, dispatch_ns)
                       for b in bursts)

        for i, sub in enumerate(submissions):
            events.push(sub.arrival_ns, EventKind.ARRIVAL, i)
        for out in self._outages:
            events.push(out.start_ns, EventKind.OUTAGE, out)
            if out.until_ns is not None:
                events.push(out.until_ns, EventKind.RECOVERY,
                            out.device_index)

        def fits_somewhere(circuit: QuantumCircuit) -> bool:
            return any(self._solo(d, circuit) is not None
                       for d in range(n_devices))

        def fits_serviceable(circuit: QuantumCircuit) -> bool:
            return any(self._solo(d, circuit) is not None
                       for d in range(n_devices)
                       if not eventually_dead[d])

        def dispatch(now: float) -> None:
            nonlocal rr_cursor
            if aging is not None and len(pending) > 1:
                # Re-rank by waited-time-boosted priority so long-queued
                # low-priority work eventually overtakes fresh arrivals.
                pending.sort(key=aged_key(now))
            while pending:
                free = [d for d in range(n_devices)
                        if not busy[d] and not outage_depth[d]
                        and (health is None or health[d].admits)]
                if not free:
                    if all(eventually_dead):
                        # Nothing left to serve anyone — reject instead
                        # of stranding the queue (covers programs that
                        # arrive after the last device dies).
                        for idx in sorted(pending, key=order_key):
                            rejection_reasons[idx] = (
                                "all fleet devices offline for the "
                                "remainder of the run")
                            rejected.append(idx)
                        pending.clear()
                    return
                # Pick the batch head: the first pending program whose
                # window has closed and that fits a free device.  A head
                # that only fits busy devices keeps its queue position
                # but does not block later programs from using idle
                # devices (work-conserving dispatch); a head that fits
                # nothing in the fleet is rejected outright.
                head = None
                eligible: List[int] = []
                solo_by_device = {}
                restart = False
                for idx in list(pending):
                    sub = submissions[idx]
                    if (now + 1e-12
                            < sub.arrival_ns + self.batch_window_ns):
                        # Still collecting arrivals; its window-close
                        # DISPATCH event is queued, and programs behind
                        # it may use the idle capacity meanwhile.
                        continue
                    solo_by_device = {
                        d: self._solo(d, sub.circuit) for d in free}
                    eligible = [d for d in free
                                if solo_by_device[d] is not None]
                    if eligible:
                        head = idx
                        break
                    if not fits_serviceable(sub.circuit):
                        rejection_reasons[idx] = (
                            "fits only devices offline for the remainder "
                            "of the run" if fits_somewhere(sub.circuit)
                            else "circuit fits no device coupling map in "
                                 "the fleet")
                        rejected.append(idx)
                        pending.remove(idx)
                        restart = True
                        break
                    # Fits only busy (or recovering) devices: hold
                    # position, try later pending programs on the idle
                    # capacity.
                if restart:
                    continue
                if head is None:
                    return
                chosen = self.fleet.select(
                    eligible,
                    loads={d: load[d] for d in eligible},
                    solo_efs={d: solo_by_device[d].efs for d in eligible},
                    rr_cursor=rr_cursor,
                )
                device = self.fleet[chosen]
                start = now
                # Everything in `pending` has arrived: ARRIVAL events
                # sort before same-instant DISPATCH events, so a program
                # arriving after this dispatch fires can never be in the
                # list — that ordering (events.py) is what keeps late
                # arrivals out of in-flight batches.
                admission_order = [head] + [
                    i for i in pending if i != head]
                batch, admitted = self._pack_batch(
                    self.allocator, chosen, head, admission_order,
                    submissions)
                if self.challengers:
                    # Race: a challenger's pack is committed only when it
                    # scores strictly lower, so ties keep the earlier one.
                    winner = self.allocator.name
                    best = self._pack_score(batch, admitted)
                    for challenger in self.challengers:
                        pack = self._pack_batch(
                            challenger, chosen, head, admission_order,
                            submissions)
                        score = self._pack_score(*pack)
                        if score < best:
                            (batch, admitted), best = pack, score
                            winner = challenger.name
                    race_wins[winner] = race_wins.get(winner, 0) + 1
                durations = device.calibration.gate_duration
                job_len = self.job_overhead_ns + max(
                    program_duration(submissions[i].circuit, durations)
                    for i in admitted)
                end = start + job_len
                for i in admitted:
                    completion[i] = end
                    pending.remove(i)
                busy[chosen] = True
                load[chosen] += job_len
                rr_cursor = (chosen + 1) % n_devices
                dispatched = DispatchedBatch(
                    chosen, device.name, start, end, batch)
                jobs.append(dispatched)
                inflight[chosen] = dispatched
                if self.compile_service is not None:
                    # Compilation starts the moment the batch is packed
                    # and proceeds on the worker pool while this event
                    # loop keeps scheduling.
                    compile_futures.extend(
                        self.compile_service.submit_allocation(batch))
                # An injected failure burst decides the batch's fate at
                # dispatch time, but the scheduler only *learns* it at
                # completion time — exactly like a real backend
                # returning an errored job.
                ok = not burst_covers(chosen, start)
                events.push(end, EventKind.COMPLETION,
                            (chosen, epoch[chosen], ok))

        for event in events.drain():
            if event.kind is EventKind.ARRIVAL:
                pending.append(event.payload)
                pending.sort(key=order_key)
                max_queue_depth = max(max_queue_depth, len(pending))
                events.push(event.time_ns + self.batch_window_ns,
                            EventKind.DISPATCH)
            elif event.kind is EventKind.COMPLETION:
                device_index, job_epoch, ok = event.payload
                if job_epoch != epoch[device_index]:
                    continue  # batch already failed under an outage
                busy[device_index] = False
                batch = inflight[device_index]
                inflight[device_index] = None
                if ok:
                    if health is not None:
                        health[device_index].record_success(event.time_ns)
                else:
                    # The batch ran and errored: it produced nothing,
                    # so its programs rejoin the queue in priority
                    # order (device time stays spent — ``load`` keeps
                    # the wasted window, unlike an outage which
                    # refunds the un-run remainder).
                    assert batch is not None
                    batch_failures += 1
                    jobs.remove(batch)
                    members = sorted(batch.members, key=order_key)
                    for i in members:
                        completion.pop(i, None)
                    pending.extend(members)
                    pending.sort(key=order_key)
                    max_queue_depth = max(max_queue_depth, len(pending))
                    requeued.extend(members)
                    if health is not None:
                        tripped = health[device_index].record_failure(
                            event.time_ns)
                        if tripped:
                            if burst_is_permanent(device_index,
                                                  batch.start_ns):
                                # The device will fail every probe for
                                # the rest of the run: keep it
                                # quarantined and let hold-vs-reject
                                # treat it as gone.
                                eventually_dead[device_index] = True
                            else:
                                events.push(
                                    event.time_ns
                                    + health.policy.cooldown_ns,
                                    EventKind.BREAKER, device_index)
                events.push(event.time_ns, EventKind.DISPATCH)
            elif event.kind is EventKind.OUTAGE:
                out = event.payload
                d = out.device_index
                outage_count += 1
                outage_depth[d] += 1
                if out.until_ns is None:
                    eventually_dead[d] = True
                if busy[d]:
                    # Fail the in-flight batch: its COMPLETION event is
                    # now stale (epoch bump), its members rejoin the
                    # queue in priority order and re-dispatch to the
                    # surviving devices.
                    batch = inflight[d]
                    assert batch is not None
                    epoch[d] += 1
                    jobs.remove(batch)
                    load[d] -= batch.end_ns - event.time_ns
                    busy[d] = False
                    inflight[d] = None
                    members = sorted(batch.members, key=order_key)
                    for i in members:
                        completion.pop(i, None)
                    pending.extend(members)
                    pending.sort(key=order_key)
                    max_queue_depth = max(max_queue_depth, len(pending))
                    requeued.extend(members)
                events.push(event.time_ns, EventKind.DISPATCH)
            elif event.kind is EventKind.RECOVERY:
                outage_depth[event.payload] -= 1
                events.push(event.time_ns, EventKind.DISPATCH)
            elif event.kind is EventKind.BREAKER:
                # Quarantine cooldown elapsed: the breaker (if still
                # OPEN) turns HALF_OPEN and the next dispatches on the
                # device act as readmission probes.
                if health is not None:
                    health[event.payload].cooldown_elapsed(event.time_ns)
                events.push(event.time_ns, EventKind.DISPATCH)
            else:
                dispatch(event.time_ns)

        assert not pending, "event queue drained with programs pending"

        for fut in compile_futures:
            fut.result()  # surface compile errors; results are cached

        turnarounds = [
            completion[i] - submissions[i].arrival_ns for i in completion]
        makespan = max(completion.values(), default=0.0)
        # Computed from the surviving jobs (not accumulated at dispatch
        # time) so batches an outage failed don't count.
        throughputs = [job.allocation.throughput() for job in jobs]
        return ScheduleOutcome(
            num_jobs=len(jobs),
            makespan_ns=makespan,
            mean_turnaround_ns=(
                float(sum(turnarounds) / len(turnarounds))
                if turnarounds else math.nan),
            mean_throughput=(
                float(sum(throughputs) / len(throughputs))
                if throughputs else 0.0),
            rejected=rejected,
            completion_ns=completion,
            jobs=jobs,
            compile_requests=len(compile_futures),
            turnaround_p50_ns=percentile(turnarounds, 50),
            turnaround_p95_ns=percentile(turnarounds, 95),
            turnaround_p99_ns=percentile(turnarounds, 99),
            max_queue_depth=max_queue_depth,
            race_wins=race_wins,
            rejection_reasons=rejection_reasons,
            outages=outage_count,
            requeued=requeued,
            batch_failures=batch_failures,
            breaker_trips=health.trips if health is not None else 0,
            breaker_readmissions=(
                health.readmissions if health is not None else 0),
            breakers=health.summary() if health is not None else {},
        )
