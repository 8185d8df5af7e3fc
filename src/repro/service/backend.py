"""Backends: per-target configuration + the ``run`` entry point.

A backend binds one execution target (a device or a fleet) to a
:class:`BackendConfiguration` and turns submissions into asynchronous
:class:`~repro.service.Job` handles.  Two concrete kinds:

- :class:`SimulatorBackend` — one device, direct parallel execution:
  allocate crosstalk-safe partitions, transpile, simulate, score.  The
  engine underneath is :func:`repro.core.execute_allocation`.
- :class:`CloudBackend` — the paper's cloud service: submissions flow
  through the discrete-event :class:`~repro.core.CloudScheduler`
  (batching windows, fidelity-threshold admission, fleet dispatch) and
  each dispatched hardware job is then executed via
  :func:`repro.core.run_batch`.  ``execute=False`` stops after
  scheduling, for queue-behaviour studies that don't need simulated
  counts.

Both publish compiles into the provider's shared
:class:`~repro.core.ExecutionCache` through its
:class:`~repro.core.CompileService`, so repeated programs — across
jobs, backends, and sessions — transpile once.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import has_control_flow
from ..core.allocators import (
    AllocationResult,
    Allocator,
    allocation_engine,
    resolve_allocator,
)
from ..core.executor import (
    BatchJob,
    ExecutionOutcome,
    TranspilerFn,
    execute_allocation,
    run_batch,
)
from ..core.faults import FaultPlan
from ..core.health import DeviceFailurePlan, HealthPolicy
from ..core.scheduler import (
    CloudScheduler,
    ScheduleOutcome,
    SubmittedProgram,
    json_safe_num,
)
from ..hardware.devices import Device
from ..hardware.fleet import DeviceFleet
from ..sim.readout import SeedLike
from .job import Job, JobError, JobSet
from .result import Result, RunMetadata, build_program_results

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .provider import QuantumProvider

__all__ = ["BackendConfiguration", "BaseBackend", "SimulatorBackend",
           "CloudBackend"]


def _count_dynamic(circuits) -> int:
    """How many circuits stay dynamic after static expansion.

    These are the programs the sim layer runs on the per-shot
    feed-forward path; resolvable control flow (bounded loops,
    compile-time branches) unrolls away and is *not* counted.
    """
    from ..transpiler.controlflow import is_statically_resolvable

    return sum(1 for c in circuits
               if has_control_flow(c) and not is_statically_resolvable(c))


@dataclass(frozen=True)
class BackendConfiguration:
    """Per-target execution defaults; any field can be overridden per
    ``run`` call.

    The allocator/scheduler fields mirror :class:`~repro.core.
    CloudScheduler`'s constructor (same semantics, same defaults), the
    execution fields mirror :func:`~repro.core.execute_allocation` —
    the facade adds no knobs of its own, it only carries them.
    """

    #: Allocation strategy: registry name, instance, or ``None`` (QuCP).
    allocator: Union[str, Allocator, None] = None
    #: QuCP's sigma; only with the default allocator (like the engine).
    sigma: Optional[float] = None
    #: Max relative EFS degradation admitted vs. solo-best placement.
    fidelity_threshold: float = 0.3
    #: How long a batch head waits for co-tenants before dispatch.
    batch_window_ns: float = 0.0
    #: Fixed per-hardware-job overhead the batching amortizes.
    job_overhead_ns: float = 1e6
    #: Programs per hardware job (``None`` unlimited; 1 = serial).
    max_batch_size: Optional[int] = None
    #: Challenger allocators raced against the primary at every
    #: scheduler dispatch: each packs the same batch in declaration
    #: order, and a pack replaces the current one only when it admits
    #: more programs, or as many at a strictly lower mean EFS (ties
    #: stay with the primary).  ``None`` disables racing.
    race_allocators: Optional[Tuple[Union[str, Allocator], ...]] = None
    #: Default shot count for ``run`` calls that don't pass one.
    shots: int = 8192
    #: Instruction scheduling mode for execution ("alap"/"asap").
    scheduling: str = "alap"
    #: Whether the simulation applies the crosstalk model.
    include_crosstalk: bool = True
    #: Deterministic device-outage plan injected into the scheduler's
    #: event stream (chaos testing; ``None`` = a healthy fleet).
    fault_plan: Optional[FaultPlan] = None
    #: Deterministic device-*misbehavior* plan: batches dispatched on a
    #: covered device fail at completion (the device stays schedulable,
    #: unlike an outage) — the signal circuit breakers exist to infer.
    failure_plan: Optional[DeviceFailurePlan] = None
    #: Per-device circuit-breaker policy.  ``None`` with a
    #: ``failure_plan`` enables the default policy; ``None`` without
    #: one disables breakers entirely (legacy behaviour).
    health_policy: Optional[HealthPolicy] = None
    #: Nanoseconds of queue wait per +1 effective priority (anti-
    #: starvation aging for multi-tenant priority classes).  ``None``
    #: keeps the legacy strict-priority order bit-identical.
    priority_aging_ns: Optional[float] = None

    def replace(self, **overrides) -> "BackendConfiguration":
        """A copy with *overrides* applied (``None`` values ignored)."""
        changed = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changed) if changed else self


class BaseBackend(ABC):
    """One execution target owned by a provider."""

    def __init__(self, name: str, provider: "QuantumProvider",
                 configuration: Optional[BackendConfiguration] = None
                 ) -> None:
        self._name = name
        self._provider = provider
        self._configuration = configuration or BackendConfiguration()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Backend name (unique within its provider)."""
        return self._name

    @property
    def provider(self) -> "QuantumProvider":
        """The owning provider (shared caches, job pool)."""
        return self._provider

    @property
    def configuration(self) -> BackendConfiguration:
        """This backend's execution defaults."""
        return self._configuration

    @property
    @abstractmethod
    def devices(self) -> Tuple[Device, ...]:
        """The physical targets behind this backend."""

    @abstractmethod
    def run(self, *args, **kwargs) -> Job:
        """Submit work; returns an asynchronous :class:`Job` handle."""

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Precompute the device-invariant compilation tables.

        Builds each device's shared :class:`~repro.transpiler.context.
        DeviceContext` (reliability graph, all-pairs distance tables,
        readout vector) and registers its allocation engine, so a
        session's first run pays no cold-start cost.  Idempotent.
        """
        for device in self.devices:
            engine = allocation_engine(device)
            context = engine.context
            context.reliability_distance
            context.reliability_matrix
            context.readout_vector

    def _resolve_allocator(self, allocator, sigma,
                           require_incremental: bool = False) -> Allocator:
        """Per-run allocator override falling back to the configuration."""
        cfg = self._configuration
        if allocator is None:
            allocator, sigma = cfg.allocator, (
                cfg.sigma if sigma is None else sigma)
        return resolve_allocator(allocator, sigma,
                                 require_incremental=require_incremental)

    #: Shared-cache counters snapshotted around each run; their deltas
    #: land in :class:`~repro.service.RunMetadata`.
    _METADATA_COUNTERS = ("transpile_hits", "transpile_misses",
                          "evictions", "promotions")
    #: Execution-service counters snapshotted the same way (prefixed so
    #: they can't collide with the cache's names in one delta dict).
    _EXECUTION_COUNTERS = ("batches",)

    def _metadata_counters(self) -> Dict[str, int]:
        stats = self._provider.cache.stats
        counters = {k: stats[k] for k in self._METADATA_COUNTERS}
        exec_stats = self._provider.execution_service.stats
        for key in self._EXECUTION_COUNTERS:
            counters[f"execution_{key}"] = exec_stats[key]
        return counters

    @staticmethod
    def _counter_deltas(before: Dict[str, int],
                        after: Dict[str, int]) -> Dict[str, int]:
        return {k: after[k] - before[k] for k in before}

    def __repr__(self) -> str:
        targets = ", ".join(d.name for d in self.devices)
        return f"<{type(self).__name__} {self._name!r} on [{targets}]>"


def _as_circuits(circuits: Union[QuantumCircuit, Sequence[QuantumCircuit]]
                 ) -> List[QuantumCircuit]:
    if isinstance(circuits, QuantumCircuit):
        return [circuits]
    return list(circuits)


class SimulatorBackend(BaseBackend):
    """Direct parallel execution on one device (no queueing model)."""

    def __init__(self, name: str, provider: "QuantumProvider",
                 device: Device,
                 configuration: Optional[BackendConfiguration] = None
                 ) -> None:
        super().__init__(name, provider, configuration)
        self._device = device

    @property
    def device(self) -> Device:
        """The single simulated device."""
        return self._device

    @property
    def devices(self) -> Tuple[Device, ...]:
        return (self._device,)

    # ------------------------------------------------------------------
    def run(
        self,
        circuits: Union[QuantumCircuit, Sequence[QuantumCircuit],
                        AllocationResult],
        shots: Optional[int] = None,
        seed: SeedLike = None,
        allocator: Union[str, Allocator, None] = None,
        sigma: Optional[float] = None,
        transpiler_fn: Optional[TranspilerFn] = None,
        scheduling: Optional[str] = None,
        include_crosstalk: Optional[bool] = None,
    ) -> Job:
        """Run circuits simultaneously as one hardware job.

        *circuits* is one circuit, a sequence (allocated with this
        backend's allocator), or a pre-built
        :class:`~repro.core.AllocationResult` (used as-is).  Returns
        immediately with a :class:`Job`; ``job.result()`` blocks for
        the typed :class:`~repro.service.Result`.
        """
        cfg = self._configuration.replace(
            shots=shots, scheduling=scheduling,
            include_crosstalk=include_crosstalk)
        if isinstance(circuits, AllocationResult):
            allocation: Optional[AllocationResult] = circuits
            to_allocate: List[QuantumCircuit] = []
            if allocation.device is not self._device:
                raise ValueError(
                    f"allocation was built for device "
                    f"{allocation.device.name!r} (a different instance "
                    f"than this backend's {self._device.name!r}); run it "
                    "on a backend for that device, or re-allocate")
            if allocator is not None or sigma is not None:
                raise ValueError(
                    "allocator/sigma have no effect on a pre-built "
                    "AllocationResult — its placements are final; pass "
                    "circuits instead to re-allocate")
        else:
            allocation = None
            to_allocate = _as_circuits(circuits)
        chosen = (None if allocation is not None
                  else self._resolve_allocator(allocator, sigma))

        def execute(job_id: str) -> Result:
            alloc = (allocation if allocation is not None
                     else chosen.allocate(to_allocate, self._device))
            before = self._metadata_counters()
            outcomes = execute_allocation(
                alloc,
                shots=cfg.shots,
                seed=seed,
                scheduling=cfg.scheduling,
                transpiler_fn=transpiler_fn,
                include_crosstalk=cfg.include_crosstalk,
                compile_service=self._provider.compile_service,
                execution_service=self._provider.execution_service,
            )
            deltas = self._counter_deltas(before,
                                          self._metadata_counters())
            return self._build_result(job_id, alloc, outcomes, cfg.shots,
                                      deltas)

        # Replay spec for the durable job store: enough pure data to
        # re-run this submission after a crash.  A live transpiler hook
        # is not replayable (it cannot be persisted faithfully).
        spec = None
        if transpiler_fn is None:
            spec = {
                "kind": "simulator",
                "backend_name": self._name,
                "device": self._device,
                "configuration": cfg,
                "payload": (allocation if allocation is not None
                            else to_allocate),
                "allocator": chosen,
                "seed": seed,
            }
        return self._provider._submit_job(self, execute, spec=spec)

    def run_sweep(
        self,
        batches: Sequence[Union[Sequence[QuantumCircuit],
                                AllocationResult, BatchJob]],
        shots: Optional[int] = None,
        seed: SeedLike = None,
        allocator: Union[str, Allocator, None] = None,
        sigma: Optional[float] = None,
    ) -> JobSet:
        """Submit a sweep — one :class:`Job` per batch, grouped.

        Mirrors :func:`repro.core.run_batch`'s seeding contract: each
        batch without an explicit seed gets an independent child stream
        spawned from *seed*, and all batches share the provider's
        caches.
        """
        from ..sim.executor import spawn_seeds

        chosen = self._resolve_allocator(allocator, sigma)
        children = spawn_seeds(seed, len(batches))
        jobs = JobSet()
        for batch, child in zip(batches, children):
            if isinstance(batch, BatchJob):
                job = self.run(batch.allocation,
                               shots=batch.shots,
                               seed=(batch.seed if batch.seed is not None
                                     else child),
                               transpiler_fn=batch.transpiler_fn,
                               scheduling=batch.scheduling,
                               include_crosstalk=batch.include_crosstalk)
            elif isinstance(batch, AllocationResult):
                job = self.run(batch, shots=shots, seed=child)
            else:
                job = self.run(list(batch), shots=shots, seed=child,
                               allocator=chosen)
            jobs.add(job)
        return jobs

    # ------------------------------------------------------------------
    def _build_result(self, job_id: str, allocation: AllocationResult,
                      outcomes: List[ExecutionOutcome], shots: int,
                      deltas: Dict[str, int]) -> Result:
        metadata = RunMetadata(
            job_id=job_id,
            backend_name=self._name,
            method=allocation.method,
            shots=shots,
            num_programs=len(allocation.allocations),
            num_hardware_jobs=1,
            throughput=allocation.throughput(),
            transpile_hits=deltas["transpile_hits"],
            transpile_misses=deltas["transpile_misses"],
            cache_evictions=deltas["evictions"],
            cache_promotions=deltas["promotions"],
            execution_batches=deltas["execution_batches"],
            dynamic_programs=_count_dynamic(
                a.circuit for a in allocation.allocations),
        )
        programs = build_program_results([outcomes], [self._device.name])
        return Result(metadata=metadata, programs=programs,
                      outcomes=[outcomes])


class CloudBackend(BaseBackend):
    """The multi-tenant cloud service over a device fleet.

    Submissions go through the discrete-event scheduler exactly as a
    direct :meth:`CloudScheduler.schedule` call would — same admission,
    same dispatch, same timings — and each dispatched hardware job is
    then executed through :func:`~repro.core.run_batch` in dispatch
    order with child RNG streams spawned from *seed*.  The equivalence
    is bit-exact and test-enforced
    (``tests/test_service_equivalence.py``).
    """

    def __init__(self, name: str, provider: "QuantumProvider",
                 fleet: DeviceFleet,
                 configuration: Optional[BackendConfiguration] = None
                 ) -> None:
        super().__init__(name, provider, configuration)
        self._fleet = fleet

    @property
    def fleet(self) -> DeviceFleet:
        """The device fleet behind this backend."""
        return self._fleet

    @property
    def devices(self) -> Tuple[Device, ...]:
        return tuple(self._fleet)

    # ------------------------------------------------------------------
    def scheduler(self, allocator: Union[str, Allocator, None] = None,
                  sigma: Optional[float] = None,
                  with_compile_service: bool = False) -> CloudScheduler:
        """A :class:`CloudScheduler` configured like this backend."""
        cfg = self._configuration
        if not isinstance(allocator, Allocator):
            allocator = self._resolve_allocator(allocator, sigma)
        return CloudScheduler(
            self._fleet,
            allocator=allocator,
            fidelity_threshold=cfg.fidelity_threshold,
            batch_window_ns=cfg.batch_window_ns,
            job_overhead_ns=cfg.job_overhead_ns,
            max_batch_size=cfg.max_batch_size,
            compile_service=(self._provider.compile_service
                             if with_compile_service else None),
            race_allocators=cfg.race_allocators,
            fault_plan=cfg.fault_plan,
            failure_plan=cfg.failure_plan,
            health_policy=cfg.health_policy,
            priority_aging_ns=cfg.priority_aging_ns,
        )

    def run(
        self,
        submissions: Union[QuantumCircuit, Sequence[QuantumCircuit],
                           Sequence[SubmittedProgram]],
        shots: Optional[int] = None,
        seed: SeedLike = None,
        allocator: Union[str, Allocator, None] = None,
        sigma: Optional[float] = None,
        execute: bool = True,
        transpiler_fn: Optional[TranspilerFn] = None,
    ) -> Job:
        """Submit a stream of programs to the cloud service.

        *submissions* may be :class:`~repro.core.SubmittedProgram`
        objects (arrival times, users, priorities) or bare circuits
        (wrapped as simultaneous arrivals at t=0).  With
        ``execute=False`` the job stops after the discrete-event
        schedule — ``result().schedule`` carries the queue outcome and
        no counts are simulated (the mode queue studies and the
        scheduler benchmark run in).
        """
        cfg = self._configuration.replace(shots=shots)
        subs = self._as_submissions(submissions)
        # Resolve the allocator now, not on the job thread: a typo'd
        # registry name (and the scheduler's sigma/incremental
        # validation) should fail at submit time, like SimulatorBackend.
        chosen = self._resolve_allocator(allocator, sigma,
                                         require_incremental=True)
        # Dispatch-time compile prefetch only helps when the execution
        # pass will hit the same cache entries, i.e. when it compiles
        # with the default hook.
        prefetch = execute and transpiler_fn is None

        def serve(job_id: str) -> Result:
            scheduler = self.scheduler(chosen,
                                       with_compile_service=prefetch)
            before = self._metadata_counters()
            outcome = scheduler.schedule(subs)
            if outcome.rejected and not outcome.completion_ns:
                # Nothing survived admission: a deterministic, typed
                # failure (partial rejections complete normally and
                # list the casualties in the metadata instead).
                raise JobError(
                    f"all {len(subs)} submissions were rejected",
                    job_id=job_id,
                    reasons=outcome.rejection_reasons)
            outcomes: List[List[ExecutionOutcome]] = []
            if execute:
                batch_jobs = [
                    BatchJob(job.allocation,
                             shots=cfg.shots,
                             scheduling=cfg.scheduling,
                             include_crosstalk=cfg.include_crosstalk,
                             transpiler_fn=transpiler_fn)
                    for job in outcome.jobs
                ]
                if batch_jobs:
                    outcomes = run_batch(
                        batch_jobs, seed=seed,
                        compile_service=(
                            self._provider.compile_service if prefetch
                            else None),
                        cache=(None if prefetch
                               else self._provider.cache),
                        execution_service=(
                            self._provider.execution_service))
            deltas = self._counter_deltas(before,
                                          self._metadata_counters())
            return self._build_result(job_id, subs, outcome, outcomes,
                                      cfg.shots, deltas)

        spec = None
        if transpiler_fn is None:
            spec = {
                "kind": "cloud",
                "backend_name": self._name,
                "fleet": self._fleet,
                "configuration": cfg,
                "submissions": subs,
                "allocator": chosen,
                "seed": seed,
                "execute": execute,
            }
        return self._provider._submit_job(self, serve, spec=spec)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_submissions(
        submissions: Union[QuantumCircuit, Sequence[QuantumCircuit],
                           Sequence[SubmittedProgram]],
    ) -> List[SubmittedProgram]:
        if isinstance(submissions, QuantumCircuit):
            return [SubmittedProgram(submissions)]
        subs: List[SubmittedProgram] = []
        for item in submissions:
            if isinstance(item, SubmittedProgram):
                subs.append(item)
            elif isinstance(item, QuantumCircuit):
                subs.append(SubmittedProgram(item))
            else:
                raise TypeError(
                    f"expected QuantumCircuit or SubmittedProgram, got "
                    f"{type(item).__name__}")
        return subs

    def _build_result(self, job_id: str, subs: List[SubmittedProgram],
                      outcome: ScheduleOutcome,
                      outcomes: List[List[ExecutionOutcome]],
                      shots: int, deltas: Dict[str, int]) -> Result:
        throughputs = [job.allocation.throughput() for job in outcome.jobs]
        turnarounds = outcome.turnaround_ns(subs)
        method = (outcome.jobs[0].allocation.method if outcome.jobs
                  else "online")
        metadata = RunMetadata(
            job_id=job_id,
            backend_name=self._name,
            method=method,
            shots=shots if outcomes else 0,
            num_programs=len(subs),
            num_hardware_jobs=outcome.num_jobs,
            throughput=(float(sum(throughputs) / len(throughputs))
                        if throughputs else 0.0),
            makespan_ns=outcome.makespan_ns,
            mean_turnaround_ns=json_safe_num(outcome.mean_turnaround_ns),
            rejected=tuple(outcome.rejected),
            compile_requests=outcome.compile_requests,
            transpile_hits=deltas["transpile_hits"],
            transpile_misses=deltas["transpile_misses"],
            cache_evictions=deltas["evictions"],
            cache_promotions=deltas["promotions"],
            execution_batches=deltas["execution_batches"],
            rejection_reasons=tuple(sorted(
                (int(i), str(r))
                for i, r in outcome.rejection_reasons.items())),
            dynamic_programs=_count_dynamic(s.circuit for s in subs),
        )
        device_names = [job.device_name for job in outcome.jobs]
        programs = build_program_results(outcomes, device_names,
                                         turnarounds)
        return Result(metadata=metadata, programs=programs,
                      schedule=outcome, outcomes=outcomes)
