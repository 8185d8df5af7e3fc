"""The service facade — the repo's primary public API.

One object model over the whole execution stack (allocators, the
discrete-event cloud scheduler, the compile service, the noisy
simulators), shaped like a cloud provider SDK::

    import repro

    provider = repro.provider()
    backend = provider.backend("ibm_toronto", fidelity_threshold=0.3)
    job = backend.run(circuits, shots=4096, seed=7)     # returns now
    result = job.result()                               # blocks
    print(result.counts(0), result.program(0).pst)

- :class:`QuantumProvider` — discovers devices/fleets; owns the shared
  :class:`~repro.core.ExecutionCache`, the
  :class:`~repro.core.CompileService`, and the asynchronous job pool.
- :class:`CloudBackend` / :class:`SimulatorBackend` — per-target
  configuration (allocator, fidelity threshold, batching window,
  shots) behind one ``run`` surface.
- :class:`Job` / :class:`JobSet` — async handles with ``status()`` /
  ``result()`` / ``cancel()`` and stable ids.
- :class:`Session` — pins a backend and warms its caches for iterative
  workloads (VQE/QAOA loops).
- :class:`Result` / :class:`RunMetadata` / :class:`ProgramResult` —
  typed, JSON-serializable results with allocation + compile
  provenance and queue timings (``from_dict`` inverses for store
  rehydration).
- :class:`JobStore` / :class:`RetryPolicy` — the durability layer:
  crash-recoverable job persistence (``store_path=`` /
  ``REPRO_JOB_STORE``) with resume-on-restart, and deterministic
  retry/backoff/timeout handling for every submission.
- :class:`Gateway` / :class:`AdmissionController` — the multi-tenant
  front door: per-user token-bucket quotas, priority classes,
  backpressure and deadline shedding (typed
  :class:`QuotaExceededError` / :class:`OverloadedError` refusals with
  retry-after hints), persisted terminally as ``SHED``/``REJECTED``.

The free functions this facade fronts —
:func:`repro.core.execute_allocation`, :func:`repro.core.run_batch`,
:class:`repro.core.CloudScheduler` — remain available as the engine
layer; scheduler-backed jobs reproduce ``CloudScheduler.schedule``
bit-identically (test-enforced).
"""

from .admission import (
    PRIORITY_CLASSES,
    AdmissionController,
    AdmissionDecision,
    AdmissionError,
    AdmissionPolicy,
    CostModel,
    OverloadedError,
    QuotaExceededError,
    TokenBucket,
    UserQuota,
)
from .backend import (
    BackendConfiguration,
    BaseBackend,
    CloudBackend,
    SimulatorBackend,
)
from .gateway import Gateway, GatewayTicket
from .job import Job, JobError, JobSet, JobStatus
from .provider import QuantumProvider, UnknownDeviceError, provider
from .result import ProgramResult, Result, RunMetadata, ScheduleRecord
from .retry import JobTimeoutError, RetryPolicy
from .session import Session
from .store import JobStore, StoredJob, StoredTransition

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionError",
    "AdmissionPolicy",
    "BackendConfiguration",
    "BaseBackend",
    "CloudBackend",
    "CostModel",
    "Gateway",
    "GatewayTicket",
    "Job",
    "JobError",
    "JobSet",
    "JobStatus",
    "JobStore",
    "JobTimeoutError",
    "OverloadedError",
    "PRIORITY_CLASSES",
    "ProgramResult",
    "QuantumProvider",
    "QuotaExceededError",
    "Result",
    "RetryPolicy",
    "RunMetadata",
    "ScheduleRecord",
    "Session",
    "SimulatorBackend",
    "StoredJob",
    "StoredTransition",
    "TokenBucket",
    "UnknownDeviceError",
    "UserQuota",
    "provider",
]
