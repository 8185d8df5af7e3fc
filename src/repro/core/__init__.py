"""The paper's contribution: QuCP crosstalk-aware parallel workload
execution, its baselines (QuMC, CNA, MultiQC, QuCloud) behind one
allocator registry, the fidelity metrics, the threshold scheduler, and
the event-driven cloud service layer."""

from .allocators import (
    AllocationEngine,
    AllocationResult,
    Allocator,
    Placement,
    PlacementContext,
    ProgramAllocation,
    UnknownAllocatorError,
    allocation_engine,
    available_allocators,
    circuit_structure_key,
    get_allocator,
    register_allocator,
    resolve_allocator,
)
from .cna import (
    CnaAllocator,
    CnaCompilation,
    cna_allocate,
    cna_compile,
    cna_transpile_for_partition,
)
from .compile_service import CompileService
from .events import Event, EventKind, EventQueue
from .execution_service import ExecutionService
from .executor import (
    BatchJob,
    ExecutionCache,
    ExecutionOutcome,
    execute_allocation,
    index_sensitive_transpiler,
    run_batch,
)
from .faults import (
    DeviceOutage,
    FaultPlan,
    ResolvedOutage,
    corrupt_file,
    locked_database,
    write_foreign_store,
)
from .health import (
    BreakerState,
    CircuitBreaker,
    DeviceFailurePlan,
    FailureBurst,
    FleetHealth,
    HealthPolicy,
    ResolvedBurst,
)
from .metrics import (
    estimated_fidelity_score,
    hardware_throughput,
    jensen_shannon_divergence,
    kl_divergence,
    normalize_distribution,
    pst,
)
from .multiqc import MultiqcAllocator, multiqc_allocate
from .partition import (
    PartitionCandidate,
    crosstalk_suspect_pairs,
    grow_partition_candidates,
)
from .qucloud import QucloudAllocator, fidelity_degree, qucloud_allocate
from .qucp import DEFAULT_SIGMA, QucpAllocator, qucp_allocate
from .qumc import QumcAllocator, oracle_characterization, qumc_allocate
from .queueing import (
    JobSpec,
    QueueReport,
    batched_speedup,
    simulate_fifo_queue,
)
from .scheduler import (
    CloudScheduler,
    DispatchedBatch,
    ScheduleOutcome,
    SubmittedProgram,
)
from .threshold import ThresholdDecision, select_parallel_count

__all__ = [
    "DEFAULT_SIGMA",
    "AllocationEngine",
    "AllocationResult",
    "Allocator",
    "BatchJob",
    "BreakerState",
    "CircuitBreaker",
    "CloudScheduler",
    "CnaAllocator",
    "CnaCompilation",
    "CompileService",
    "DeviceFailurePlan",
    "DeviceOutage",
    "DispatchedBatch",
    "Event",
    "EventKind",
    "EventQueue",
    "ExecutionCache",
    "ExecutionOutcome",
    "ExecutionService",
    "FailureBurst",
    "FaultPlan",
    "FleetHealth",
    "HealthPolicy",
    "JobSpec",
    "MultiqcAllocator",
    "PartitionCandidate",
    "Placement",
    "PlacementContext",
    "ProgramAllocation",
    "QucloudAllocator",
    "QucpAllocator",
    "QueueReport",
    "QumcAllocator",
    "ResolvedBurst",
    "ResolvedOutage",
    "ScheduleOutcome",
    "SubmittedProgram",
    "ThresholdDecision",
    "UnknownAllocatorError",
    "allocation_engine",
    "available_allocators",
    "batched_speedup",
    "circuit_structure_key",
    "cna_allocate",
    "cna_compile",
    "cna_transpile_for_partition",
    "corrupt_file",
    "crosstalk_suspect_pairs",
    "estimated_fidelity_score",
    "execute_allocation",
    "fidelity_degree",
    "get_allocator",
    "grow_partition_candidates",
    "hardware_throughput",
    "index_sensitive_transpiler",
    "jensen_shannon_divergence",
    "kl_divergence",
    "locked_database",
    "multiqc_allocate",
    "normalize_distribution",
    "oracle_characterization",
    "pst",
    "qucloud_allocate",
    "qucp_allocate",
    "qumc_allocate",
    "register_allocator",
    "resolve_allocator",
    "run_batch",
    "select_parallel_count",
    "simulate_fifo_queue",
    "write_foreign_store",
]
