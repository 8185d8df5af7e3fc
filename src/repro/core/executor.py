"""End-to-end parallel workload execution: allocate -> transpile -> run
-> score.

Ties together the allocator output, the per-partition transpiler, the
crosstalk-aware simulator, and the PST/JSD metrics.

Two entry points:

- :func:`execute_allocation` runs one allocated job.
- :func:`run_batch` runs a sweep of jobs through one shared
  :class:`~repro.cache.ExecutionCache`, so repeated programs (benchmark
  combos reuse the same workloads over and over) pay for transpilation
  and the ideal reference distribution once; per-job RNG streams are
  spawned independently from the batch seed.

Both compile through a :class:`~repro.core.compile_service.CompileService`
— the caller's, or a private one over the caller's cache — and simulate
through :func:`repro.sim.executor.run_parallel` unless given an
:class:`~repro.core.execution_service.ExecutionService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .execution_service import ExecutionService

from ..cache import ExecutionCache
from ..circuits.controlflow import measured_clbits_of
from ..sim.density_matrix import SimulationResult
from ..sim.executor import Program, run_parallel, spawn_seeds
from ..sim.readout import SeedLike
from ..transpiler.transpile import TranspileResult
from .compile_service import CompileService, TranspilerFn
from .metrics import jensen_shannon_divergence, pst
from .qucp import AllocationResult, ProgramAllocation

__all__ = ["ExecutionOutcome", "execute_allocation", "TranspilerFn",
           "BatchJob", "ExecutionCache", "run_batch"]


@dataclass
class ExecutionOutcome:
    """Result of one program inside a parallel job."""

    allocation: ProgramAllocation
    transpiled: TranspileResult
    result: SimulationResult
    ideal: Dict[str, float]

    def pst(self) -> float:
        """PST against the most likely ideal outcome (Eq. 2)."""
        expected = max(self.ideal, key=self.ideal.get)
        return pst(self.result.probabilities, expected)

    def jsd(self) -> float:
        """JSD between measured and ideal distributions (Eq. 3)."""
        return jensen_shannon_divergence(self.result.probabilities,
                                         self.ideal)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary: plain scalars, lists, and str-keyed dicts.

        The one serialization format shared by :class:`~repro.service.
        Result` payloads and benchmark artifacts — ``json.dumps`` of the
        return value always succeeds (and round-trips losslessly).
        """
        return {
            "program_index": int(self.allocation.index),
            "circuit": self.allocation.circuit.name,
            "num_qubits": int(self.allocation.circuit.num_qubits),
            "partition": [int(q) for q in self.allocation.partition],
            "efs": float(self.allocation.efs),
            "crosstalk_pairs": [
                [int(a), int(b)]
                for a, b in self.allocation.crosstalk_pairs],
            "num_swaps": int(self.transpiled.num_swaps),
            "depth": int(self.transpiled.circuit.depth()),
            "shots": int(self.result.shots),
            "counts": {str(k): int(v)
                       for k, v in self.result.counts.items()},
            "probabilities": {str(k): float(v)
                              for k, v in self.result.probabilities.items()},
            "pst": float(self.pst()),
            "jsd": float(self.jsd()),
        }


def _compile_service(cache: Optional[ExecutionCache],
                     compile_service: Optional[CompileService]
                     ) -> CompileService:
    """The caller's compile service, or a private one over *cache*."""
    if compile_service is None:
        return CompileService(cache)
    if cache is None or cache is compile_service.cache:
        return compile_service
    raise ValueError(
        "pass either a cache or a compile_service (which brings its "
        "own); two different caches would split the memoization")


def execute_allocation(
    allocation_result: AllocationResult,
    shots: int = 8192,
    seed: SeedLike = None,
    scheduling: str = "alap",
    transpiler_fn: Optional[TranspilerFn] = None,
    include_crosstalk: bool = True,
    cache: Optional[ExecutionCache] = None,
    compile_service: Optional[CompileService] = None,
    execution_service: "Optional[ExecutionService]" = None,
) -> List[ExecutionOutcome]:
    """Run every allocated program simultaneously; outcomes in input order.

    Each logical circuit must contain measurements (the metrics compare
    measured distributions).  Every program is keyed and compiled once
    through *compile_service*, joining a compile another job thread
    already has in flight; without one, a private service over *cache*
    compiles.  Pass a shared :class:`ExecutionCache` to amortize
    transpilation and ideal-distribution work across calls (or use
    :func:`run_batch`, which does so automatically).  With an
    *execution_service*, repeated simulations are served from its memos
    (bit-identical to a fresh simulation — see
    :class:`~repro.core.execution_service.ExecutionService`).
    """
    compile_service = _compile_service(cache, compile_service)
    device = allocation_result.device
    ordered = sorted(allocation_result.allocations, key=lambda a: a.index)
    for alloc in ordered:
        # measured_clbits_of descends into control-flow bodies, so a
        # dynamic program whose only measures live inside branches counts.
        if not measured_clbits_of(alloc.circuit):
            raise ValueError(
                f"program {alloc.index} has no measurements; metrics need "
                "measured outputs")
    # Results come back in allocation-index order — the same order as
    # `ordered` — freshened against aliasing the shared cache.
    transpiled = compile_service.compile_allocation(allocation_result,
                                                    transpiler_fn)
    programs = [Program(tr.circuit, alloc.partition)
                for alloc, tr in zip(ordered, transpiled)]
    if execution_service is not None:
        results = execution_service.run_parallel(
            programs, device, shots=shots, seed=seed,
            scheduling=scheduling, include_crosstalk=include_crosstalk)
    else:
        results = run_parallel(programs, device, shots=shots, seed=seed,
                               scheduling=scheduling,
                               include_crosstalk=include_crosstalk)
    cache = compile_service.cache
    return [ExecutionOutcome(alloc, tr, res, cache.ideal(alloc.circuit))
            for alloc, tr, res in zip(ordered, transpiled, results)]


@dataclass
class BatchJob:
    """One parallel job inside a batched sweep.

    ``seed=None`` means "derive from the batch seed" (each job gets an
    independent child stream); set an explicit seed to pin a job.
    """

    allocation: AllocationResult
    shots: int = 8192
    seed: SeedLike = None
    scheduling: str = "alap"
    include_crosstalk: bool = True
    transpiler_fn: Optional[TranspilerFn] = None


def run_batch(
    jobs: Sequence[Union[BatchJob, AllocationResult]],
    seed: SeedLike = None,
    cache: Optional[ExecutionCache] = None,
    compile_service: Optional[CompileService] = None,
    execution_service: "Optional[ExecutionService]" = None,
) -> List[List[ExecutionOutcome]]:
    """Execute a sweep of parallel jobs with shared caching.

    *jobs* may mix :class:`BatchJob` entries and bare
    :class:`AllocationResult` objects (run with :class:`BatchJob`
    defaults).  All jobs share one :class:`ExecutionCache` — repeated
    circuits are transpiled once and their ideal distributions computed
    once — and jobs without an explicit seed get independent child RNG
    streams spawned from *seed*.  Returns one outcome list per job, in
    input order.

    *compile_service* (a private one over *cache* when omitted) and
    *execution_service* are passed through to every job's
    :func:`execute_allocation`.
    """
    normalized: List[BatchJob] = [
        job if isinstance(job, BatchJob) else BatchJob(job) for job in jobs
    ]
    compile_service = _compile_service(cache, compile_service)
    batch_seeds = spawn_seeds(seed, len(normalized))
    outcomes: List[List[ExecutionOutcome]] = []
    for job, child in zip(normalized, batch_seeds):
        job_seed = job.seed if job.seed is not None else child
        outcomes.append(
            execute_allocation(
                job.allocation,
                shots=job.shots,
                seed=job_seed,
                scheduling=job.scheduling,
                transpiler_fn=job.transpiler_fn,
                include_crosstalk=job.include_crosstalk,
                compile_service=compile_service,
                execution_service=execution_service,
            ))
    return outcomes
