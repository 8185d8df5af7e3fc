"""End-to-end parallel workload execution: allocate -> transpile -> run
-> score.

Ties together the allocator output, the per-partition transpiler, the
crosstalk-aware simulator, and the PST/JSD metrics.

Two entry points:

- :func:`execute_allocation` runs one allocated job.
- :func:`run_batch` runs a sweep of jobs through one shared
  :class:`ExecutionCache`, so repeated programs (benchmark combos reuse
  the same workloads over and over) pay for transpilation and the ideal
  reference distribution once; per-job RNG streams are spawned
  independently from the batch seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compile_service import CompileService
    from .execution_service import ExecutionService

from ..cache import (
    MemoryCache,
    PersistentCache,
    TieredCache,
    TranspileKey,
    canonical_form,
    index_sensitive_transpiler,
    persistent_cache_token,
)
from ..cache import transpile_key as compute_transpile_key
from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import measured_clbits_of
from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult
from ..sim.executor import Program, run_parallel, spawn_seeds
from ..sim.readout import SeedLike
from ..sim.statevector import ideal_probabilities
from ..transpiler.transpile import TranspileResult, transpile_for_partition
from .metrics import jensen_shannon_divergence, pst
from .qucp import AllocationResult, ProgramAllocation

__all__ = ["ExecutionOutcome", "execute_allocation", "TranspilerFn",
           "BatchJob", "ExecutionCache", "index_sensitive_transpiler",
           "run_batch"]

#: Hook: (logical circuit, device, allocation) -> TranspileResult.
TranspilerFn = Callable[[QuantumCircuit, Device, ProgramAllocation],
                        TranspileResult]


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


# The token versions the persistent store's entries for this pipeline:
# bump it whenever the default pipeline's output would change, so stale
# artifacts from older builds miss instead of being reused.
@persistent_cache_token("default-O3-alap-sched/v2")
def _default_transpiler(circuit: QuantumCircuit, device: Device,
                        allocation: ProgramAllocation) -> TranspileResult:
    return transpile_for_partition(circuit, device, allocation.partition,
                                   optimization_level=3, schedule=True)


#: Default LRU bound on each in-memory cache table — generous for
#: figure-sized sweeps, finite for long-lived services (entries pin
#: their keyed devices and results alive).
_DEFAULT_MAX_ENTRIES = 4096

#: Environment override for the default bound: a non-negative integer
#: caps each table, a negative value removes the bound entirely.
_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

_UNSET = object()


def _default_max_entries() -> Optional[int]:
    """The in-memory bound when the caller did not pass one."""
    raw = os.environ.get(_MAX_ENTRIES_ENV)
    if raw is None:
        return _DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_MAX_ENTRIES
    return None if value < 0 else value


class ExecutionCache:
    """Cross-job memoization of transpilation and ideal distributions.

    A façade over the layered :mod:`repro.cache` subsystem: lookups walk
    an exact-key in-memory tier, an equivalence-class tier (circuits
    differing only by a qubit relabeling reuse one compiled artifact,
    layouts remapped), and — when *store_path* points at a store — a
    SQLite WAL persistent tier shared across processes, so a cold
    process on a warm store skips compilation entirely.

    Keyed on circuit *structure* plus placement, so repeated programs in
    a sweep amortize the expensive steps.  Hit/miss counters are exposed
    for tests and benchmark reporting (see :attr:`stats` for the full
    cross-tier snapshot).  *max_entries* LRU-bounds each in-memory table;
    when omitted it defaults to a generous cap (4096, overridable via
    ``REPRO_CACHE_MAX_ENTRIES``; negative = unbounded), and an explicit
    ``None`` is unbounded.
    """

    def __init__(self, max_entries=_UNSET,
                 store_path: Optional[str] = None,
                 persistent: Optional[PersistentCache] = None) -> None:
        if max_entries is _UNSET:
            max_entries = _default_max_entries()
        self.max_entries = max_entries
        # In-memory values keep strong references to the keyed
        # device/transpiler so their id()s cannot be recycled onto
        # different objects while an entry is alive.
        self.tiers = TieredCache(max_entries=max_entries,
                                 store_path=store_path,
                                 persistent=persistent)
        self._ideal_table = MemoryCache(max_entries)
        self.transpile_hits = 0
        self.transpile_misses = 0
        self.ideal_hits = 0
        self.ideal_misses = 0
        #: Optional publication gate: a zero-argument callable consulted
        #: before every write.  Returning ``False`` drops the write (the
        #: caller still gets its computed value) and counts it in
        #: :attr:`gated_writes`.  The service layer wires the retry
        #: fence in here so attempts abandoned by a timeout stop
        #: publishing into shared state.
        self.write_gate: Optional[Callable[[], bool]] = None
        self.gated_writes = 0

    def _may_write(self) -> bool:
        gate = self.write_gate
        if gate is None or gate():
            return True
        self.gated_writes += 1
        return False

    @property
    def persistent(self) -> Optional[PersistentCache]:
        """The attached persistent store, or ``None``."""
        return self.tiers.l2

    @property
    def store_path(self) -> Optional[str]:
        """Path of the attached persistent store, or ``None``."""
        l2 = self.tiers.l2
        return None if l2 is None else l2.path

    def clear(self, persistent: bool = False) -> None:
        """Drop the in-memory entries (counters are kept).

        The shared on-disk store is only touched when *persistent* is
        true — it outlives this process by design.
        """
        self.tiers.clear(persistent=persistent)
        self._ideal_table.clear()

    def transpile_key(self, circuit: QuantumCircuit, device: Device,
                      allocation: ProgramAllocation,
                      transpiler_fn: TranspilerFn
                      ) -> Optional[TranspileKey]:
        """Cache key of one transpile request, or ``None`` (unhashable).

        The default key is *structural*: circuit structure, placement
        (partition, EFS, crosstalk pairs), the device, and the hook —
        but **not** ``allocation.index``, so identical programs admitted
        at different queue positions share one entry across
        submissions.  Hooks that actually observe the index (marked via
        :func:`index_sensitive_transpiler`) get the index folded back
        in, keeping their entries position-exact.  The returned
        :class:`~repro.cache.TranspileKey` hashes/compares by its exact
        form and additionally carries the equivalence-class and
        persistent-store forms consumed by the deeper tiers.
        """
        return compute_transpile_key(circuit, device, allocation,
                                     transpiler_fn)

    def lookup_transpile_raw(self, key: Optional[TranspileKey],
                             device: Device,
                             transpiler_fn: TranspilerFn
                             ) -> Optional[TranspileResult]:
        """Cached *raw* (shared, do-not-mutate) result for a
        precomputed key, or ``None``; counts hit/miss.

        Key-based so the service's hot path computes the circuit
        fingerprint once per request; apply :meth:`_fresh` before
        handing the result to anything that may mutate it.  The result
        is always in the request's own qubit labeling, whichever tier
        served it.
        """
        found = None if key is None else self.tiers.lookup(
            key, device, transpiler_fn)
        if found is not None:
            self.transpile_hits += 1
            return found
        self.transpile_misses += 1
        return None

    def store_transpile_raw(self, key: Optional[TranspileKey],
                            device: Device,
                            transpiler_fn: TranspilerFn,
                            result: TranspileResult) -> None:
        """Insert a computed result under a precomputed key (no-op for
        ``None`` keys).  Used by
        :class:`~repro.core.compile_service.CompileService` to publish
        results into the shared cache; publication fans out to every
        applicable tier (exact, equivalence-class, persistent).
        """
        if key is not None and self._may_write():
            self.tiers.store(key, device, transpiler_fn, result)

    def transpile(self, circuit: QuantumCircuit, device: Device,
                  allocation: ProgramAllocation,
                  transpiler_fn: TranspilerFn) -> TranspileResult:
        """Transpile through the cache (placement-sensitive key)."""
        key = self.transpile_key(circuit, device, allocation, transpiler_fn)
        found = self.lookup_transpile_raw(key, device, transpiler_fn)
        if found is not None:
            return self._fresh(found)
        result = transpiler_fn(circuit, device, allocation)
        self.store_transpile_raw(key, device, transpiler_fn, result)
        return self._fresh(result)

    @staticmethod
    def _fresh(result: TranspileResult) -> TranspileResult:
        """Copy a cached result so outcomes never alias mutable state.

        Instructions are immutable (a shallow circuit copy suffices) but
        layouts are not (``Layout.swap_physical`` mutates in place);
        without these copies a caller mutating one outcome's transpiled
        circuit or layout would corrupt every sibling and future hit.
        """
        return replace(result,
                       circuit=result.circuit.copy(),
                       initial_layout=result.initial_layout.copy(),
                       final_layout=result.final_layout.copy())

    def ideal(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Ideal (noiseless) output distribution through the cache.

        Keyed by the circuit's *canonical* form: relabeling the qubit
        register permutes the state but not the measured clbits, so
        every member of an equivalence class shares one distribution.
        Returns a fresh dict each call — outcomes must not alias one
        shared mutable distribution, or a caller mutating its copy would
        corrupt the cache and every sibling outcome.
        """
        form = canonical_form(circuit)
        if form is None:
            self.ideal_misses += 1
            return ideal_probabilities(circuit)
        cached = self._ideal_table.get(form.key)
        if cached is not None:
            self.ideal_hits += 1
            return dict(cached)
        self.ideal_misses += 1
        result = ideal_probabilities(circuit)
        if self._may_write():
            self._ideal_table.put(form.key, result)
        return dict(result)

    @property
    def stats(self) -> Dict[str, int]:
        """Cross-tier counter snapshot (plain ints, JSON-safe).

        Transpile/ideal hit-miss counters plus the tier internals:
        ``evictions`` (all in-memory tables), ``equivalence_hits``,
        ``promotions`` (store -> memory), and the ``persistent_*``
        counters (zero without an attached store).
        """
        merged = self.tiers.stats
        merged["evictions"] += self._ideal_table.evictions
        merged.update(
            transpile_hits=self.transpile_hits,
            transpile_misses=self.transpile_misses,
            ideal_hits=self.ideal_hits,
            ideal_misses=self.ideal_misses,
            gated_writes=self.gated_writes,
        )
        return merged


def _resolve_service_cache(cache, compile_service):
    """One shared cache when a compile service participates."""
    if compile_service is None:
        return cache or ExecutionCache()
    if cache is None or cache is compile_service.cache:
        return compile_service.cache
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
    compile_service: "Optional[CompileService]" = None,
    execution_service: "Optional[ExecutionService]" = None,
) -> List[ExecutionOutcome]:
    """Run every allocated program simultaneously; outcomes in input order.

    Each logical circuit must contain measurements (the metrics compare
    measured distributions).  Pass a shared :class:`ExecutionCache` to
    amortize transpilation and ideal-distribution work across calls (or
    use :func:`run_batch`, which does so automatically).  With a
    *compile_service*, each program is keyed and compiled once through
    it, joining a compile another job thread already has in flight.
    With an *execution_service*, repeated simulations are served from
    its memos (bit-identical to a fresh simulation — see
    :class:`~repro.core.execution_service.ExecutionService`).
    """
    transpiler_fn = transpiler_fn or _default_transpiler
    cache = _resolve_service_cache(cache, compile_service)
    device = allocation_result.device
    ordered = sorted(allocation_result.allocations, key=lambda a: a.index)
    for alloc in ordered:
        # measured_clbits_of descends into control-flow bodies, so a
        # dynamic program whose only measures live inside branches counts.
        if not measured_clbits_of(alloc.circuit):
            raise ValueError(
                f"program {alloc.index} has no measurements; metrics need "
                "measured outputs")
    transpiled: List[TranspileResult] = []
    programs: List[Program] = []
    if compile_service is not None:
        # Futures come back in allocation-index order — the same order
        # as `ordered`.  Consume their raw results directly (freshened
        # against aliasing): for hashable circuits they are already
        # published to the shared cache, and unhashable ones must not
        # compile twice.
        futures = compile_service.submit_allocation(allocation_result,
                                                    transpiler_fn)
        for alloc, fut in zip(ordered, futures):
            tr = ExecutionCache._fresh(fut.result())
            transpiled.append(tr)
            programs.append(Program(tr.circuit, alloc.partition))
    else:
        for alloc in ordered:
            tr = cache.transpile(alloc.circuit, device, alloc,
                                 transpiler_fn)
            transpiled.append(tr)
            programs.append(Program(tr.circuit, alloc.partition))
    if execution_service is not None:
        results = execution_service.run_parallel(
            programs, device, shots=shots, seed=seed,
            scheduling=scheduling, include_crosstalk=include_crosstalk)
    else:
        results = run_parallel(programs, device, shots=shots, seed=seed,
                               scheduling=scheduling,
                               include_crosstalk=include_crosstalk)
    outcomes: List[ExecutionOutcome] = []
    for alloc, tr, res in zip(ordered, transpiled, results):
        ideal = cache.ideal(alloc.circuit)
        outcomes.append(ExecutionOutcome(alloc, tr, res, ideal))
    return outcomes


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
    compile_service: "Optional[CompileService]" = None,
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

    *compile_service* and *execution_service* are passed through to
    every job's :func:`execute_allocation`.
    """
    normalized: List[BatchJob] = [
        job if isinstance(job, BatchJob) else BatchJob(job) for job in jobs
    ]
    cache = _resolve_service_cache(cache, compile_service)
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
                cache=cache,
                compile_service=compile_service,
                execution_service=execution_service,
            ))
    return outcomes
