"""Transpile service: every request compiles inline, once.

The cloud service's compile cost is per-program transpilation; with the
:mod:`~repro.transpiler.context` layer the device-invariant tables are
shared, so what remains is per-program work.  :class:`CompileService`
is the one compile path: it compiles each request inline on the calling
thread, with three layers of reuse:

- the shared :class:`~repro.cache.ExecutionCache` (full results, keyed
  by circuit structure + placement + device + hook; with a persistent
  store attached, artifacts other processes compiled);
- in-flight coalescing — a job thread requesting a key another job
  thread is compiling waits for that compile instead of compiling twice;
- the fingerprint-keyed :func:`~repro.transpiler.context.device_context`
  registry, so compiles never rebuild distance tables.

:func:`repro.core.executor.execute_allocation` compiles each job's
programs through it — the provider's service, or a private one over the
caller's cache — so every program is keyed and compiled once.  All
writes happen on the requesting thread, where the service layer's retry
fence (:mod:`repro.service.retry`) gates them.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, List, Optional

from ..cache import ExecutionCache, persistent_cache_token, transpile_key
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..transpiler.transpile import TranspileResult, transpile_for_partition
from .allocators import AllocationResult, ProgramAllocation

__all__ = ["CompileService"]

#: Hook: (logical circuit, device, allocation) -> TranspileResult.
TranspilerFn = Callable[[QuantumCircuit, Device, ProgramAllocation],
                        TranspileResult]


# The token versions the persistent store's entries for this pipeline:
# bump it whenever the default pipeline's output would change, so stale
# artifacts from older builds miss instead of being reused.
@persistent_cache_token("default-O3-alap-sched/v2")
def _default_transpiler(circuit: QuantumCircuit, device: Device,
                        allocation: ProgramAllocation) -> TranspileResult:
    return transpile_for_partition(circuit, device, allocation.partition,
                                   optimization_level=3, schedule=True)


class CompileService:
    """Transpiles programs inline through a shared cache.

    Parameters
    ----------
    cache:
        The shared :class:`ExecutionCache`; a private one is created
        when omitted.  Every compile publishes its result here, so
        executors running against the same cache see compile hits.

    Futures returned by :meth:`submit` resolve to *raw* (shared) results;
    use :meth:`transpile` / :meth:`compile_allocation` to get the
    defensively copied form callers may mutate.
    """

    def __init__(self, cache: Optional[ExecutionCache] = None) -> None:
        self.cache = cache or ExecutionCache()
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        # Request accounting: ``submitted`` requests compiled here,
        # ``coalesced`` requests that joined another thread's in-flight
        # compile, ``short_circuits`` requests answered from the cache.
        self._requests: Dict[str, int] = {
            "submitted": 0, "coalesced": 0, "short_circuits": 0}

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting merged with the cache's tier counters.

        Request side: ``submitted``, ``coalesced`` and
        ``short_circuits`` (see the constructor).  Cache side: see
        :attr:`ExecutionCache.stats` (hits/misses, evictions,
        promotions, ``persistent_*``).
        """
        merged = dict(self._requests)
        # Always 0 (there is no pool and no equivalence-class tier): the
        # end-to-end benchmark still reads these keys.
        merged["chunks"] = 0
        merged["equivalence_hits"] = 0
        merged.update(self.cache.stats)
        return merged

    # ------------------------------------------------------------------
    def submit(self, circuit: QuantumCircuit, device: Device,
               allocation: ProgramAllocation,
               transpiler_fn: Optional[TranspilerFn] = None) -> Future:
        """Compile one request inline; dedups against cache and in-flight
        work.

        The returned future is resolved, unless another thread is
        compiling the same key: then it resolves once that compile is
        published to :attr:`cache`.  Its value is the raw cached result
        — shared, do not mutate; resolve through :meth:`transpile` for a
        fresh copy.  A compile error is carried by the future.
        """
        fn = transpiler_fn or _default_transpiler
        # The key (the circuit fingerprint, the expensive part) needs no
        # lock; the cache and in-flight checks must be one atomic step.
        key = transpile_key(circuit, device, allocation, fn)
        with self._lock:
            found = self.cache.lookup_transpile_raw(key, device, fn)
            if found is not None:
                self._requests["short_circuits"] += 1
                done: Future = Future()
                done.set_result(found)
                return done
            inflight = None if key is None else self._inflight.get(key)
            if inflight is not None:
                self._requests["coalesced"] += 1
                return inflight
            out: Future = Future()
            if key is not None:
                self._inflight[key] = out
            self._requests["submitted"] += 1
        try:
            result = fn(circuit, device, allocation)
            self.cache.store_transpile_raw(key, device, fn, result)
        except BaseException as exc:
            # The future carries compile errors to every waiter; an
            # interrupt fails them too (none may hang), then propagates.
            out.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
        else:
            out.set_result(result)
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        return out

    def transpile(self, circuit: QuantumCircuit, device: Device,
                  allocation: ProgramAllocation,
                  transpiler_fn: Optional[TranspilerFn] = None
                  ) -> TranspileResult:
        """Blocking single transpile through the service (fresh copy)."""
        fut = self.submit(circuit, device, allocation, transpiler_fn)
        return ExecutionCache._fresh(fut.result())

    # ------------------------------------------------------------------
    def submit_allocation(self, allocation_result: AllocationResult,
                          transpiler_fn: Optional[TranspilerFn] = None
                          ) -> List[Future]:
        """Submit every program of one allocated job (program order)."""
        device = allocation_result.device
        ordered = sorted(allocation_result.allocations,
                         key=lambda a: a.index)
        return [self.submit(a.circuit, device, a, transpiler_fn)
                for a in ordered]

    def compile_allocation(self, allocation_result: AllocationResult,
                           transpiler_fn: Optional[TranspilerFn] = None
                           ) -> List[TranspileResult]:
        """Batch-transpile one allocated job; results in program order."""
        futures = self.submit_allocation(allocation_result, transpiler_fn)
        return [ExecutionCache._fresh(f.result()) for f in futures]
