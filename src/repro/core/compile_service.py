"""Parallel transpile service over a persistent process pool.

The cloud service's compile cost is per-program transpilation; with the
:mod:`~repro.transpiler.context` layer the device-invariant tables are
shared, so what remains is embarrassingly parallel per-program work.
:class:`CompileService` compiles each batch inline or shards it across
a :class:`~repro.core.pool.ProcessPool`, with three layers of reuse:

- the shared :class:`~repro.core.executor.ExecutionCache` (full results,
  keyed by circuit structure + placement + device + hook);
- in-flight coalescing — concurrent requests for the same key await one
  worker instead of compiling twice;
- the fingerprint-keyed :func:`~repro.transpiler.context.device_context`
  registry, warmed per process, so workers never rebuild distance
  tables (inline compiles share the parent's; each process-pool worker
  warms its own on first use and keeps it for the pool's lifetime).

Process mode ships work in *chunks*: one allocation's partitions are
sharded across the workers, and each chunk carries a plain-data device
fingerprint (:func:`~repro.core.pool.device_fingerprint_spec`: coupling
edges + calibration tables — kilobytes) instead of a pickled
:class:`~repro.transpiler.context.DeviceContext` (graphs, Dijkstra
tables, memoized sub-contexts).  The worker rehydrates the fingerprint
through its process-local context registry, so the first chunk on a
worker builds the tables once and every later chunk hits.
``mode="auto"`` picks serial or process per batch from the batch size,
device width and core count (:meth:`CompileService.choose_route`).

It plugs into :func:`repro.core.executor.run_batch` (prefetch: all jobs'
programs are submitted before the first job executes, so process-routed
compiles overlap execution) and :class:`repro.core.CloudScheduler`
(each dispatched batch is submitted as it is admitted).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..cache import (
    PersistentCache,
    canonical_form,
    dumps_artifact,
    invert_relabel,
    loads_artifact,
    remap_result,
)
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..hardware.topology import CouplingMap
from ..transpiler.context import device_context
from ..transpiler.transpile import TranspileResult, transpile
from .allocators import AllocationResult, ProgramAllocation
from .executor import ExecutionCache, TranspilerFn, _default_transpiler
from .pool import ProcessPool, device_fingerprint_spec

__all__ = ["CompileService"]

_MODES = ("auto", "process", "serial")

#: Process-pool thresholds: per-task pickling only amortizes on wide
#: devices (long compiles) and real batches (ROADMAP: >30q).
_PROCESS_MIN_BATCH = 8
_PROCESS_MIN_WIDTH = 30


# ----------------------------------------------------------------------
# process-worker side: fingerprint rehydration
# ----------------------------------------------------------------------

def _rehydrate_context(spec: Dict):
    """Worker-side context lookup from a fingerprint spec.

    Goes through the process-local :func:`device_context` registry, so
    every chunk after the first reuses the worker's cached tables.
    """
    coupling = CouplingMap(spec["num_qubits"], spec["edges"])
    return device_context(coupling, spec["calibration"])


#: Process-local persistent-store connections, one per path: every
#: chunk a worker serves reuses its open WAL connection.
_WORKER_STORES: Dict[str, PersistentCache] = {}


def _worker_store(path: str) -> PersistentCache:
    """This worker process's connection to the store at *path*."""
    store = _WORKER_STORES.get(path)
    if store is None:
        store = PersistentCache(path)
        _WORKER_STORES[path] = store
    return store


def _compile_partition_chunk(
    spec: Dict,
    tasks: Sequence[Tuple[QuantumCircuit, Tuple[int, ...],
                          Optional[str], Optional[str]]],
    store_path: Optional[str] = None,
) -> List[TranspileResult]:
    """Compile one shard of (circuit, partition, digest, invariants)
    tasks in a worker.

    Mirrors :func:`~repro.core.executor._default_transpiler`
    (``optimization_level=3, schedule=True``) on the rehydrated
    context's memoized partition sub-contexts.  With a *store_path*,
    the worker checks the shared persistent store before compiling —
    another process (or an earlier run) may already have published the
    equivalence class — and publishes what it compiles, so concurrent
    fleet workers race benignly on the same WAL store.  Results are
    always returned in each task's own qubit labeling.
    """
    context = _rehydrate_context(spec)
    store = _worker_store(store_path) if store_path else None
    results: List[TranspileResult] = []
    for circuit, partition, digest, invariants in tasks:
        relabel = None
        if store is not None and digest is not None:
            form = canonical_form(circuit)
            relabel = None if form is None else form.relabel
            payload = store.get(digest)
            if payload is not None:
                canonical = loads_artifact(payload)
                if canonical is not None:
                    results.append(
                        canonical if relabel is None else
                        remap_result(canonical, invert_relabel(relabel)))
                    continue
                store.delete(digest)
        sub = context.partition_context(tuple(int(q) for q in partition))
        result = transpile(
            circuit, sub.coupling, sub.calibration,
            optimization_level=3, schedule=True, context=sub)
        if store is not None and digest is not None:
            store.put(digest, dumps_artifact(remap_result(result, relabel)),
                      invariants or "")
        results.append(result)
    return results


class CompileService:
    """Batch-transpiles programs inline or across a persistent process
    pool.

    Parameters
    ----------
    max_workers:
        Pool size (``None`` = executor default).  Ignored for
        ``mode="serial"``.
    mode:
        ``"auto"`` (default; per-batch choice via :meth:`choose_route`:
        the process pool for big batches on wide devices, inline
        otherwise), ``"process"`` (true parallelism; chunk-sharded for
        the default transpiler, per-task pickling otherwise), or
        ``"serial"`` (no pool — same API, inline execution on the
        caller's thread).
    cache:
        The shared :class:`ExecutionCache`; a private one is created
        when omitted.  Every submission publishes its result here, so
        executors running against the same cache see compile hits.

    Futures returned by :meth:`submit` resolve to *raw* (shared) results;
    use :meth:`transpile` / :meth:`compile_allocation` to get the
    defensively copied form callers may mutate.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 mode: str = "auto",
                 cache: Optional[ExecutionCache] = None) -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        self.mode = mode
        self.cache = cache or ExecutionCache()
        self._pool = ProcessPool(max_workers)
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        # Request accounting: ``submitted`` tasks actually handed to a
        # worker, ``coalesced`` requests that joined an in-flight task,
        # ``short_circuits`` requests answered straight from the cache,
        # ``chunks`` process-pool shards shipped, ``fallbacks``
        # requests compiled inline after a broken/shut-down pool.
        self._requests: Dict[str, int] = {
            "submitted": 0, "coalesced": 0, "short_circuits": 0,
            "chunks": 0, "fallbacks": 0}

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting merged with the cache's tier counters.

        Request side: ``submitted`` (tasks actually handed to a worker),
        ``coalesced`` (requests that joined an in-flight task),
        ``short_circuits`` (answered straight from the cache),
        ``chunks`` (process-pool shards shipped), ``fallbacks``
        (compiled inline after a broken/shut-down pool).  Cache side:
        see :attr:`ExecutionCache.stats` (hits/misses, evictions,
        equivalence hits, promotions, ``persistent_*``).
        """
        merged = dict(self._requests)
        merged.update(self.cache.stats)
        return merged

    # ------------------------------------------------------------------
    @staticmethod
    def choose_route(batch_size: int, device_width: int,
                     cores: Optional[int] = None) -> str:
        """Worker route for one batch, from its size and device width.

        Large batches on wide devices — where per-program compile time
        amortizes pickling — shard across the process pool; everything
        else runs inline (``"serial"``).

        No pool can win without a second core (*cores* defaults to
        ``os.cpu_count()``), so single-core hosts always route serial —
        explicit ``mode="process"`` still honours the caller.  Measured
        cold-miss crossover on a 1-core host (48 unique programs):
        chunked process 0.68x serial on 27q / 0.59x on 65q.  Threads ran
        at 0.90x / 0.93x there (GIL-bound compiles pay dispatch overhead
        with no overlap to buy), so there is no thread route.
        """
        if cores is None:
            cores = os.cpu_count() or 1
        if (cores > 1 and batch_size >= _PROCESS_MIN_BATCH
                and device_width >= _PROCESS_MIN_WIDTH):
            return "process"
        return "serial"

    # ------------------------------------------------------------------
    def submit(self, circuit: QuantumCircuit, device: Device,
               allocation: ProgramAllocation,
               transpiler_fn: Optional[TranspilerFn] = None,
               route: Optional[str] = None) -> Future:
        """Schedule one transpile; dedups against cache and in-flight work.

        The future resolves once the result is computed *and* published
        to :attr:`cache`.  Its value is the raw cached result — shared,
        do not mutate; resolve through :meth:`transpile` for a fresh
        copy.  *route* overrides the worker kind for this request
        (``"serial"``/``"process"``); single submissions in auto mode
        run inline.
        """
        fn = transpiler_fn or _default_transpiler
        if route is None:
            route = "serial" if self.mode == "auto" else self.mode
        key = self.cache.transpile_key(circuit, device, allocation, fn)
        with self._lock:
            found, out = self._claim(key, device, fn)
        if out is None:
            return found

        def publish(result: TranspileResult) -> None:
            self.cache.store_transpile_raw(key, device, fn, result)
            with self._lock:
                self._inflight.pop(key, None)
            out.set_result(result)

        def fail(exc: BaseException) -> None:
            with self._lock:
                self._inflight.pop(key, None)
            out.set_exception(exc)

        if route == "serial":
            try:
                publish(fn(circuit, device, allocation))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                fail(exc)
            return out

        raw = self._pool.executor().submit(fn, circuit, device, allocation)

        def on_done(f: Future) -> None:
            exc = f.exception()
            if exc is not None:
                fail(exc)
                return
            try:
                publish(f.result())
            except BaseException as e:  # noqa: BLE001
                # concurrent.futures swallows callback exceptions; an
                # unresolved `out` would hang every waiter, so route
                # publication failures into the future instead.
                fail(e)

        raw.add_done_callback(on_done)
        return out

    def _claim(self, key: Optional[Hashable], device: Device,
               fn: TranspilerFn
               ) -> Tuple[Optional[Future], Optional[Future]]:
        """Cache/in-flight dedup for one request.

        Call under the lock with *key* precomputed outside it (the
        circuit fingerprint is the expensive part and needs no lock).
        Returns ``(resolved, owned)``: *resolved* is a future the
        caller hands back as-is (cache hit or coalesced join, in which
        case *owned* is ``None``); otherwise *owned* is a fresh future
        the caller must fulfil, registered in-flight under *key*.
        """
        found = self.cache.lookup_transpile_raw(key, device, fn)
        if found is not None:
            self._requests["short_circuits"] += 1
            done: Future = Future()
            done.set_result(found)
            return done, None
        if key is not None:
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._requests["coalesced"] += 1
                return inflight, None
        out: Future = Future()
        if key is not None:
            self._inflight[key] = out
        self._requests["submitted"] += 1
        return None, out

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
        """Submit every program of one allocated job (program order).

        The worker route is resolved once per batch: explicit modes are
        honoured; ``"auto"`` consults :meth:`choose_route` with the
        batch size and device width.  The process route shards the
        batch's *unique* compile requests into contiguous chunks (one
        per worker), shipping the device fingerprint once per chunk.
        Custom hooks compile inline in auto mode and per task on an
        explicit process route: their closures rarely survive pickling,
        and the worker could not rebuild their environment from a
        fingerprint anyway.
        """
        ordered = sorted(allocation_result.allocations,
                         key=lambda a: a.index)
        device = allocation_result.device
        fn = transpiler_fn or _default_transpiler
        route = self.mode
        if route == "auto":
            route = self.choose_route(len(ordered), device.num_qubits)
            if fn is not _default_transpiler:
                route = "serial"
        if route == "process" and fn is _default_transpiler:
            return self._submit_process_chunks(ordered, device)
        return [
            self.submit(a.circuit, device, a, fn, route=route)
            for a in ordered
        ]

    def _submit_process_chunks(self, ordered: Sequence[ProgramAllocation],
                               device: Device) -> List[Future]:
        """Shard default-transpiler requests across the process pool."""
        fn = _default_transpiler
        futures: List[Future] = []
        todo: List[Tuple[Hashable, ProgramAllocation, Future]] = []
        keys = [self.cache.transpile_key(a.circuit, device, a, fn)
                for a in ordered]
        with self._lock:
            for alloc, key in zip(ordered, keys):
                # Within-batch duplicates coalesce via _claim: the first
                # occurrence registers its key in-flight, later ones
                # join it — same mechanism as cross-batch dedup.
                resolved, owned = self._claim(key, device, fn)
                if owned is None:
                    futures.append(resolved)
                    continue
                todo.append((key, alloc, owned))
                futures.append(owned)
        if not todo:
            return futures

        executor = self._pool.executor()
        spec = device_fingerprint_spec(device)
        # Workers open their own connection to the shared WAL store (if
        # one is attached and healthy) and dedup against it before
        # compiling, so a warm store short-circuits even process chunks.
        l2 = self.cache.persistent
        store_path = (None if l2 is None or l2.disabled else l2.path)
        submitted_upto = 0
        try:
            for lo, hi in self._pool.chunk_bounds(len(todo)):
                shard = todo[lo:hi]
                # Only a store reads the digests: without one, the keys'
                # lazy digests are never hashed.
                tasks = [(alloc.circuit, alloc.partition)
                         + ((None, None) if store_path is None or key is None
                            else (key.digest, key.invariants))
                         for key, alloc, _ in shard]
                raw = executor.submit(_compile_partition_chunk, spec,
                                      tasks, store_path)
                submitted_upto = hi
                raw.add_done_callback(
                    lambda f, shard=shard: self._publish_chunk(
                        f, shard, device, fn, executor))
                with self._lock:
                    self._requests["chunks"] += 1
        except BaseException as exc:  # noqa: BLE001
            rest = todo[submitted_upto:]
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                # Never absorb an interrupt into inline work: fail the
                # claimed futures (so no waiter hangs) and let it
                # propagate.
                with self._lock:
                    for key, _, _ in rest:
                        self._inflight.pop(key, None)
                for _, _, out in rest:
                    out.set_exception(exc)
                raise
            # executor.submit can raise synchronously (a broken or
            # shut-down process pool).  The not-yet-submitted shards'
            # futures are already claimed in-flight; leaving them
            # unresolved would hang every waiter, and failing them would
            # fail the whole job over a pool-health problem — so compile
            # them inline.
            self._fallback_inline(rest, device, executor)
        return futures

    def _fallback_inline(self, shard: Sequence[Tuple[
            Hashable, ProgramAllocation, Future]], device: Device,
            executor=None) -> None:
        """Compile claimed chunk requests inline after a pool failure.

        The requests' futures are already registered in-flight; each one
        resolves (or carries its own compile error) exactly as if a
        worker had served it, so waiters and coalesced joiners cannot
        tell the pool died — only :attr:`stats` records the fallback.
        *executor* is the one the failed shard was submitted to; the
        pool discards it (only if still current), so the *next*
        process-route batch builds a fresh one instead of degrading to
        inline compilation for the service's remaining lifetime.
        """
        fn = _default_transpiler
        with self._lock:
            self._requests["fallbacks"] += len(shard)
        self._pool.discard(executor)
        for key, alloc, out in shard:
            try:
                result = fn(alloc.circuit, device, alloc)
            except BaseException as exc:  # noqa: BLE001
                with self._lock:
                    self._inflight.pop(key, None)
                out.set_exception(exc)
                continue
            self.cache.store_transpile_raw(key, device, fn, result)
            with self._lock:
                self._inflight.pop(key, None)
            out.set_result(result)

    def _publish_chunk(self, raw: Future,
                       shard: Sequence[Tuple[Hashable, ProgramAllocation,
                                             Future]],
                       device: Device, fn: TranspilerFn,
                       executor=None) -> None:
        """Resolve one chunk's per-program futures from its worker."""
        exc = raw.exception()
        if exc is None:
            try:
                results = raw.result()
                if len(results) != len(shard):
                    raise RuntimeError(
                        f"chunk returned {len(results)} results for "
                        f"{len(shard)} tasks")
            except BaseException as e:  # noqa: BLE001
                exc = e
        if exc is not None:
            if isinstance(exc, BrokenExecutor):
                # A worker died mid-chunk (OOM-killed, crashed
                # interpreter): pool health, not a compile error — the
                # programs themselves are fine, so compile them inline.
                self._fallback_inline(shard, device, executor)
                return
            with self._lock:
                for key, _, _ in shard:
                    self._inflight.pop(key, None)
            for _, _, out in shard:
                out.set_exception(exc)
            return
        for (key, _, out), result in zip(shard, results):
            self.cache.store_transpile_raw(key, device, fn, result)
            with self._lock:
                self._inflight.pop(key, None)
            out.set_result(result)

    def compile_allocation(self, allocation_result: AllocationResult,
                           transpiler_fn: Optional[TranspilerFn] = None
                           ) -> List[TranspileResult]:
        """Batch-transpile one allocated job; results in program order."""
        futures = self.submit_allocation(allocation_result, transpiler_fn)
        return [ExecutionCache._fresh(f.result()) for f in futures]

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (the cache stays usable)."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
