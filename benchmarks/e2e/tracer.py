"""Outside-in layer tracing for the end-to-end benchmark.

The program carries no spans of its own, so the benchmark wraps each
layer's public functions from here: every binding of a target (the
defining class or module, and every ``repro`` module that imported the
name) is replaced by a wrapper that records a span — name, layer, start,
end, parent span, request id and thread — in memory.  A call nested
directly inside an open span of the same layer is counted but folded
into that span, which keeps hot inner loops (placement scoring) cheap.

Known blind spot: work done inside process-pool workers is not traced;
it shows up as the parent's waiting time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["LAYER_TARGETS", "PER_LAYER_UNITS", "Span", "Tracer",
           "layer_metrics"]

#: (layer, module, attribute) of every wrapped function.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("service.store", "repro.service.store", "JobStore.record_submission"),
    ("service.store", "repro.service.store", "JobStore.record_transition"),
    ("service.store", "repro.service.store", "JobStore.record_result"),
    ("service.result", "repro.service.result", "build_program_results"),
    ("service.result", "repro.service.result", "Result.to_dict"),
    ("core.scheduler", "repro.core.scheduler", "CloudScheduler.schedule"),
    ("core.allocators", "repro.core.allocators", "Allocator.allocate"),
    ("core.allocators", "repro.core.allocators",
     "AllocationEngine.best_placement"),
    ("core.allocators", "repro.core.allocators",
     "PlacementContext.extended"),
    ("cache.key", "repro.cache.keys", "transpile_key"),
    ("cache.store", "repro.core.executor",
     "ExecutionCache.store_transpile_raw"),
    ("cache.ideal", "repro.core.executor", "ExecutionCache.ideal"),
    ("core.compile_service", "repro.core.compile_service",
     "CompileService.submit_allocation"),
    ("core.executor", "repro.core.executor", "execute_allocation"),
    ("transpiler", "repro.transpiler.transpile", "transpile_for_partition"),
    ("core.execution_service", "repro.core.execution_service",
     "ExecutionService.run_parallel"),
    ("sim", "repro.sim.density_matrix", "run_circuit"),
)

#: Every per-layer metric and its unit.  Times and counts are per
#: measured request unless the unit says otherwise.
PER_LAYER_UNITS: Dict[str, str] = {
    "service.queue_wait_ms": "ms/request",
    "service.overhead_ms": "ms/request",
    "service.store.write_ms": "ms/request",
    "service.store.writes": "count/request",
    "service.result.build_ms": "ms/request",
    "core.scheduler.self_ms": "ms/request",
    "core.scheduler.hw_jobs": "count/request",
    "core.allocators.place_ms": "ms/request",
    "core.allocators.calls": "count/request",
    "cache.key_ms": "ms/request",
    "cache.key_calls_per_program": "count/program",
    "cache.hit_ratio": "fraction",
    "cache.store_count": "count/request",
    "cache.evictions": "count/request",
    "cache.equivalence_hits": "count/request",
    "cache.persistent_writes": "count/request",
    "cache.ideal_ms": "ms/request",
    "cache.ideal_hit_ratio": "fraction",
    "core.compile_service.submit_ms": "ms/request",
    "core.compile_service.submitted": "count/request",
    "core.compile_service.coalesced": "count/request",
    "core.compile_service.chunks": "count/request",
    "core.executor.compile_wait_ms": "ms/request",
    "transpiler.compile_ms": "ms/request",
    "core.execution_service.pool_wait_ms": "ms/request",
    "core.execution_service.serial_batches": "count/request",
    "core.execution_service.thread_batches": "count/request",
    "core.execution_service.process_batches": "count/request",
    "core.execution_service.fallbacks": "count/request",
    "sim.simulate_ms": "ms/request",
    "sim.programs": "count/request",
    "trace.overhead_pct": "%",
}

#: Thread names whose top-level spans sit on a request's blocking path:
#: the client (main) thread and the provider's job thread.
_JOB_THREAD_PREFIX = "repro-job"
_CLIENT_THREAD = "MainThread"

#: Attribute that marks a tracing wrapper (its value is the layer).
_MARKER = "__e2e_layer__"


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no enclosing span on this thread
    name: str
    layer: str
    request: Optional[int]
    thread: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _resolve(module: str, attribute: str):
    """``(owner, name, function)`` for a ``Class.method`` or function."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _repro_modules() -> List[Tuple[str, object]]:
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _bindings(owner, name: str, function) -> List[Tuple[object, str]]:
    """Every place *function* is reachable from: its owner, plus each
    loaded ``repro`` module that bound it under some name."""
    found = [(owner, name)]
    if isinstance(owner, type):
        return found
    for _, module in _repro_modules():
        if module is owner:
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found


class Tracer:
    """Span recorder over the wrapped layer functions.

    Set :attr:`request` to the current request's id before submitting
    it; spans opened on any thread while it is set carry that id.  The
    benchmark drives one request at a time, so the id is unambiguous.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.request: Optional[int] = None
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in :data:`LAYER_TARGETS`."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, module, attribute in LAYER_TARGETS:
            owner, name, function = _resolve(module, attribute)
            wrapper = self._wrap(layer, attribute, function)
            for target, attr in _bindings(owner, name, function):
                self._patched.append((target, attr, function))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patched:
            target, attr, function = self._patched.pop()
            setattr(target, attr, function)

    @staticmethod
    def leftovers() -> List[str]:
        """Every wrapper still bound in a ``repro`` module or class
        (empty after a clean :meth:`uninstall`)."""
        left = []
        for module_name, module in _repro_modules():
            for attr, value in list(vars(module).items()):
                owners = [(f"{module_name}.{attr}", value)]
                if (isinstance(value, type)
                        and value.__module__ == module_name):
                    owners += [(f"{module_name}.{attr}.{a}", v)
                               for a, v in vars(value).items()]
                left += [where for where, v in owners
                         if hasattr(v, _MARKER)]
        return left

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # Forked pool workers inherit the wrapper; record nothing
            # there (their spans could never reach this process).
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            with tracer._lock:
                tracer.calls[name] += 1
                tracer._next_id += 1
                span_id = tracer._next_id
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return function(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            request = tracer.request
            stack.append((span_id, layer))
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, parent, name, layer, request,
                    threading.current_thread().name, start, end))

        setattr(traced, _MARKER, layer)
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write_jsonl(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Tracer,
                  requests: Sequence[Tuple[int, int, int]],
                  programs: int, hardware_jobs: int,
                  delta: Dict[str, int], scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced measured phase.

    *requests* holds ``(submit_ns, returned_ns, done_ns)`` for each
    measured request, indexed like :attr:`Tracer.request`; *delta* is the
    change of the provider's counter snapshots over the phase, and
    *scale* converts host time to reference-host time.
    """
    n = len(requests)

    def _ms(total_ns: float) -> float:
        return total_ns / 1e6 / n * scale

    spans = [s for s in tracer.spans if s.request is not None]
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent:
            child_ns[s.parent] += s.duration_ns

    def busy(layer: str) -> int:
        return sum(s.duration_ns for s in spans if s.layer == layer)

    def self_time(layer: str) -> int:
        return sum(s.duration_ns - child_ns[s.id]
                   for s in spans if s.layer == layer)

    def calls(layer: str) -> int:
        return sum(tracer.calls[attr] for lay, _, attr in LAYER_TARGETS
                   if lay == layer)

    first_job_span: Dict[int, int] = {}
    blocking_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        on_job = s.thread.startswith(_JOB_THREAD_PREFIX)
        if on_job:
            first_job_span[s.request] = min(
                s.start_ns, first_job_span.get(s.request, s.start_ns))
        if not s.parent and (on_job or s.thread == _CLIENT_THREAD):
            blocking_ns[s.request] += s.duration_ns
    queue_ns = sum(first_job_span[i] - returned
                   for i, (_, returned, _) in enumerate(requests)
                   if i in first_job_span)
    overhead_ns = sum(done - submit - blocking_ns[i]
                      for i, (submit, _, done) in enumerate(requests))

    return {
        "service.queue_wait_ms": _ms(queue_ns),
        "service.overhead_ms": _ms(overhead_ns),
        "service.store.write_ms": _ms(busy("service.store")),
        "service.store.writes": calls("service.store") / n,
        "service.result.build_ms": _ms(busy("service.result")),
        "core.scheduler.self_ms": _ms(self_time("core.scheduler")),
        "core.scheduler.hw_jobs": hardware_jobs / n,
        "core.allocators.place_ms": _ms(busy("core.allocators")),
        "core.allocators.calls": calls("core.allocators") / n,
        "cache.key_ms": _ms(busy("cache.key")),
        "cache.key_calls_per_program": calls("cache.key") / programs,
        "cache.hit_ratio": _ratio(delta["transpile_hits"],
                                  delta["transpile_misses"]),
        "cache.store_count": calls("cache.store") / n,
        "cache.evictions": delta["evictions"] / n,
        "cache.equivalence_hits": delta["equivalence_hits"] / n,
        "cache.persistent_writes": delta["persistent_writes"] / n,
        "cache.ideal_ms": _ms(busy("cache.ideal")),
        "cache.ideal_hit_ratio": _ratio(delta["ideal_hits"],
                                        delta["ideal_misses"]),
        "core.compile_service.submit_ms": _ms(
            busy("core.compile_service")),
        "core.compile_service.submitted": delta["submitted"] / n,
        "core.compile_service.coalesced": delta["coalesced"] / n,
        "core.compile_service.chunks": delta["chunks"] / n,
        "core.executor.compile_wait_ms": _ms(self_time("core.executor")),
        "transpiler.compile_ms": _ms(busy("transpiler")),
        "core.execution_service.pool_wait_ms": _ms(
            self_time("core.execution_service")),
        "core.execution_service.serial_batches":
            delta["execution.serial_batches"] / n,
        "core.execution_service.thread_batches":
            delta["execution.thread_batches"] / n,
        "core.execution_service.process_batches":
            delta["execution.process_batches"] / n,
        "core.execution_service.fallbacks":
            delta["execution.fallbacks"] / n,
        "sim.simulate_ms": _ms(busy("sim")),
        "sim.programs": calls("sim") / n,
    }
