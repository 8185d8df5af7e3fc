"""Parallel program execution over a persistent process pool.

End-to-end job latency is dominated by *simulation*: GIL-bound numpy
running strictly serially inside
:func:`~repro.sim.executor.run_parallel`.  :class:`ExecutionService`
shards that per-program work across a
:class:`~repro.core.pool.ProcessPool`, the primitive
:class:`~repro.core.compile_service.CompileService` compiles on:

- the joint (cross-program) half of a batch —
  :func:`~repro.sim.executor.prepare_parallel` (validation, ASAP padding,
  crosstalk scales) and :func:`~repro.sim.executor.spawn_seeds` — runs in
  the **parent**, so after it each program's simulation is a pure
  function of its own ``(circuit, partition, seed, scales)`` task;
- tasks are sharded into contiguous per-worker chunks carrying the
  plain-data device fingerprint
  (:func:`~repro.core.pool.device_fingerprint_spec` — the calibration
  snapshot, kilobytes) plus the pre-spawned
  :class:`~numpy.random.SeedSequence` children, so the per-program RNG
  streams are **bit-identical to the serial path** regardless of how the
  batch is chunked (enforced by ``tests/test_execution_service.py``);
- each worker rebuilds the :class:`~repro.sim.noise_model.NoiseModel`
  once per calibration fingerprint (process-local cache) with
  :meth:`~repro.sim.noise_model.NoiseModel.from_calibration`, the
  constructor :meth:`~repro.hardware.devices.Device.noise_model` uses
  (hence the same floats, hence the same Kraus channels), and runs the
  serial path's own loop, :func:`~repro.sim.executor.simulate_programs`.

``mode="auto"`` runs each batch inline or on the process pool from its
estimated simulation cost (batch size x per-program width/shots cost,
measured table below) against the measured pool overhead — so a
single-core host, a tiny batch, or a batch whose total work would not
amortize a fork never pays for a pool it cannot exploit.  A broken
process pool degrades to inline serial execution
(``stats["fallbacks"]``) and is replaced compare-and-swap style,
exactly like the compile service's.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult
from ..sim.executor import (
    Program,
    ProgramTask,
    prepare_parallel,
    simulate_programs,
    spawn_seeds,
)
from ..sim.noise_model import NoiseModel
from ..sim.readout import SeedLike
from ..transpiler.context import calibration_fingerprint
from .pool import ProcessPool, device_fingerprint_spec

__all__ = ["ExecutionService"]

_MODES = ("auto", "process", "serial")

#: Batches at or below this size always run inline: even at the widest
#: committed program the pool entry overhead is comparable to the work.
_SERIAL_MAX_BATCH = 2

#: Measured per-program simulation cost (ms) by circuit width — 20-gate
#: heavy-tail-mix programs at 4096 shots on the committed crossover run
#: (``benchmarks/bench_execution.py``, see ``BENCH_execution.json``).
#: Above the table the cost is extrapolated at the measured ~2x/qubit
#: slope (density-matrix state doubles per qubit twice, but gate count
#: per layer shrinks the constant).
_PROGRAM_COST_MS: Dict[int, float] = {
    1: 2.0, 2: 3.8, 3: 6.3, 4: 7.3, 5: 12.6, 6: 17.8, 7: 48.0,
}
_COST_TABLE_MAX = max(_PROGRAM_COST_MS)

#: Extra cost per 4096 shots beyond the first (sampling is cheap next to
#: the density-matrix evolution; measured <1 ms at width 7).
_SHOTS_COST_MS_PER_4096 = 0.5

#: Measured routing threshold (same crossover run): a process pool costs
#: ~2 ms to create plus ~16 ms first-dispatch round-trip and per-chunk
#: pickling, so below ``_PROCESS_MIN_BATCH_MS`` of estimated work a fork
#: cannot amortize — stay serial.  There is no thread route: threads ran
#: at 0.90-0.93x serial on 1- and 2-core hosts (GIL-bound numpy on small
#: tensors).
_PROCESS_MIN_BATCH_MS = 120.0


# ----------------------------------------------------------------------
# process-worker side: noise-model rehydration
# ----------------------------------------------------------------------

#: Process-local noise models, one per calibration fingerprint: every
#: chunk a worker serves after the first reuses the rebuilt model.
_WORKER_NOISE: Dict[Hashable, NoiseModel] = {}


def _worker_noise(calibration) -> NoiseModel:
    """This worker process's noise model for *calibration* (cached)."""
    key = calibration_fingerprint(calibration)
    model = _WORKER_NOISE.get(key)
    if model is None:
        model = NoiseModel.from_calibration(calibration)
        _WORKER_NOISE[key] = model
    return model


def _simulate_chunk(
    spec: Dict,
    tasks: Sequence[ProgramTask],
    shots: int,
    noisy: bool,
) -> List[SimulationResult]:
    """Simulate one shard of (circuit, partition, seed, scales) tasks.

    The seed is the parent-spawned per-program child stream and the
    scales come from the parent's joint schedule, so nothing here
    depends on which chunk (or how many chunks) the batch was cut into.
    """
    noise = _worker_noise(spec["calibration"]) if noisy else None
    return simulate_programs(tasks, noise, shots)


class ExecutionService:
    """Executes program batches inline or across a persistent process
    pool.

    Parameters
    ----------
    max_workers:
        Pool size (``None`` = executor default).  Ignored for
        ``mode="serial"``.
    mode:
        ``"auto"`` (default; per-batch choice via :meth:`choose_route`),
        ``"process"``, or ``"serial"`` (no pool — same API, inline
        execution, bit-identical to
        :func:`~repro.sim.executor.run_parallel`).

    The service is stateless across batches apart from its pool and
    :attr:`stats`; any number of executors may share one instance.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 mode: str = "auto") -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        self.mode = mode
        self._pool = ProcessPool(max_workers)
        self._lock = threading.Lock()
        # ``batches``/``programs`` count everything routed through
        # :meth:`run_parallel`; ``chunks`` process-pool shards shipped;
        # ``fallbacks`` programs executed inline after a broken or
        # shut-down pool; ``*_batches`` per-route accounting.
        # ``thread_batches`` is always 0 (no thread route); it stays
        # because the end-to-end benchmark reads the key.
        self._requests: Dict[str, int] = {
            "batches": 0, "programs": 0, "chunks": 0, "fallbacks": 0,
            "serial_batches": 0, "thread_batches": 0, "process_batches": 0,
        }

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting (copy): batches, programs, chunks,
        fallbacks, and per-route batch counts."""
        with self._lock:
            return dict(self._requests)

    # ------------------------------------------------------------------
    @staticmethod
    def estimate_batch_ms(batch_size: int, max_program_qubits: int,
                          shots: int) -> float:
        """Estimated serial simulation cost of one batch (ms).

        Per-program cost from the measured width table (extrapolated at
        ~2x/qubit above it) plus the measured marginal shot-sampling
        cost, times the batch size.  This deliberately prices every
        program at the batch's *widest* width — over-estimating mixed
        batches routes them to a pool a little early, which on a
        multi-core host is the cheap direction to err.
        """
        width = max(1, max_program_qubits)
        if width <= _COST_TABLE_MAX:
            per_program = _PROGRAM_COST_MS[width]
        else:
            per_program = (_PROGRAM_COST_MS[_COST_TABLE_MAX]
                           * 2.0 ** (width - _COST_TABLE_MAX))
        per_program += _SHOTS_COST_MS_PER_4096 * max(shots, 0) / 4096.0
        return batch_size * per_program

    @classmethod
    def choose_route(cls, batch_size: int, max_program_qubits: int,
                     shots: int = 4096,
                     cores: Optional[int] = None) -> str:
        """Worker route for one batch, from measured cost/overhead data.

        Tiny batches run inline; a single-core host always runs inline
        (no pool can win without a second core — the compile bench's
        1-core ``cold_process`` regression is exactly this mistake);
        batches whose estimated work would not amortize a fork run
        inline too; the rest shard across the process pool.  Thresholds
        come from the committed crossover measurement
        (``benchmarks/bench_execution.py --crossover``), not guesses.
        """
        if batch_size <= _SERIAL_MAX_BATCH:
            return "serial"
        if cores is None:
            cores = os.cpu_count() or 1
        if cores <= 1:
            return "serial"
        estimated = cls.estimate_batch_ms(batch_size, max_program_qubits,
                                          shots)
        if estimated < _PROCESS_MIN_BATCH_MS:
            return "serial"
        return "process"

    # ------------------------------------------------------------------
    def run_parallel(
        self,
        programs: Sequence[Program],
        device: Device,
        shots: int = 4096,
        seed: SeedLike = None,
        scheduling: str = "alap",
        include_crosstalk: bool = True,
        noisy: bool = True,
    ) -> List[SimulationResult]:
        """Drop-in, bit-identical replacement for
        :func:`repro.sim.executor.run_parallel`.

        The joint half (validation, ASAP padding, crosstalk scales, seed
        spawning) runs here in the parent; only the per-program
        simulations are distributed, so the results cannot depend on the
        route or the chunking.
        """
        effective, scales = prepare_parallel(
            programs, device, scheduling=scheduling,
            include_crosstalk=include_crosstalk, noisy=noisy)
        seeds = spawn_seeds(seed, len(effective))
        tasks = [(prog.circuit, prog.partition, seeds[k], scales[k])
                 for k, prog in enumerate(effective)]

        route = self.mode
        if route == "auto":
            max_width = max(
                (p.circuit.num_qubits for p in effective), default=0)
            route = self.choose_route(len(effective), max_width, shots)
        with self._lock:
            self._requests["batches"] += 1
            self._requests["programs"] += len(effective)
            self._requests[f"{route}_batches"] += 1

        if route == "serial":
            return simulate_programs(
                tasks, device.noise_model() if noisy else None, shots)
        return self._run_process(tasks, device, shots, noisy)

    # ------------------------------------------------------------------
    def _run_process(self, tasks: Sequence[ProgramTask], device: Device,
                     shots: int, noisy: bool) -> List[SimulationResult]:
        """Contiguous per-worker chunks over the process pool."""
        spec = device_fingerprint_spec(device)
        chunks: List[Tuple[int, int, Future]] = []
        submitted_upto = 0
        executor = None
        try:
            executor = self._pool.executor()
            for lo, hi in self._pool.chunk_bounds(len(tasks)):
                chunks.append(
                    (lo, hi, executor.submit(_simulate_chunk, spec,
                                             tasks[lo:hi], shots, noisy)))
                submitted_upto = hi
                with self._lock:
                    self._requests["chunks"] += 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:  # noqa: BLE001 - pool health, not a program
            # executor.submit (or pool creation) raised synchronously: a
            # broken or shut-down pool.  Drop it so the next batch gets
            # a fresh one; the unsubmitted tail runs inline below.
            self._pool.discard(executor)

        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        for lo, hi, fut in chunks:
            try:
                chunk_results = fut.result()
                if len(chunk_results) != hi - lo:
                    raise RuntimeError(
                        f"chunk returned {len(chunk_results)} results for "
                        f"{hi - lo} tasks")
            except BrokenExecutor:
                # A worker died mid-chunk (OOM-killed, crashed
                # interpreter): pool health, not a program error — the
                # programs themselves are fine, so simulate them inline.
                self._pool.discard(executor)
                chunk_results = self._fallback(tasks[lo:hi], device,
                                               shots, noisy)
            results[lo:hi] = chunk_results
        if submitted_upto < len(tasks):
            results[submitted_upto:] = self._fallback(
                tasks[submitted_upto:], device, shots, noisy)
        return results  # type: ignore[return-value]

    def _fallback(self, tasks: Sequence[ProgramTask], device: Device,
                  shots: int, noisy: bool) -> List[SimulationResult]:
        """Simulate *tasks* inline after a pool failure (counted)."""
        with self._lock:
            self._requests["fallbacks"] += len(tasks)
        return simulate_programs(
            tasks, device.noise_model() if noisy else None, shots)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (the service stays usable: the next
        batch that needs it lazily builds a fresh one)."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
