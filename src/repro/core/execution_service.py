"""Parallel program execution over a persistent process pool, with
memos for repeated programs.

End-to-end job latency is dominated by *simulation*: GIL-bound numpy
running strictly serially inside
:func:`~repro.sim.executor.run_parallel`.  :class:`ExecutionService`
skips the simulations a repeated program has already fixed and shards
the rest across a :class:`~repro.core.pool.ProcessPool`, the primitive
:class:`~repro.core.compile_service.CompileService` compiles on:

- the joint (cross-program) half of a batch —
  :func:`~repro.sim.executor.prepare_parallel` (validation, ASAP padding,
  crosstalk scales) and :func:`~repro.sim.executor.spawn_seeds` — runs in
  the **parent**, so after it each program's simulation is a pure
  function of its own ``(circuit, partition, seed, scales)`` task;
- a program's post-readout distribution is a pure function of its
  circuit, partition, crosstalk scales and the device calibration; only
  shot sampling reads the seed.  The parent serves repeated tasks from a
  **task memo** of distributions, sampled with each task's own seed
  exactly as :func:`~repro.sim.density_matrix.run_circuit` samples, and
  repeated batch compositions from a **schedule memo** of
  ``prepare_parallel``'s output.  Both are bounded LRU tables keyed by
  value (see :meth:`ExecutionService.run_parallel`);
- the remaining tasks are sharded into contiguous per-worker chunks
  carrying the plain-data device fingerprint
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

``mode="auto"`` runs each batch's memo misses inline or on the process
pool from their estimated simulation cost (each program's width/shots
cost from the measured table below) against the measured pool overhead
— so a single-core host, a tiny batch, or a batch whose total work would
not amortize a fork never pays for a pool it cannot exploit.  A broken
process pool degrades to inline serial execution
(``stats["fallbacks"]``) and is replaced compare-and-swap style,
exactly like the compile service's.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..cache import MemoryCache
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult
from ..sim.executor import (
    Program,
    ProgramTask,
    prepare_parallel,
    simulate_programs,
    spawn_seeds,
)
from ..sim.feedforward import needs_feedforward
from ..sim.noise_model import NoiseModel
from ..sim.readout import SeedLike, sample_counts
from ..transpiler.context import calibration_fingerprint
from .pool import ProcessPool, device_fingerprint_spec

__all__ = ["ExecutionService"]

_MODES = ("auto", "process", "serial")

#: Batches at or below this size always run inline: even at the widest
#: committed program the pool entry overhead is comparable to the work.
_SERIAL_MAX_BATCH = 2

#: Measured serial per-program simulation cost (ms) by circuit width:
#: the width table ``benchmarks/bench_execution.py`` prints (one random
#: depth-72 program per width at 4096 shots, 2-core x86 host; committed
#: as ``width_cost_ms`` in ``BENCH_execution.json``, and re-runs on a
#: shared host vary by ~30%).  Above the table the cost is extrapolated
#: at ~2x/qubit (density-matrix state doubles per qubit twice, but gate
#: count per layer shrinks the constant).
_PROGRAM_COST_MS: Dict[int, float] = {
    1: 0.6, 2: 0.8, 3: 0.9, 4: 1.1, 5: 1.5, 6: 3.6, 7: 9.3,
}
_COST_TABLE_MAX = max(_PROGRAM_COST_MS)

#: Extra cost per 4096 shots beyond the first (sampling is cheap next to
#: the density-matrix evolution; measured <1 ms at width 7).
_SHOTS_COST_MS_PER_4096 = 0.5

#: Measured routing threshold, the same run's break-even line: the
#: process route cost ~70-100 ms per batch more than the per-program
#: work it shares out (chunk pickling, round-trips, and the workers'
#: BLAS threads oversubscribing 2 cores; ``pool_overhead_ms``), so 2
#: workers only win above ~155 ms of per-program work
#: (``breakeven_batch_ms``) — below ``_PROCESS_MIN_BATCH_MS`` of
#: estimated work, stay serial.  There is no thread route: threads ran
#: at 0.90-0.93x serial on 1- and 2-core hosts (GIL-bound numpy on small
#: tensors).
_PROCESS_MIN_BATCH_MS = 155.0

#: Task-memo bound: distinct (program, partition, scales, device)
#: simulations whose post-readout distribution is kept.
_TASK_MEMO_ENTRIES = 1024

#: Schedule-memo bound: distinct batch compositions whose joint
#: schedule is kept.
_SCHEDULE_MEMO_ENTRIES = 1024

#: Distinct device values interned at once (see ``_device_key``).
_DEVICE_KEY_ENTRIES = 16


# ----------------------------------------------------------------------
# memo keys
# ----------------------------------------------------------------------

class _Key:
    """A tuple key that hashes once.

    Python does not cache tuple hashes, so a nested key would be
    re-hashed on every dict operation; the memos key on these instead.
    Equality is the wrapped tuple's.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Key):
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts


def _program_key(circuit: QuantumCircuit) -> Optional[_Key]:
    """Value key of one program's circuit, or ``None`` when unhashable.

    Built from the circuit's own immutable instructions, so it costs one
    tuple and one hash.  Control-flow ops are unhashable, which keeps
    those programs out of both memos.
    """
    try:
        return _Key((circuit.num_qubits, circuit.num_clbits,
                     circuit.instructions))
    except TypeError:
        return None


def _device_key(device: Device) -> _Key:
    """Value key of everything a batch reads of *device*.

    The seven calibration tables the noise model copies, the coupling
    links the edge validation checks, and the crosstalk factors the
    joint schedule reads.  Built per batch, so an in-place calibration
    edit misses rather than serving a stale distribution.
    """
    cal = device.calibration
    return _Key((
        tuple(cal.oneq_error.items()), tuple(cal.twoq_error.items()),
        tuple(cal.readout_error.items()), tuple(cal.t1.items()),
        tuple(cal.t2.items()), tuple(cal.detuning.items()),
        tuple(cal.gate_duration.items()), device.coupling.edges,
        tuple(device.crosstalk.factors.items()),
    ))


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

    Apart from its pool and :attr:`stats`, the service keeps two
    bounded memos across batches (see :meth:`run_parallel`); any number
    of executors may share one instance.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 mode: str = "auto") -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        self.mode = mode
        self._pool = ProcessPool(max_workers)
        self._lock = threading.Lock()
        # task key -> (post-readout probabilities, measured clbits)
        self._tasks = MemoryCache(_TASK_MEMO_ENTRIES)
        # schedule key -> per program (effective circuit or None for the
        # program's own, its key, its crosstalk scales as items)
        self._schedules = MemoryCache(_SCHEDULE_MEMO_ENTRIES)
        # device key -> the same key: equal device values share one
        # object, so memo entries do not each hold a copy of the
        # calibration tables and lookups compare them by identity
        self._devices = MemoryCache(_DEVICE_KEY_ENTRIES)
        # ``batches``/``programs`` count everything routed through
        # :meth:`run_parallel`; ``chunks`` process-pool shards shipped;
        # ``fallbacks`` programs executed inline after a broken or
        # shut-down pool; ``*_batches`` per-route accounting of batches
        # that simulated at least one program.  ``thread_batches`` is
        # always 0 (no thread route); it stays because the end-to-end
        # benchmark reads the key.
        self._requests: Dict[str, int] = {
            "batches": 0, "programs": 0, "chunks": 0, "fallbacks": 0,
            "serial_batches": 0, "thread_batches": 0, "process_batches": 0,
        }

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting (copy): batches, programs, chunks,
        fallbacks, per-route batch counts, and the memos' hits and
        misses (``memo_*`` per task, ``schedule_*`` per batch)."""
        with self._lock:
            out = dict(self._requests)
        out.update(memo_hits=self._tasks.hits,
                   memo_misses=self._tasks.misses,
                   schedule_hits=self._schedules.hits,
                   schedule_misses=self._schedules.misses)
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def estimate_batch_ms(widths: Sequence[int], shots: int) -> float:
        """Estimated serial simulation cost of one batch (ms).

        Each program (one entry of *widths*, its qubit count) is priced
        at its own width from the measured width table (extrapolated at
        ~2x/qubit above it), plus the measured marginal shot-sampling
        cost.
        """
        total = 0.0
        for width in widths:
            width = max(1, width)
            if width <= _COST_TABLE_MAX:
                total += _PROGRAM_COST_MS[width]
            else:
                total += (_PROGRAM_COST_MS[_COST_TABLE_MAX]
                          * 2.0 ** (width - _COST_TABLE_MAX))
        per_shots = _SHOTS_COST_MS_PER_4096 * max(shots, 0) / 4096.0
        return total + len(widths) * per_shots

    @classmethod
    def choose_route(cls, widths: Sequence[int], shots: int = 4096,
                     cores: Optional[int] = None) -> str:
        """Worker route for one batch of programs of the given *widths*,
        from measured cost/overhead data.

        Tiny batches run inline; a single-core host always runs inline
        (no pool can win without a second core — the compile bench's
        1-core ``cold_process`` regression is exactly this mistake);
        batches whose estimated work would not amortize a fork run
        inline too; the rest shard across the process pool.  Thresholds
        come from the committed measurement
        (``cd benchmarks && python bench_execution.py``: its width-cost
        table and pool-overhead line), not guesses.
        """
        if len(widths) <= _SERIAL_MAX_BATCH:
            return "serial"
        if cores is None:
            cores = os.cpu_count() or 1
        if cores <= 1:
            return "serial"
        if cls.estimate_batch_ms(widths, shots) < _PROCESS_MIN_BATCH_MS:
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

        Two memos, both bounded LRU tables keyed by value, never by an
        ``id()``:

        - the **schedule memo** maps a batch's composition — each
          program's circuit and partition, *scheduling*,
          *include_crosstalk*, *noisy* and the device's calibration,
          coupling and crosstalk values — to ``prepare_parallel``'s
          output.  The key covers the coupling, so a hit skips the edge
          validation that passed for the same values;
        - the **task memo** maps a program's circuit, partition,
          crosstalk scales and the device values to its post-readout
          distribution and measured clbits.  A hit is sampled with the
          task's own seed exactly as
          :func:`~repro.sim.density_matrix.run_circuit` samples, so its
          counts are bit-identical to a fresh simulation; every hit gets
          fresh dicts.  Only misses are priced, routed and simulated.
          Feed-forward programs (control flow or mid-circuit
          measurement) and unhashable circuits bypass it.

        The device values are read per batch, so an in-place calibration
        edit misses instead of serving a stale distribution.  Memo writes
        are content-addressed: a late write from an abandoned retry
        attempt stores exactly the value a live attempt would, so, unlike
        the compile cache, the memos need no write gate.
        """
        device_key = self._intern(_device_key(device))
        plan = self._schedule(programs, device, device_key, scheduling,
                              include_crosstalk, noisy)
        seeds = spawn_seeds(seed, len(plan))
        results: List[Optional[SimulationResult]] = [None] * len(plan)
        misses: List[Tuple[int, Optional[_Key]]] = []
        for k, (prog, key, scales) in enumerate(plan):
            task_key = None if key is None else _Key(
                (key, tuple(prog.partition), scales,
                 device_key if noisy else None))
            found = None if task_key is None else self._tasks.get(task_key)
            if found is None:
                misses.append((k, task_key))
                continue
            probs, clbits = found
            results[k] = SimulationResult(
                probabilities=dict(probs),
                counts=sample_counts(probs, shots, seed=seeds[k]),
                shots=shots, measured_clbits=clbits)
        with self._lock:
            self._requests["batches"] += 1
            self._requests["programs"] += len(plan)
        if not misses:
            return results  # type: ignore[return-value]

        tasks = [(plan[k][0].circuit, plan[k][0].partition, seeds[k],
                  dict(plan[k][2])) for k, _ in misses]
        route = self.mode
        if route == "auto":
            route = self.choose_route(
                [circuit.num_qubits for circuit, _, _, _ in tasks], shots)
        with self._lock:
            self._requests[f"{route}_batches"] += 1
        if route == "serial":
            simulated = simulate_programs(
                tasks, device.noise_model() if noisy else None, shots)
        else:
            simulated = self._run_process(tasks, device, shots, noisy)
        for (k, task_key), result in zip(misses, simulated):
            results[k] = result
            # Feed-forward counts are per-shot trajectories, not a
            # sample of one distribution: never memoized.
            if task_key is not None and not needs_feedforward(
                    plan[k][0].circuit):
                self._tasks.put(task_key, (dict(result.probabilities),
                                           result.measured_clbits))
        return results  # type: ignore[return-value]

    def _intern(self, device_key: _Key) -> _Key:
        """The interned object equal to *device_key*."""
        found = self._devices.get(device_key)
        if found is None:
            self._devices.put(device_key, device_key)
            return device_key
        return found

    def _schedule(self, programs: Sequence[Program], device: Device,
                  device_key: _Key, scheduling: str,
                  include_crosstalk: bool, noisy: bool
                  ) -> List[Tuple[Program, Optional[_Key],
                                  Tuple[Tuple[int, float], ...]]]:
        """``prepare_parallel`` through the schedule memo.

        Returns one ``(effective program, its key, its crosstalk scales
        as items)`` per program.
        """
        keys = [_program_key(prog.circuit) for prog in programs]
        memo_key = None if None in keys else _Key((
            tuple((key, tuple(prog.partition))
                  for key, prog in zip(keys, programs)),
            scheduling, include_crosstalk, noisy, device_key))
        found = None if memo_key is None else self._schedules.get(memo_key)
        if found is not None:
            return [(prog if circuit is None
                     else Program(circuit, prog.partition), key, scales)
                    for prog, (circuit, key, scales)
                    in zip(programs, found)]
        effective, scales = prepare_parallel(
            programs, device, scheduling=scheduling,
            include_crosstalk=include_crosstalk, noisy=noisy)
        entry = []
        for prog, eff, key, scale in zip(programs, effective, keys, scales):
            if eff.circuit is prog.circuit:
                entry.append((None, key, tuple(scale.items())))
            else:  # ASAP padding made a new circuit
                entry.append((eff.circuit, _program_key(eff.circuit),
                              tuple(scale.items())))
        if memo_key is not None:
            self._schedules.put(memo_key, tuple(entry))
        return [(eff, key, scale)
                for eff, (_, key, scale) in zip(effective, entry)]

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
