"""Program-batch execution with memos for repeated programs.

End-to-end job latency is dominated by *simulation*: numpy running
inside :func:`~repro.sim.executor.run_parallel`.  :class:`ExecutionService`
runs the same two halves, and skips the simulations a repeated program
has already fixed:

- the joint (cross-program) half of a batch —
  :func:`~repro.sim.executor.prepare_parallel` (validation, ASAP padding,
  crosstalk scales) and :func:`~repro.sim.executor.spawn_seeds` — after
  which each program's simulation is a pure function of its own
  ``(circuit, partition, seed, scales)`` task;
- a program's post-readout distribution is a pure function of its
  circuit, partition, crosstalk scales and the device calibration; only
  shot sampling reads the seed.  The service serves repeated tasks from
  a **task memo** of distributions, sampled with each task's own seed
  exactly as :func:`~repro.sim.density_matrix.run_circuit` samples, and
  repeated batch compositions from a **schedule memo** of
  ``prepare_parallel``'s output.  Both are bounded LRU tables keyed by
  value (see :meth:`ExecutionService.run_parallel`);
- the remaining tasks run inline through
  :func:`~repro.sim.executor.simulate_programs`, the library path's own
  per-program loop, so results are **bit-identical** to
  :func:`~repro.sim.executor.run_parallel` (enforced by
  ``tests/test_execution_service.py``).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache import MemoryCache
from ..cache.keys import Fingerprint, _Key, fingerprint
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult
from ..sim.executor import (
    Program,
    prepare_parallel,
    simulate_programs,
    spawn_seeds,
)
from ..sim.feedforward import needs_feedforward
from ..sim.readout import SeedLike, sample_counts

__all__ = ["ExecutionService"]

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

def _program_key(circuit: QuantumCircuit) -> Optional[Fingerprint]:
    """Value key of one program's circuit: its fingerprint, or ``None``
    for a control-flow program, which keeps it out of both memos."""
    fp = fingerprint(circuit)
    return None if fp.dynamic else fp


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


class ExecutionService:
    """Executes program batches inline, serving repeated work from two
    bounded memos kept across batches (see :meth:`run_parallel`); any
    number of executors may share one instance.
    """

    def __init__(self) -> None:
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
        # ``batches``/``programs`` count everything run through
        # :meth:`run_parallel`; ``serial_batches`` the batches that
        # simulated at least one program.
        self._requests: Dict[str, int] = {
            "batches": 0, "programs": 0, "serial_batches": 0,
        }

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting (copy): batches, programs, batches that
        simulated, and the memos' hits and misses (``memo_*`` per task,
        ``schedule_*`` per batch)."""
        with self._lock:
            out = dict(self._requests)
        # Always 0 (there is no pool): the end-to-end benchmark still
        # reads these keys.
        out.update(thread_batches=0, process_batches=0, fallbacks=0)
        out.update(memo_hits=self._tasks.hits,
                   memo_misses=self._tasks.misses,
                   schedule_hits=self._schedules.hits,
                   schedule_misses=self._schedules.misses)
        return out

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
        spawning) runs first, then each program that misses the task
        memo is simulated inline by
        :func:`~repro.sim.executor.simulate_programs`.

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
          fresh dicts.  Feed-forward programs (control flow or
          mid-circuit measurement) bypass it.

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
            self._requests["serial_batches"] += bool(misses)
        if not misses:
            return results  # type: ignore[return-value]

        tasks = [(plan[k][0].circuit, plan[k][0].partition, seeds[k],
                  dict(plan[k][2])) for k, _ in misses]
        simulated = simulate_programs(
            tasks, device.noise_model() if noisy else None, shots)
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
                  ) -> List[Tuple[Program, Optional[Fingerprint],
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
