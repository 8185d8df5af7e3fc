"""The process pool :class:`~repro.core.compile_service.CompileService`
compiles on.

The service shards its per-program work into contiguous chunks, at most
one per worker, each carrying a plain-data device fingerprint
(:func:`device_fingerprint_spec`) instead of pickled device objects.
:class:`ProcessPool` owns the executor lifecycle — lazy creation, the
chunk bounds, the compare-and-swap discard of a broken executor, and
shutdown — so the service only decides *what* to ship and how to fall
back inline.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..hardware.devices import Device

__all__ = ["ProcessPool", "device_fingerprint_spec"]


def device_fingerprint_spec(device: Device) -> Dict:
    """Plain-data snapshot of what compilation observes.

    Exactly the values behind the context registry's fingerprint —
    cheap to pickle, and sufficient for a worker to rehydrate the shared
    :class:`~repro.transpiler.context.DeviceContext` on its side of the
    process boundary.  The calibration is copied by
    :func:`~repro.transpiler.context._snapshot_calibration` (a dataclass
    of plain dicts), the single field-list authority, so a new
    :class:`Calibration` field cannot silently go missing from worker
    rehydration.
    """
    from ..transpiler.context import _snapshot_calibration

    return {
        "num_qubits": device.coupling.num_qubits,
        "edges": device.coupling.edges,
        "calibration": _snapshot_calibration(device.calibration),
    }


class ProcessPool:
    """A lazily created, self-replacing :class:`ProcessPoolExecutor`.

    *max_workers* is the pool size (``None`` = the executor default,
    ``os.cpu_count()``).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        # Lazy: a service may never route a batch to the pool, and a
        # process pool costs real fork/spawn time.
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The current executor, created on first use (or after a
        :meth:`discard`)."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._max_workers)
            return self._executor

    def chunk_bounds(self, count: int) -> List[Tuple[int, int]]:
        """Contiguous non-empty ``(lo, hi)`` shards of ``range(count)``,
        at most one per worker."""
        workers = self._max_workers or os.cpu_count() or 1
        n_chunks = max(1, min(count, workers))
        bounds = [round(i * count / n_chunks) for i in range(n_chunks + 1)]
        return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def discard(self, executor) -> None:
        """Drop *executor* after it broke — only if it is still current.

        Another thread may already have replaced it with a healthy one;
        dropping unconditionally would leak that one's workers.  The
        next :meth:`executor` call builds a fresh pool, so one dead
        worker never degrades a service to inline work for good.
        """
        if executor is None:
            return
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
        try:
            executor.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - already broken
            pass

    def shutdown(self, wait: bool = True) -> None:
        """Stop the current executor (a later :meth:`executor` call
        lazily builds a fresh one)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
