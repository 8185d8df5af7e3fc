"""The compile cache: :class:`ExecutionCache` over two tiers.

One lookup walks two tiers, cheapest first, both keyed by the request's
exact structural key (the circuit's cached
:func:`~repro.cache.keys.fingerprint` plus placement, device and hook):

1. **L1** — the in-process table, artifact ready to hand out;
2. **persistent L2** — the cross-process store: the pickled artifact is
   deserialized and promoted into L1, so a cold process on a warm store
   pays one unpickle per program structure instead of one compile.

Stores mirror the walk downward: the artifact lands in L1 and — when
the request is persistable (default transpiler or a hook with a declared
:func:`~repro.cache.keys.persistent_cache_token`) — in the L2 store.

The same class memoizes ideal (noiseless) distributions, keyed by each
circuit's :func:`~repro.cache.keys.fingerprint`.  Compiles run through
:class:`~repro.core.compile_service.CompileService`, which keys each
request once (:func:`~repro.cache.keys.transpile_key`), looks it up
here and publishes what it compiles.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..circuits.circuit import QuantumCircuit
from ..sim.statevector import ideal_probabilities
from ..transpiler.transpile import TranspileResult
from .keys import TranspileKey, fingerprint
from .memory import MemoryCache
from .persistent import PersistentCache

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..hardware.devices import Device

__all__ = ["ExecutionCache", "dumps_artifact", "loads_artifact"]


def dumps_artifact(result: TranspileResult) -> bytes:
    """Serialize one artifact for the persistent store."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def loads_artifact(payload: bytes) -> Optional[TranspileResult]:
    """Deserialize a store payload; ``None`` for anything malformed.

    A truncated or garbage blob must degrade to a cache miss (cold
    compile), never to an exception in the lookup path.
    """
    try:
        artifact = pickle.loads(payload)
    except Exception:  # noqa: BLE001 - any malformed payload is a miss
        return None
    if not isinstance(artifact, TranspileResult):
        return None
    return artifact


class ExecutionCache:
    """Cross-job memoization of compiled artifacts and ideal distributions.

    Parameters
    ----------
    max_entries:
        LRU bound applied to each in-memory table (``None`` unbounded,
        ``0`` disables in-memory storage).  The default is generous for
        figure-sized sweeps and finite for long-lived services, whose
        entries pin their keyed devices and results alive.
    store_path:
        Location of the persistent L2 store (:attr:`persistent`);
        ``None`` runs in-memory only.

    Artifacts are keyed on circuit *structure* plus placement, so
    repeated programs in a sweep amortize the expensive steps.
    :attr:`stats` is the counter snapshot across every tier.
    """

    def __init__(self, max_entries: Optional[int] = 4096,
                 store_path: Optional[str] = None) -> None:
        self.max_entries = max_entries
        # In-memory values keep strong references to the keyed
        # device/transpiler so their id()s cannot be recycled onto
        # different objects while an entry is alive.
        self.l1 = MemoryCache(max_entries)
        self.persistent: Optional[PersistentCache] = (
            None if store_path is None else PersistentCache(store_path))
        self._ideal_table = MemoryCache(max_entries)
        self._lock = threading.Lock()
        self.promotions = 0
        self.decode_errors = 0
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
    def store_path(self) -> Optional[str]:
        """Path of the attached persistent store, or ``None``."""
        return None if self.persistent is None else self.persistent.path

    def clear(self) -> None:
        """Drop the in-memory entries (counters are kept).

        The on-disk store outlives this process by design; empty it
        with ``persistent.clear()``.
        """
        self.l1.clear()
        self._ideal_table.clear()

    # ------------------------------------------------------------------
    def lookup_transpile_raw(self, key: TranspileKey,
                             device: "Device", transpiler_fn
                             ) -> Optional[TranspileResult]:
        """Cached *raw* (shared, do-not-mutate) result for a
        precomputed key, or ``None``; counts hit/miss.

        Apply :meth:`_fresh` before handing the result to anything that
        may mutate it.  Its circuit carries its fingerprint, so every
        fresh copy of a hit is keyed already.
        """
        found = self._walk(key, device, transpiler_fn)
        if found is None:
            self.transpile_misses += 1
        else:
            self.transpile_hits += 1
            fingerprint(found.circuit)
        return found

    def _walk(self, key: TranspileKey, device: "Device",
              transpiler_fn) -> Optional[TranspileResult]:
        """The tier walk: L1, then the L2 store.

        Device/hook identity is re-checked against the stored strong
        references, so a recycled ``id()`` can never alias a different
        object.
        """
        entry = self.l1.get(key.exact)
        if (entry is not None and entry[0] is device
                and entry[1] is transpiler_fn):
            return entry[2]
        if self.persistent is None or key.digest is None:
            return None
        payload = self.persistent.get(key.digest)
        if payload is None:
            return None
        result = loads_artifact(payload)
        if result is None:
            # Row-level corruption: drop the entry so the next writer
            # replaces it, and treat this request as a plain miss.
            with self._lock:
                self.decode_errors += 1
            self.persistent.delete(key.digest)
            return None
        self.l1.put(key.exact, (device, transpiler_fn, result))
        with self._lock:
            self.promotions += 1
        return result

    def store_transpile_raw(self, key: TranspileKey,
                            device: "Device", transpiler_fn,
                            result: TranspileResult) -> None:
        """Publish one computed artifact into every applicable tier
        (no-op for gated writes)."""
        if not self._may_write():
            return
        self.l1.put(key.exact, (device, transpiler_fn, result))
        if self.persistent is not None and key.digest is not None:
            self.persistent.put(key.digest, dumps_artifact(result))

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

    # ------------------------------------------------------------------
    def ideal(self, circuit: QuantumCircuit) -> Dict[str, float]:
        """Ideal (noiseless) output distribution through the cache.

        Keyed by the circuit's exact structural key (its
        :func:`~repro.cache.keys.fingerprint`).  Returns a fresh dict
        each call — outcomes must not alias one shared mutable
        distribution, or a caller mutating its copy would corrupt the
        cache and every sibling outcome.
        """
        key = fingerprint(circuit)
        cached = self._ideal_table.get(key)
        if cached is not None:
            self.ideal_hits += 1
            return dict(cached)
        self.ideal_misses += 1
        result = ideal_probabilities(circuit)
        if self._may_write():
            self._ideal_table.put(key, result)
        return dict(result)

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain ints, JSON-safe).

        ``evictions`` sums both in-memory tables; ``promotions`` counts
        store hits promoted into memory; the ``persistent_*`` entries
        are zero without an attached store; then the transpile/ideal
        hit-miss counters and ``gated_writes``.
        """
        l2 = self.persistent.stats if self.persistent is not None else {}
        return {
            "evictions": self.l1.evictions + self._ideal_table.evictions,
            "promotions": self.promotions,
            "decode_errors": self.decode_errors,
            "persistent_hits": l2.get("hits", 0),
            "persistent_misses": l2.get("misses", 0),
            "persistent_writes": l2.get("writes", 0),
            "persistent_errors": l2.get("errors", 0),
            "transpile_hits": self.transpile_hits,
            "transpile_misses": self.transpile_misses,
            "ideal_hits": self.ideal_hits,
            "ideal_misses": self.ideal_misses,
            "gated_writes": self.gated_writes,
        }
