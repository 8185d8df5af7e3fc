"""Layered compile-cache subsystem.

One cache class, :class:`ExecutionCache`, over two tiers, built from
these modules:

- :mod:`~repro.cache.keys` — each circuit's cached structural
  :func:`fingerprint` and stable cross-process digests
  (:func:`transpile_key` builds the exact key, the digest lazily);
- :mod:`~repro.cache.memory` — :class:`MemoryCache`, the thread-safe
  in-process LRU tier (L1) with hit/miss/eviction counters;
- :mod:`~repro.cache.persistent` — :class:`PersistentCache`, the
  SQLite WAL-mode on-disk tier (L2) shared across processes;
- :mod:`~repro.cache.sqlite` — the SQLite core under both durable
  stores (this L2 and :class:`repro.service.JobStore`): connect, refuse
  another store's file, warn once and degrade, close;
- :mod:`~repro.cache.tiered` — :class:`ExecutionCache`, the compile
  cache: L1 + L2 with promotion on hit, both keyed by the exact
  structural key, plus the ideal-distribution table.
"""

from .keys import (
    TranspileKey,
    circuit_key,
    device_digest,
    fingerprint,
    index_sensitive_transpiler,
    key_digest,
    persistent_cache_token,
    persistent_token,
    transpile_key,
)
from .memory import MemoryCache
from .persistent import PersistentCache
from .tiered import ExecutionCache, dumps_artifact, loads_artifact

__all__ = [
    "ExecutionCache",
    "MemoryCache",
    "PersistentCache",
    "TranspileKey",
    "circuit_key",
    "device_digest",
    "dumps_artifact",
    "fingerprint",
    "index_sensitive_transpiler",
    "key_digest",
    "loads_artifact",
    "persistent_cache_token",
    "persistent_token",
    "transpile_key",
]
