"""Layered compile-cache subsystem.

One cache class, :class:`ExecutionCache`, over three tiers, built from
these modules:

- :mod:`~repro.cache.keys` — each circuit's cached structural
  :func:`fingerprint`, qubit-relabel equivalence-class
  canonicalization, and stable cross-process digests
  (:func:`transpile_key` builds the exact form, the others lazily);
- :mod:`~repro.cache.memory` — :class:`MemoryCache`, the thread-safe
  in-process LRU tier (L1) with hit/miss/eviction counters;
- :mod:`~repro.cache.persistent` — :class:`PersistentCache`, the
  SQLite WAL-mode on-disk tier (L2) shared across processes;
- :mod:`~repro.cache.sqlite` — the SQLite core under both durable
  stores (this L2 and :class:`repro.service.JobStore`): connect, refuse
  another store's file, warn once and degrade, close;
- :mod:`~repro.cache.tiered` — :class:`ExecutionCache`, the compile
  cache: exact L1 + equivalence-class L1 + L2 with promotion on hit,
  plus the ideal-distribution table.
"""

from .keys import (
    CanonicalForm,
    TranspileKey,
    canonical_form,
    circuit_key,
    device_digest,
    fingerprint,
    index_sensitive_transpiler,
    invert_relabel,
    key_digest,
    persistent_cache_token,
    persistent_token,
    remap_layout,
    remap_result,
    transpile_key,
)
from .memory import MemoryCache
from .persistent import PersistentCache
from .tiered import ExecutionCache, dumps_artifact, loads_artifact

__all__ = [
    "CanonicalForm",
    "ExecutionCache",
    "MemoryCache",
    "PersistentCache",
    "TranspileKey",
    "canonical_form",
    "circuit_key",
    "device_digest",
    "dumps_artifact",
    "fingerprint",
    "index_sensitive_transpiler",
    "invert_relabel",
    "key_digest",
    "loads_artifact",
    "persistent_cache_token",
    "persistent_token",
    "remap_layout",
    "remap_result",
    "transpile_key",
]
