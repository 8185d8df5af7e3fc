"""Layered compile-cache subsystem.

One unified cache API over three tiers:

- :mod:`~repro.cache.keys` — structural cache keys, qubit-relabel
  equivalence-class canonicalization, and stable cross-process digests
  (:func:`transpile_key` computes all forms in one pass);
- :mod:`~repro.cache.memory` — :class:`MemoryCache`, the thread-safe
  in-process LRU tier (L1) with hit/miss/eviction counters;
- :mod:`~repro.cache.persistent` — :class:`PersistentCache`, the
  SQLite WAL-mode on-disk tier (L2) shared across processes;
- :mod:`~repro.cache.sqlite` — the SQLite core under both durable
  stores (this L2 and :class:`repro.service.JobStore`): connect, refuse
  another store's file, warn once and degrade, close;
- :mod:`~repro.cache.tiered` — :class:`TieredCache`, composing exact
  L1 + equivalence-class L1 + L2 with promotion on hit.

:class:`repro.core.ExecutionCache` keeps its public API and delegates
to a :class:`TieredCache` underneath.
"""

from .keys import (
    CanonicalForm,
    TranspileKey,
    canonical_form,
    circuit_key,
    device_digest,
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
from .tiered import TieredCache, dumps_artifact, loads_artifact

__all__ = [
    "CanonicalForm",
    "MemoryCache",
    "PersistentCache",
    "TieredCache",
    "TranspileKey",
    "canonical_form",
    "circuit_key",
    "device_digest",
    "dumps_artifact",
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
