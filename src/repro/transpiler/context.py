"""Compilation-context layer: device-invariant structures, computed once.

Every ``transpile()`` call needs the same (device, calibration)-derived
structures — the reliability-weighted edge graph, all-pairs Dijkstra
tables for mapping and SABRE, and (for partitioned execution) the induced
coupling map and restricted calibration of each partition.  The seed
implementation rebuilt all of them per call; at fleet scale that is the
dominant compile cost.

:class:`DeviceContext` computes each structure lazily, caches it, and
memoizes partition-induced sub-contexts and the angle-free compile plans
of :meth:`DeviceContext.plan`.  :func:`device_context` is a
fingerprint-keyed registry: two calls with equal coupling/calibration
*values* share one context, and mutating a calibration in place changes
its fingerprint, so the next lookup builds a fresh context instead of
serving stale tables (see the invalidation tests).  Repeat lookups with
the same objects skip the fingerprint: an identity front serves them
once the live calibration still equals the context's snapshot.

The reliability edge weight ``-log(1 - cx_error) + 0.01`` used by the
initial mapper, both routers, and SABRE's distance tables lives here as
:func:`edge_reliability_weight` — the single source of truth that
``mapping.py`` and ``routing.py`` previously copy-pasted.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from typing import (Callable, Dict, Hashable, Optional, Sequence, Tuple,
                    TypeVar)

import networkx as nx
import numpy as np

from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap, Edge

__all__ = [
    "DeviceContext",
    "device_context",
    "edge_reliability_weight",
    "coupling_fingerprint",
    "calibration_fingerprint",
    "context_cache_stats",
    "induced_calibration",
    "induced_coupling",
    "reset_context_cache",
]

#: Distance reported for disconnected qubit pairs (matches the historical
#: ``rel_dist[pa].get(pb, 1e9)`` fallback).
UNREACHABLE = 1e9

#: Additive constant in the reliability weight: favours few hops among
#: equally reliable paths.
_HOP_PENALTY = 0.01

#: The compile plans of every context (see :meth:`DeviceContext.plan`),
#: in one table so that their total stays bounded however many
#: partition sub-contexts a long run builds; the least recently used
#: plan is evicted first.  Keys hold a weak reference to their context:
#: a plan does not keep a dropped context alive, and a context built
#: later can never read it.
_PLANS: "OrderedDict[Tuple[weakref.ref, Hashable], object]" = OrderedDict()
_PLANS_MAX = 512
_PLANS_LOCK = threading.Lock()

_Plan = TypeVar("_Plan")


def edge_reliability_weight(cx_error: Optional[float]) -> float:
    """Reliability cost of one link: ``-log(1 - cx_error) + 0.01``.

    ``None`` (no calibration) degrades to unit weight, i.e. plain hop
    counting.  The error is clamped below 1 so the log stays finite.
    """
    if cx_error is None:
        return 1.0
    return -math.log(1.0 - min(cx_error, 0.999)) + _HOP_PENALTY


def coupling_fingerprint(coupling: CouplingMap) -> Hashable:
    """Value fingerprint of a coupling map (size + sorted edge tuple)."""
    return (coupling.num_qubits, coupling.edges)


def _snapshot_calibration(calibration: Optional[Calibration]
                          ) -> Optional[Calibration]:
    """Value copy of a calibration (entries are immutable scalars/tuples).

    Registered contexts build their tables lazily; snapshotting at
    registration pins them to the fingerprinted values, so a later
    in-place mutation of the caller's calibration can never leak into
    tables served under the original fingerprint.
    """
    if calibration is None:
        return None
    return Calibration(
        oneq_error=dict(calibration.oneq_error),
        twoq_error=dict(calibration.twoq_error),
        readout_error=dict(calibration.readout_error),
        t1=dict(calibration.t1),
        t2=dict(calibration.t2),
        detuning=dict(calibration.detuning),
        gate_duration=dict(calibration.gate_duration),
    )


def calibration_fingerprint(calibration: Optional[Calibration]) -> Hashable:
    """Value fingerprint of a calibration snapshot (``None`` -> ``None``).

    Covers every field the transpiler can observe, so in-place mutation
    of any table produces a different fingerprint.
    """
    if calibration is None:
        return None
    return (
        tuple(sorted(calibration.oneq_error.items())),
        tuple(sorted(calibration.twoq_error.items())),
        tuple(sorted(calibration.readout_error.items())),
        tuple(sorted(calibration.t1.items())),
        tuple(sorted(calibration.t2.items())),
        tuple(sorted(calibration.detuning.items())),
        tuple(sorted(calibration.gate_duration.items())),
    )


def induced_coupling(coupling: CouplingMap,
                     partition: Sequence[int]) -> CouplingMap:
    """Induced coupling map of *partition* over local indices.

    Local index ``i`` corresponds to physical qubit ``partition[i]``.
    """
    partition = tuple(int(q) for q in partition)
    index_of = {p: i for i, p in enumerate(partition)}
    local_edges = [
        (index_of[a], index_of[b])
        for a, b in coupling.subgraph_edges(partition)
    ]
    return CouplingMap(len(partition), local_edges)


def induced_calibration(coupling: CouplingMap,
                        calibration: Optional[Calibration],
                        partition: Sequence[int]) -> Optional[Calibration]:
    """Calibration restricted to *partition* (local indices)."""
    if calibration is None:
        return None
    partition = tuple(int(q) for q in partition)
    index_of = {p: i for i, p in enumerate(partition)}
    cal = Calibration(gate_duration=dict(calibration.gate_duration))
    for p, i in index_of.items():
        cal.oneq_error[i] = calibration.oneq_error[p]
        cal.readout_error[i] = calibration.readout_error[p]
        cal.t1[i] = calibration.t1[p]
        cal.t2[i] = calibration.t2[p]
        cal.detuning[i] = calibration.detuning.get(p, 0.0)
    for (a, b) in coupling.subgraph_edges(partition):
        la, lb = sorted((index_of[a], index_of[b]))
        cal.twoq_error[(la, lb)] = calibration.cx_error(a, b)
    return cal


class DeviceContext:
    """Lazily computed, cached compilation context for one device view.

    All tables derive purely from ``(coupling, calibration)`` and are
    built on first use:

    - :attr:`reliability_graph` — the weighted graph the basic router
      walks shortest paths on;
    - :attr:`reliability_distance` — all-pairs Dijkstra over that graph,
      as the dict-of-dicts the mapper consumes (bit-identical to the
      historical per-call computation);
    - :attr:`reliability_matrix` / :attr:`hop_matrix` — the same
      distances as dense numpy arrays (SABRE's vectorized hot path and
      the mapper's vectorized permutation search);
    - :attr:`readout_vector` — per-physical-qubit symmetrized readout
      error as a dense vector (the mapper's measurement term);
    - :attr:`edge_weights` — per-link reliability weights, with
      :attr:`min_edge_weight` as the admissible lower bound the pruned
      layout search uses to certify optimality;
    - :meth:`partition_context` — memoized induced sub-contexts
      (induced :class:`CouplingMap` + restricted :class:`Calibration`);
    - :meth:`plan` — the compile decisions ``transpile()`` makes
      without reading a gate angle: the layout and routing plan of a
      basis-circuit skeleton and the ALAP plan of an optimized one.
      Fresh-angle programs of one skeleton then skip the layout search,
      the path walks and the timing pass on this device view.  Plans
      live in one lock-guarded LRU table shared by all contexts
      (:data:`_PLANS_MAX` entries in total).

    Contexts treat their calibration as frozen: mutate a calibration and
    fetch a fresh context through :func:`device_context` instead.
    """

    def __init__(self, coupling: CouplingMap,
                 calibration: Optional[Calibration] = None) -> None:
        self.coupling = coupling
        self.calibration = calibration
        self._edge_weights: Optional[Dict[Edge, float]] = None
        self._rel_graph: Optional[nx.Graph] = None
        self._rel_dist: Optional[Dict[int, Dict[int, float]]] = None
        self._rel_matrix: Optional[np.ndarray] = None
        self._hop_matrix: Optional[np.ndarray] = None
        self._readout_vector: Optional[np.ndarray] = None
        self._min_edge_weight: Optional[float] = None
        self._subcontexts: Dict[Tuple[int, ...], "DeviceContext"] = {}
        #: Guards ``_subcontexts``: job threads reaching one new
        #: partition together must build it once.
        self._lock = threading.Lock()
        #: Lazy-table build counts plus partition-subcontext and plan
        #: hit/miss counters (exposed for tests and benchmark reporting).
        self.stats: Dict[str, int] = {
            "tables_built": 0,
            "partition_hits": 0,
            "partition_misses": 0,
            "plan_hits": 0,
            "plan_misses": 0,
        }

    # ------------------------------------------------------------------
    # cached device-invariant tables
    # ------------------------------------------------------------------
    @property
    def edge_weights(self) -> Dict[Edge, float]:
        """Reliability weight per (normalized) device link."""
        if self._edge_weights is None:
            cal = self.calibration
            self._edge_weights = {
                e: edge_reliability_weight(
                    None if cal is None else cal.cx_error(*e))
                for e in self.coupling.edges
            }
            self.stats["tables_built"] += 1
        return self._edge_weights

    @property
    def reliability_graph(self) -> nx.Graph:
        """Weighted graph over the device links (shared, do not mutate)."""
        if self._rel_graph is None:
            g = nx.Graph()
            g.add_nodes_from(range(self.coupling.num_qubits))
            for (a, b), w in self.edge_weights.items():
                g.add_edge(a, b, weight=w)
            self._rel_graph = g
            self.stats["tables_built"] += 1
        return self._rel_graph

    @property
    def reliability_distance(self) -> Dict[int, Dict[int, float]]:
        """All-pairs Dijkstra lengths as ``{src: {dst: length}}``."""
        if self._rel_dist is None:
            self._rel_dist = {
                src: dists
                for src, dists in nx.all_pairs_dijkstra_path_length(
                    self.reliability_graph, weight="weight")
            }
            self.stats["tables_built"] += 1
        return self._rel_dist

    @property
    def reliability_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` reliability-distance matrix.

        Entries hold exactly the Dijkstra floats of
        :attr:`reliability_distance`; unreachable pairs hold
        :data:`UNREACHABLE`, matching the historical dict fallback.
        """
        if self._rel_matrix is None:
            n = self.coupling.num_qubits
            mat = np.full((n, n), UNREACHABLE, dtype=np.float64)
            for src, dists in self.reliability_distance.items():
                for dst, length in dists.items():
                    mat[src, dst] = length
            self._rel_matrix = mat
            self.stats["tables_built"] += 1
        return self._rel_matrix

    @property
    def hop_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` unweighted hop-distance matrix."""
        if self._hop_matrix is None:
            n = self.coupling.num_qubits
            mat = np.full((n, n), UNREACHABLE, dtype=np.float64)
            for src in range(n):
                for dst in range(n):
                    d = self.coupling.distance(src, dst)
                    if d < UNREACHABLE:
                        mat[src, dst] = d
            self._hop_matrix = mat
            self.stats["tables_built"] += 1
        return self._hop_matrix

    @property
    def readout_vector(self) -> np.ndarray:
        """Dense ``(n,)`` symmetrized readout-error vector.

        Entry ``p`` is ``0.5 * (p01 + p10)`` of physical qubit ``p`` —
        exactly the measurement term :func:`~repro.transpiler.mapping.
        layout_cost` adds per measured logical.  All zeros without a
        calibration, so the gathered term vanishes identically.
        """
        if self._readout_vector is None:
            n = self.coupling.num_qubits
            vec = np.zeros(n, dtype=np.float64)
            if self.calibration is not None:
                for q in range(n):
                    p01, p10 = self.calibration.readout_error[q]
                    vec[q] = 0.5 * (p01 + p10)
            vec.setflags(write=False)
            self._readout_vector = vec
            self.stats["tables_built"] += 1
        return self._readout_vector

    @property
    def min_edge_weight(self) -> float:
        """Smallest per-link reliability weight (0.0 for edgeless maps).

        Every path of ``h`` hops weighs at least ``h * min_edge_weight``,
        so ``reliability_distance >= hop_distance * min_edge_weight`` —
        the admissible bound behind the mapper's escalating-budget
        pruning.
        """
        if self._min_edge_weight is None:
            weights = self.edge_weights.values()
            self._min_edge_weight = min(weights) if weights else 0.0
        return self._min_edge_weight

    # ------------------------------------------------------------------
    # partition-induced sub-contexts
    # ------------------------------------------------------------------
    def partition_context(self, partition: Sequence[int]) -> "DeviceContext":
        """The memoized induced context of *partition*.

        Local qubit ``i`` of the returned context corresponds to physical
        qubit ``partition[i]``, so the memo key is the exact partition
        *tuple* (order defines the local index map).  The sub-context's
        coupling/calibration are shared cache entries — treat them as
        frozen (CNA-style calibration inflation must copy first).
        """
        key = tuple(int(q) for q in partition)
        with self._lock:
            found = self._subcontexts.get(key)
            if found is not None:
                self.stats["partition_hits"] += 1
                return found
            self.stats["partition_misses"] += 1
            sub = DeviceContext(
                induced_coupling(self.coupling, key),
                induced_calibration(self.coupling, self.calibration, key))
            self._subcontexts[key] = sub
            return sub

    # ------------------------------------------------------------------
    # angle-free compile plans
    # ------------------------------------------------------------------
    def plan(self, key: Hashable, build: Callable[[], _Plan]) -> _Plan:
        """This context's plan under *key*; *build* makes it on a miss.

        *key* must cover everything *build* reads besides this context's
        own coupling and calibration.  Plans are shared between job
        threads, so they must be immutable.  Two threads missing one key
        both build it; the plans are equal, so either may be kept.
        """
        entry = (weakref.ref(self), key)
        with _PLANS_LOCK:
            found = _PLANS.get(entry)
            if found is not None:
                _PLANS.move_to_end(entry)
                self.stats["plan_hits"] += 1
                return found  # type: ignore[return-value]
            self.stats["plan_misses"] += 1
        made = build()
        with _PLANS_LOCK:
            _PLANS[entry] = made
            while len(_PLANS) > _PLANS_MAX:
                _PLANS.popitem(last=False)
        return made

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeviceContext {self.coupling.num_qubits}q, "
                f"{len(self._subcontexts)} partition sub-contexts>")


# ----------------------------------------------------------------------
# fingerprint-keyed registry
# ----------------------------------------------------------------------

#: Bound on registry entries; CNA-style ephemeral calibrations (inflated
#: copies per program) would otherwise grow it without limit.
_REGISTRY_MAX = 128

_registry: "OrderedDict[Hashable, DeviceContext]" = OrderedDict()
_registry_lock = threading.Lock()
_registry_stats = {"hits": 0, "misses": 0}

#: Identity front of the registry, bounded like it:
#: ``(id(coupling), id(calibration))`` -> ``(coupling, calibration,
#: context)``.  Holding both objects keeps their ids from being reused
#: while the entry lives.
_front: "OrderedDict[Tuple[int, int], tuple]" = OrderedDict()


def device_context(coupling: CouplingMap,
                   calibration: Optional[Calibration] = None
                   ) -> DeviceContext:
    """The shared :class:`DeviceContext` for a coupling/calibration pair.

    Keyed by value fingerprints, so equal snapshots share one context
    (and its cached Dijkstra tables) regardless of object identity,
    while a mutated calibration transparently misses into a fresh one.
    Oldest entries are evicted past ``_REGISTRY_MAX``.

    A repeat call with the same two objects is served by identity
    instead, without sorting and hashing the tables, as long as the
    calibration's tables still equal the context's snapshot (coupling
    maps have no mutation API).
    """
    ident = (id(coupling), id(calibration))
    with _registry_lock:
        entry = _front.get(ident)
        # Dataclass equality compares the seven tables as dicts, with
        # no sorting; the fingerprint covers the same tables.
        if entry is not None and calibration == entry[2].calibration:
            _registry_stats["hits"] += 1
            _front.move_to_end(ident)
            return entry[2]
    key = (coupling_fingerprint(coupling),
           calibration_fingerprint(calibration))
    with _registry_lock:
        ctx = _registry.get(key)
        if ctx is not None:
            _registry_stats["hits"] += 1
            _registry.move_to_end(key)
        else:
            _registry_stats["misses"] += 1
            ctx = DeviceContext(coupling, _snapshot_calibration(calibration))
            _registry[key] = ctx
            while len(_registry) > _REGISTRY_MAX:
                _registry.popitem(last=False)
        _front[ident] = (coupling, calibration, ctx)
        _front.move_to_end(ident)
        while len(_front) > _REGISTRY_MAX:
            _front.popitem(last=False)
        return ctx


def context_cache_stats() -> Dict[str, int]:
    """Registry hit/miss counters plus current entry count."""
    with _registry_lock:
        return {**_registry_stats, "entries": len(_registry)}


def reset_context_cache() -> None:
    """Drop every registered context, with its plans, and zero the
    counters (tests)."""
    with _PLANS_LOCK:
        _PLANS.clear()
    with _registry_lock:
        _registry.clear()
        _front.clear()
        _registry_stats["hits"] = 0
        _registry_stats["misses"] = 0
