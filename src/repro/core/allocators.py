"""Allocator strategy layer: one engine, many policies, a registry.

Every allocation method in this repo — QuCP and its four baselines —
shares the same mechanical skeleton: grow connected partition candidates
over the free qubits, detect crosstalk-suspect links against the programs
already placed, score each candidate, keep the best.  They differ *only*
in the scoring policy.  This module hoists the shared machinery into
:class:`AllocationEngine` (with memoized candidate growth, suspect
detection, and placement search) and turns each method into an
:class:`Allocator` strategy registered under its paper name::

    from repro.core import get_allocator

    alloc = get_allocator("qucp", sigma=4.0).allocate(circuits, device)

The engine caches are what make the service layer fast: the discrete-event
scheduler re-evaluates "where would this program go, solo and inside the
current batch?" for every admission attempt, and those answers depend only
on the circuit's *structure* ``(num_qubits, #2q, #1q)`` and on the
already-allocated region ``(qubit frozenset, internal-edge frozenset)`` —
exactly the memo keys used here.
"""

from __future__ import annotations

import difflib
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..cache.keys import fingerprint
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..hardware.topology import Edge
from .metrics import hardware_throughput
from .partition import (
    PartitionCandidate,
    crosstalk_suspect_pairs,
    grow_partition_candidates,
)

__all__ = [
    "ProgramAllocation",
    "AllocationResult",
    "UnknownAllocatorError",
    "Placement",
    "PlacementContext",
    "AllocationEngine",
    "Allocator",
    "register_allocator",
    "get_allocator",
    "available_allocators",
    "resolve_allocator",
    "allocation_engine",
    "circuit_structure_key",
]


# ----------------------------------------------------------------------
# allocation records (shared by every method)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramAllocation:
    """One program's placement."""

    index: int
    circuit: QuantumCircuit
    partition: Tuple[int, ...]
    efs: float
    crosstalk_pairs: Tuple[Edge, ...] = ()


@dataclass
class AllocationResult:
    """Output of a parallel-workload allocation."""

    method: str
    device: Device
    allocations: List[ProgramAllocation] = field(default_factory=list)

    @property
    def partitions(self) -> List[Tuple[int, ...]]:
        """Partitions in original program order."""
        ordered = sorted(self.allocations, key=lambda a: a.index)
        return [a.partition for a in ordered]

    def used_qubits(self) -> int:
        """Total number of allocated physical qubits."""
        return sum(len(a.partition) for a in self.allocations)

    def throughput(self) -> float:
        """Hardware throughput achieved by this allocation."""
        return hardware_throughput(self.used_qubits(),
                                   self.device.num_qubits)

    def allocation_for(self, index: int) -> ProgramAllocation:
        """The allocation of the *index*-th input circuit."""
        for a in self.allocations:
            if a.index == index:
                return a
        raise KeyError(f"no allocation for program {index}")


# ----------------------------------------------------------------------
# placement context + engine
# ----------------------------------------------------------------------

#: What scoring consumes from a circuit: size, #2q gates, #1q gates.
CircuitKey = Tuple[int, int, int]


def circuit_structure_key(circuit: QuantumCircuit) -> CircuitKey:
    """``(num_qubits, n2q, n1q)`` — all the structure the EFS sees,
    read from the circuit's cached fingerprint."""
    fp = fingerprint(circuit)
    return (circuit.num_qubits, fp.twoq, fp.size - fp.twoq)


@dataclass(frozen=True)
class PlacementContext:
    """The batch allocated so far, in the forms scoring needs.

    ``parts`` keeps allocation order (for methods that care), ``qubits``
    is their union, ``edges`` the union of each part's *internal* links —
    the set crosstalk-suspect detection is defined against.
    """

    parts: Tuple[Tuple[int, ...], ...] = ()
    qubits: FrozenSet[int] = frozenset()
    edges: Tuple[Edge, ...] = ()

    @classmethod
    def from_parts(cls, parts: Sequence[Sequence[int]],
                   device: Device) -> "PlacementContext":
        """Build the context for *parts* already placed on *device*."""
        norm = tuple(tuple(p) for p in parts)
        qubits = frozenset(q for p in norm for q in p)
        edges: List[Edge] = []
        for p in norm:
            edges.extend(device.coupling.subgraph_edges(p))
        return cls(parts=norm, qubits=qubits, edges=tuple(edges))

    def extended(self, partition: Sequence[int],
                 device: Device) -> "PlacementContext":
        """Context with one more placed partition."""
        return PlacementContext.from_parts(
            self.parts + (tuple(partition),), device)


#: An empty chip — the solo-placement context.
EMPTY_CONTEXT = PlacementContext()


@dataclass(frozen=True)
class Placement:
    """One candidate chosen for one program."""

    partition: Tuple[int, ...]
    efs: float
    suspects: Tuple[Edge, ...] = ()


class AllocationEngine:
    """Shared, memoized allocation machinery for one device.

    Three caches, keyed only on information the computation actually
    depends on:

    - candidate growth: ``(size, blocked frozenset)``
    - suspect pairs: ``(candidate, allocated-edge frozenset)``
    - best placement: ``(allocator token, circuit structure,
      allocated-qubit frozenset, allocated-edge frozenset)``

    The last one is the scheduler's hot path: admission checks ask for
    the same (circuit, batch-state) placements over and over — every
    repeat is a dictionary hit instead of a full candidate rescan.
    """

    def __init__(self, device: Device) -> None:
        # Weak, so a dropped device (and this engine with it, via the
        # registry finalizer) can actually be reclaimed.
        self._device_ref = weakref.ref(device)
        self._candidates: Dict[Tuple[int, FrozenSet[int]],
                               Tuple[PartitionCandidate, ...]] = {}
        self._suspects: Dict[Tuple[Tuple[int, ...], FrozenSet[Edge]],
                             Tuple[Edge, ...]] = {}
        self._placements: Dict[Hashable, Optional[Placement]] = {}
        #: Per-device scratch space for allocator-specific memos
        #: (e.g. QuCloud's degree scale, QuMC's oracle map).  Stored on
        #: the engine so entries can never outlive — or alias — the
        #: device they were computed for.
        self.scratch: Dict[Hashable, Any] = {}

    @property
    def device(self) -> Device:
        device = self._device_ref()
        if device is None:
            raise ReferenceError(
                "the device behind this AllocationEngine was "
                "garbage-collected")
        return device

    @property
    def context(self) -> "DeviceContext":
        """The shared compilation context of this engine's device.

        Fetched from the fingerprint-keyed transpiler registry, so the
        scheduler, the compile service, and direct ``transpile()`` calls
        all draw on one set of distance tables and memoized partition
        sub-contexts — and a mutated calibration transparently resolves
        to a fresh context.
        """
        from ..transpiler.context import device_context
        device = self.device
        return device_context(device.coupling, device.calibration)

    # -- statistics (exposed for benchmarks/tests) ---------------------
    @property
    def cache_sizes(self) -> Dict[str, int]:
        """Current entry counts of the three memo tables."""
        return {
            "candidates": len(self._candidates),
            "suspects": len(self._suspects),
            "placements": len(self._placements),
        }

    # ------------------------------------------------------------------
    def candidates(self, size: int, blocked: FrozenSet[int]
                   ) -> Tuple[PartitionCandidate, ...]:
        """Memoized :func:`grow_partition_candidates`."""
        key = (size, blocked)
        found = self._candidates.get(key)
        if found is None:
            found = tuple(grow_partition_candidates(
                size, self.device.coupling, self.device.calibration,
                allocated=blocked))
            self._candidates[key] = found
        return found

    def suspect_pairs(self, candidate: Tuple[int, ...],
                      ctx: PlacementContext) -> Tuple[Edge, ...]:
        """Memoized :func:`crosstalk_suspect_pairs` against *ctx*."""
        key = (candidate, frozenset(ctx.edges))
        found = self._suspects.get(key)
        if found is None:
            found = crosstalk_suspect_pairs(
                candidate, self.device.coupling, ctx.parts)
            self._suspects[key] = found
        return found

    def best_placement(self, allocator: "Allocator",
                       circuit: QuantumCircuit,
                       ctx: PlacementContext = EMPTY_CONTEXT,
                       ) -> Optional[Placement]:
        """Best-scoring candidate for *circuit* given *ctx*, or ``None``.

        Ties break toward the earliest candidate in growth order (the
        historical first-minimum rule), so results are bit-identical to
        the pre-engine per-method loops.
        """
        size, n2q, n1q = circuit_structure_key(circuit)
        key = (allocator.cache_token(), (size, n2q, n1q),
               ctx.qubits, frozenset(ctx.edges))
        if key in self._placements:
            return self._placements[key]
        best: Optional[Placement] = None
        for cand in self.candidates(size, ctx.qubits):
            suspects = self.suspect_pairs(cand.qubits, ctx)
            efs = allocator.score(self, ctx, cand, suspects, n2q, n1q)
            if best is None or efs < best.efs:
                best = Placement(cand.qubits, efs, suspects)
        self._placements[key] = best
        return best

    def solo_best(self, allocator: "Allocator",
                  circuit: QuantumCircuit) -> Optional[Placement]:
        """Best placement on the idle chip (cached per structure)."""
        return self.best_placement(allocator, circuit, EMPTY_CONTEXT)


#: One engine per live device, keyed by identity.  The engine only
#: weak-references the device and a finalizer evicts the entry when the
#: device is collected, so neither devices nor their memo tables are
#: retained for process lifetime, and a recycled id can never serve a
#: stale engine.
_ENGINES: Dict[int, AllocationEngine] = {}


def allocation_engine(device: Device) -> AllocationEngine:
    """The shared :class:`AllocationEngine` for *device*."""
    key = id(device)
    engine = _ENGINES.get(key)
    if engine is not None and engine._device_ref() is device:
        return engine
    engine = AllocationEngine(device)
    _ENGINES[key] = engine
    weakref.finalize(device, _ENGINES.pop, key, None)
    return engine


# ----------------------------------------------------------------------
# the strategy interface
# ----------------------------------------------------------------------

class Allocator(ABC):
    """A qubit-partition allocation policy.

    Subclasses implement :meth:`score` (lower is better) and inherit the
    shared largest-first greedy loop in :meth:`allocate`.  Methods that
    do not fit the candidate-scoring mould (CNA compiles onto the whole
    free chip) override :meth:`allocate` and set
    ``supports_incremental = False`` — the service layer only batches
    with incremental allocators.
    """

    #: Registry name (class attribute, set by subclasses).
    name: str = ""
    #: Whether the scheduler may place programs one at a time with it.
    supports_incremental: bool = True

    # -- identity ------------------------------------------------------
    def method_label(self) -> str:
        """Label recorded on :class:`AllocationResult` (paper naming)."""
        return self.name

    def cache_token(self) -> Hashable:
        """Engine-cache namespace for this scoring policy.

        Subclasses whose score is fully determined by constructor
        parameters should return those (e.g. ``("qucp", sigma)``) so
        equivalent instances share cache entries.  The default isolates
        each instance by returning the instance itself — the cache key
        then pins the allocator alive, so a recycled ``id`` can never
        alias another instance's entries.
        """
        return self

    # -- the policy ----------------------------------------------------
    @abstractmethod
    def score(self, engine: AllocationEngine, ctx: PlacementContext,
              candidate: PartitionCandidate, suspects: Tuple[Edge, ...],
              n2q: int, n1q: int) -> float:
        """EFS-style cost of placing a program on *candidate* (lower
        wins) given the batch in *ctx*."""

    # -- shared mechanics ----------------------------------------------
    def best_placement(self, circuit: QuantumCircuit, device: Device,
                       ctx: PlacementContext = EMPTY_CONTEXT,
                       ) -> Optional[Placement]:
        """Best placement of *circuit* on *device* given *ctx*."""
        return allocation_engine(device).best_placement(self, circuit, ctx)

    def allocate(self, circuits: Sequence[QuantumCircuit],
                 device: Device) -> AllocationResult:
        """Shared allocation loop: largest program first, best score.

        Bit-for-bit the historical ``allocate_greedy`` semantics —
        stable largest-first order, first-minimum candidate choice —
        now with every sub-step memoized in the device engine.
        """
        engine = allocation_engine(device)
        order = sorted(range(len(circuits)),
                       key=lambda i: -circuits[i].num_qubits)
        result = AllocationResult(method=self.method_label(), device=device)
        ctx = EMPTY_CONTEXT
        for idx in order:
            circuit = circuits[idx]
            placement = engine.best_placement(self, circuit, ctx)
            if placement is None:
                raise RuntimeError(
                    f"no free partition of size {circuit.num_qubits} left "
                    f"on {device.name} for program {idx}")
            result.allocations.append(ProgramAllocation(
                idx, circuit, placement.partition, placement.efs,
                placement.suspects))
            ctx = ctx.extended(placement.partition, device)
        return result


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type[Allocator]] = {}


class UnknownAllocatorError(KeyError):
    """An allocator name that matches nothing in the registry.

    Subclasses :class:`KeyError` so historical ``except KeyError``
    handlers keep working, but renders as the plain message
    (``KeyError.__str__`` would repr-quote it) and always names the
    registered methods, with a close-match suggestion for typos.
    """

    def __init__(self, name: str, known: Sequence[str]) -> None:
        hint = ""
        close = difflib.get_close_matches(name, known, n=1)
        if close:
            hint = f" — did you mean {close[0]!r}?"
        super().__init__(
            f"unknown allocator {name!r}; available: "
            f"{', '.join(repr(k) for k in known)}{hint}")
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:
        return self.args[0]


def register_allocator(cls: Type[Allocator]) -> Type[Allocator]:
    """Class decorator: register an :class:`Allocator` under its name."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"allocator {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_allocator(name: str, **params) -> Allocator:
    """Instantiate the allocation method registered under *name*.

    ``get_allocator("qucp", sigma=6.0)`` forwards keyword parameters to
    the method's constructor.
    """
    # The five built-in methods register at package import; a direct
    # submodule import may reach here first, so make sure they loaded.
    if name not in _REGISTRY:
        from . import cna, multiqc, qucloud, qucp, qumc  # noqa: F401
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownAllocatorError(name, available_allocators()) from None
    return cls(**params)


def available_allocators() -> List[str]:
    """Registered method names, sorted."""
    if not _REGISTRY:
        from . import cna, multiqc, qucloud, qucp, qumc  # noqa: F401
    return sorted(_REGISTRY)


def resolve_allocator(
    allocator: Union["Allocator", str, None] = None,
    sigma: Optional[float] = None,
    require_incremental: bool = False,
) -> "Allocator":
    """Resolve the user-facing ``allocator=``/``sigma=`` parameter pair.

    ``None`` yields the default QuCP strategy (parameterized by *sigma*
    when given); a string resolves through the registry; an instance
    passes through.  *sigma* combined with an explicit allocator is an
    error — the parameter belongs to the allocator, not the caller.
    """
    if allocator is None:
        from .qucp import DEFAULT_SIGMA, QucpAllocator
        allocator = QucpAllocator(
            sigma=DEFAULT_SIGMA if sigma is None else sigma)
    elif sigma is not None:
        raise ValueError(
            "sigma only parameterizes the default QuCP allocator; "
            "configure the explicit allocator instead, e.g. "
            "get_allocator('qucp', sigma=...)")
    elif isinstance(allocator, str):
        allocator = get_allocator(allocator)
    if require_incremental and not allocator.supports_incremental:
        raise ValueError(
            f"allocator {allocator.name!r} cannot place programs "
            "incrementally")
    return allocator
