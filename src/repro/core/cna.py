"""CNA baseline (Ohkura) — crosstalk-aware mapping, no partitioning.

The paper's Sec. II-B: "Except CNA, all the previous works propose their
qubit partition algorithms."  CNA compiles each program directly onto the
*remaining free chip* with a noise-adaptive mapping (ref. [16]),
handling crosstalk only at gate level: links one hop away from
already-placed programs get their CX error inflated in the calibration
the mapper/router sees, steering gates away from them when alternatives
exist.

Because there is no reliable-region selection step, CNA's placements
follow the greedy mapper wherever it leads — the structural weakness the
paper's Fig. 3 comparison exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.calibration import Calibration
from ..hardware.devices import Device
from ..hardware.topology import CouplingMap, Edge
from ..transpiler.basis import decompose_to_basis
from ..transpiler.context import device_context
from ..transpiler.layout import Layout
from ..transpiler.mapping import noise_aware_layout
from ..transpiler.optimize import optimize_circuit
from ..transpiler.routing import route_circuit
from ..transpiler.schedule import schedule_alap
from ..transpiler.transpile import TranspileResult
from .allocators import (
    AllocationEngine,
    AllocationResult,
    Allocator,
    PlacementContext,
    ProgramAllocation,
    circuit_structure_key,
    register_allocator,
)
from .metrics import estimated_fidelity_score
from .partition import PartitionCandidate

__all__ = ["CnaCompilation", "CnaAllocator", "cna_compile", "cna_allocate",
           "cna_transpile_for_partition"]


@dataclass
class CnaCompilation:
    """CNA output: allocation record plus the already-compiled programs."""

    allocation: AllocationResult
    transpiled: Dict[int, TranspileResult] = field(default_factory=dict)

    def transpiler_fn(self) -> Callable:
        """Adapter for :func:`repro.core.executor.execute_allocation`.

        CNA compiles each program against the free chip *as of its queue
        position*, so the lookup genuinely observes ``alloc.index`` and
        must be cached index-sensitively.
        """
        from ..cache import index_sensitive_transpiler

        @index_sensitive_transpiler
        def lookup(circuit: QuantumCircuit, device: Device,
                   alloc: ProgramAllocation) -> TranspileResult:
            return self.transpiled[alloc.index]

        return lookup


def _free_coupling(device: Device, allocated: Set[int]) -> CouplingMap:
    """Device coupling restricted to unallocated qubits (full indices)."""
    edges = [
        e for e in device.coupling.edges
        if e[0] not in allocated and e[1] not in allocated
    ]
    return CouplingMap(device.num_qubits, edges)


def _inflated_calibration(device: Device,
                          allocated_parts: Sequence[Sequence[int]],
                          inflation: float) -> Calibration:
    """Copy of the device calibration with crosstalk-suspect links
    (one hop from any placed program's internal links) inflated."""
    cal = Calibration(
        oneq_error=dict(device.calibration.oneq_error),
        twoq_error=dict(device.calibration.twoq_error),
        readout_error=dict(device.calibration.readout_error),
        t1=dict(device.calibration.t1),
        t2=dict(device.calibration.t2),
        gate_duration=dict(device.calibration.gate_duration),
    )
    allocated_edges: List[Edge] = []
    for part in allocated_parts:
        allocated_edges.extend(device.coupling.subgraph_edges(part))
    for edge in list(cal.twoq_error):
        for other in allocated_edges:
            if device.coupling.pair_distance(edge, other) == 1:
                cal.twoq_error[edge] = min(
                    cal.twoq_error[edge] * inflation, 0.999)
                break
    return cal


def cna_compile(
    circuits: Sequence[QuantumCircuit],
    device: Device,
    inflation: float = 4.0,
    optimization_level: int = 3,
    schedule: bool = True,
) -> CnaCompilation:
    """Compile *circuits* the CNA way: sequential whole-chip mapping.

    Programs are processed in submission order.  Each is mapped with the
    greedy noise-adaptive layout over every free qubit, routed with the
    crosstalk-inflated calibration, and its *footprint* (every qubit its
    routed circuit touches) becomes its partition.
    """
    result = AllocationResult(method="cna", device=device)
    compilation = CnaCompilation(result)
    allocated: Set[int] = set()
    allocated_parts: List[Tuple[int, ...]] = []

    for idx, circuit in enumerate(circuits):
        free_coupling = _free_coupling(device, allocated)
        calibration = _inflated_calibration(device, allocated_parts,
                                            inflation)
        basis = decompose_to_basis(circuit)
        # Restrict placement to the largest free connected component so
        # routing always has a path.
        import networkx as nx

        components = [
            c for c in nx.connected_components(free_coupling.graph)
            if len(c) > 1 or not allocated
        ]
        usable = max(components, key=len)
        if len(usable) < circuit.num_qubits:
            raise RuntimeError(
                f"CNA: largest free region has {len(usable)} qubits, "
                f"program {idx} needs {circuit.num_qubits}")
        blocked_extra = set(range(device.num_qubits)) - set(usable)
        component_coupling = _free_coupling(
            device, allocated | blocked_extra)

        # One shared context per (free chip, inflated calibration) view:
        # mapping and routing draw on the same Dijkstra tables instead
        # of each building their own.
        ctx = device_context(component_coupling, calibration)
        layout = noise_aware_layout(basis, component_coupling,
                                    calibration, seed=idx, context=ctx)
        routed = route_circuit(basis, component_coupling, layout,
                               calibration, context=ctx)
        optimized = optimize_circuit(routed.circuit, optimization_level)
        if schedule:
            optimized = schedule_alap(optimized,
                                      calibration.gate_duration)

        used = set(optimized.qubits_used())
        used.update(routed.final_layout.physical(q)
                    for q in range(circuit.num_qubits))
        partition = tuple(sorted(used))
        index_of = {p: i for i, p in enumerate(partition)}
        local_circuit = optimized.remapped(
            {p: index_of[p] for p in range(device.num_qubits)
             if p in index_of},
            num_qubits=len(partition))
        local_initial = Layout({
            logical: index_of[routed.initial_layout.physical(logical)]
            for logical in range(circuit.num_qubits)
        })
        local_final = Layout({
            logical: index_of[routed.final_layout.physical(logical)]
            for logical in range(circuit.num_qubits)
        })

        _, n2q, n1q = circuit_structure_key(circuit)
        efs = estimated_fidelity_score(
            partition, device.coupling, device.calibration, n2q, n1q)
        result.allocations.append(
            ProgramAllocation(idx, circuit, partition, efs))
        compilation.transpiled[idx] = TranspileResult(
            circuit=local_circuit,
            initial_layout=local_initial,
            final_layout=local_final,
            num_swaps=routed.num_swaps,
        )
        allocated.update(partition)
        allocated_parts.append(partition)
    return compilation


@register_allocator
class CnaAllocator(Allocator):
    """CNA as a registry strategy.

    CNA does not score partition candidates — it compiles each program
    onto the whole free chip and lets the routed footprint *become* the
    partition — so it overrides :meth:`allocate` wholesale and cannot
    place programs incrementally for the batching scheduler.
    """

    name = "cna"
    supports_incremental = False

    def __init__(self, inflation: float = 4.0,
                 optimization_level: int = 3,
                 schedule: bool = True) -> None:
        self.inflation = inflation
        self.optimization_level = optimization_level
        self.schedule = schedule

    def score(self, engine: AllocationEngine, ctx: PlacementContext,
              candidate: PartitionCandidate, suspects: Tuple[Edge, ...],
              n2q: int, n1q: int) -> float:
        raise NotImplementedError(
            "CNA has no candidate-scoring step; use allocate()")

    def allocate(self, circuits: Sequence[QuantumCircuit],
                 device: Device) -> AllocationResult:
        return cna_compile(
            circuits, device, inflation=self.inflation,
            optimization_level=self.optimization_level,
            schedule=self.schedule,
        ).allocation


def cna_allocate(
    circuits: Sequence[QuantumCircuit],
    device: Device,
) -> AllocationResult:
    """CNA allocation record only (see :func:`cna_compile` for the full
    compile; executing this allocation with the default transpiler uses
    CNA's footprints but QuCP's per-partition mapping)."""
    return CnaAllocator().allocate(circuits, device)


def cna_transpile_for_partition(
    circuit: QuantumCircuit,
    device: Device,
    partition: Sequence[int],
    crosstalk_suspects: Sequence[Edge],
    inflation: float = 4.0,
    optimization_level: int = 3,
    schedule: bool = True,
    seed: int = 0,
) -> TranspileResult:
    """Gate-level mitigation on a fixed partition: transpile with
    inflated suspect links (used by ablations that isolate CNA's mapping
    policy from its placement policy)."""
    from ..transpiler.context import induced_calibration, induced_coupling
    from ..transpiler.transpile import transpile

    # Fresh (not memoized) induced snapshots: the inflation below
    # mutates the calibration, which must never corrupt the shared
    # partition sub-contexts.  The registry still dedupes the Dijkstra
    # tables across calls with identical suspects/inflation.
    coupling = induced_coupling(device.coupling, partition)
    calibration = induced_calibration(device.coupling, device.calibration,
                                      partition)
    index_of = {p: i for i, p in enumerate(partition)}
    for a, b in crosstalk_suspects:
        if a not in index_of or b not in index_of:
            continue
        la, lb = sorted((index_of[a], index_of[b]))
        calibration.twoq_error[(la, lb)] = min(
            calibration.twoq_error[(la, lb)] * inflation, 0.999)
    return transpile(circuit, coupling, calibration,
                     optimization_level=optimization_level,
                     schedule=schedule, seed=seed)
