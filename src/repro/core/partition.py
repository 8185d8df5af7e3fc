"""Qubit partitioning: candidate generation (QuMC's greedy sub-graph
heuristic) and crosstalk-pair detection against already-allocated regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap, Edge

__all__ = [
    "PartitionCandidate",
    "grow_partition_candidates",
    "crosstalk_suspect_pairs",
]


@dataclass(frozen=True)
class PartitionCandidate:
    """A connected set of free physical qubits that can host a program."""

    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(sorted(self.qubits)))

    def __len__(self) -> int:
        return len(self.qubits)


def _grow_from(
    start: int,
    size: int,
    coupling: CouplingMap,
    calibration: Calibration,
    blocked: Set[int],
) -> Optional[Tuple[int, ...]]:
    """Greedily grow a connected region from *start*, best neighbour first.

    Neighbour quality combines its readout error, its 1q error, and the
    best CX error of a link connecting it to the region (QuMC's greedy
    sub-graph expansion).
    """
    if start in blocked:
        return None
    region: Set[int] = {start}
    while len(region) < size:
        frontier: Set[int] = set()
        for q in region:
            frontier.update(
                nb for nb in coupling.neighbors(q)
                if nb not in region and nb not in blocked
            )
        if not frontier:
            return None

        def quality(nb: int) -> float:
            link_err = min(
                calibration.cx_error(nb, q)
                for q in region if coupling.is_edge(nb, q)
            )
            return (
                link_err
                + calibration.readout_error_avg(nb)
                + calibration.oneq_error[nb]
            )

        region.add(min(frontier, key=quality))
    return tuple(sorted(region))


def grow_partition_candidates(
    size: int,
    coupling: CouplingMap,
    calibration: Calibration,
    allocated: Iterable[int] = (),
) -> List[PartitionCandidate]:
    """All distinct greedy-grown candidates of *size* free qubits.

    One growth attempt starts from every free physical qubit; duplicates
    (identical regions reached from different seeds) are merged.  When
    quality-greedy growth finds nothing (a fragmented chip near full
    occupancy), a BFS fallback returns any connected region of the right
    size, so allocation only fails when no such region exists at all.
    """
    blocked = set(allocated)
    seen: Set[Tuple[int, ...]] = set()
    out: List[PartitionCandidate] = []
    for start in range(coupling.num_qubits):
        region = _grow_from(start, size, coupling, calibration, blocked)
        if region is None or region in seen:
            continue
        seen.add(region)
        out.append(PartitionCandidate(region))
    if out:
        return out
    # Fallback: BFS-prefix regions (existence-complete for connected
    # subsets reachable from any seed).
    for start in range(coupling.num_qubits):
        if start in blocked:
            continue
        order: List[int] = [start]
        visited = {start}
        for q in order:
            if len(order) >= size:
                break
            for nb in coupling.neighbors(q):
                if nb not in visited and nb not in blocked:
                    visited.add(nb)
                    order.append(nb)
                    if len(order) >= size:
                        break
        if len(order) >= size:
            region = tuple(sorted(order[:size]))
            if coupling.is_connected_subset(region) and region not in seen:
                seen.add(region)
                out.append(PartitionCandidate(region))
    return out


def crosstalk_suspect_pairs(
    candidate: Sequence[int],
    coupling: CouplingMap,
    allocated_partitions: Sequence[Sequence[int]],
) -> Tuple[Edge, ...]:
    """Candidate-internal links one hop from any allocated partition's links.

    This is QuCP's ``q_crosstalk`` set: the links whose CX error gets
    multiplied by sigma in the EFS — no characterization data needed,
    only the hardware topology.
    """
    allocated_edges: List[Edge] = []
    for part in allocated_partitions:
        allocated_edges.extend(coupling.subgraph_edges(part))
    suspects: List[Edge] = []
    for edge in coupling.subgraph_edges(candidate):
        for other in allocated_edges:
            if coupling.pair_distance(edge, other) == 1:
                suspects.append(edge)
                break
    return tuple(suspects)
