"""MultiQC baseline (Das et al., MICRO'19) — reliability-only partitioning.

The original multi-programming proposal: Fair and Reliable Partitioning
allocates each program a connected region of reliable qubits, balancing
link quality and connectivity, with **no crosstalk modelling at all**.
Scored here as EFS with sigma = 1 minus a connectivity bonus (denser
regions need fewer SWAPs, which was FRP's key observation).

Registered as ``"multiqc"``.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..hardware.topology import Edge
from .allocators import (
    AllocationEngine,
    AllocationResult,
    Allocator,
    PlacementContext,
    register_allocator,
)
from .metrics import estimated_fidelity_score
from .partition import PartitionCandidate

__all__ = ["MultiqcAllocator", "multiqc_allocate"]

#: EFS discount per internal link beyond a spanning tree (connectivity
#: bonus weight, tuned so it breaks ties without dominating error terms).
_CONNECTIVITY_WEIGHT = 0.005


@register_allocator
class MultiqcAllocator(Allocator):
    """Crosstalk-blind EFS scoring with a connectivity bonus."""

    name = "multiqc"

    def cache_token(self) -> Hashable:
        # The scoring takes no knobs: all instances share the cache.
        return "multiqc"

    def score(self, engine: AllocationEngine, ctx: PlacementContext,
              candidate: PartitionCandidate, suspects: Tuple[Edge, ...],
              n2q: int, n1q: int) -> float:
        device = engine.device
        efs = estimated_fidelity_score(
            candidate.qubits, device.coupling, device.calibration,
            n2q, n1q)
        edges = device.coupling.subgraph_edges(candidate.qubits)
        extra_links = max(0, len(edges) - (len(candidate.qubits) - 1))
        return efs - _CONNECTIVITY_WEIGHT * extra_links


def multiqc_allocate(
    circuits: Sequence[QuantumCircuit],
    device: Device,
) -> AllocationResult:
    """Allocate partitions with the MultiQC (FRP-style) policy."""
    return MultiqcAllocator().allocate(circuits, device)
