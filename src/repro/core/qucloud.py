"""QuCloud-style baseline (Liu & Dou) — fidelity-degree partitioning.

QuCloud's CDAP allocator ranks physical qubits by *fidelity degree* — a
blend of connectivity and gate/readout quality — and grows partitions
around the best-ranked qubits.  Crosstalk is not modelled during
partitioning (QuCloud's inter-program SWAP sharing, which the paper notes
can *introduce* crosstalk, is out of scope for the fidelity comparison).

Registered as ``"qucloud"``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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

__all__ = ["QucloudAllocator", "qucloud_allocate", "fidelity_degree"]


def fidelity_degree(device: Device, qubit: int) -> float:
    """Connectivity x quality rank of a physical qubit (higher = better)."""
    neighbors = device.coupling.neighbors(qubit)
    if not neighbors:
        return 0.0
    link_fid = sum(
        1.0 - device.calibration.cx_error(qubit, nb) for nb in neighbors)
    readout_fid = 1.0 - device.calibration.readout_error_avg(qubit)
    return link_fid * readout_fid


@register_allocator
class QucloudAllocator(Allocator):
    """EFS scoring minus a normalized fidelity-degree bonus."""

    name = "qucloud"

    def cache_token(self) -> str:
        # The scoring takes no knobs: all instances share the cache.
        return "qucloud"

    @staticmethod
    def _degree_scale(engine: AllocationEngine) -> float:
        """Best fidelity degree on the chip; 1.0 when every qubit's
        degree is 0 (fully disconnected device) so the bonus — then
        identically zero — never divides by zero.  Memoized in the
        engine's per-device scratch space."""
        scale = engine.scratch.get("qucloud_degree_scale")
        if scale is None:
            device = engine.device
            scale = max(
                fidelity_degree(device, q)
                for q in range(device.num_qubits))
            if scale <= 0.0:
                scale = 1.0
            engine.scratch["qucloud_degree_scale"] = scale
        return scale

    def score(self, engine: AllocationEngine, ctx: PlacementContext,
              candidate: PartitionCandidate, suspects: Tuple[Edge, ...],
              n2q: int, n1q: int) -> float:
        device = engine.device
        efs = estimated_fidelity_score(
            candidate.qubits, device.coupling, device.calibration,
            n2q, n1q)
        degree_bonus = sum(
            fidelity_degree(device, q) for q in candidate.qubits
        ) / (self._degree_scale(engine) * len(candidate.qubits))
        # Higher fidelity degree lowers the score (better candidate).
        return efs - 0.01 * degree_bonus


def qucloud_allocate(
    circuits: Sequence[QuantumCircuit],
    device: Device,
) -> AllocationResult:
    """Allocate partitions with the QuCloud (CDAP-style) policy."""
    return QucloudAllocator().allocate(circuits, device)
