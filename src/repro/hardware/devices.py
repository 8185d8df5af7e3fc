"""Synthetic IBM-style devices used in the paper.

Topologies are the real chips' coupling maps:

- ``ibm_melbourne`` — IBM Q 16 Melbourne, 15 qubits, 2x7 ladder + end rungs
  (the device of the paper's Fig. 1); its CX errors are pinned to the
  values printed in that figure.
- ``ibm_toronto`` — IBM Q 27 Toronto, 27-qubit Falcon heavy-hex
  (Fig. 2/3 experiments).
- ``ibm_manhattan`` — IBM Q 65 Manhattan, 65-qubit Hummingbird heavy-hex
  (Fig. 4/5/6 experiments).

Calibration and crosstalk ground truth are generated with fixed seeds, so
every run of the reproduction sees the same "hardware".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..sim.noise_model import NoiseModel
from .calibration import Calibration, generate_calibration
from .crosstalk import CrosstalkModel, generate_crosstalk_model
from .topology import CouplingMap, Edge

__all__ = ["Device", "ibm_melbourne", "ibm_toronto", "ibm_manhattan",
           "linear_device"]


@dataclass(frozen=True)
class Device:
    """A quantum device: topology + calibration + crosstalk ground truth."""

    name: str
    coupling: CouplingMap
    calibration: Calibration
    crosstalk: CrosstalkModel

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits."""
        return self.coupling.num_qubits

    def noise_model(self) -> NoiseModel:
        """Noise model derived from the calibration snapshot."""
        return NoiseModel.from_calibration(self.calibration)

    def throughput(self, qubits_used: int) -> float:
        """Hardware throughput: used qubits / total qubits."""
        return qubits_used / self.num_qubits


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------

#: IBM Q 16 Melbourne: 15 working qubits, ladder topology (paper Fig. 1).
MELBOURNE_EDGES: Tuple[Edge, ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
    (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14),
    (0, 14), (1, 13), (2, 12), (3, 11), (4, 10), (5, 9), (6, 8),
)

#: CX error rates (in percent) printed on the paper's Fig. 1, assigned to
#: Melbourne links: top row left->right, bottom row left->right, rungs.
MELBOURNE_FIG1_CX_PERCENT: Dict[Edge, float] = {
    (0, 1): 2.1, (1, 2): 3.1, (2, 3): 1.9, (3, 4): 5.9, (4, 5): 1.1,
    (5, 6): 5.3,
    (7, 8): 2.8, (8, 9): 2.9, (9, 10): 3.7, (10, 11): 4.0, (11, 12): 5.4,
    (12, 13): 4.9, (13, 14): 4.4,
    (0, 14): 2.6, (1, 13): 6.2, (2, 12): 3.7, (3, 11): 2.4, (4, 10): 2.8,
    (5, 9): 2.7, (6, 8): 2.7,
}

#: IBM Q 27 Toronto: Falcon r4 heavy-hex coupling map (28 links).
TORONTO_EDGES: Tuple[Edge, ...] = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)

#: IBM Q 65 Manhattan: Hummingbird r2 heavy-hex coupling map (72 links).
MANHATTAN_EDGES: Tuple[Edge, ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    (0, 10), (4, 11), (8, 12),
    (10, 13), (11, 17), (12, 21),
    (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19), (19, 20),
    (20, 21), (21, 22), (22, 23),
    (15, 24), (19, 25), (23, 26),
    (24, 29), (25, 33), (26, 37),
    (27, 28), (28, 29), (29, 30), (30, 31), (31, 32), (32, 33), (33, 34),
    (34, 35), (35, 36), (36, 37),
    (27, 38), (31, 39), (35, 40),
    (38, 41), (39, 45), (40, 49),
    (41, 42), (42, 43), (43, 44), (44, 45), (45, 46), (46, 47), (47, 48),
    (48, 49), (49, 50), (50, 51),
    (43, 52), (47, 53), (51, 54),
    (52, 56), (53, 60), (54, 64),
    (55, 56), (56, 57), (57, 58), (58, 59), (59, 60), (60, 61), (61, 62),
    (62, 63), (63, 64),
)


@lru_cache(maxsize=None)
def ibm_melbourne(seed: int = 16) -> Device:
    """IBM Q 16 Melbourne with Fig. 1's CX error rates pinned."""
    coupling = CouplingMap(15, MELBOURNE_EDGES)
    fixed = {e: v / 100.0 for e, v in MELBOURNE_FIG1_CX_PERCENT.items()}
    calibration = generate_calibration(
        coupling, seed=seed,
        cx_error_median=3.0e-2, readout_error_median=4.0e-2,
        oneq_error_median=1.0e-3, t1_mean_us=55.0,
        fixed_cx_errors=fixed,
    )
    crosstalk = generate_crosstalk_model(coupling, seed=seed + 1)
    return Device("ibm_melbourne", coupling, calibration, crosstalk)


@lru_cache(maxsize=None)
def ibm_toronto(seed: int = 27) -> Device:
    """IBM Q 27 Toronto (Falcon heavy-hex)."""
    coupling = CouplingMap(27, TORONTO_EDGES)
    calibration = generate_calibration(coupling, seed=seed)
    crosstalk = generate_crosstalk_model(coupling, seed=seed + 1)
    return Device("ibm_toronto", coupling, calibration, crosstalk)


@lru_cache(maxsize=None)
def ibm_manhattan(seed: int = 65) -> Device:
    """IBM Q 65 Manhattan (Hummingbird heavy-hex)."""
    coupling = CouplingMap(65, MANHATTAN_EDGES)
    calibration = generate_calibration(coupling, seed=seed)
    crosstalk = generate_crosstalk_model(coupling, seed=seed + 1)
    return Device("ibm_manhattan", coupling, calibration, crosstalk)


def linear_device(num_qubits: int, seed: int = 0,
                  crosstalk_fraction: float = 0.25) -> Device:
    """A linear-chain device for tests and small demos."""
    coupling = CouplingMap(
        num_qubits, tuple((i, i + 1) for i in range(num_qubits - 1)))
    calibration = generate_calibration(coupling, seed=seed)
    crosstalk = generate_crosstalk_model(
        coupling, seed=seed + 1, affected_fraction=crosstalk_fraction)
    return Device(f"linear{num_qubits}", coupling, calibration, crosstalk)
