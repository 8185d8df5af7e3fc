"""Calibration data model and the synthetic calibration generator.

Real IBM backends publish daily calibration snapshots: per-qubit T1/T2 and
readout error, per-link CNOT error, per-qubit single-qubit gate error.  The
generator below produces snapshots with the same statistics (seeded, hence
reproducible), including the minority of "bad" links/qubits that the
paper's Fig. 1 highlights in red.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .topology import CouplingMap, Edge

__all__ = ["Calibration", "generate_calibration"]


@dataclass
class Calibration:
    """A device calibration snapshot.

    All error quantities are average error *rates* in [0, 1]; coherence
    times and durations are in nanoseconds.
    """

    oneq_error: Dict[int, float] = field(default_factory=dict)
    twoq_error: Dict[Edge, float] = field(default_factory=dict)
    readout_error: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    t1: Dict[int, float] = field(default_factory=dict)
    t2: Dict[int, float] = field(default_factory=dict)
    #: Residual qubit frequency detuning (rad/ns): coherent Z drift
    #: accumulated while idling; what dynamical decoupling echoes away.
    detuning: Dict[int, float] = field(default_factory=dict)
    gate_duration: Dict[str, float] = field(
        default_factory=lambda: {
            "x": 35.0, "sx": 35.0, "rz": 0.0, "cx": 300.0,
            "measure": 700.0, "reset": 700.0,
        }
    )

    def cx_error(self, a: int, b: int) -> float:
        """CNOT error of the link ``(a, b)``."""
        key = (a, b) if a <= b else (b, a)
        return self.twoq_error[key]

    def readout_error_avg(self, qubit: int) -> float:
        """Symmetrized readout error of *qubit*."""
        p01, p10 = self.readout_error[qubit]
        return 0.5 * (p01 + p10)

    def worst_links(self, quantile: float = 0.8) -> Tuple[Edge, ...]:
        """Links whose CX error exceeds the given quantile (Fig. 1 red)."""
        values = np.array(list(self.twoq_error.values()))
        cut = float(np.quantile(values, quantile))
        return tuple(
            sorted(e for e, v in self.twoq_error.items() if v > cut))


def generate_calibration(
    coupling: CouplingMap,
    seed: int,
    cx_error_median: float = 1.2e-2,
    cx_error_spread: float = 0.55,
    bad_link_fraction: float = 0.12,
    bad_link_multiplier: float = 3.5,
    oneq_error_median: float = 4.0e-4,
    readout_error_median: float = 2.5e-2,
    t1_mean_us: float = 80.0,
    quality_gradient: float = 1.5,
    fixed_cx_errors: Optional[Dict[Edge, float]] = None,
) -> Calibration:
    """Generate a seeded synthetic calibration snapshot.

    Error rates follow lognormal distributions (matching the heavy right
    tail of real IBM snapshots), with a seeded subset of links degraded by
    *bad_link_multiplier* to create the unreliable regions that the
    partitioning algorithms must route around.

    *quality_gradient* adds the spatial correlation real chips show:
    errors grow with distance from a seeded "sweet spot" qubit, by up to
    ``1 + quality_gradient`` at the far side of the chip.  This is what
    makes co-scheduled programs compete for neighbouring regions — the
    regime where partition-level crosstalk avoidance pays off.

    *fixed_cx_errors* pins specific links to exact values (used to embed
    the Melbourne CX errors printed in the paper's Fig. 1).
    """
    rng = np.random.default_rng(seed)
    cal = Calibration()

    center = int(rng.integers(coupling.num_qubits))
    max_dist = max(
        d for q in range(coupling.num_qubits)
        for d in [coupling.distance(center, q)] if d < 10 ** 9
    ) or 1

    def gradient(q: int) -> float:
        dist = min(coupling.distance(center, q), max_dist)
        return 1.0 + quality_gradient * dist / max_dist

    for q in range(coupling.num_qubits):
        cal.oneq_error[q] = float(
            min(oneq_error_median * rng.lognormal(0.0, 0.5) * gradient(q),
                1e-2))
        p01 = float(min(
            readout_error_median * rng.lognormal(0.0, 0.6) * gradient(q),
            0.25))
        p10 = float(min(p01 * rng.uniform(1.0, 1.8), 0.30))
        cal.readout_error[q] = (p01, p10)
        t1 = max(rng.normal(t1_mean_us, 20.0), 20.0) * 1000.0  # ns
        t2 = min(max(rng.normal(0.8, 0.25), 0.2), 1.9) * t1
        cal.t1[q] = float(t1)
        cal.t2[q] = float(min(t2, 2 * t1))

    # Residual frame detunings (~1 kHz scale: 5e-6 rad/ns) come from a
    # separate stream so adding them did not reshuffle the error draws of
    # previously seeded devices.
    detuning_rng = np.random.default_rng(seed + 99991)
    for q in range(coupling.num_qubits):
        cal.detuning[q] = float(detuning_rng.normal(0.0, 5e-6))

    edges = coupling.edges
    n_bad = max(1, int(round(bad_link_fraction * len(edges))))
    bad = set(
        tuple(edges[i]) for i in rng.choice(len(edges), n_bad, replace=False)
    )
    for e in edges:
        edge_gradient = 0.5 * (gradient(e[0]) + gradient(e[1]))
        err = cx_error_median * rng.lognormal(0.0, cx_error_spread) \
            * edge_gradient
        if e in bad:
            err *= bad_link_multiplier
        cal.twoq_error[e] = float(min(err, 0.15))
    if fixed_cx_errors:
        for e, v in fixed_cx_errors.items():
            key = e if e[0] <= e[1] else (e[1], e[0])
            if key not in cal.twoq_error:
                raise ValueError(f"{e} is not a device link")
            cal.twoq_error[key] = float(v)
    return cal
