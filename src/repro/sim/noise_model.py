"""Noise model: maps instructions to Kraus channels.

A :class:`NoiseModel` carries per-qubit 1q gate error, per-edge 2q (CX)
error, per-qubit readout confusion, and optional T1/T2 coherence data.  The
density-matrix simulator asks it for the channel to apply after each
instruction; the parallel-execution layer passes per-instruction *error
scale factors* to inject crosstalk boosts computed from the joint schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuits.circuit import Instruction
from .channels import (
    KrausChannel,
    depolarizing_channel,
    error_rate_to_depolarizing_param,
    thermal_relaxation_channel,
)

__all__ = ["NoiseModel"]


def _edge(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass
class NoiseModel:
    """Calibration-driven noise description.

    Attributes
    ----------
    oneq_error:
        Average 1-qubit gate error per qubit.
    twoq_error:
        Average CX error per undirected edge ``(low, high)``.
    readout_error:
        Per qubit ``(p_read1_given0, p_read0_given1)``.
    t1, t2:
        Coherence times (in the same unit as gate durations; we use ns).
    gate_duration:
        Durations per gate name (ns); used for idle/thermal noise.
    """

    oneq_error: Dict[int, float] = field(default_factory=dict)
    twoq_error: Dict[Tuple[int, int], float] = field(default_factory=dict)
    readout_error: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    t1: Dict[int, float] = field(default_factory=dict)
    t2: Dict[int, float] = field(default_factory=dict)
    detuning: Dict[int, float] = field(default_factory=dict)
    gate_duration: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_calibration(cls, calibration) -> "NoiseModel":
        """The noise model of a calibration snapshot.

        Plain-dict copies of the calibration tables, so a later
        in-place calibration edit does not reach the model.
        """
        return cls(
            oneq_error=dict(calibration.oneq_error),
            twoq_error=dict(calibration.twoq_error),
            readout_error=dict(calibration.readout_error),
            t1=dict(calibration.t1),
            t2=dict(calibration.t2),
            detuning=dict(calibration.detuning),
            gate_duration=dict(calibration.gate_duration),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def oneq_error_of(self, qubit: int) -> float:
        """1q gate error of *qubit* (0 when unknown)."""
        return self.oneq_error.get(qubit, 0.0)

    def twoq_error_of(self, a: int, b: int) -> float:
        """CX error of edge ``(a, b)`` (0 when unknown)."""
        return self.twoq_error.get(_edge(a, b), 0.0)

    def readout_error_of(self, qubit: int) -> float:
        """Symmetrized readout error of *qubit*."""
        p01, p10 = self.readout_error.get(qubit, (0.0, 0.0))
        return 0.5 * (p01 + p10)

    def detuning_of(self, qubit: int) -> float:
        """Residual frequency detuning of *qubit* (rad/ns; 0 if unknown)."""
        return self.detuning.get(qubit, 0.0)

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        """2x2 column-stochastic confusion matrix ``M[read, true]``."""
        p01, p10 = self.readout_error.get(qubit, (0.0, 0.0))
        return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])

    # ------------------------------------------------------------------
    # channel construction
    # ------------------------------------------------------------------
    def channel_for(self, inst: Instruction,
                    error_scale: float = 1.0) -> Optional[KrausChannel]:
        """The noise channel to apply after *inst* (None = noiseless).

        *error_scale* multiplies the calibration error rate before the
        conversion to a depolarizing parameter; the crosstalk layer uses it
        to boost simultaneously-driven CX pairs.
        """
        name = inst.name
        if name in ("barrier", "measure", "reset"):
            return None
        if name == "delay":
            return self._delay_channel(inst.qubits[0], inst.params[0])
        if len(inst.qubits) == 1:
            err = self.oneq_error_of(inst.qubits[0]) * error_scale
            if err <= 0.0:
                return None
            p = error_rate_to_depolarizing_param(min(err, 0.75), 1)
            return depolarizing_channel(p, 1)
        if len(inst.qubits) == 2:
            err = self.twoq_error_of(*inst.qubits) * error_scale
            if err <= 0.0:
                return None
            p = error_rate_to_depolarizing_param(min(err, 0.9375), 2)
            return depolarizing_channel(p, 2)
        # 3q+ gates should have been decomposed; approximate with a strong
        # channel on the first two qubits to avoid silently ignoring noise.
        err = max(
            self.twoq_error_of(inst.qubits[i], inst.qubits[j])
            for i in range(len(inst.qubits))
            for j in range(i + 1, len(inst.qubits))
        ) * error_scale
        if err <= 0.0:
            return None
        p = error_rate_to_depolarizing_param(min(err, 0.9375), 2)
        return depolarizing_channel(p, 2)

    def _delay_channel(self, qubit: int,
                       duration: float) -> Optional[KrausChannel]:
        t1 = self.t1.get(qubit, 0.0)
        t2 = self.t2.get(qubit, 0.0)
        if t1 <= 0.0 or duration <= 0.0:
            return None
        t2 = min(t2 if t2 > 0 else 2 * t1, 2 * t1)
        return thermal_relaxation_channel(t1, t2, duration)

    # ------------------------------------------------------------------
    # restriction / remapping (per-partition simulation)
    # ------------------------------------------------------------------
    def restricted(self, physical_qubits: Tuple[int, ...]) -> "NoiseModel":
        """Project onto a partition: local index i = physical_qubits[i].

        Used by the parallel executor: each program is simulated on its own
        partition with the physical calibration data pulled in.
        """
        index_of = {p: i for i, p in enumerate(physical_qubits)}
        sub = NoiseModel(gate_duration=dict(self.gate_duration))
        for p, i in index_of.items():
            if p in self.oneq_error:
                sub.oneq_error[i] = self.oneq_error[p]
            if p in self.readout_error:
                sub.readout_error[i] = self.readout_error[p]
            if p in self.t1:
                sub.t1[i] = self.t1[p]
            if p in self.t2:
                sub.t2[i] = self.t2[p]
            if p in self.detuning:
                sub.detuning[i] = self.detuning[p]
        for (a, b), err in self.twoq_error.items():
            if a in index_of and b in index_of:
                sub.twoq_error[_edge(index_of[a], index_of[b])] = err
        return sub
