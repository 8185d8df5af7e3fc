"""Randomized benchmarking (RB) on the simulated device.

Standard interleaved-free RB: compose ``m`` uniformly random Cliffords,
append the exact inverse Clifford, measure the ground-state survival
probability, and fit ``A * alpha^m + B``.  The error per Clifford is
``EPC = (d-1)/d * (1 - alpha)``.

Used on 2-qubit links both standalone and inside simultaneous RB
(:mod:`repro.characterization.srb`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import curve_fit

from ..circuits.circuit import QuantumCircuit
from ..circuits.clifford import (
    CliffordGroup,
    clifford_group_1q,
    clifford_group_2q,
)
from ..hardware.devices import Device
from ..sim.executor import Program, run_parallel

__all__ = [
    "RBResult",
    "rb_sequence",
    "rb_survival",
    "fit_rb_decay",
    "run_rb",
    "DEFAULT_RB_LENGTHS",
]

#: Clifford sequence lengths used when none are given.
DEFAULT_RB_LENGTHS: Tuple[int, ...] = (1, 4, 8, 16, 28, 44, 64)


@dataclass
class RBResult:
    """Outcome of an RB experiment on one qubit subset."""

    lengths: Tuple[int, ...]
    survival: Tuple[float, ...]
    alpha: float
    epc: float
    amplitude: float
    baseline: float

    def summary(self) -> str:
        """One-line report."""
        return f"alpha={self.alpha:.5f} EPC={self.epc:.5f}"


def _group_for(num_qubits: int) -> CliffordGroup:
    if num_qubits == 1:
        return clifford_group_1q()
    if num_qubits == 2:
        return clifford_group_2q()
    raise ValueError("RB supported on 1 or 2 qubits")


def rb_sequence(num_qubits: int, length: int,
                rng: np.random.Generator) -> QuantumCircuit:
    """Build one RB circuit: *length* random Cliffords + inversion.

    The net unitary is the identity, so the ideal outcome is all-zeros.
    """
    group = _group_for(num_qubits)
    qc = QuantumCircuit(num_qubits, num_qubits,
                        name=f"rb{num_qubits}q_m{length}")
    total = np.eye(2 ** num_qubits, dtype=complex)
    qubits = list(range(num_qubits))
    for _ in range(length):
        elem = group.sample(rng)
        elem.apply_to(qc, qubits)
        total = elem.matrix @ total
    group.inverse_of(total).apply_to(qc, qubits)
    qc.measure_all()
    return qc


def rb_survival(result_probs: Dict[str, float]) -> float:
    """Ground-state survival probability from an output distribution."""
    if not result_probs:
        return 0.0
    width = len(next(iter(result_probs)))
    return result_probs.get("0" * width, 0.0)


def _decay(m: np.ndarray, a: float, alpha: float, b: float) -> np.ndarray:
    return a * np.power(alpha, m) + b


def fit_rb_decay(lengths: Sequence[int],
                 survival: Sequence[float],
                 num_qubits: int) -> Tuple[float, float, float, float]:
    """Fit the RB decay; returns ``(alpha, epc, amplitude, baseline)``."""
    d = 2 ** num_qubits
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival, dtype=float)
    baseline_guess = 1.0 / d
    amp_guess = max(y[0] - baseline_guess, 0.1)
    try:
        import warnings

        from scipy.optimize import OptimizeWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                _decay, m, y,
                p0=(amp_guess, 0.98, baseline_guess),
                bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                maxfev=10000,
            )
        amp, alpha, base = (float(v) for v in popt)
    except RuntimeError:
        # Fall back to a log-linear fit on the baseline-subtracted data.
        shifted = np.clip(y - baseline_guess, 1e-6, None)
        slope, intercept = np.polyfit(m, np.log(shifted), 1)
        alpha = float(min(max(math.exp(slope), 0.0), 1.0))
        amp = float(math.exp(intercept))
        base = baseline_guess
    epc = (d - 1) / d * (1.0 - alpha)
    return alpha, epc, amp, base


def run_rb(
    device: Device,
    qubits: Tuple[int, ...],
    lengths: Sequence[int] = DEFAULT_RB_LENGTHS,
    seeds: int = 3,
    shots: int = 1024,
    rng_seed: int = 1234,
    companions: Sequence[Tuple[Tuple[int, ...], None]] = (),
) -> RBResult:
    """Run RB on *qubits* of *device* and fit the decay.

    *companions* lists additional qubit subsets that are driven with their
    own random Clifford sequences at the same time — this is the
    simultaneous-RB mechanism (see :mod:`repro.characterization.srb`).
    Each companion entry is ``(qubit_tuple, None)``.
    """
    rng = np.random.default_rng(rng_seed)
    survival_by_len: List[float] = []
    for length in lengths:
        values = []
        for _ in range(seeds):
            programs = [Program(rb_sequence(len(qubits), length, rng),
                                qubits)]
            for comp_qubits, _ in companions:
                programs.append(
                    Program(rb_sequence(len(comp_qubits), length, rng),
                            comp_qubits))
            results = run_parallel(
                programs, device, shots=shots,
                seed=int(rng.integers(1 << 31)),
            )
            values.append(rb_survival(results[0].probabilities))
        survival_by_len.append(float(np.mean(values)))
    alpha, epc, amp, base = fit_rb_decay(lengths, survival_by_len,
                                         len(qubits))
    return RBResult(tuple(lengths), tuple(survival_by_len),
                    alpha, epc, amp, base)
