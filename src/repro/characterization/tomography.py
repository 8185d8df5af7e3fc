"""Quantum state tomography (1–3 qubits).

Reconstructs the density matrix of a prepared state from Pauli-basis
measurements: for every non-identity Pauli string the expectation value is
estimated from a rotated Z-basis measurement, and the state is assembled
as ``rho = 2^-n * sum_P <P> P``.  Linear-inversion estimates can be
slightly unphysical under sampling noise, so a projection onto the PSD
cone (Smolin-Gambetta-Smith) is applied.

Used in tests and benches to validate that the simulator's noise channels
produce the states the calibration data predicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..sim.executor import Program, run_parallel
from ..vqe.pauli import PauliString

__all__ = ["TomographyResult", "state_tomography",
           "tomography_circuits", "project_to_physical"]


@dataclass
class TomographyResult:
    """Reconstructed state plus the raw expectation data."""

    density_matrix: np.ndarray
    expectations: Dict[str, float]

    @property
    def num_qubits(self) -> int:
        """Number of reconstructed qubits."""
        return int(np.log2(self.density_matrix.shape[0]))


def _basis_rotation(qc: QuantumCircuit, q: int, basis: str) -> None:
    if basis == "X":
        qc.h(q)
    elif basis == "Y":
        qc.sdg(q)
        qc.h(q)


def tomography_circuits(preparation: QuantumCircuit
                        ) -> List[Tuple[str, QuantumCircuit]]:
    """One measured circuit per {X, Y, Z}^n basis setting."""
    n = preparation.num_qubits
    out: List[Tuple[str, QuantumCircuit]] = []
    for setting in itertools.product("XYZ", repeat=n):
        qc = preparation.without_measurements().copy(
            name=f"tomo_{''.join(setting)}")
        qc.num_clbits = max(qc.num_clbits, n)
        for q, basis in enumerate(setting):
            _basis_rotation(qc, q, basis)
        for q in range(n):
            qc.measure(q, q)
        out.append(("".join(setting), qc))
    return out


def _expectation_from_probs(probs: Dict[str, float],
                            support: Tuple[int, ...]) -> float:
    total = 0.0
    for key, p in probs.items():
        parity = sum(int(key[q]) for q in support) % 2
        total += p * (1.0 if parity == 0 else -1.0)
    return total


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the closest physical state.

    Eigenvalue truncation with redistribution (Smolin et al. 2012):
    negative eigenvalues are zeroed and their mass subtracted from the
    remaining ones, preserving trace one.
    """
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    d = rho.shape[0]
    # Walk from the smallest eigenvalue upward, zeroing negatives and
    # spreading the deficit over the rest.
    vals = list(eigvals)
    deficit = 0.0
    for i in range(d):
        adjusted = vals[i] + deficit / (d - i)
        if adjusted < 0:
            deficit += vals[i]
            vals[i] = 0.0
        else:
            for j in range(i, d):
                vals[j] += deficit / (d - i)
            deficit = 0.0
            break
    out = eigvecs @ np.diag(vals) @ eigvecs.conj().T
    trace = np.trace(out).real
    return out / trace if trace > 0 else np.eye(d) / d


def state_tomography(
    preparation: QuantumCircuit,
    device: Optional[Device] = None,
    partition: Optional[Sequence[int]] = None,
    shots: int = 0,
    seed: Optional[int] = None,
    noisy: bool = True,
    mitigate_readout: bool = False,
) -> TomographyResult:
    """Reconstruct the state *preparation* leaves on the device.

    With ``device=None`` the circuits run noiselessly (useful for
    validating the reconstruction itself).  ``shots=0`` uses exact
    measurement probabilities.  Without *mitigate_readout* the
    reconstruction includes the measurement channel (readout confusion);
    with it, a tensored mitigator is calibrated on the partition and the
    reconstruction approximates the *pre-measurement* state.
    """
    n = preparation.num_qubits
    if n > 3:
        raise ValueError("full tomography beyond 3 qubits is untracked "
                         f"({3 ** n} settings); restrict the subsystem")
    circuits = tomography_circuits(preparation)

    mitigator = None
    if mitigate_readout and device is not None:
        from ..mitigation.measurement import calibrate_readout

        part = tuple(partition) if partition else tuple(range(n))
        mitigator = calibrate_readout(device, part, shots=shots or 8192,
                                      seed=seed)

    setting_probs: Dict[str, Dict[str, float]] = {}
    for setting, qc in circuits:
        if device is None:
            from ..sim.statevector import ideal_probabilities

            probs = ideal_probabilities(qc)
        else:
            part = tuple(partition) if partition else tuple(range(n))
            res = run_parallel([Program(qc, part)], device,
                               shots=shots, seed=seed, noisy=noisy)[0]
            probs = res.probabilities
        if mitigator is not None:
            probs = mitigator.apply(probs)
        setting_probs[setting] = probs

    expectations: Dict[str, float] = {"I" * n: 1.0}
    for labels in itertools.product("IXYZ", repeat=n):
        label = "".join(labels)
        if label == "I" * n:
            continue
        # Measure under any setting that matches on the support.
        setting = "".join(c if c != "I" else "Z" for c in label)
        support = PauliString(label).support()
        expectations[label] = _expectation_from_probs(
            setting_probs[setting], support)

    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for label, value in expectations.items():
        rho += value * PauliString(label).matrix()
    rho /= dim
    return TomographyResult(project_to_physical(rho), expectations)
