"""VQE drivers: ideal scan, independent PG execution, and QuCP+PG.

The paper's Sec. IV-C experiment: scan the tied ansatz parameter over
8/10/12 values, producing 16/20/24 measurement circuits (2 commuting
groups each); run them either one at a time (PG — throughput 3.1% on
Manhattan) or all simultaneously with QuCP (QuCP+PG — throughput up to
73.8%); take the minimum scanned energy as the ground-state estimate and
compare against the ideal simulator (``dE_base``) and SciPy's exact
eigensolver (``dE_theory``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..core.qucp import DEFAULT_SIGMA, qucp_allocate
from ..core.executor import execute_allocation
from ..hardware.devices import Device
from ..sim.statevector import ideal_probabilities, simulate_statevector
from .ansatz import ryrz_ansatz
from .grouping import MeasurementGroup, group_commuting_terms
from .hamiltonian import h2_hamiltonian
from .measurement import energy_from_distributions, measurement_circuit
from .pauli import PauliOperator

__all__ = [
    "VQEScanResult",
    "vqe_energy_ideal",
    "run_vqe_scan_ideal",
    "run_vqe_scan_independent",
    "run_vqe_scan_parallel",
    "relative_error_percent",
]


@dataclass
class VQEScanResult:
    """A parameter scan's outcome."""

    thetas: Tuple[float, ...]
    energies: Tuple[float, ...]
    num_simultaneous: int
    throughput: float
    method: str

    @property
    def minimum_energy(self) -> float:
        """Ground-state estimate: the scan minimum."""
        return min(self.energies)


def relative_error_percent(estimate: float, reference: float) -> float:
    """|estimate - reference| / |reference| * 100 (the paper's dE)."""
    return abs(estimate - reference) / abs(reference) * 100.0


def vqe_energy_ideal(theta: float,
                     hamiltonian: Optional[PauliOperator] = None) -> float:
    """Exact <H> of the tied-parameter ansatz (statevector)."""
    hamiltonian = hamiltonian or h2_hamiltonian()
    state = simulate_statevector(ryrz_ansatz([theta]))
    return hamiltonian.expectation(state)


def _scan_circuits(
    thetas: Sequence[float],
    groups: Sequence[MeasurementGroup],
) -> List[QuantumCircuit]:
    """All measurement circuits, theta-major: [t0g0, t0g1, t1g0, ...]."""
    circuits: List[QuantumCircuit] = []
    for theta in thetas:
        ansatz = ryrz_ansatz([theta])
        for group in groups:
            circuits.append(measurement_circuit(ansatz, group))
    return circuits


def run_vqe_scan_ideal(
    thetas: Sequence[float],
    hamiltonian: Optional[PauliOperator] = None,
) -> VQEScanResult:
    """Noiseless scan (the paper's simulator baseline)."""
    hamiltonian = hamiltonian or h2_hamiltonian()
    groups = group_commuting_terms(hamiltonian)
    energies = []
    for theta in thetas:
        ansatz = ryrz_ansatz([theta])
        dists = [
            ideal_probabilities(measurement_circuit(ansatz, group))
            for group in groups
        ]
        energies.append(energy_from_distributions(groups, dists))
    return VQEScanResult(tuple(thetas), tuple(energies),
                         num_simultaneous=1, throughput=0.0,
                         method="ideal")


def run_vqe_scan_independent(
    thetas: Sequence[float],
    device: Device,
    shots: int = 8192,
    seed: Optional[int] = None,
    hamiltonian: Optional[PauliOperator] = None,
) -> VQEScanResult:
    """PG: every measurement circuit runs alone on its best partition."""
    hamiltonian = hamiltonian or h2_hamiltonian()
    groups = group_commuting_terms(hamiltonian)
    circuits = _scan_circuits(thetas, groups)
    dists = []
    for k, circuit in enumerate(circuits):
        allocation = qucp_allocate([circuit], device)
        run_seed = None if seed is None else seed + 31 * k
        outcome = execute_allocation(allocation, shots=shots,
                                     seed=run_seed)[0]
        dists.append(outcome.result.probabilities)
    energies = _energies_from_flat(thetas, groups, dists)
    throughput = hamiltonian.num_qubits / device.num_qubits
    return VQEScanResult(tuple(thetas), tuple(energies),
                         num_simultaneous=1, throughput=throughput,
                         method="PG")


def run_vqe_scan_parallel(
    thetas: Sequence[float],
    device: Device,
    shots: int = 8192,
    seed: Optional[int] = None,
    sigma: float = DEFAULT_SIGMA,
    hamiltonian: Optional[PauliOperator] = None,
) -> VQEScanResult:
    """QuCP+PG: all scan circuits execute simultaneously on the device."""
    hamiltonian = hamiltonian or h2_hamiltonian()
    groups = group_commuting_terms(hamiltonian)
    circuits = _scan_circuits(thetas, groups)
    allocation = qucp_allocate(circuits, device, sigma=sigma)
    outcomes = execute_allocation(allocation, shots=shots, seed=seed)
    dists = [o.result.probabilities for o in outcomes]
    energies = _energies_from_flat(thetas, groups, dists)
    return VQEScanResult(
        tuple(thetas), tuple(energies),
        num_simultaneous=len(circuits),
        throughput=allocation.throughput(),
        method="QuCP+PG",
    )


def _energies_from_flat(
    thetas: Sequence[float],
    groups: Sequence[MeasurementGroup],
    dists: Sequence[dict],
) -> List[float]:
    """Recombine theta-major flat distributions into per-theta energies."""
    n_groups = len(groups)
    energies = []
    for t_idx in range(len(thetas)):
        chunk = dists[t_idx * n_groups:(t_idx + 1) * n_groups]
        energies.append(energy_from_distributions(groups, chunk))
    return energies
