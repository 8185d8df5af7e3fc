"""Zero-noise extrapolation drivers (paper Sec. IV-D, Fig. 6).

Three flows are compared on each benchmark:

- **Baseline**: the circuit runs once on its best QuCP partition, no
  mitigation;
- **ZNE**: the folded circuits (scale factors 1.0–2.5) run independently,
  one job each, and the expectation is extrapolated to zero noise;
- **QuCP+ZNE**: the folded circuits run *simultaneously* on partitions
  chosen by QuCP — same number of circuit executions as the baseline,
  ~4x the throughput of sequential ZNE.

The observable is the Z...Z parity of the measured bits; the reported
error is ``|ideal expectation - obtained expectation|``, and (as in the
paper) the best result across the extrapolation factories is shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..core.executor import execute_allocation
from ..core.qucp import DEFAULT_SIGMA, qucp_allocate
from ..hardware.devices import Device
from ..sim.statevector import ideal_probabilities
from .factories import all_factories
from .folding import fold_gates_at_random, folded_scale_factors

__all__ = [
    "ZNEComparison",
    "parity_expectation",
    "zero_noise_estimate",
    "run_zne_comparison",
]


def parity_expectation(probabilities: Mapping[str, float]) -> float:
    """<Z...Z> over all measured bits of a distribution."""
    total = 0.0
    for key, p in probabilities.items():
        parity = key.count("1") % 2
        total += p * (1.0 if parity == 0 else -1.0)
    return total


def zero_noise_estimate(
    scales: Sequence[float],
    expectations: Sequence[float],
    ideal: Optional[float] = None,
) -> Tuple[float, str]:
    """Extrapolate to zero noise; returns ``(estimate, factory_name)``.

    With *ideal* given, the factory whose estimate lands closest to the
    ideal value is selected — the paper's "best estimated result among
    these methods" protocol.  Without it, Richardson is used.
    """
    candidates = []
    for factory in all_factories():
        try:
            candidates.append(
                (factory.extrapolate(scales, expectations), factory.name))
        except (ValueError, FloatingPointError):
            continue
    if not candidates:
        raise ValueError("no factory could extrapolate")
    if ideal is None:
        for estimate, name in candidates:
            if name == "richardson":
                return estimate, name
        return candidates[0]
    return min(candidates, key=lambda en: abs(en[0] - ideal))


@dataclass
class ZNEComparison:
    """Fig. 6 data for one benchmark."""

    name: str
    ideal_expectation: float
    baseline_error: float
    qucp_zne_error: float
    zne_error: float
    qucp_zne_throughput: float
    zne_factory: str
    qucp_factory: str


def _folded_set(circuit: QuantumCircuit,
                scales: Sequence[float], seed: int) -> List[QuantumCircuit]:
    return [
        fold_gates_at_random(circuit, s, seed=seed + i)
        for i, s in enumerate(scales)
    ]


def run_zne_comparison(
    circuit: QuantumCircuit,
    device: Device,
    shots: int = 8192,
    seed: int = 0,
    scales: Sequence[float] = (),
    sigma: float = DEFAULT_SIGMA,
) -> ZNEComparison:
    """Run Baseline / QuCP+ZNE / ZNE on one benchmark circuit."""
    if not any(inst.name == "measure" for inst in circuit):
        raise ValueError("circuit must contain measurements")
    scales = tuple(scales) or folded_scale_factors()
    ideal = parity_expectation(ideal_probabilities(circuit))

    # Baseline: one unmitigated run on the best partition.
    base_alloc = qucp_allocate([circuit], device, sigma=sigma)
    base_out = execute_allocation(base_alloc, shots=shots, seed=seed)[0]
    baseline_error = abs(
        ideal - parity_expectation(base_out.result.probabilities))

    folded = _folded_set(circuit, scales, seed=seed + 1000)

    # QuCP+ZNE: all folded circuits in one simultaneous job.
    par_alloc = qucp_allocate(folded, device, sigma=sigma)
    par_outs = execute_allocation(par_alloc, shots=shots, seed=seed + 1)
    par_expect = [
        parity_expectation(o.result.probabilities) for o in par_outs
    ]
    par_est, par_factory = zero_noise_estimate(scales, par_expect, ideal)
    qucp_zne_error = abs(ideal - par_est)

    # ZNE: folded circuits run independently (sequential jobs).
    seq_expect = []
    for k, fc in enumerate(folded):
        alloc = qucp_allocate([fc], device, sigma=sigma)
        out = execute_allocation(alloc, shots=shots, seed=seed + 2 + k)[0]
        seq_expect.append(parity_expectation(out.result.probabilities))
    seq_est, seq_factory = zero_noise_estimate(scales, seq_expect, ideal)
    zne_error = abs(ideal - seq_est)

    return ZNEComparison(
        name=circuit.name,
        ideal_expectation=ideal,
        baseline_error=baseline_error,
        qucp_zne_error=qucp_zne_error,
        zne_error=zne_error,
        qucp_zne_throughput=par_alloc.throughput(),
        zne_factory=seq_factory,
        qucp_factory=par_factory,
    )
