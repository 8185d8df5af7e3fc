"""Simulators: ideal statevector, circuit unitaries, noisy
density-matrix evolution with calibration-driven Kraus channels, the
parallel-program executor and per-shot feed-forward for dynamic
circuits.  Pauli-operator expectations are measured through
:mod:`repro.vqe` (commuting groups and their measurement circuits).

Performance note
----------------
Both simulators run on one local-operator primitive,
:func:`repro.sim.kernels.apply_local`: the state is a ``(2,)*n`` tensor
(density matrix ``(2,)*2n``), and a ``d x d`` matrix acts on its target
axes by a transpose, one matmul and the inverse transpose.  A
density-matrix instruction's gate and noise channel are fused into one
``4^k x 4^k`` superoperator ``S = C (U (x) conj(U))``, so each
instruction is a single matmul — ~4x faster than the dense full-space
reference at 3-4 qubits and ~85-100x at 8 (see
``benchmarks/bench_kernels.py``).  The dense path survives as
``simulate_density_matrix(..., backend="dense")`` purely for verification;
``tests/test_kernels_equivalence.py`` pins both backends to each other at
1e-10 over randomized circuits."""

from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    error_rate_to_depolarizing_param,
    identity_channel,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
)
from .feedforward import dynamic_probabilities, run_dynamic
from .fidelity import (
    counts_fidelity,
    hellinger_fidelity,
    purity,
    state_fidelity,
    trace_distance,
)
from .density_matrix import (
    SimulationResult,
    run_circuit,
    simulate_density_matrix,
)
from .kernels import (
    apply_to_statevector,
    initial_density_tensor,
    initial_state_tensor,
)
from .noise_model import NoiseModel
from .readout import apply_readout_confusion, counts_to_probs, sample_counts
from .statevector import ideal_probabilities, simulate_statevector
from .unitary import bitstring_of, circuit_unitary, embed_gate

__all__ = [
    "KrausChannel",
    "NoiseModel",
    "SimulationResult",
    "amplitude_damping_channel",
    "apply_readout_confusion",
    "apply_to_statevector",
    "bit_flip_channel",
    "bitstring_of",
    "circuit_unitary",
    "counts_fidelity",
    "counts_to_probs",
    "depolarizing_channel",
    "dynamic_probabilities",
    "embed_gate",
    "error_rate_to_depolarizing_param",
    "ideal_probabilities",
    "hellinger_fidelity",
    "identity_channel",
    "initial_density_tensor",
    "initial_state_tensor",
    "pauli_channel",
    "phase_damping_channel",
    "phase_flip_channel",
    "purity",
    "run_circuit",
    "run_dynamic",
    "sample_counts",
    "simulate_density_matrix",
    "simulate_statevector",
    "state_fidelity",
    "trace_distance",
    "thermal_relaxation_channel",
]
