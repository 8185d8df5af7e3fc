"""Noisy density-matrix simulation.

Evolves the full density matrix, applying each gate's unitary followed by
the noise channel the :class:`~repro.sim.noise_model.NoiseModel` assigns to
it.  Suitable for the partition sizes that occur in parallel circuit
execution (<= ~8 qubits); the executor never simulates a whole 65-qubit
chip at once.

Two backends share one per-instruction step (:func:`_evolve_instruction`,
also the feed-forward trajectory runner's):

- ``backend="tensor"`` (default) keeps rho as a ``(2,)*2n`` tensor and
  folds each instruction's gate and noise channel into one precomputed
  ``4^k x 4^k`` superoperator ``S = C (U (x) conj(U))``, applied by a
  single matmul on the target axes (:func:`repro.sim.kernels.apply_local`)
  — O(4^n * 4^k) per instruction, never materializing a full-space
  embedding.
- ``backend="dense"`` is the original full-space reference: each operator
  is embedded into a 2^n x 2^n matrix and applied by dense matmuls
  (O(8^n) per operator).  Kept for verification; the randomized
  equivalence suite checks the two agree to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import has_control_flow
from ..circuits.gates import Gate
from .channels import KrausChannel
from .kernels import (
    RESET_KRAUS,
    apply_local,
    initial_density_tensor,
    kron,
    superop_matrix,
    target_axes,
)
from .noise_model import NoiseModel
from .readout import SeedLike, apply_readout_confusion, sample_counts
from .unitary import embed_gate

__all__ = ["SimulationResult", "simulate_density_matrix", "run_circuit"]


#: ``(name, params)`` of a gate, or None when an instruction applies no
#: unitary (an idle delay without detuning).
_GateKey = Optional[Tuple[str, Tuple[float, ...]]]

_RESET_SUPEROP = superop_matrix(RESET_KRAUS)


@lru_cache(maxsize=4096)
def _instruction_superop(gate: _GateKey, num_qubits: int,
                         channel: Optional[KrausChannel]
                         ) -> Optional[np.ndarray]:
    """One instruction's fused superoperator ``S = C (U (x) conj(U))``.

    *gate* acts on all *num_qubits* target qubits and *channel* (after
    it) on the same qubits; either may be None, and None is returned
    when both are.  Shared process-wide, so repeated programs in a
    batched sweep fold each (gate, channel) pair once.  The key holds
    the channel object itself (channels hash by identity), so an entry
    is never served to a different channel that reuses a freed ``id()``.
    """
    superop = None
    if gate is not None:
        unitary = Gate(gate[0], num_qubits, gate[1]).matrix()
        superop = kron(unitary, unitary.conj())
    if channel is not None:
        superop = (channel.superop() if superop is None
                   else channel.superop() @ superop)
    return superop


@lru_cache(maxsize=4096)
def _embedded_unitary(name: str, params: Tuple[float, ...],
                      qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Cache of full-space gate unitaries (dense reference backend only)."""
    g = Gate(name, len(qubits), params)
    return embed_gate(g.matrix(), qubits, num_qubits)


@dataclass
class SimulationResult:
    """Output of a noisy simulation run.

    ``probabilities`` maps classical-bit strings to probabilities *after
    readout error*; ``counts`` are sampled from it.  String position *i*
    holds the clbit ``measured_clbits[i]`` (the measured clbits in sorted
    order — the lowest measured clbit is leftmost).
    """

    probabilities: Dict[str, float]
    counts: Dict[str, int] = field(default_factory=dict)
    shots: int = 0
    density_matrix: Optional[np.ndarray] = None
    measured_clbits: Tuple[int, ...] = ()

    def _positions(self, clbits: Sequence[int]) -> Sequence[int]:
        """Map clbit numbers to their key-string positions."""
        if not self.measured_clbits:
            # Legacy results (no clbit record): positions == clbit numbers.
            return list(clbits)
        index = {c: i for i, c in enumerate(self.measured_clbits)}
        try:
            return [index[c] for c in clbits]
        except KeyError as exc:
            raise ValueError(
                f"clbit {exc.args[0]} was not measured "
                f"(measured clbits: {self.measured_clbits})") from None

    def expectation_z(self, clbits: Sequence[int]) -> float:
        """<Z...Z> over the given clbits, from the probabilities.

        Clbit numbers are mapped to key positions via ``measured_clbits``;
        non-contiguous measured clbits (e.g. ``{0, 2}``) are handled
        correctly.
        """
        positions = self._positions(clbits)
        total = 0.0
        for key, p in self.probabilities.items():
            parity = sum(int(key[i]) for i in positions) % 2
            total += p * (1.0 if parity == 0 else -1.0)
        return total


class _TensorOps:
    """Fused-superoperator backend: rho is a ``(2,)*2n`` tensor."""

    def __init__(self, num_qubits: int) -> None:
        self.n = num_qubits

    def initial(self) -> np.ndarray:
        return initial_density_tensor(self.n)

    def evolve(self, rho: np.ndarray, gate: _GateKey,
               channel: Optional[KrausChannel],
               qubits: Tuple[int, ...]) -> np.ndarray:
        if channel is not None and channel.num_qubits < len(qubits):
            # 3q+ gates get an approximate 2q channel on the first pair:
            # the gate alone, then the channel on its own qubits.
            rho = self.evolve(rho, gate, None, qubits)
            gate, qubits = None, qubits[:channel.num_qubits]
        superop = _instruction_superop(gate, len(qubits), channel)
        if superop is None:
            return rho
        return apply_local(rho, superop, target_axes(qubits, self.n, True))

    def reset(self, rho: np.ndarray, qubit: int) -> np.ndarray:
        return apply_local(rho, _RESET_SUPEROP,
                           target_axes((qubit,), self.n, True))


class _DenseOps:
    """Full-space reference backend: rho is a ``2^n x 2^n`` matrix."""

    def __init__(self, num_qubits: int) -> None:
        self.n = num_qubits

    def initial(self) -> np.ndarray:
        dim = 2 ** self.n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def evolve(self, rho: np.ndarray, gate: _GateKey,
               channel: Optional[KrausChannel],
               qubits: Tuple[int, ...]) -> np.ndarray:
        if gate is not None:
            full = _embedded_unitary(gate[0], gate[1], qubits, self.n)
            rho = full @ rho @ full.conj().T
        if channel is not None:
            out = np.zeros_like(rho)
            for full in channel.embedded(qubits[:channel.num_qubits],
                                         self.n):
                out += full @ rho @ full.conj().T
            rho = out
        return rho

    def reset(self, rho: np.ndarray, qubit: int) -> np.ndarray:
        out = np.zeros_like(rho)
        for op in RESET_KRAUS:
            full = embed_gate(op, [qubit], self.n)
            out += full @ rho @ full.conj().T
        return out


def _backend_ops(backend: str, num_qubits: int):
    if backend == "tensor":
        return _TensorOps(num_qubits)
    if backend == "dense":
        return _DenseOps(num_qubits)
    raise ValueError(f"unknown simulation backend {backend!r}")


def _evolve_instruction(ops, rho: np.ndarray, inst,
                        noise_model: Optional[NoiseModel],
                        error_scale: float) -> np.ndarray:
    """Evolve *rho* through one non-measurement instruction.

    The instruction's gate, then the noise channel *noise_model* assigns
    it at *error_scale*.  The one step both
    :func:`simulate_density_matrix` and the feed-forward trajectory
    runner take per instruction.
    """
    name = inst.name
    if name == "barrier":
        return rho
    if name == "reset":
        return ops.reset(rho, inst.qubits[0])
    gate: _GateKey = None if name == "delay" else (name, inst.params)
    channel = None
    if noise_model is not None:
        if name == "delay":
            # Idling under a residual detuning accumulates a coherent Z
            # rotation — the error dynamical decoupling echoes away.
            delta = noise_model.detuning_of(inst.qubits[0])
            if delta != 0.0:
                gate = ("rz", (delta * float(inst.params[0]),))
        channel = noise_model.channel_for(inst, error_scale=error_scale)
    return ops.evolve(rho, gate, channel, inst.qubits)


def simulate_density_matrix(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    error_scales: Optional[Dict[int, float]] = None,
    backend: str = "tensor",
) -> np.ndarray:
    """Return the pre-measurement density matrix of *circuit*.

    *error_scales* maps instruction indices to multiplicative error-rate
    boosts (the crosstalk hook); unlisted instructions use scale 1.
    *backend* selects the fused-superoperator kernels (``"tensor"``,
    default) or the dense full-space reference (``"dense"``).
    """
    if has_control_flow(circuit):
        from ..circuits.circuit import CircuitError

        raise CircuitError(
            "simulate_density_matrix cannot evolve control-flow ops (the "
            "pre-measurement state is branch-dependent); use "
            "repro.sim.feedforward.run_dynamic, or statically unroll with "
            "repro.transpiler.expand_control_flow first")
    ops = _backend_ops(backend, circuit.num_qubits)
    rho = ops.initial()
    error_scales = error_scales or {}
    for idx, inst in enumerate(circuit):
        if inst.name != "measure":
            rho = _evolve_instruction(ops, rho, inst, noise_model,
                                      error_scales.get(idx, 1.0))
    dim = 2 ** circuit.num_qubits
    return rho.reshape(dim, dim)


def _measured_probabilities(
    circuit: QuantumCircuit,
    rho: np.ndarray,
    noise_model: Optional[NoiseModel],
) -> Tuple[Dict[str, float], Tuple[int, ...]]:
    """Project the density matrix onto the measured clbits.

    Returns ``(probabilities, measured_clbits)`` where the key-string
    position *i* corresponds to ``measured_clbits[i]``.
    """
    n = circuit.num_qubits
    diag = np.real(np.diag(rho)).clip(min=0.0)
    diag = diag / diag.sum() if diag.sum() > 0 else diag
    measure_map = [
        (inst.qubits[0], inst.clbits[0])
        for inst in circuit if inst.name == "measure"
    ]
    if not measure_map:
        measure_map = [(q, q) for q in range(n)]
    clbits = tuple(sorted({c for _, c in measure_map}))
    qubit_for_clbit = {c: q for q, c in measure_map}
    measured_qubits = [qubit_for_clbit[c] for c in clbits]

    # Marginalize the diagonal onto the measured qubits.
    probs: Dict[str, float] = {}
    for idx, p in enumerate(diag):
        if p <= 0.0:
            continue
        key = "".join(str((idx >> (n - 1 - q)) & 1) for q in measured_qubits)
        probs[key] = probs.get(key, 0.0) + float(p)

    if noise_model is not None:
        confusions = [noise_model.confusion_matrix(q)
                      for q in measured_qubits]
        probs = apply_readout_confusion(probs, confusions)
    return probs, clbits


def run_circuit(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    shots: int = 0,
    seed: SeedLike = None,
    error_scales: Optional[Dict[int, float]] = None,
    keep_density_matrix: bool = False,
    backend: str = "tensor",
) -> SimulationResult:
    """Simulate *circuit* end-to-end: evolution, readout error, sampling.

    *seed* may be an int or a :class:`numpy.random.SeedSequence` (the
    batched executor spawns independent child sequences per program).

    Control-flow circuits and circuits with genuine mid-circuit
    measurements are routed to the feed-forward engine
    (:func:`repro.sim.feedforward.run_dynamic`), which delegates right
    back here once static expansion flattens them — so resolvable
    dynamic circuits cost one extra pass and produce bit-identical
    samples to their unrolled form.
    """
    if has_control_flow(circuit) or circuit.has_midcircuit_measurement():
        from .feedforward import run_dynamic

        return run_dynamic(circuit, noise_model=noise_model, shots=shots,
                           seed=seed, error_scales=error_scales)
    rho = simulate_density_matrix(circuit, noise_model, error_scales,
                                  backend=backend)
    probs, measured_clbits = _measured_probabilities(circuit, rho,
                                                     noise_model)
    counts: Dict[str, int] = {}
    if shots > 0:
        counts = sample_counts(probs, shots, seed=seed)
    return SimulationResult(
        probabilities=probs,
        counts=counts,
        shots=shots,
        density_matrix=rho if keep_density_matrix else None,
        measured_clbits=measured_clbits,
    )
