"""Kraus channel constructors for the noisy simulator.

All constructors return a :class:`KrausChannel`, a validated list of Kraus
operators satisfying the completeness relation ``sum(K^dag K) = I``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Tuple

import numpy as np

from .kernels import kron, superop_matrix

__all__ = [
    "KrausChannel",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "pauli_channel",
    "identity_channel",
    "error_rate_to_depolarizing_param",
]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by Kraus operators, all of equal square shape.

    Compared and hashed by identity, so a memo table can key on the
    channel object itself (and so hold it alive) rather than on its
    ``id()``.
    """

    operators: Tuple[np.ndarray, ...]
    _embed_cache: dict = field(default_factory=dict, compare=False,
                               repr=False)

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for op in self.operators:
            if op.shape != (dim, dim):
                raise ValueError("Kraus operators must share a square shape")
            total += op.conj().T @ op
        if not np.allclose(total, np.eye(dim), atol=1e-8):
            raise ValueError("Kraus operators violate completeness")

    @cached_property
    def num_qubits(self) -> int:
        """Number of qubits the channel acts on."""
        return int(math.log2(self.operators[0].shape[0]))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        out = np.zeros_like(rho)
        for op in self.operators:
            out += op @ rho @ op.conj().T
        return out

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Return ``other ∘ self`` (self applied first)."""
        ops = tuple(
            b @ a for a in self.operators for b in other.operators
        )
        return KrausChannel(ops)

    def superop(self) -> np.ndarray:
        """The channel folded into its ``4^k x 4^k`` superoperator (cached).

        See :func:`repro.sim.kernels.superop_matrix`; channel instances
        are themselves cached by the constructors, so a run's repeated
        error rates fold exactly once.
        """
        cached = self._embed_cache.get("superop")
        if cached is None:
            cached = superop_matrix(self.operators)
            self._embed_cache["superop"] = cached
        return cached

    def embedded(self, qubits: Tuple[int, ...],
                 num_qubits: int) -> Tuple[np.ndarray, ...]:
        """Kraus operators embedded into the full *num_qubits* space.

        Cached per (qubits, num_qubits).  Off the simulation hot path —
        only the dense reference backend and full-matrix consumers use
        these embeddings.
        """
        from .unitary import embed_gate

        key = (qubits, num_qubits)
        cached = self._embed_cache.get(key)
        if cached is None:
            cached = tuple(
                embed_gate(op, qubits, num_qubits) for op in self.operators
            )
            self._embed_cache[key] = cached
        return cached


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    """The do-nothing channel."""
    return KrausChannel((np.eye(2 ** num_qubits, dtype=complex),))


def error_rate_to_depolarizing_param(error_rate: float,
                                     num_qubits: int) -> float:
    """Convert a calibration *average gate error* to a depolarizing prob.

    For the channel ``E(rho) = (1-p) rho + p I/d`` the average gate
    infidelity is ``p (d-1)/d``, hence ``p = error * d/(d-1)``.
    The result is clipped to [0, 1].
    """
    d = 2 ** num_qubits
    p = error_rate * d / (d - 1)
    return min(max(p, 0.0), 1.0)


def depolarizing_channel(p: float, num_qubits: int = 1) -> KrausChannel:
    """Depolarizing channel ``E(rho) = (1-p) rho + p I/d``.

    Realized as the uniform Pauli channel: identity with probability
    ``1 - p (d^2-1)/d^2`` and each non-identity Pauli with ``p/d^2``.
    Instances are cached (the simulator requests the same error rates for
    every gate of a run).
    """
    return _depolarizing_cached(round(float(p), 14), num_qubits)


@lru_cache(maxsize=4096)
def _depolarizing_cached(p: float, num_qubits: int) -> KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    d2 = 4 ** num_qubits
    ops: List[np.ndarray] = []
    labels = ["".join(t) for t in itertools.product("IXYZ",
                                                    repeat=num_qubits)]
    for label in labels:
        mat = np.eye(1, dtype=complex)
        for ch in label:
            mat = kron(mat, _PAULIS[ch])
        if label == "I" * num_qubits:
            weight = 1.0 - p * (d2 - 1) / d2
        else:
            weight = p / d2
        ops.append(math.sqrt(weight) * mat)
    return KrausChannel(tuple(ops))


def pauli_channel(probabilities: dict) -> KrausChannel:
    """Pauli channel from a {pauli_label: probability} map.

    Missing probability mass is assigned to the identity.
    """
    num_qubits = len(next(iter(probabilities)))
    total = sum(probabilities.values())
    if total > 1.0 + 1e-12:
        raise ValueError("Pauli probabilities exceed 1")
    ops: List[np.ndarray] = []
    ident = "I" * num_qubits
    probs = dict(probabilities)
    probs[ident] = probs.get(ident, 0.0) + (1.0 - total)
    for label, prob in probs.items():
        if prob <= 0:
            continue
        mat = np.eye(1, dtype=complex)
        for ch in label:
            mat = kron(mat, _PAULIS[ch])
        ops.append(math.sqrt(prob) * mat)
    return KrausChannel(tuple(ops))


def bit_flip_channel(p: float) -> KrausChannel:
    """X error with probability *p*."""
    return pauli_channel({"X": p})


def phase_flip_channel(p: float) -> KrausChannel:
    """Z error with probability *p*."""
    return pauli_channel({"Z": p})


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """T1 relaxation toward |0> with damping probability *gamma*."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1))


def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing with damping probability *lam*."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1))


def thermal_relaxation_channel(t1: float, t2: float,
                               duration: float) -> KrausChannel:
    """Combined T1/T2 relaxation over *duration* (same units as t1/t2).

    Requires ``t2 <= 2 t1``.  Implemented as amplitude damping followed by
    the extra pure dephasing needed to hit the target T2.  Instances are
    cached (the simulator requests the same qubit coherence times and
    delay durations for every run of a sweep), so validation and the
    superoperator fold happen once per distinct parameter triple.  The
    key uses the exact float values — the function is unit-agnostic, so
    no rounding is safe across magnitudes.
    """
    if t2 > 2 * t1 + 1e-12:
        raise ValueError("t2 must be <= 2*t1")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    return _thermal_relaxation_cached(float(t1), float(t2), float(duration))


@lru_cache(maxsize=4096)
def _thermal_relaxation_cached(t1: float, t2: float,
                               duration: float) -> KrausChannel:
    gamma = 1.0 - math.exp(-duration / t1) if t1 > 0 else 1.0
    # Total dephasing factor exp(-t/T2) = sqrt(1-gamma) * sqrt(1-lam)
    # where sqrt(1-gamma) is the coherence decay from amplitude damping.
    decay_t2 = math.exp(-duration / t2) if t2 > 0 else 0.0
    decay_t1_part = math.sqrt(1.0 - gamma)
    if decay_t1_part <= 0:
        lam = 1.0
    else:
        ratio = decay_t2 / decay_t1_part
        lam = 1.0 - min(1.0, ratio) ** 2
    damp = amplitude_damping_channel(gamma)
    dephase = phase_damping_channel(min(max(lam, 0.0), 1.0))
    return damp.compose(dephase)
