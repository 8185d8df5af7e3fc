"""Randomized equivalence: tensor-contraction kernels vs dense reference.

The fused-superoperator backend must reproduce the old full-space
embedding path (to 1e-10) over random circuits with non-sorted
multi-qubit gate tuples, resets, delays, noise, crosstalk error scales,
and non-contiguous measured clbits; its process-wide superoperator memo
must stay bounded and never serve one noise model's channel to another.
The broadcast :func:`~repro.sim.kernels.kron` must give ``np.kron``'s
bytes, so the superoperators built on it do too.
"""

import itertools
import math

import numpy as np
import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.sim import (
    NoiseModel,
    circuit_unitary,
    embed_gate,
    run_circuit,
    simulate_density_matrix,
    simulate_statevector,
)
from repro.sim.channels import (
    _PAULIS,
    depolarizing_channel,
    pauli_channel,
    thermal_relaxation_channel,
)
from repro.sim.density_matrix import _instruction_superop
from repro.sim.kernels import kron

ATOL = 1e-10

#: (name, num_qubits, num_params) gate pool for random circuits.
GATE_POOL = [
    ("h", 1, 0), ("x", 1, 0), ("s", 1, 0), ("t", 1, 0), ("sx", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("u", 1, 3),
    ("cx", 2, 0), ("cz", 2, 0), ("swap", 2, 0), ("rzz", 2, 1),
    ("cp", 2, 1), ("ccx", 3, 0),
]


def _random_circuit(rng, num_qubits, depth, *, resets=False, delays=False,
                    max_arity=None):
    qc = QuantumCircuit(num_qubits, num_qubits)
    pool = [g for g in GATE_POOL
            if g[1] <= num_qubits and (max_arity is None or g[1] <= max_arity)]
    for _ in range(depth):
        roll = rng.random()
        if resets and roll < 0.08:
            qc.reset(int(rng.integers(num_qubits)))
            continue
        if delays and roll < 0.16:
            qc.delay(int(rng.integers(num_qubits)),
                     float(rng.uniform(10.0, 500.0)))
            continue
        name, arity, nparams = pool[rng.integers(len(pool))]
        # Unsorted qubit tuples exercise the axis permutations.
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        params = [float(rng.uniform(0, 2 * np.pi)) for _ in range(nparams)]
        qc._add(name, [int(q) for q in qubits], *params)
    return qc


def _full_noise(num_qubits):
    return NoiseModel(
        oneq_error={q: 1e-3 + 1e-4 * q for q in range(num_qubits)},
        twoq_error={(a, b): 0.01 + 0.002 * (a + b)
                    for a in range(num_qubits)
                    for b in range(a + 1, num_qubits)},
        readout_error={q: (0.02, 0.01) for q in range(num_qubits)},
        t1={q: 80_000.0 for q in range(num_qubits)},
        t2={q: 70_000.0 for q in range(num_qubits)},
        detuning={0: 2e-5},
    )


def _assert_probs_equal(a, b):
    for key in set(a) | set(b):
        assert a.get(key, 0.0) == pytest.approx(b.get(key, 0.0), abs=ATOL)


class TestDensityMatrixEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_noiseless_rho_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        qc = _random_circuit(rng, n, depth=12, resets=True)
        tensor = simulate_density_matrix(qc)
        dense = simulate_density_matrix(qc, backend="dense")
        assert np.allclose(tensor, dense, atol=ATOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_rho_matches_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 7))
        qc = _random_circuit(rng, n, depth=12, resets=True, delays=True)
        nm = _full_noise(n)
        scales = {i: float(rng.uniform(1.0, 4.0))
                  for i in range(len(qc)) if rng.random() < 0.3}
        tensor = simulate_density_matrix(qc, nm, error_scales=scales)
        dense = simulate_density_matrix(qc, nm, error_scales=scales,
                                        backend="dense")
        assert np.allclose(tensor, dense, atol=ATOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_measured_distributions_match(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 6))
        qc = _random_circuit(rng, n, depth=10, resets=True, delays=True)
        # Measure a random subset into *non-contiguous* clbits.
        qubits = rng.choice(n, size=int(rng.integers(1, n + 1)),
                            replace=False)
        clbits = sorted(rng.choice(n, size=len(qubits), replace=False))
        for q, c in zip(qubits, clbits):
            qc.measure(int(q), int(c))
        nm = _full_noise(n)
        a = run_circuit(qc, noise_model=nm)
        b = run_circuit(qc, noise_model=nm, backend="dense")
        _assert_probs_equal(a.probabilities, b.probabilities)
        assert a.measured_clbits == b.measured_clbits == tuple(clbits)

    def test_equal_models_identical_differing_model_distinct(self):
        rng = np.random.default_rng(500)
        qc = _random_circuit(rng, 4, depth=16, resets=True, delays=True)
        qc.cx(0, 1)
        rhos = []
        # Fresh models each time (freed in between, inviting id() reuse):
        # two equal-valued ones, then one whose (0, 1) CX error differs.
        for cx_error in (0.01, 0.01, 0.03):
            nm = _full_noise(4)
            nm.twoq_error[(0, 1)] = cx_error
            rho = simulate_density_matrix(qc, nm)
            dense = simulate_density_matrix(qc, nm, backend="dense")
            assert np.allclose(rho, dense, atol=ATOL)
            rhos.append(rho)
            del nm
        assert np.array_equal(rhos[0], rhos[1])
        assert not np.allclose(rhos[0], rhos[2], atol=1e-6)

    def test_fused_superop_memo_stays_bounded(self):
        nm = _full_noise(1)
        for i in range(4096 + 64):
            qc = QuantumCircuit(1)
            qc.rz(1e-4 * (i + 1), 0)
            simulate_density_matrix(qc, nm)
        assert _instruction_superop.cache_info().currsize <= 4096

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            simulate_density_matrix(QuantumCircuit(1), backend="sparse")


class TestStatevectorConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_statevector_matches_density_diagonal(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        qc = _random_circuit(rng, n, depth=12)
        amps = simulate_statevector(qc)
        rho = simulate_density_matrix(qc)
        assert np.allclose(np.outer(amps, amps.conj()), rho, atol=ATOL)


class TestCircuitUnitaryEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_contraction_matches_embedded_composition(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 5))
        qc = _random_circuit(rng, n, depth=10)
        via_kernels = circuit_unitary(qc)
        dense = np.eye(2 ** n, dtype=complex)
        for inst in qc:
            dense = embed_gate(inst.gate.matrix(), inst.qubits, n) @ dense
        assert np.allclose(via_kernels, dense, atol=ATOL)


def _numpy_superop(operators):
    """``sum_i K_i (x) conj(K_i)`` accumulated with ``np.kron``."""
    d = operators[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for op in operators:
        out += np.kron(op, op.conj())
    return out


class TestKronEquivalence:
    """Byte identity with ``np.kron``: the same products, the same bits."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_bytes_match_numpy_kron(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for _ in range(20):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
            assert kron(a, b.conj()).tobytes() == \
                np.kron(a, b.conj()).tobytes()

    @pytest.mark.parametrize("gate", [
        ("h", ()), ("rx", (0.3,)), ("u", (0.1, -1.2, 2.9)),
        ("cx", ()), ("rzz", (1.7,)), ("cp", (-0.4,))])
    def test_instruction_superop_matches_numpy_kron(self, gate):
        arity = 2 if gate[0] in ("cx", "rzz", "cp") else 1
        unitary = Gate(gate[0], arity, gate[1]).matrix()
        bare = np.kron(unitary, unitary.conj())
        assert _instruction_superop(gate, arity, None).tobytes() == \
            bare.tobytes()
        channels = ((depolarizing_channel(0.013, 1),
                     thermal_relaxation_channel(80_000.0, 70_000.0, 300.0))
                    if arity == 1 else
                    (depolarizing_channel(0.013, 2),
                     pauli_channel({"XZ": 0.01, "YI": 0.02})))
        for channel in channels:
            fused = _numpy_superop(channel.operators) @ bare
            assert _instruction_superop(gate, arity, channel).tobytes() \
                == fused.tobytes()

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_pauli_products_match_numpy_kron(self, num_qubits):
        labels = ["".join(t)
                  for t in itertools.product("IXYZ", repeat=num_qubits)]
        ident = "I" * num_qubits
        paulis = {}
        for label in labels:
            mat = np.eye(1, dtype=complex)
            for ch in label:
                mat = np.kron(mat, _PAULIS[ch])
            paulis[label] = mat
            prob = 1.0 if label == ident else 0.25
            op = pauli_channel({label: prob}).operators[0]
            assert op.tobytes() == (math.sqrt(prob) * mat).tobytes()
        p, d2 = 0.03, 4 ** num_qubits
        ops = depolarizing_channel(p, num_qubits).operators
        for op, label in zip(ops, labels):
            weight = 1.0 - p * (d2 - 1) / d2 if label == ident else p / d2
            assert op.tobytes() == \
                (math.sqrt(weight) * paulis[label]).tobytes()
