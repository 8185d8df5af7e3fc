"""Kernel smoke benchmark — fused-superoperator backend vs dense embedding.

Two gates on a noisy brickwork workload, both producing the same
distribution as the dense path to 1e-10:

- at 3 and 4 qubits (the partition sizes the service simulates, where
  numpy call overhead rather than arithmetic decides the race) the
  tensor backend beats ``backend="dense"`` by >= 2x (~4-5x measured);
- at 8 qubits (the largest partition the parallel executor sweeps) it
  beats it by >= 5x (~85-100x measured on a 2-core x86 host).

Runs in CI as a regression gate for the simulation hot path.
"""

import os
import time

import numpy as np
from conftest import print_table

from repro.circuits import QuantumCircuit
from repro.sim import NoiseModel, run_circuit

#: Default 5x at 8 qubits (the local acceptance target; measured headroom
#: is ~85-100x).  CI sets a conservative floor via the env var, since
#: wall-clock ratios on shared runners carry scheduling noise.
SPEEDUP_FLOOR = float(os.environ.get("KERNEL_SPEEDUP_FLOOR", "5.0"))

#: Fixed floor at 3 and 4 qubits; measured ~4-5x, so 2x leaves room for
#: shared-runner noise while failing a backend slower than one matmul
#: per instruction (the per-operator contraction kernels ran 0.7-1.0x).
SMALL_SPEEDUP_FLOOR = 2.0


def _workload_circuit(num_qubits: int, layers: int = 6) -> QuantumCircuit:
    """A brickwork circuit: rotation layer + CX chain, all qubits measured."""
    rng = np.random.default_rng(1234)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            qc.ry(float(rng.uniform(0, 2 * np.pi)), q)
        for a in range(layer % 2, num_qubits - 1, 2):
            qc.cx(a, a + 1)
    qc.measure_all()
    return qc


def _noise(num_qubits: int) -> NoiseModel:
    return NoiseModel(
        oneq_error={q: 1e-3 for q in range(num_qubits)},
        twoq_error={(a, a + 1): 0.015 for a in range(num_qubits - 1)},
        readout_error={q: (0.02, 0.02) for q in range(num_qubits)},
        t1={q: 80_000.0 for q in range(num_qubits)},
        t2={q: 70_000.0 for q in range(num_qubits)},
    )


def _best_time(fn, repeats: int) -> float:
    fn()  # warm gate/channel caches so both backends are measured hot
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(repeats)
    )


def _timed_pair(num_qubits: int, repeats: int):
    """Checked-equal ``(dense, tensor)`` best-of times on the workload."""
    qc = _workload_circuit(num_qubits)
    nm = _noise(num_qubits)
    tensor = run_circuit(qc, noise_model=nm)
    dense = run_circuit(qc, noise_model=nm, backend="dense")
    for key in set(tensor.probabilities) | set(dense.probabilities):
        assert abs(tensor.probabilities.get(key, 0.0)
                   - dense.probabilities.get(key, 0.0)) < 1e-10
    t_tensor = _best_time(lambda: run_circuit(qc, noise_model=nm), repeats)
    t_dense = _best_time(
        lambda: run_circuit(qc, noise_model=nm, backend="dense"), repeats)
    print(f"\n{num_qubits}q noisy workload: dense {t_dense * 1e3:.2f} ms, "
          f"tensor {t_tensor * 1e3:.2f} ms, "
          f"speedup {t_dense / t_tensor:.1f}x")
    return t_dense, t_tensor


def test_contraction_beats_dense_8q():
    """The acceptance gate: >= 5x on an 8-qubit noisy workload."""
    t_dense, t_tensor = _timed_pair(8, 3)
    speedup = t_dense / t_tensor
    assert speedup >= SPEEDUP_FLOOR, (
        f"tensor backend only {speedup:.1f}x faster than dense "
        f"(floor {SPEEDUP_FLOOR}x)")


def test_tensor_beats_dense_at_service_sizes():
    """>= 2x at 3 and 4 qubits, the partition sizes the service runs."""
    for n in (3, 4):
        t_dense, t_tensor = _timed_pair(n, 15)
        speedup = t_dense / t_tensor
        assert speedup >= SMALL_SPEEDUP_FLOOR, (
            f"tensor backend only {speedup:.2f}x faster than dense at "
            f"{n} qubits (floor {SMALL_SPEEDUP_FLOOR}x)")


def test_scaling_table():
    """Report the per-size speedup curve (informational; the 8q point is
    covered by the acceptance gate above)."""
    rows = []
    for n in (4, 5, 6, 7):
        qc = _workload_circuit(n)
        nm = _noise(n)
        t_tensor = _best_time(lambda: run_circuit(qc, noise_model=nm), 3)
        t_dense = _best_time(
            lambda: run_circuit(qc, noise_model=nm, backend="dense"), 3)
        rows.append([n, f"{t_dense * 1e3:.2f}", f"{t_tensor * 1e3:.2f}",
                     f"{t_dense / t_tensor:.1f}x"])
    print_table("Kernel speedup (noisy brickwork, 6 layers)",
                ["qubits", "dense ms", "tensor ms", "speedup"], rows)


if __name__ == "__main__":
    test_tensor_beats_dense_at_service_sizes()
    test_contraction_beats_dense_8q()
    test_scaling_table()
