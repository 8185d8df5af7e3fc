"""Per-shot feed-forward execution of dynamic circuits.

Two engines for circuits whose control flow survives static expansion:

- :func:`run_dynamic` — the *noisy* engine.  Each shot evolves its own
  density matrix; a mid-circuit ``measure`` samples the marginal
  probability, projects and renormalizes the state, and records the
  clbit (readout confusion is applied to the recorded bit, matching the
  static path's end-of-circuit confusion model); conditions then steer
  which bodies run.  Statically-resolvable circuits take a fast path:
  they are expanded and delegated to the ordinary distribution-sampling
  simulator, which makes unrolled and feed-forward execution
  **bit-identical** under the same seed — the equivalence the
  randomized suite in ``tests/test_controlflow_equivalence.py`` locks.

- :func:`dynamic_probabilities` — the *exact noiseless* engine.  A
  statevector tree walk forks at every measurement/reset with the
  branch probabilities as weights, so the returned distribution is
  exact (no sampling noise); it is the dynamic analogue of
  :func:`repro.sim.statevector.ideal_probabilities` and backs the
  execution cache's ideal-reference lookups for dynamic programs.

Seed discipline matches the executor: *seed* is an int or a spawned
``SeedSequence`` child; one ``default_rng`` stream drives all shots of a
program sequentially, so co-scheduled programs stay independent through
``spawn_seeds`` exactly as in the static path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import (ControlFlowOp, ForLoopOp, IfElseOp,
                                    WhileLoopOp, has_control_flow,
                                    written_clbits_of)
from .density_matrix import (SimulationResult, _evolve_instruction,
                             _TensorOps)
from .kernels import (apply_local, apply_to_statevector,
                      initial_state_tensor, superop_matrix, target_axes)
from .noise_model import NoiseModel
from .readout import SeedLike

__all__ = ["run_dynamic", "dynamic_probabilities", "needs_feedforward"]

#: Superoperators of the |0><0| and |1><1| measurement projectors.
_PROJECTORS = tuple(
    superop_matrix((np.diag(bits).astype(complex),))
    for bits in ((1.0, 0.0), (0.0, 1.0)))
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Branches lighter than this probability are pruned from the tree walk.
_PRUNE = 1e-12


def _expand(circuit: QuantumCircuit) -> QuantumCircuit:
    # Local import: the transpiler package imports the sim layer.
    from ..transpiler.controlflow import expand_control_flow

    return expand_control_flow(circuit)


def needs_feedforward(circuit: QuantumCircuit) -> bool:
    """True when the deferred-measurement simulators would be wrong.

    Either unresolved control flow or a mid-circuit measurement (a
    measured qubit operated on again) forces per-shot execution; plain
    end-measured circuits keep the distribution-sampling fast path.
    """
    return (has_control_flow(circuit)
            or circuit.has_midcircuit_measurement())


# ----------------------------------------------------------------------
# noisy per-shot trajectories
# ----------------------------------------------------------------------
def _prob_one(rho: np.ndarray, qubit: int, n: int) -> float:
    """Marginal P(qubit = 1) from a density tensor's diagonal."""
    diag = np.real(np.diagonal(rho.reshape(2 ** n, 2 ** n)))
    diag = diag.clip(min=0.0).reshape((2,) * n)
    axes = tuple(a for a in range(n) if a != qubit)
    marginal = diag.sum(axis=axes) if axes else diag
    total = float(marginal[0] + marginal[1])
    if total <= 0.0:
        return 0.0
    return float(marginal[1]) / total


def _trace(rho: np.ndarray, n: int) -> float:
    return float(np.real(np.trace(rho.reshape(2 ** n, 2 ** n))))


class _TrajectoryRunner:
    """One program's shot-by-shot feed-forward executor."""

    def __init__(self, circuit: QuantumCircuit,
                 noise_model: Optional[NoiseModel],
                 error_scales: Dict[int, float],
                 rng: np.random.Generator) -> None:
        self.circuit = circuit
        self.n = circuit.num_qubits
        self.ops = _TensorOps(self.n)
        self.noise_model = noise_model
        self.error_scales = error_scales
        self.rng = rng

    def _measure(self, rho: np.ndarray, qubit: int, clbit: int,
                 bits: Dict[int, int]) -> np.ndarray:
        p_one = _prob_one(rho, qubit, self.n)
        outcome = 1 if self.rng.random() < p_one else 0
        rho = apply_local(rho, _PROJECTORS[outcome],
                          target_axes((qubit,), self.n, True))
        trace = _trace(rho, self.n)
        if trace > 0.0:
            rho = rho / trace
        recorded = outcome
        if self.noise_model is not None:
            confusion = self.noise_model.confusion_matrix(qubit)
            p_read_one = float(confusion[1, outcome])
            recorded = 1 if self.rng.random() < p_read_one else 0
        bits[clbit] = recorded
        return rho

    def _run_sequence(self, rho: np.ndarray, instructions,
                      bits: Dict[int, int], top_level: bool) -> np.ndarray:
        for idx, inst in enumerate(instructions):
            op = inst.gate
            if isinstance(op, IfElseOp):
                body = op.body_for(op.condition.evaluate(bits))
                if body is not None:
                    rho = self._run_sequence(rho, body.instructions, bits,
                                             False)
                continue
            if isinstance(op, ForLoopOp):
                for _ in op.indexset:
                    rho = self._run_sequence(rho, op.body.instructions,
                                             bits, False)
                continue
            if isinstance(op, WhileLoopOp):
                iterations = 0
                while (iterations < op.max_iterations
                       and op.condition.evaluate(bits)):
                    rho = self._run_sequence(rho, op.body.instructions,
                                             bits, False)
                    iterations += 1
                continue
            if inst.name == "measure":
                rho = self._measure(rho, inst.qubits[0], inst.clbits[0],
                                    bits)
                continue
            # Crosstalk error scales are keyed by *top-level* instruction
            # index (the joint schedule never sees inside bodies).
            scale = self.error_scales.get(idx, 1.0) if top_level else 1.0
            rho = _evolve_instruction(self.ops, rho, inst, self.noise_model,
                                      scale)
        return rho

    def run(self, shots: int, measured: Tuple[int, ...]) -> Dict[str, int]:
        instructions = self.circuit.instructions
        # Shared-prefix optimization: everything before the first
        # measurement or control-flow op is branch-independent, so its
        # (noisy, deterministic) evolution is computed once.
        split = len(instructions)
        for idx, inst in enumerate(instructions):
            if inst.name == "measure" or isinstance(inst.gate,
                                                    ControlFlowOp):
                split = idx
                break
        prefix_rho = self.ops.initial()
        for idx, inst in enumerate(instructions[:split]):
            prefix_rho = _evolve_instruction(
                self.ops, prefix_rho, inst, self.noise_model,
                self.error_scales.get(idx, 1.0))
        suffix = instructions[split:]
        # Re-key the error scales onto suffix-relative indices.
        suffix_scales = {i - split: s for i, s in self.error_scales.items()
                         if i >= split}
        outer_scales, self.error_scales = self.error_scales, suffix_scales

        counts: Dict[str, int] = {}
        for _ in range(shots):
            bits: Dict[int, int] = {}
            rho = self._run_sequence(prefix_rho.copy(), suffix, bits, True)
            key = "".join(str(bits.get(c, 0)) for c in measured)
            counts[key] = counts.get(key, 0) + 1
        self.error_scales = outer_scales
        return counts


def run_dynamic(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    shots: int = 0,
    seed: SeedLike = None,
    error_scales: Optional[Dict[int, float]] = None,
    allow_unroll: bool = True,
) -> SimulationResult:
    """Execute a control-flow circuit shot by shot with feed-forward.

    With ``allow_unroll=True`` (default) statically-resolvable circuits
    are expanded and delegated to the distribution-sampling path, whose
    output is then bit-identical to transpiling the unrolled circuit —
    per-shot trajectories only pay their cost where branches genuinely
    depend on data.  ``allow_unroll=False`` forces trajectories (used by
    the benchmark to price the two strategies honestly).

    ``probabilities`` on the returned result are the empirical shot
    frequencies (a trajectory engine has no closed-form distribution).
    """
    from .density_matrix import run_circuit

    if allow_unroll:
        expanded = _expand(circuit)
        if not needs_feedforward(expanded):
            return run_circuit(expanded, noise_model=noise_model,
                               shots=shots, seed=seed,
                               error_scales=error_scales)
        target = expanded
    else:
        target = circuit
    if shots <= 0:
        raise ValueError(
            "per-shot feed-forward execution needs shots > 0 (there is "
            "no closed-form output distribution for data-dependent "
            "branches)")
    measured = written_clbits_of(target)
    if not measured:
        raise ValueError(
            "dynamic circuit has unresolved control flow but no "
            "measurements — nothing can feed the conditions")
    runner = _TrajectoryRunner(target, noise_model, error_scales or {},
                               np.random.default_rng(seed))
    counts = runner.run(shots, measured)
    probabilities = {k: v / shots for k, v in counts.items()}
    return SimulationResult(
        probabilities=probabilities,
        counts=counts,
        shots=shots,
        density_matrix=None,
        measured_clbits=measured,
    )


# ----------------------------------------------------------------------
# exact noiseless tree walk
# ----------------------------------------------------------------------
def _split_state(state: np.ndarray, qubit: int, n: int
                 ) -> List[Tuple[int, float, np.ndarray]]:
    """Project onto |0>/|1> of *qubit*: ``(outcome, prob, state)`` list."""
    branches: List[Tuple[int, float, np.ndarray]] = []
    for outcome in (0, 1):
        index = [slice(None)] * n
        index[qubit] = outcome
        amplitude = state[tuple(index)]
        prob = float(np.sum(np.abs(amplitude) ** 2))
        if prob <= _PRUNE:
            continue
        projected = np.zeros_like(state)
        projected[tuple(index)] = amplitude / np.sqrt(prob)
        branches.append((outcome, prob, projected))
    return branches


def dynamic_probabilities(circuit: QuantumCircuit) -> Dict[str, float]:
    """Exact noiseless output distribution of a dynamic circuit.

    Forks the statevector at every measurement and reset, weighting each
    branch by its Born probability and steering conditions with the
    branch's recorded clbits.  Key-string position *i* holds the clbit
    ``measured_clbits[i]`` in sorted order, matching the static path.
    """
    expanded = _expand(circuit)
    if not needs_feedforward(expanded) and not any(
            inst.name == "reset" for inst in expanded):
        from .statevector import ideal_probabilities

        return ideal_probabilities(expanded)
    circuit = expanded
    n = circuit.num_qubits
    measured = written_clbits_of(circuit)
    results: Dict[str, float] = {}

    def finish(state, bits, weight) -> None:
        key = "".join(str(bits.get(c, 0)) for c in measured)
        results[key] = results.get(key, 0.0) + weight

    def run_seq(instructions, i, state, bits, weight, cont) -> None:
        while i < len(instructions):
            inst = instructions[i]
            op = inst.gate
            if isinstance(op, IfElseOp):
                body = op.body_for(op.condition.evaluate(bits))
                if body is None:
                    i += 1
                    continue
                return run_seq(
                    body.instructions, 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if isinstance(op, ForLoopOp):
                unrolled = op.body.instructions * len(op.indexset)
                return run_seq(
                    unrolled, 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if isinstance(op, WhileLoopOp):
                return run_while(
                    op, 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if inst.name == "measure":
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                for outcome, prob, branch in _split_state(state, qubit, n):
                    if weight * prob <= _PRUNE:
                        continue
                    branch_bits = dict(bits)
                    branch_bits[clbit] = outcome
                    run_seq(instructions, i + 1, branch, branch_bits,
                            weight * prob, cont)
                return
            if inst.name == "reset":
                qubit = inst.qubits[0]
                for outcome, prob, branch in _split_state(state, qubit, n):
                    if weight * prob <= _PRUNE:
                        continue
                    if outcome == 1:
                        branch = apply_to_statevector(
                            branch, _X_MATRIX, (qubit,), n)
                    run_seq(instructions, i + 1, branch, dict(bits),
                            weight * prob, cont)
                return
            if inst.name in ("barrier", "delay"):
                i += 1
                continue
            state = apply_to_statevector(state, op.matrix(), inst.qubits,
                                         n)
            i += 1
        cont(state, bits, weight)

    def run_while(op, iterations, state, bits, weight, cont) -> None:
        if (iterations >= op.max_iterations
                or not op.condition.evaluate(bits)):
            return cont(state, bits, weight)
        run_seq(op.body.instructions, 0, state, bits, weight,
                lambda s, b, w: run_while(op, iterations + 1, s, b, w,
                                          cont))

    run_seq(circuit.instructions, 0, initial_state_tensor(n), {}, 1.0,
            finish)
    total = sum(results.values())
    if total > 0.0:
        results = {k: v / total for k, v in results.items()}
    return results
