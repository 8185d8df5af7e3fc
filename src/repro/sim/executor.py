"""Parallel-job execution on a simulated device.

This is the "hardware access" layer of the reproduction.  A *job* is a set
of programs, each bound to a disjoint partition of physical qubits.  The
executor:

1. aligns the programs' gate layers in time (ALAP by default — programs
   finish together, as in the paper and in the Qiskit scheduler);
2. looks up, for every CX layer, which other partitions drive CXs in the
   same layer, and boosts the CX error by the device's *ground-truth*
   crosstalk factor for one-hop link pairs;
3. simulates each program on its own partition with the device
   calibration noise (per-partition density matrix — the physics couples
   only through the error rates, which is exactly the crosstalk model).

Under ``scheduling="asap"`` shorter programs idle *after* finishing and
accumulate T1/T2 decoherence — the effect ALAP exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import ControlFlowOp, has_control_flow
from ..hardware.devices import Device
from .density_matrix import SimulationResult, run_circuit
from .noise_model import NoiseModel
from .readout import SeedLike

__all__ = ["Program", "run_parallel", "program_duration",
           "prepare_parallel", "simulate_programs", "spawn_seeds"]

#: One program's simulation, fully determined: ``(circuit, partition,
#: seed, error_scales)``.
ProgramTask = Tuple[QuantumCircuit, Tuple[int, ...],
                    Optional[np.random.SeedSequence], Dict[int, float]]


@dataclass(frozen=True)
class Program:
    """A circuit bound to a partition of physical qubits.

    The circuit is expressed over *local* qubit indices ``0..k-1``;
    ``partition[i]`` is the physical qubit local index *i* runs on.
    """

    circuit: QuantumCircuit
    partition: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.circuit.num_qubits > len(self.partition):
            raise ValueError(
                f"circuit needs {self.circuit.num_qubits} qubits but the "
                f"partition has {len(self.partition)}")
        if len(set(self.partition)) != len(self.partition):
            raise ValueError("partition has duplicate physical qubits")

    def physical_edge(self, a: int, b: int) -> Tuple[int, int]:
        """Map a local qubit pair to the physical link it occupies."""
        pa, pb = self.partition[a], self.partition[b]
        return (pa, pb) if pa <= pb else (pb, pa)


def program_duration(circuit: QuantumCircuit,
                     gate_duration: Dict[str, float]) -> float:
    """Wall-clock makespan of *circuit* under ASAP scheduling.

    Computed from the same per-instruction timing as
    :func:`timed_intervals`, so ``delay`` instructions are priced at their
    actual ``params[0]`` duration (not the 35 ns fallback) and barriers
    take no time — ALAP/ASAP duration estimates agree with the schedule
    the crosstalk-overlap computation uses.
    """
    intervals = timed_intervals(circuit, gate_duration, mode="asap")
    return max((end for _, end in intervals), default=0.0)


def timed_intervals(
    circuit: QuantumCircuit,
    gate_duration: Dict[str, float],
    mode: str = "alap",
) -> List[Tuple[float, float]]:
    """Per-instruction ``(start, end)`` times in nanoseconds.

    Under ``mode="alap"`` times count **backwards from the common finish
    time** (0 = end of the job), which is the natural frame for parallel
    programs that finish together; under ``"asap"`` they count forward
    from the start.

    One pass: each instruction starts at the latest availability of its
    qubits and clbits (0 for none) and holds them until ``start + dur``;
    ALAP is the same pass over the reversed instruction list.  Every
    time is a sum of durations along one chain, added in instruction
    order, so the floats are reproducible bit for bit — the crosstalk
    scales of :func:`_crosstalk_scales` depend on them.
    """
    if mode == "asap":
        instructions = circuit.instructions
    elif mode == "alap":
        instructions = reversed(circuit.instructions)
    else:
        raise ValueError(f"unknown scheduling mode {mode!r}")
    avail: Dict[int, float] = {}
    cavail: Dict[int, float] = {}
    out: List[Tuple[float, float]] = []
    for inst in instructions:
        gate = inst.gate
        name = gate.name
        if isinstance(gate, ControlFlowOp):
            # A control-flow block occupies its whole qubit/clbit
            # footprint for its *worst-case* duration: the deepest
            # branch for if/else, iterations x body makespan for
            # loops.  That is the bound the scheduler must reserve.
            dur = gate.duration_bound(
                lambda body: program_duration(body, gate_duration))
        elif name == "barrier":
            dur = 0.0
        elif name == "delay":
            dur = float(gate.params[0])
        else:
            dur = gate_duration.get(name, 35.0)
        start = 0.0
        for q in inst.qubits:
            t = avail.get(q, 0.0)
            if t > start:
                start = t
        for c in inst.clbits:
            t = cavail.get(c, 0.0)
            if t > start:
                start = t
        end = start + dur
        for q in inst.qubits:
            avail[q] = end
        for c in inst.clbits:
            cavail[c] = end
        out.append((start, end))
    if mode == "alap":
        out.reverse()
    return out


def _crosstalk_scales(
    programs: Sequence[Program],
    device: Device,
    scheduling: str,
) -> List[Dict[int, float]]:
    """Per-program {instruction index: error scale} from the joint schedule.

    CX gates of different programs that *overlap in time* receive a
    multiplicative error boost given by the device's ground-truth
    crosstalk factor for their link pair, weighted by the fraction of the
    gate duration during which the aggressor is active.

    Victim *v* (one row per CX, in program then instruction order) gets
    ``prod_a 1 + (f(v, a) - 1) * min(overlap(v, a) / dur(v), 1)`` over
    every aggressor *a* of another program that overlaps it with
    ``f > 1``.  The terms are N x N arrays; every other pair's term is
    exactly 1.0, and each row is multiplied left to right in aggressor
    order by ``np.multiply.accumulate``.  That order is part of the
    result: float products are not associative, so reordering them
    (``np.prod`` promises no order) would change the scales' bits, and
    with them every noisy distribution.
    """
    durations = device.calibration.gate_duration
    # One row per CX: program, instruction index, start, end, link id.
    rows: List[Tuple[int, int, float, float, int]] = []
    links: Dict[Tuple[int, int], int] = {}
    for p_idx, prog in enumerate(programs):
        intervals = timed_intervals(prog.circuit, durations,
                                    mode=scheduling)
        for i_idx, (inst, (start, end)) in enumerate(zip(prog.circuit,
                                                         intervals)):
            if (len(inst.qubits) != 2 or inst.gate.is_directive
                    or isinstance(inst.gate, ControlFlowOp)):
                # Control-flow blocks are neither crosstalk aggressors
                # nor victims: their internal CX timing is shot-dependent
                # so the joint-schedule overlap model cannot place them.
                continue
            link = links.setdefault(prog.physical_edge(*inst.qubits),
                                    len(links))
            rows.append((p_idx, i_idx, start, end, link))

    scales: List[Dict[int, float]] = [dict() for _ in programs]
    if not rows:
        return scales
    # The batch's link-pair factors; absent pairs interfere with 1.0.
    table = np.ones((len(links), len(links)))
    for pair, factor in device.crosstalk.factors.items():
        ids = [links[edge] for edge in pair if edge in links]
        if len(ids) == 2:
            table[ids[0], ids[1]] = table[ids[1], ids[0]] = factor
    prog_of, _, start, end, link = (np.array(col) for col in zip(*rows))
    duration = np.maximum(end - start, 1e-9)
    overlap = np.minimum.outer(end, end)
    overlap -= np.maximum.outer(start, start)
    pair_factor = table[np.ix_(link, link)]
    quiet = np.equal.outer(prog_of, prog_of)
    quiet |= overlap <= 0.0
    quiet |= pair_factor <= 1.0
    # term = 1 + (f - 1) * min(overlap / duration, 1), in place.
    term = np.divide(overlap, duration[:, None], out=overlap)
    np.minimum(term, 1.0, out=term)
    pair_factor -= 1.0
    term *= pair_factor
    term += 1.0
    term[quiet] = 1.0
    # Left to right, as one `factor *= term` per aggressor; a 1.0 term
    # changes no bit.  Not np.prod: it promises no order.
    np.multiply.accumulate(term, axis=1, out=term)
    for r in np.flatnonzero(term[:, -1] > 1.0).tolist():
        p_idx, i_idx = rows[r][:2]
        scales[p_idx][i_idx] = float(term[r, -1])
    return scales


def _validate_program_edges(instructions, prog: Program,
                            device: Device) -> None:
    """Check every 2q gate — control-flow bodies included — is on a link."""
    for inst in instructions:
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                _validate_program_edges(body.instructions, prog, device)
            continue
        if inst.gate.is_directive or len(inst.qubits) != 2:
            continue
        edge = prog.physical_edge(*inst.qubits)
        if not device.coupling.is_edge(*edge):
            raise ValueError(
                f"2q gate on {edge} but the device has no such link")


def _with_trailing_idle(circuit: QuantumCircuit, idle_ns: float
                        ) -> QuantumCircuit:
    """Insert a pre-measurement delay on every qubit (ASAP penalty).

    Dynamic and mid-circuit-measurement circuits get the idle appended
    at the very end instead: moving a mid-circuit measure past the
    control flow (or the later gates) it feeds would change which
    branches run / what the bit reads.
    """
    if idle_ns <= 0:
        return circuit
    if has_control_flow(circuit) or circuit.has_midcircuit_measurement():
        out = circuit.copy()
        for q in range(circuit.num_qubits):
            out.delay(q, idle_ns)
        return out
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    measures = [inst for inst in circuit if inst.name == "measure"]
    for inst in circuit:
        if inst.name == "measure":
            continue
        out._instructions.append(inst)  # noqa: SLF001
    for q in range(circuit.num_qubits):
        out.delay(q, idle_ns)
    for inst in measures:
        out._instructions.append(inst)  # noqa: SLF001
    return out


def spawn_seeds(seed: SeedLike,
                count: int) -> List[Optional[np.random.SeedSequence]]:
    """Derive *count* independent RNG streams from one base seed.

    Accepts an int or an existing :class:`numpy.random.SeedSequence` and
    spawns statistically-independent children, one per program — shot
    sampling of co-scheduled programs must not share a stream, or their
    multinomial draws correlate.  ``None`` stays ``None`` (fresh OS
    entropy per program).

    A caller-supplied SeedSequence is never mutated (``spawn`` advances
    its child counter): children are derived from a private namespace
    under it, so the same object yields the same streams on every call
    and stays usable for the caller's own spawning.
    """
    if seed is None:
        return [None] * count
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=tuple(seed.spawn_key) + (0x9E3779B9,))
    else:
        base = np.random.SeedSequence(seed)
    return list(base.spawn(count))


def prepare_parallel(
    programs: Sequence[Program],
    device: Device,
    scheduling: str = "alap",
    include_crosstalk: bool = True,
    noisy: bool = True,
) -> Tuple[List[Program], List[Dict[int, float]]]:
    """The joint (cross-program) half of :func:`run_parallel`.

    Validates the partitions, applies the ASAP trailing-idle padding,
    and computes the per-program crosstalk error scales from the joint
    schedule.  Returns ``(effective_programs, error_scales)`` — after
    this point each program's simulation depends only on its own
    ``(circuit, partition, seed, scales)`` tuple, which is what lets
    :class:`~repro.core.execution_service.ExecutionService` memoize the
    per-program work without changing a single bit of the output.
    """
    seen: set = set()
    for prog in programs:
        overlap = seen & set(prog.partition)
        if overlap:
            raise ValueError(f"partitions overlap on qubits {sorted(overlap)}")
        seen.update(prog.partition)
        _validate_program_edges(prog.circuit.instructions, prog, device)

    durations = device.calibration.gate_duration
    # Under ASAP, pad shorter programs with trailing idle (decoherence)
    # *before* computing crosstalk scales so instruction indices agree.
    effective = list(programs)
    if scheduling == "asap" and noisy and len(programs) > 1:
        spans = [program_duration(p.circuit, durations) for p in programs]
        total_duration = max(spans)
        effective = [
            Program(_with_trailing_idle(prog.circuit, total_duration - span),
                    prog.partition)
            for prog, span in zip(programs, spans)]

    if include_crosstalk and noisy and len(programs) > 1:
        scales = _crosstalk_scales(effective, device, scheduling)
    else:
        scales = [dict() for _ in effective]
    return effective, scales


def simulate_programs(tasks: Iterable[ProgramTask],
                      noise: Optional[NoiseModel],
                      shots: int) -> List[SimulationResult]:
    """The per-program half of :func:`run_parallel`.

    Simulates each task on its own partition under *noise* — the full
    device model, restricted to the partition here (``None`` = ideal).
    :func:`run_parallel` and
    :class:`~repro.core.execution_service.ExecutionService` both run
    this one loop, which is what keeps their results bit-identical.
    """
    results: List[SimulationResult] = []
    for circuit, partition, seed, scales in tasks:
        restricted = None if noise is None else noise.restricted(partition)
        results.append(
            run_circuit(circuit, noise_model=restricted, shots=shots,
                        seed=seed, error_scales=scales))
    return results


def run_parallel(
    programs: Sequence[Program],
    device: Device,
    shots: int = 4096,
    seed: SeedLike = None,
    scheduling: str = "alap",
    include_crosstalk: bool = True,
    noisy: bool = True,
) -> List[SimulationResult]:
    """Execute *programs* simultaneously on *device* and return results.

    Partitions must be pairwise disjoint.  With ``noisy=False`` this is an
    ideal run (useful for reference distributions).  The joint crosstalk
    schedule is computed once for the whole job; *seed* (int or
    :class:`numpy.random.SeedSequence`) is spawned into independent
    per-program child streams so co-scheduled programs sample
    independently.
    """
    effective, scales = prepare_parallel(
        programs, device, scheduling=scheduling,
        include_crosstalk=include_crosstalk, noisy=noisy)
    seeds = spawn_seeds(seed, len(effective))
    tasks = [(prog.circuit, prog.partition, seeds[k], scales[k])
             for k, prog in enumerate(effective)]
    return simulate_programs(tasks, device.noise_model() if noisy else None,
                             shots)
