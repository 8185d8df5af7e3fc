"""ALAP scheduling with explicit idle delays.

As-Late-As-Possible scheduling keeps qubits in the ground state as long as
possible (the discipline all the parallel-execution papers adopt).  This
pass materializes the schedule by inserting ``delay`` instructions into
the gaps between a qubit's consecutive operations, so the noisy simulator
charges T1/T2 decoherence exactly where a real device would.

Leading idle time (before a qubit's first gate) gets no delay: a qubit in
|0> is unaffected by amplitude or phase damping — which is precisely the
reason ALAP is preferred.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import Gate
from ..sim.executor import timed_intervals

__all__ = ["schedule_alap"]


def schedule_alap(circuit: QuantumCircuit,
                  gate_duration: Dict[str, float]) -> QuantumCircuit:
    """Insert idle ``delay`` instructions according to an ALAP schedule."""
    # timed_intervals in alap mode gives (start, end) counted from the
    # job end; convert to forward times.
    rev_intervals = timed_intervals(circuit, gate_duration, mode="alap")
    makespan = max((e for _, e in rev_intervals), default=0.0)
    forward: List[Tuple[float, float]] = [
        (makespan - e, makespan - s) for s, e in rev_intervals
    ]

    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    last_end: Dict[int, float] = {}
    started: Dict[int, bool] = {}
    for inst, (start, end) in zip(circuit.instructions, forward):
        for q in inst.qubits:
            if started.get(q):
                gap = start - last_end.get(q, 0.0)
                if gap > 1e-9:
                    out.delay(q, gap)
            last_end[q] = end
            if not inst.gate.is_directive or inst.name in ("measure",
                                                           "reset"):
                started[q] = True
            elif inst.name != "barrier":
                started[q] = True
        out._instructions.append(inst)  # noqa: SLF001
    return out
