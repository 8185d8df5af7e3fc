"""Dynamical decoupling pass (paper ref. [23], Souza et al.).

Long idle windows accumulate coherent phase drift from residual qubit
detuning.  The XX decoupling sequence splits an idle window into

    delay(t/4)  X  delay(t/2)  X  delay(t/4)

whose net unitary is the identity while the detuning phase acquired in the
middle segment is *echoed* against the outer segments
(``X RZ(theta) X = RZ(-theta)``: t/4 - t/2 + t/4 = 0).  T1 relaxation is
not cancelled (it cannot be), and each inserted X costs its own gate
error — so DD pays off only on windows long enough that drift dominates.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..circuits.circuit import QuantumCircuit
from ..hardware.topology import CouplingMap

__all__ = ["insert_dd_sequences", "stagger_offsets", "DD_STRATEGIES"]

#: Idle windows shorter than this many X-gate durations are left alone —
#: the two inserted gates would cost more error than the echo saves.
_MIN_WINDOW_X_DURATIONS = 8.0


#: Supported pulse trains.  ``xx``/``cpmg`` are the 2-pulse echo (CPMG
#: spacing tau/4, tau/2, tau/4); ``xy4`` alternates X and Y pulses, which
#: additionally refocuses pulse-axis errors (XYXY = -I, a global phase).
DD_STRATEGIES = ("xx", "cpmg", "xy4")

_PULSES: Dict[str, Sequence[str]] = {
    "xx": ("x", "x"),
    "cpmg": ("x", "x"),
    "xy4": ("x", "y", "x", "y"),
}

#: Idle-time fractions of the delay segments between (and around) the
#: pulses.  Alternating-sign sums are zero, so the detuning echo survives
#: shifting the whole train by ``s`` (first segment +s, last -s):
#: xx/cpmg: +1/4+s - 1/2 + 1/4-s = 0;  xy4: +1/8+s -1/4 +1/4 -1/4 +1/8-s = 0.
_SEGMENTS: Dict[str, Sequence[float]] = {
    "xx": (0.25, 0.5, 0.25),
    "cpmg": (0.25, 0.5, 0.25),
    "xy4": (0.125, 0.25, 0.25, 0.25, 0.125),
}


def stagger_offsets(coupling: Optional[CouplingMap],
                    num_qubits: int) -> Dict[int, int]:
    """Greedy coupling-graph coloring: per-qubit stagger slot.

    Coupled qubits get different colors, so their DD pulses — shifted by
    ``color x pulse-duration`` — never fire simultaneously and cannot
    add coherent crosstalk kicks on the shared link.  Without a coupling
    map every qubit sits in slot 0 (no stagger).
    """
    if coupling is None:
        return {q: 0 for q in range(num_qubits)}
    colors: Dict[int, int] = {}
    for q in range(num_qubits):
        taken = {colors[nbr] for nbr in coupling.neighbors(q)
                 if nbr in colors}
        color = 0
        while color in taken:
            color += 1
        colors[q] = color
    return colors


def insert_dd_sequences(
    circuit: QuantumCircuit,
    gate_duration: Optional[Dict[str, float]] = None,
    strategy: str = "xx",
    coupling: Optional[CouplingMap] = None,
    min_window: Optional[float] = None,
) -> QuantumCircuit:
    """Replace long delays with stagger-offset DD trains.

    *strategy* names one of :data:`DD_STRATEGIES`.  Windows shorter
    than *min_window* (ns; default ``8 x duration(x)``) are left alone,
    and each train is carved out of its window's idle time, so the total
    duration is conserved.  When *coupling* is given, each qubit's pulse
    train is shifted later by its graph-coloring slot x one X duration
    so pulses on coupled qubits don't collide; the shift moves idle time
    from the trailing segment to the leading one, which keeps both the
    total duration and the echo cancellation exact.  Delays inside
    control-flow bodies are untouched (their windows are
    data-dependent).
    """
    if strategy not in DD_STRATEGIES:
        raise ValueError(
            f"unknown DD strategy {strategy!r}; choose from "
            f"{DD_STRATEGIES}")
    gate_duration = gate_duration or {}
    x_duration = gate_duration.get("x", 35.0)
    threshold = min_window if min_window is not None \
        else _MIN_WINDOW_X_DURATIONS * x_duration
    offsets = stagger_offsets(coupling, circuit.num_qubits)
    pulses = _PULSES[strategy]
    pulse_time = sum(gate_duration.get(p, 35.0) for p in pulses)

    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    for inst in circuit:
        if inst.name != "delay":
            out._instructions.append(inst)  # noqa: SLF001
            continue
        total = float(inst.params[0])
        q = inst.qubits[0]
        idle = total - pulse_time
        if total < threshold or idle <= 0:
            out._instructions.append(inst)  # noqa: SLF001
            continue
        segments = [frac * idle for frac in _SEGMENTS[strategy]]
        shift = min(offsets.get(q, 0) * x_duration,
                    max(segments[-1], 0.0))
        segments[0] += shift
        segments[-1] -= shift
        for k, pulse in enumerate(pulses):
            if segments[k] > 1e-12:
                out.delay(q, segments[k])
            out._add(pulse, [q])
        if segments[-1] > 1e-12:
            out.delay(q, segments[-1])
    return out
