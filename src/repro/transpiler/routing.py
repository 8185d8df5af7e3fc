"""SWAP-insertion routing.

Processes instructions in order, tracking the live logical->physical
layout.  When a 2q gate lands on non-adjacent physical qubits, SWAPs are
inserted along the most *reliable* shortest path (error-weighted Dijkstra
over the calibration data), moving one operand next to the other.

The emitted circuit is expressed over physical qubit indices; measurements
are remapped through the live layout at the point they occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..circuits.circuit import CircuitError, Instruction, QuantumCircuit
from ..circuits.gates import Gate, gate
from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap
from .context import DeviceContext, device_context
from .layout import Layout

__all__ = ["RoutedCircuit", "route_circuit"]


@dataclass
class RoutedCircuit:
    """Routing output: the physical circuit plus both layouts."""

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout,
    calibration: Optional[Calibration] = None,
    context: Optional[DeviceContext] = None,
) -> RoutedCircuit:
    """Make *circuit* executable on *coupling* starting from a layout.

    *context* supplies the cached reliability graph; when omitted it is
    fetched from the shared context registry.
    """
    if context is None:
        context = device_context(coupling, calibration)
    rel = context.reliability_graph
    layout = initial_layout.copy()
    # The input instructions are validated, the layout is injective and
    # swaps only exchange the coupling map's qubits, so once the initial
    # placement is on the device every emitted instruction is valid and
    # skips ``append``.
    for p in layout.as_dict().values():
        if not 0 <= p < coupling.num_qubits:
            raise CircuitError(f"qubit index {p} out of range")
    out = QuantumCircuit(coupling.num_qubits, circuit.num_clbits,
                         circuit.name)
    emitted = out._instructions  # noqa: SLF001
    cx = gate("cx")
    measure = Gate("measure", 1)
    num_swaps = 0

    def emit_swap(p1: int, p2: int) -> None:
        nonlocal num_swaps
        a, b = int(p1), int(p2)
        emitted.append(Instruction(cx, (a, b)))
        emitted.append(Instruction(cx, (b, a)))
        emitted.append(Instruction(cx, (a, b)))
        layout.swap_physical(p1, p2)
        num_swaps += 1

    for inst in circuit:
        if inst.name == "barrier":
            phys = tuple(layout.physical(q) for q in inst.qubits)
            out.barrier(*phys)
            continue
        if inst.name == "measure":
            emitted.append(Instruction(
                measure, (int(layout.physical(inst.qubits[0])),),
                (int(inst.clbits[0]),)))
            continue
        if inst.name in ("reset", "delay"):
            phys = (layout.physical(inst.qubits[0]),)
            emitted.append(Instruction(inst.gate, phys, inst.clbits))
            continue
        if len(inst.qubits) == 1:
            emitted.append(Instruction(
                inst.gate, (int(layout.physical(inst.qubits[0])),)))
            continue
        if len(inst.qubits) != 2:
            raise ValueError(
                f"route requires <=2q gates, got {inst.name!r}; decompose "
                "first")
        pa, pb = (layout.physical(q) for q in inst.qubits)
        if not coupling.is_edge(pa, pb):
            path = nx.shortest_path(rel, pa, pb, weight="weight")
            # Walk the first operand down the path until adjacent.
            for hop in path[1:-1]:
                emit_swap(path[0], hop)
                path[0] = hop
            pa, pb = (layout.physical(q) for q in inst.qubits)
            assert coupling.is_edge(pa, pb), "routing failed to converge"
        emitted.append(Instruction(inst.gate, (int(pa), int(pb))))
    return RoutedCircuit(out, initial_layout.copy(), layout, num_swaps)
