"""SWAP-insertion routing.

Processes instructions in order, tracking the live logical->physical
layout.  When a 2q gate lands on non-adjacent physical qubits, SWAPs are
inserted along the most *reliable* shortest path (error-weighted Dijkstra
over the calibration data), moving one operand next to the other.

The emitted circuit is expressed over physical qubit indices; measurements
are remapped through the live layout at the point they occur.

Routing is two passes: :func:`plan_route` makes every decision (the
swaps before each instruction and the physical qubits it lands on) from
the circuit's skeleton alone, and :func:`emit_route` builds the routed
circuit from that plan and the circuit's own gates.  ``transpile()``
memoizes plans per device view, so fresh-angle circuits of one skeleton
replay a plan instead of walking paths again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import networkx as nx

from ..circuits.circuit import CircuitError, Instruction, QuantumCircuit
from ..circuits.gates import Gate, gate
from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap
from .context import DeviceContext, device_context
from .layout import Layout

__all__ = ["RoutePlan", "RoutedCircuit", "emit_route", "plan_route",
           "route_circuit"]


@dataclass
class RoutedCircuit:
    """Routing output: the physical circuit plus both layouts."""

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int


#: One instruction's routing: the swaps (physical pairs) emitted before
#: it and the physical qubits it lands on.
_Step = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]


@dataclass(frozen=True)
class RoutePlan:
    """What routing decided for a circuit, without its gate angles.

    ``steps[i]`` routes the circuit's ``i``-th instruction.  The plan
    reads each instruction's name, qubits and clbits only, so it serves
    every circuit of the same skeleton; :func:`emit_route` hands its
    layouts out as copies.
    """

    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    steps: Tuple[_Step, ...]


def plan_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout,
    context: DeviceContext,
) -> RoutePlan:
    """Decide the swaps and physical qubits of every instruction."""
    rel = context.reliability_graph
    layout = initial_layout.copy()
    # The input instructions are validated, the layout is injective and
    # swaps only exchange the coupling map's qubits, so once the initial
    # placement is on the device every instruction ``emit_route`` builds
    # is valid and skips ``append``.
    for p in layout.as_dict().values():
        if not 0 <= p < coupling.num_qubits:
            raise CircuitError(f"qubit index {p} out of range")
    steps: List[_Step] = []
    num_swaps = 0
    for inst in circuit:
        name, qubits = inst.name, inst.qubits
        swaps: Tuple[Tuple[int, int], ...] = ()
        if name == "barrier":
            phys = tuple(layout.physical(q) for q in qubits)
        elif name in ("reset", "delay"):
            phys = (layout.physical(qubits[0]),)
        elif name == "measure" or len(qubits) == 1:
            phys = (int(layout.physical(qubits[0])),)
        elif len(qubits) != 2:
            raise ValueError(
                f"route requires <=2q gates, got {name!r}; decompose "
                "first")
        else:
            pa, pb = (layout.physical(q) for q in qubits)
            if not coupling.is_edge(pa, pb):
                path = nx.shortest_path(rel, pa, pb, weight="weight")
                # Walk the first operand down the path until adjacent.
                walked = []
                for hop in path[1:-1]:
                    walked.append((int(path[0]), int(hop)))
                    layout.swap_physical(path[0], hop)
                    path[0] = hop
                swaps = tuple(walked)
                num_swaps += len(swaps)
                pa, pb = (layout.physical(q) for q in qubits)
                assert coupling.is_edge(pa, pb), "routing failed to converge"
            phys = (int(pa), int(pb))
        steps.append((swaps, phys))
    return RoutePlan(initial_layout.copy(), layout, num_swaps, tuple(steps))


def emit_route(circuit: QuantumCircuit, num_qubits: int,
               plan: RoutePlan) -> RoutedCircuit:
    """Build *circuit* routed by *plan* onto *num_qubits* physical qubits.

    *plan* must come from a circuit with *circuit*'s skeleton; the gates
    (and so the angles) are *circuit*'s own.
    """
    out = QuantumCircuit(num_qubits, circuit.num_clbits, circuit.name)
    emitted = out._instructions  # noqa: SLF001
    cx = gate("cx")
    measure = Gate("measure", 1)
    for inst, (swaps, phys) in zip(circuit, plan.steps):
        for a, b in swaps:
            emitted.append(Instruction(cx, (a, b)))
            emitted.append(Instruction(cx, (b, a)))
            emitted.append(Instruction(cx, (a, b)))
        name = inst.name
        if name == "barrier":
            out.barrier(*phys)
        elif name == "measure":
            emitted.append(Instruction(measure, phys,
                                       (int(inst.clbits[0]),)))
        elif name in ("reset", "delay"):
            emitted.append(Instruction(inst.gate, phys, inst.clbits))
        else:
            emitted.append(Instruction(inst.gate, phys))
    return RoutedCircuit(out, plan.initial_layout.copy(),
                         plan.final_layout.copy(), plan.num_swaps)


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
    return emit_route(circuit, coupling.num_qubits,
                      plan_route(circuit, coupling, initial_layout, context))
