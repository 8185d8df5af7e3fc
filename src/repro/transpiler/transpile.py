"""The transpile() entry point.

Pipeline (mirroring the passes the paper relies on in Qiskit):

1. decompose to {rz, sx, x, cx};
2. noise-aware initial mapping (HA heuristic, ref. [18]);
3. reliability-weighted SWAP routing;
4. gate optimization (levels 0–3, paper uses 3);
5. optional ALAP scheduling with explicit idle delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import has_control_flow
from ..hardware.calibration import Calibration
from ..hardware.devices import Device
from ..hardware.topology import CouplingMap
from .basis import decompose_to_basis
from .context import DeviceContext, device_context
from .controlflow import expand_control_flow, transpile_dynamic
from .dd import insert_dd_sequences
from .layout import Layout
from .mapping import noise_aware_layout
from .optimize import combine_adjacent_delays, optimize_circuit
from .routing import emit_route, plan_route, route_circuit
from .schedule import emit_alap, plan_alap

__all__ = ["TranspileResult", "transpile", "transpile_for_partition"]


@dataclass
class TranspileResult:
    """Transpilation output.

    ``circuit`` is expressed over the coupling map's physical indices;
    ``initial_layout``/``final_layout`` map logical -> physical.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int


def transpile(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional[Calibration] = None,
    optimization_level: int = 3,
    initial_layout: Optional[Layout] = None,
    schedule: bool = False,
    seed: int = 0,
    router: str = "basic",
    context: Optional[DeviceContext] = None,
    dd: Optional[str] = None,
) -> TranspileResult:
    """Compile *circuit* for a device described by *coupling*.

    *router* selects the SWAP-insertion strategy: ``"basic"`` (shortest
    reliability path) or ``"sabre"`` (lookahead scoring).  *context* is
    the cached compilation context for ``(coupling, calibration)``;
    when omitted the shared registry supplies it, so repeated calls on
    one device never rebuild the distance tables.

    Control-flow circuits are statically unrolled first; what stays
    data-dependent after :func:`expand_control_flow` is compiled by the
    routing-free dynamic pipeline (:func:`transpile_dynamic`).

    *dd* optionally names a dynamical-decoupling strategy (``"xx"``,
    ``"cpmg"``, ``"xy4"``) inserted into scheduled idle windows, with
    pulse trains staggered across coupled qubits; it requires
    ``schedule=True`` and a calibration.

    The ALAP decisions, and with the basic router and no
    *initial_layout* the layout and routing decisions too, come from
    plans memoized on *context* (:meth:`DeviceContext.plan`), keyed by
    everything they read but the context itself; none reads a gate
    angle, so fresh-angle circuits of one skeleton compile
    bit-identically without repeating them.
    """
    if not 0 <= optimization_level <= 3:
        raise ValueError("optimization_level must be 0..3")
    if context is None:
        context = device_context(coupling, calibration)
    if has_control_flow(circuit):
        expanded = expand_control_flow(circuit)
        if has_control_flow(expanded):
            return transpile_dynamic(
                expanded, coupling, calibration,
                optimization_level=optimization_level, schedule=schedule,
                seed=seed, context=context)
        circuit = expanded
    basis = decompose_to_basis(circuit)
    if router == "basic" and initial_layout is None:
        # The default path memoizes its layout and routing on the
        # context; the plan reads only its key and the context's own
        # device view.
        plan = context.plan(_route_key(basis, seed), lambda: plan_route(
            basis, context.coupling,
            noise_aware_layout(basis, context.coupling,
                               context.calibration, seed=seed,
                               context=context),
            context))
        routed = emit_route(basis, context.coupling.num_qubits, plan)
    else:
        if initial_layout is None:
            initial_layout = noise_aware_layout(
                basis, coupling, calibration, seed=seed, context=context)
        if router == "basic":
            routed = route_circuit(basis, coupling, initial_layout,
                                   calibration, context=context)
        elif router == "sabre":
            from .sabre import sabre_route

            routed = sabre_route(basis, coupling, initial_layout,
                                 calibration, context=context)
        else:
            raise ValueError(f"unknown router {router!r}")
    optimized = optimize_circuit(routed.circuit, optimization_level)
    if schedule and calibration is not None:
        durations = calibration.gate_duration
        delays = context.plan(_alap_key(optimized, durations),
                              lambda: plan_alap(optimized, durations))
        optimized = emit_alap(optimized, delays)
        if dd is not None:
            optimized = insert_dd_sequences(
                optimized, calibration.gate_duration, strategy=dd,
                coupling=coupling)
        if optimization_level >= 1:
            optimized = combine_adjacent_delays(optimized)
    elif dd is not None:
        raise ValueError(
            "dd requires schedule=True and a calibration (DD fills "
            "scheduled idle windows)")
    return TranspileResult(
        circuit=optimized,
        initial_layout=routed.initial_layout,
        final_layout=routed.final_layout,
        num_swaps=routed.num_swaps,
    )


def _skeleton(circuit: QuantumCircuit) -> Tuple:
    """Each instruction's name, qubits and clbits: the circuit without
    its gate parameters."""
    return tuple([(i.gate.name, i.qubits, i.clbits) for i in circuit])


def _route_key(basis: QuantumCircuit, seed: int) -> Tuple:
    """What the layout search and the router read of a basis circuit
    (the greedy layout also reads the seed)."""
    return ("route", _skeleton(basis), basis.num_qubits, basis.num_clbits,
            seed)


def _alap_key(circuit: QuantumCircuit,
              durations: Dict[str, float]) -> Tuple:
    """What the ALAP timing pass reads of a control-flow-free circuit."""
    delays = tuple([i.gate.params for i in circuit
                    if i.gate.name == "delay"])
    return ("alap", _skeleton(circuit), delays, tuple(durations.items()))


def transpile_for_partition(
    circuit: QuantumCircuit,
    device: Device,
    partition: Sequence[int],
    optimization_level: int = 3,
    schedule: bool = True,
    seed: int = 0,
    context: Optional[DeviceContext] = None,
    dd: Optional[str] = None,
) -> TranspileResult:
    """Compile *circuit* onto a specific partition of *device*.

    The output circuit uses partition-local indices and is ready to wrap
    in :class:`repro.sim.executor.Program` with this partition.

    *context* is the **device-level** compilation context (fetched from
    the shared registry when omitted); the partition-induced coupling,
    calibration, and distance tables come from its memoized
    :meth:`~DeviceContext.partition_context`, so a repeated partition
    costs a dictionary hit instead of a rebuild.
    """
    if context is None:
        context = device_context(device.coupling, device.calibration)
    sub = context.partition_context(tuple(int(q) for q in partition))
    return transpile(circuit, sub.coupling, sub.calibration,
                     optimization_level=optimization_level,
                     schedule=schedule, seed=seed, context=sub, dd=dd)
