"""Noise-aware transpiler: basis decomposition, HA-style initial mapping,
reliability-weighted (or SABRE) routing, gate optimization, ALAP
scheduling and one dynamical-decoupling pass (`insert_dd_sequences`),
with device-invariant tables and compile plans memoized per
:class:`DeviceContext`."""

from .dd import DD_STRATEGIES, insert_dd_sequences, stagger_offsets
from .basis import decompose_oneq_gate, decompose_to_basis, zyz_angles
from .controlflow import (expand_control_flow, is_statically_resolvable,
                          transpile_dynamic)
from .context import (
    DeviceContext,
    context_cache_stats,
    device_context,
    edge_reliability_weight,
    reset_context_cache,
)
from .layout import Layout
from .mapping import interaction_counts, layout_cost, noise_aware_layout
from .optimize import (cancel_adjacent_pairs, combine_adjacent_delays,
                       fuse_oneq_runs, optimize_circuit)
from .routing import RoutedCircuit, route_circuit
from .sabre import sabre_route
from .schedule import schedule_alap
from .transpile import (
    TranspileResult,
    transpile,
    transpile_for_partition,
)

__all__ = [
    "DD_STRATEGIES",
    "DeviceContext",
    "Layout",
    "RoutedCircuit",
    "TranspileResult",
    "cancel_adjacent_pairs",
    "combine_adjacent_delays",
    "context_cache_stats",
    "decompose_oneq_gate",
    "decompose_to_basis",
    "device_context",
    "edge_reliability_weight",
    "expand_control_flow",
    "fuse_oneq_runs",
    "insert_dd_sequences",
    "is_statically_resolvable",
    "interaction_counts",
    "layout_cost",
    "noise_aware_layout",
    "optimize_circuit",
    "reset_context_cache",
    "route_circuit",
    "sabre_route",
    "schedule_alap",
    "stagger_offsets",
    "transpile",
    "transpile_dynamic",
    "transpile_for_partition",
]
