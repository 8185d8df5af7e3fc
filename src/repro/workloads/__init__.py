"""Benchmark workloads: the paper's Table II circuit suite plus
synthetic multi-user traffic generators for the cloud scheduler."""

from .dynamic import (
    DYNAMIC_SUITE,
    dynamic_circuit,
    dynamic_workload,
    dynamic_workload_names,
    dynamic_workloads,
)
from .suite import (
    ALIASES,
    TABLE_II,
    Workload,
    all_workloads,
    workload,
    workload_names,
)
from .traffic import (
    ARRIVAL_PATTERNS,
    CIRCUIT_MIXES,
    bursty_arrival_times,
    poisson_arrival_times,
    sample_workload_mix,
    synthesize_traffic,
    traffic_rate_sweep,
)

__all__ = [
    "ALIASES",
    "ARRIVAL_PATTERNS",
    "CIRCUIT_MIXES",
    "DYNAMIC_SUITE",
    "TABLE_II",
    "Workload",
    "all_workloads",
    "bursty_arrival_times",
    "dynamic_circuit",
    "dynamic_workload",
    "dynamic_workload_names",
    "dynamic_workloads",
    "poisson_arrival_times",
    "sample_workload_mix",
    "synthesize_traffic",
    "traffic_rate_sweep",
    "workload",
    "workload_names",
]
