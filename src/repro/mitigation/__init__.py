"""Quantum error mitigation (Sec. IV-D): digital zero-noise extrapolation
with random gate folding and the linear, polynomial and Richardson
extrapolation factories, plus tensored readout-error mitigation."""

from .factories import (
    LinearFactory,
    PolyFactory,
    RichardsonFactory,
    all_factories,
)
from .measurement import ReadoutMitigator, calibrate_readout
from .folding import fold_gates_at_random, folded_scale_factors
from .zne import (
    ZNEComparison,
    parity_expectation,
    run_zne_comparison,
    zero_noise_estimate,
)

__all__ = [
    "LinearFactory",
    "PolyFactory",
    "ReadoutMitigator",
    "RichardsonFactory",
    "ZNEComparison",
    "all_factories",
    "calibrate_readout",
    "fold_gates_at_random",
    "folded_scale_factors",
    "parity_expectation",
    "run_zne_comparison",
    "zero_noise_estimate",
]
