"""repro — reproduction of "How Parallel Circuit Execution Can Be Useful
for NISQ Computing?" (Niu & Todri-Sanial, DATE 2022).

The package implements, from scratch:

- a quantum-circuit IR with control flow (:mod:`repro.circuits`)
- ideal and noisy (density-matrix) simulators (:mod:`repro.sim`)
- synthetic IBM-style devices with calibration data and a ground-truth
  crosstalk model (:mod:`repro.hardware`)
- randomized benchmarking / simultaneous RB and state tomography
  (:mod:`repro.characterization`)
- a noise-aware transpiler with ALAP scheduling (:mod:`repro.transpiler`)
- a layered compile cache: in-memory LRU tiers and a SQLite WAL
  persistent store, keyed by each circuit's structural fingerprint
  (:mod:`repro.cache`)
- the paper's contribution — QuCP crosstalk-aware parallel workload
  execution — plus the QuMC / CNA / MultiQC / QuCloud baselines
  (:mod:`repro.core`)
- the Table II benchmark suite (:mod:`repro.workloads`)
- VQE with Pauli grouping (:mod:`repro.vqe`) and digital ZNE error
  mitigation (:mod:`repro.mitigation`)
- the provider/backend/job service facade — the primary public API
  (:mod:`repro.service`)::

      import repro

      backend = repro.provider().backend("ibm_toronto")
      result = backend.run(circuits, shots=4096, seed=7).result()
"""

__version__ = "1.1.0"

from . import (
    cache,
    characterization,
    circuits,
    core,
    hardware,
    mitigation,
    service,
    sim,
    transpiler,
    vqe,
    workloads,
)
from .service import QuantumProvider, provider

__all__ = [
    "QuantumProvider",
    "__version__",
    "cache",
    "characterization",
    "circuits",
    "core",
    "hardware",
    "mitigation",
    "provider",
    "service",
    "sim",
    "transpiler",
    "vqe",
    "workloads",
]
