"""The end-to-end benchmark's three closed-loop workloads.

A request is one ``backend.run(...)`` through the public service facade,
followed by ``job.result()``.  Every input is generated from the
workload seed before any timing starts; the service only ever sees the
generated circuits.

- ``fleet_stream`` — the paper's multi-programmed cloud queue: a 16-program
  heavy-tail Poisson stream scheduled onto a two-device fleet.  Only the
  8 Table II structures occur, so the compile cache serves reads.
- ``vqe_sweep`` — the paper's QuCP+PG scan (Sec. IV-C): 8 fresh angles x 2
  commuting groups run at once on the 65-qubit Manhattan.  Fresh angles
  make every program a compile-cache miss, so the cache takes writes.
- ``durable_small`` — one Table II circuit per job on a provider with a
  durable job store and a persistent compile cache: per-request fixed
  cost and SQLite writes dominate, and execution is always serial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.hardware import ibm_toronto
from repro.service import CloudBackend, QuantumProvider
from repro.vqe import (
    energy_from_distributions,
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
    vqe_energy_ideal,
)
from repro.workloads import all_workloads, synthesize_traffic

__all__ = ["Request", "Workload", "WORKLOADS", "MIN_REQUESTS",
           "make_requests", "vqe_energy_errors"]

#: Measured requests per repetition at the least, so that at least ten
#: latency samples lie beyond the reported 90th percentile.
MIN_REQUESTS = 100

_HAMILTONIAN = h2_hamiltonian()
_GROUPS = group_commuting_terms(_HAMILTONIAN)
_SUITE = sorted(all_workloads(), key=lambda w: w.name)


@dataclass(frozen=True)
class Request:
    """One generated request: what ``backend.run`` receives, and its seed."""

    payload: object
    num_programs: int
    seed: int
    #: The scanned angles (``vqe_sweep`` only), theta-major like the
    #: payload: circuit ``2k + g`` measures group ``g`` at ``thetas[k]``.
    thetas: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A named request shape and the service configuration it runs on."""

    name: str
    shots: int
    #: Requests sent after set-up and before the measured phase.
    warmup: int
    #: Nominal request rate on the reference host (2 cores); turns the
    #: measured seconds into a fixed request count, so both sides of a
    #: comparison do the same work whatever their speed.
    requests_per_s: float
    build: Callable[[np.random.Generator], Request]
    open: Callable[[str], Tuple[QuantumProvider, object]]

    def measured_requests(self, seconds: float) -> int:
        """Requests in a measured phase nominally *seconds* long."""
        return max(MIN_REQUESTS, round(seconds * self.requests_per_s))


def _run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


# ----------------------------------------------------------------------
# fleet_stream
# ----------------------------------------------------------------------

def _fleet_request(rng: np.random.Generator) -> Request:
    stream = synthesize_traffic(16, pattern="poisson",
                                mean_interarrival_ns=1e5, mix="heavy_tail",
                                seed=rng)
    return Request(stream, len(stream), _run_seed(rng))


def _fleet_open(workdir: str) -> Tuple[QuantumProvider, CloudBackend]:
    provider = QuantumProvider(job_history=64)
    return provider, provider.fleet_backend(
        [ibm_toronto(), ibm_toronto(seed=28)])


# ----------------------------------------------------------------------
# vqe_sweep
# ----------------------------------------------------------------------

def _vqe_request(rng: np.random.Generator) -> Request:
    thetas = tuple(float(t) for t in rng.uniform(-np.pi, np.pi, size=8))
    circuits = []
    for theta in thetas:
        ansatz = ryrz_ansatz([theta])
        circuits.extend(measurement_circuit(ansatz, g) for g in _GROUPS)
    return Request(circuits, len(circuits), _run_seed(rng), thetas)


def _vqe_open(workdir: str) -> Tuple[QuantumProvider, object]:
    provider = QuantumProvider(job_history=64)
    return provider, provider.simulator("ibm_manhattan")


def vqe_energy_errors(request: Request,
                      probabilities: List[Dict[str, float]]) -> List[float]:
    """|E(theta) - exact E(theta)| in Hartree for each scanned angle."""
    n = len(_GROUPS)
    return [
        abs(energy_from_distributions(_GROUPS,
                                      probabilities[k * n:(k + 1) * n])
            - vqe_energy_ideal(theta, _HAMILTONIAN))
        for k, theta in enumerate(request.thetas)
    ]


# ----------------------------------------------------------------------
# durable_small
# ----------------------------------------------------------------------

def _durable_request(rng: np.random.Generator) -> Request:
    circuit = _SUITE[int(rng.integers(len(_SUITE)))].circuit()
    return Request(circuit, 1, _run_seed(rng))


def _durable_open(workdir: str) -> Tuple[QuantumProvider, CloudBackend]:
    os.makedirs(workdir, exist_ok=True)
    provider = QuantumProvider(
        store_path=os.path.join(workdir, "jobs.sqlite"),
        cache_path=os.path.join(workdir, "cache.sqlite"),
        job_history=256)
    return provider, provider.backend("ibm_toronto")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fleet_stream", shots=2048, warmup=4, requests_per_s=8.0,
                 build=_fleet_request, open=_fleet_open),
        Workload("vqe_sweep", shots=2048, warmup=4, requests_per_s=12.0,
                 build=_vqe_request, open=_vqe_open),
        Workload("durable_small", shots=1024, warmup=16,
                 requests_per_s=90.0, build=_durable_request,
                 open=_durable_open),
    )
}


def make_requests(workload: Workload, seed: int, count: int
                  ) -> List[Request]:
    """*count* requests of *workload*, a pure function of *seed*."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([index, seed % (1 << 64)])
    return [workload.build(rng) for _ in range(count)]
