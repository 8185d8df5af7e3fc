"""QAOA for MaxCut, with parallel angle-grid evaluation.

The paper's conclusion calls parallel circuit execution "a key enabler for
quantum algorithms requiring parallel sub-problem executions".  QAOA's
classical outer loop is exactly such an algorithm: every candidate
``(gamma, beta)`` angle pair needs an independent circuit evaluation, and
all of them fit on a large chip simultaneously.

Cost convention: for MaxCut on graph G,
``C(z) = sum_{(i,j) in E} w_ij * (1 - z_i z_j) / 2`` with ``z in {+1,-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "maxcut_cost",
    "expected_cut_value",
    "max_cut_value",
    "qaoa_circuit",
    "QAOAGridResult",
    "run_qaoa_grid_ideal",
    "run_qaoa_grid_parallel",
]


def _edge_weight(graph: nx.Graph, a: int, b: int) -> float:
    return float(graph.edges[a, b].get("weight", 1.0))


def maxcut_cost(bitstring: str, graph: nx.Graph) -> float:
    """Cut value of an assignment (character i = side of node i)."""
    total = 0.0
    for a, b in graph.edges:
        if bitstring[a] != bitstring[b]:
            total += _edge_weight(graph, a, b)
    return total


def expected_cut_value(probabilities: Mapping[str, float],
                       graph: nx.Graph) -> float:
    """Expected cut over a measured output distribution."""
    return sum(
        p * maxcut_cost(key, graph) for key, p in probabilities.items()
    )


def max_cut_value(graph: nx.Graph) -> float:
    """Exact MaxCut by brute force (graphs small enough to simulate)."""
    n = graph.number_of_nodes()
    best = 0.0
    for assignment in range(2 ** n):
        bits = format(assignment, f"0{n}b")
        best = max(best, maxcut_cost(bits, graph))
    return best


def qaoa_circuit(graph: nx.Graph, gammas: Sequence[float],
                 betas: Sequence[float]) -> QuantumCircuit:
    """Depth-p QAOA state preparation (p = len(gammas) = len(betas)).

    Cost layer: per edge, ``exp(+i gamma w/2 Z_i Z_j)`` (the constant
    offset is a global phase); mixer layer: ``RX(2 beta)`` on every
    qubit.
    """
    if len(gammas) != len(betas):
        raise ValueError("need one beta per gamma")
    nodes = sorted(graph.nodes)
    if nodes != list(range(len(nodes))):
        raise ValueError("graph nodes must be 0..n-1")
    n = len(nodes)
    qc = QuantumCircuit(n, name=f"qaoa_p{len(gammas)}")
    for q in range(n):
        qc.h(q)
    for gamma, beta in zip(gammas, betas):
        for a, b in sorted(graph.edges):
            qc.rzz(-gamma * _edge_weight(graph, a, b), a, b)
        for q in range(n):
            qc.rx(2.0 * beta, q)
    return qc


@dataclass
class QAOAGridResult:
    """Angle-grid evaluation outcome."""

    gammas: Tuple[float, ...]
    betas: Tuple[float, ...]
    expected_cuts: Tuple[float, ...]
    num_simultaneous: int
    throughput: float

    @property
    def best(self) -> Tuple[float, float, float]:
        """(gamma, beta, expected cut) of the best grid point."""
        idx = int(np.argmax(self.expected_cuts))
        return self.gammas[idx], self.betas[idx], self.expected_cuts[idx]

    def approximation_ratio(self, graph: nx.Graph) -> float:
        """Best expected cut / exact MaxCut."""
        return self.best[2] / max_cut_value(graph)


def _grid(resolution: int) -> List[Tuple[float, float]]:
    gammas = np.linspace(0.1, math.pi - 0.1, resolution)
    betas = np.linspace(0.1, math.pi / 2 - 0.05, resolution)
    return [(float(g), float(b)) for g in gammas for b in betas]


def run_qaoa_grid_ideal(graph: nx.Graph,
                        resolution: int = 4) -> QAOAGridResult:
    """Noiseless p=1 angle grid evaluation."""
    from ..sim.statevector import ideal_probabilities

    points = _grid(resolution)
    cuts = []
    for gamma, beta in points:
        qc = qaoa_circuit(graph, [gamma], [beta]).measure_all()
        cuts.append(expected_cut_value(ideal_probabilities(qc), graph))
    return QAOAGridResult(
        gammas=tuple(g for g, _ in points),
        betas=tuple(b for _, b in points),
        expected_cuts=tuple(cuts),
        num_simultaneous=1,
        throughput=0.0,
    )


def run_qaoa_grid_parallel(
    graph: nx.Graph,
    device,
    resolution: int = 4,
    shots: int = 4096,
    seed: Optional[int] = None,
    sigma: Optional[float] = None,
) -> QAOAGridResult:
    """Evaluate the whole p=1 angle grid in one parallel job via QuCP."""
    from ..core.executor import execute_allocation
    from ..core.qucp import DEFAULT_SIGMA, qucp_allocate

    sigma = DEFAULT_SIGMA if sigma is None else sigma
    points = _grid(resolution)
    circuits = [
        qaoa_circuit(graph, [g], [b]).measure_all() for g, b in points
    ]
    allocation = qucp_allocate(circuits, device, sigma=sigma)
    outcomes = execute_allocation(allocation, shots=shots, seed=seed)
    cuts = [
        expected_cut_value(out.result.probabilities, graph)
        for out in outcomes
    ]
    return QAOAGridResult(
        gammas=tuple(g for g, _ in points),
        betas=tuple(b for _, b in points),
        expected_cuts=tuple(cuts),
        num_simultaneous=len(circuits),
        throughput=allocation.throughput(),
    )
