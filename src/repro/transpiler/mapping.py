"""Noise-aware initial mapping (the HA-style heuristic of ref. [18]).

Scores candidate layouts with the calibration data: CX-error-weighted
distance between interacting logical qubits plus the readout error of the
chosen physical qubits.  Partitions in parallel circuit execution are
small (3–7 qubits), so an exhaustive permutation search is affordable
there; larger circuits fall back to a greedy interaction-driven placement.

The exhaustive search is vectorized: all ``P(n_physical, n_logical)``
placements are materialized once per shape (memoized) as one integer
array and scored in a handful of numpy gathers over the
:class:`~repro.transpiler.context.DeviceContext`'s cached
reliability-distance matrix and readout-error vector.  The permutation
space is pruned with the circuit interaction graph: placements are
admitted in escalating hop-budget rounds (only those whose interacting
pairs all land within the budget), and the search stops as soon as the
running best is certified optimal against an admissible lower bound on
every not-yet-scored placement.  The historical scalar loop survives as
``search_mode="reference"`` — the oracle of the randomized
argmin-equivalence suite.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap
from .context import DeviceContext, device_context
from .layout import Layout

__all__ = ["interaction_counts", "layout_cost", "noise_aware_layout"]

#: Above this many qubits the exhaustive permutation search is skipped.
#: Raised from 6 to 7: the vectorized search scores all P(7, k) <= 5040
#: placements faster than the old scalar loop handled P(6, k).
_EXHAUSTIVE_LIMIT = 7

_SEARCH_MODES = ("auto", "vectorized", "reference")


def interaction_counts(circuit: QuantumCircuit) -> Dict[Tuple[int, int], int]:
    """Number of 2q gates per (sorted) logical qubit pair."""
    counts: Dict[Tuple[int, int], int] = {}
    for inst in circuit:
        if inst.gate.is_directive or len(inst.qubits) != 2:
            continue
        a, b = sorted(inst.qubits)
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def layout_cost(
    layout: Layout,
    interactions: Dict[Tuple[int, int], int],
    rel_dist: Dict[int, Dict[int, float]],
    calibration: Optional[Calibration],
    measured_logicals: Sequence[int] = (),
) -> float:
    """Estimated error cost of a layout (lower is better).

    Measured logicals absent from *layout* (a measure-only qubit beyond
    the placed set) contribute nothing instead of raising.
    """
    cost = 0.0
    for (a, b), count in interactions.items():
        pa, pb = layout.physical(a), layout.physical(b)
        cost += count * rel_dist[pa].get(pb, 1e9)
    if calibration is not None:
        for logical in measured_logicals:
            if logical not in layout:
                continue
            p01, p10 = calibration.readout_error[layout.physical(logical)]
            cost += 0.5 * (p01 + p10)
    return cost


@lru_cache(maxsize=64)
def _permutation_table(n_physical: int, n_logical: int) -> np.ndarray:
    """All ``P(n_physical, n_logical)`` placements as one readonly int
    array, row ``m`` being the ``m``-th ``itertools.permutations`` tuple
    (the exact order the scalar reference loop visits)."""
    table = np.fromiter(
        itertools.chain.from_iterable(
            itertools.permutations(range(n_physical), n_logical)),
        dtype=np.intp,
    ).reshape(-1, n_logical)
    table.setflags(write=False)
    return table


def _vectorized_exhaustive(
    interactions: Dict[Tuple[int, int], int],
    measured: Sequence[int],
    context: DeviceContext,
    n_logical: int,
) -> Layout:
    """Argmin of :func:`layout_cost` over every placement, vectorized.

    Scoring is one gather per interaction pair over the cached
    reliability matrix plus a matmul with the interaction counts, and a
    readout gather over the measured columns.  Placements are admitted
    in rounds of increasing interaction hop budget; each round either
    improves the incumbent or certifies it against the admissible bound
    ``w_min * (sum_counts + min_count * budget) + readout_lb``, which
    lower-bounds every placement still outside the budget (some pair
    sits at ``> budget`` hops, every pair at ``>= 1`` hop, and
    ``reliability >= hops * min_edge_weight``).
    """
    n_physical = context.coupling.num_qubits
    perms = _permutation_table(n_physical, n_logical)
    readout = context.readout_vector
    measured_cols = [l for l in measured if l < n_logical]
    if measured_cols:
        readout_cost = readout[perms[:, measured_cols]].sum(axis=1)
    else:
        readout_cost = np.zeros(len(perms), dtype=np.float64)

    if not interactions:
        best = int(np.argmin(readout_cost))
        return Layout.from_sequence(tuple(int(p) for p in perms[best]))

    pairs = np.array(sorted(interactions), dtype=np.intp)
    counts = np.array([interactions[(a, b)] for a, b in pairs],
                      dtype=np.float64)
    phys_a = perms[:, pairs[:, 0]]
    phys_b = perms[:, pairs[:, 1]]
    # The cheap hop gather drives pruning; the reliability gather (plus
    # the count matmul) only ever runs on admitted rows.
    pair_hops = context.hop_matrix[phys_a, phys_b].max(axis=1)
    rel = context.reliability_matrix

    w_min = context.min_edge_weight
    total_count = float(counts.sum())
    min_count = float(counts.min())
    readout_lb = float(readout.min()) * len(measured_cols)

    best_cost = math.inf
    best_index = -1
    for budget in np.unique(pair_hops):
        admitted = np.flatnonzero(pair_hops == budget)
        if admitted.size:
            cost = rel[phys_a[admitted], phys_b[admitted]] @ counts
            cost += readout_cost[admitted]
            round_best = int(np.argmin(cost))
            if cost[round_best] < best_cost:
                best_cost = float(cost[round_best])
                best_index = int(admitted[round_best])
        bound = w_min * (total_count + min_count * float(budget)) \
            + readout_lb
        if best_index >= 0 and best_cost <= bound:
            break
    assert best_index >= 0
    return Layout.from_sequence(tuple(int(p) for p in perms[best_index]))


def _reference_exhaustive(
    interactions: Dict[Tuple[int, int], int],
    measured: Sequence[int],
    rel_dist: Dict[int, Dict[int, float]],
    calibration: Optional[Calibration],
    n_physical: int,
    n_logical: int,
) -> Layout:
    """The historical scalar permutation loop (equivalence oracle)."""
    best_layout: Optional[Layout] = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n_physical), n_logical):
        layout = Layout.from_sequence(perm)
        cost = layout_cost(layout, interactions, rel_dist,
                           calibration, measured)
        if cost < best_cost:
            best_cost = cost
            best_layout = layout
    assert best_layout is not None
    return best_layout


def noise_aware_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
    context: Optional[DeviceContext] = None,
    search_mode: str = "auto",
) -> Layout:
    """Pick an initial layout minimizing :func:`layout_cost`.

    Exhaustive over physical-qubit permutations when the device is small
    (partition transpilation), greedy interaction-first placement
    otherwise.  *context* supplies the cached reliability-distance table;
    when omitted it is fetched from the shared context registry.

    *search_mode* selects the exhaustive engine: ``"auto"`` /
    ``"vectorized"`` run the pruned numpy search, ``"reference"`` the
    scalar seed loop (kept as the equivalence oracle — both return a
    cost-minimal layout, though FP-tie winners may differ).
    """
    if search_mode not in _SEARCH_MODES:
        raise ValueError(
            f"unknown search_mode {search_mode!r}; "
            f"choose from {_SEARCH_MODES}")
    n_logical = circuit.num_qubits
    n_physical = coupling.num_qubits
    if n_logical > n_physical:
        raise ValueError(
            f"circuit needs {n_logical} qubits, device has {n_physical}")
    if n_logical == 0:
        # The empty placement, exactly what the scalar loop returned for
        # the single empty permutation (np.fromiter cannot build the
        # 1x0 table).
        return Layout({})
    interactions = interaction_counts(circuit)
    measured = sorted({
        inst.qubits[0] for inst in circuit if inst.name == "measure"})
    if context is None:
        context = device_context(coupling, calibration)

    if n_physical <= _EXHAUSTIVE_LIMIT:
        if search_mode == "reference":
            return _reference_exhaustive(
                interactions, measured, context.reliability_distance,
                calibration, n_physical, n_logical)
        return _vectorized_exhaustive(interactions, measured, context,
                                      n_logical)

    return _greedy_layout(circuit, coupling, calibration, interactions,
                          context.reliability_distance, seed)


def _greedy_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional[Calibration],
    interactions: Dict[Tuple[int, int], int],
    rel_dist: Dict[int, Dict[int, float]],
    seed: int,
) -> Layout:
    """Interaction-degree-first greedy placement.

    Equal-cost candidate sets are broken by the seeded stream (not
    silently by index order), so distinct seeds explore distinct
    tie-break choices while each seed stays fully deterministic.
    """
    n_logical = circuit.num_qubits
    degree: Dict[int, int] = {q: 0 for q in range(n_logical)}
    for (a, b), count in interactions.items():
        degree[a] += count
        degree[b] += count
    order = sorted(range(n_logical), key=lambda q: -degree[q])

    quality: Dict[int, float] = {}

    def qubit_quality(p: int) -> float:
        found = quality.get(p)
        if found is None:
            if calibration is None:
                found = float(coupling.degree(p))
            else:
                readout = calibration.readout_error_avg(p)
                link_err = [
                    calibration.cx_error(p, nb)
                    for nb in coupling.neighbors(p)
                ]
                found = -(readout + (min(link_err) if link_err else 0.5))
            quality[p] = found
        return found

    placed: Dict[int, int] = {}
    used: set = set()
    rng = np.random.default_rng(seed)
    for logical in order:
        partners = [
            (other, count) for (a, b), count in interactions.items()
            for other in ((b,) if a == logical else (a,) if b == logical
                          else ())
            if other in placed
        ]
        candidates = [p for p in range(coupling.num_qubits) if p not in used]
        if not partners:
            score = {p: -qubit_quality(p) for p in candidates}
        else:
            def cost_of(p: int) -> float:
                c = sum(
                    count * rel_dist[p].get(placed[other], 1e9)
                    for other, count in partners
                )
                return c - 0.001 * qubit_quality(p)

            score = {p: cost_of(p) for p in candidates}
        best = min(score.values())
        ties = [p for p in candidates if score[p] == best]
        placed[logical] = (
            ties[0] if len(ties) == 1
            else int(ties[int(rng.integers(len(ties)))]))
        used.add(placed[logical])
    return Layout(placed)
