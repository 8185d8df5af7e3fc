"""Device coupling maps and pair-distance logic.

The parallel-execution algorithms reason about *CNOT pairs* — undirected
device links.  The crosstalk machinery additionally needs the notion of
**one-hop pairs**: two disjoint links connected by a single extra edge,
which is where simultaneous CNOTs interfere on IBM hardware.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

__all__ = ["CouplingMap", "Edge"]

Edge = Tuple[int, int]


def _norm(edge: Iterable[int]) -> Edge:
    a, b = edge
    return (a, b) if a <= b else (b, a)


class CouplingMap:
    """Undirected device connectivity graph with distance utilities."""

    def __init__(self, num_qubits: int, edges: Sequence[Edge]) -> None:
        self.num_qubits = int(num_qubits)
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        for edge in edges:
            a, b = _norm(edge)
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge {edge} out of range")
            if a == b:
                raise ValueError(f"self-loop edge {edge}")
            self.graph.add_edge(a, b)
        # All-pairs tables are lazy: many callers (partition growth, the
        # routers' adjacency checks, induced-subgraph construction) never
        # query distances, and paying O(V^2) BFS in __init__ made every
        # induced CouplingMap expensive.  The graph is frozen after
        # construction (no mutation API), so computing once on first use
        # is safe.
        self._edges_cache: Optional[Tuple[Edge, ...]] = None
        self._dist_cache: Optional[Dict[int, Dict[int, int]]] = None
        self._one_hop_cache: Optional[Dict[Edge, Tuple[Edge, ...]]] = None
        self._one_hop_pairs_cache: Optional[
            Tuple[Tuple[Edge, Edge], ...]] = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All links as normalized ``(low, high)`` tuples, sorted."""
        if self._edges_cache is None:
            self._edges_cache = tuple(sorted(_norm(e)
                                             for e in self.graph.edges))
        return self._edges_cache

    def degree(self, qubit: int) -> int:
        """Number of neighbours of *qubit*."""
        return self.graph.degree[qubit]

    def neighbors(self, qubit: int) -> Tuple[int, ...]:
        """Sorted neighbours of *qubit*."""
        return tuple(sorted(self.graph.neighbors(qubit)))

    def is_edge(self, a: int, b: int) -> bool:
        """True when qubits *a* and *b* are directly coupled."""
        return self.graph.has_edge(a, b)

    @property
    def _dist(self) -> Dict[int, Dict[int, int]]:
        """All-pairs hop distances, computed on first use."""
        if self._dist_cache is None:
            self._dist_cache = dict(
                nx.all_pairs_shortest_path_length(self.graph))
        return self._dist_cache

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two qubits (inf -> large)."""
        try:
            return self._dist[a][b]
        except KeyError:
            return 10 ** 9

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest qubit path from *a* to *b*."""
        return nx.shortest_path(self.graph, a, b)

    # ------------------------------------------------------------------
    # pair (link) logic for crosstalk
    # ------------------------------------------------------------------
    def pair_distance(self, e1: Edge, e2: Edge) -> int:
        """Hop distance between two links.

        0 when the links share a qubit; otherwise the minimum qubit
        distance between their endpoints.  A result of 1 is exactly the
        paper's "one-hop pair" relation: simultaneous CNOTs on the two
        links are crosstalk-prone.
        """
        e1, e2 = _norm(e1), _norm(e2)
        if set(e1) & set(e2):
            return 0
        return min(self.distance(a, b) for a in e1 for b in e2)

    def _one_hop_tables(self) -> Tuple[Dict[Edge, Tuple[Edge, ...]],
                                       Tuple[Tuple[Edge, Edge], ...]]:
        """One O(E^2) pass feeding both one-hop queries, cached.

        Partners accumulate per edge in increasing edge-index order, so
        the derived :meth:`one_hop_pairs` tuples match the historical
        sorted-edge scan exactly.
        """
        if self._one_hop_cache is None:
            edges = self.edges
            per_edge: Dict[Edge, List[Edge]] = {e: [] for e in edges}
            pairs: List[Tuple[Edge, Edge]] = []
            for i, e1 in enumerate(edges):
                for e2 in edges[i + 1:]:
                    if self.pair_distance(e1, e2) == 1:
                        pairs.append((e1, e2))
                        per_edge[e1].append(e2)
                        per_edge[e2].append(e1)
            self._one_hop_cache = {
                e: tuple(partners) for e, partners in per_edge.items()}
            self._one_hop_pairs_cache = tuple(pairs)
        assert self._one_hop_pairs_cache is not None
        return self._one_hop_cache, self._one_hop_pairs_cache

    def one_hop_pairs(self, edge: Edge) -> Tuple[Edge, ...]:
        """All links at pair-distance exactly 1 from *edge* (cached)."""
        edge = _norm(edge)
        per_edge, _ = self._one_hop_tables()
        found = per_edge.get(edge)
        if found is None:
            # Historical behaviour: the query edge need not be a device
            # link — fall back to the direct scan for those.
            found = tuple(
                other for other in self.edges
                if other != edge and self.pair_distance(edge, other) == 1
            )
        return found

    def all_one_hop_edge_pairs(self) -> Tuple[Tuple[Edge, Edge], ...]:
        """Every unordered pair of links at pair-distance exactly 1
        (cached after the first call)."""
        _, pairs = self._one_hop_tables()
        return pairs

    # ------------------------------------------------------------------
    # subgraph / partition helpers
    # ------------------------------------------------------------------
    def is_connected_subset(self, qubits: Sequence[int]) -> bool:
        """True when *qubits* induce a connected subgraph."""
        if not qubits:
            return False
        sub = self.graph.subgraph(qubits)
        return nx.is_connected(sub)

    def subgraph_edges(self, qubits: Sequence[int]) -> Tuple[Edge, ...]:
        """Links with both endpoints inside *qubits*."""
        qset = set(qubits)
        return tuple(
            e for e in self.edges if e[0] in qset and e[1] in qset
        )

    def boundary_edges(self, qubits: Sequence[int]) -> Tuple[Edge, ...]:
        """Links with exactly one endpoint inside *qubits*."""
        qset = set(qubits)
        return tuple(
            e for e in self.edges if (e[0] in qset) != (e[1] in qset)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CouplingMap {self.num_qubits} qubits, "
            f"{self.graph.number_of_edges()} links>"
        )
