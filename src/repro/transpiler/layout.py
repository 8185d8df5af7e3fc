"""Logical-to-physical qubit layout."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["Layout"]


class Layout:
    """A bijection between logical circuit qubits and physical qubits."""

    def __init__(self, logical_to_physical: Dict[int, int]) -> None:
        self._l2p = dict(logical_to_physical)
        self._p2l = {p: l for l, p in self._l2p.items()}
        if len(self._p2l) != len(self._l2p):
            raise ValueError("layout is not injective")

    @classmethod
    def trivial(cls, num_qubits: int) -> "Layout":
        """Identity layout on *num_qubits* qubits."""
        return cls({q: q for q in range(num_qubits)})

    @classmethod
    def from_sequence(cls, physical: Sequence[int]) -> "Layout":
        """Layout mapping logical ``i`` to ``physical[i]``."""
        return cls({i: p for i, p in enumerate(physical)})

    def physical(self, logical: int) -> int:
        """Physical qubit hosting *logical*."""
        return self._l2p[logical]

    def logical(self, physical: int) -> Optional[int]:
        """Logical qubit on *physical* (None if unoccupied)."""
        return self._p2l.get(physical)

    def swap_physical(self, p1: int, p2: int) -> None:
        """Exchange whatever logical qubits sit on *p1* and *p2*."""
        l1, l2 = self._p2l.get(p1), self._p2l.get(p2)
        if l1 is not None:
            self._l2p[l1] = p2
        if l2 is not None:
            self._l2p[l2] = p1
        self._p2l = {p: l for l, p in self._l2p.items()}

    def copy(self) -> "Layout":
        """Independent copy."""
        return Layout(dict(self._l2p))

    def as_dict(self) -> Dict[int, int]:
        """Logical -> physical mapping as a plain dict."""
        return dict(self._l2p)

    def __len__(self) -> int:
        return len(self._l2p)

    def __contains__(self, logical: int) -> bool:
        """True when *logical* is placed by this layout."""
        return logical in self._l2p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._l2p == other._l2p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{l}->{p}" for l, p in sorted(self._l2p.items()))
        return f"Layout({pairs})"
