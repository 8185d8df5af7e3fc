"""Extrapolation factories (Mitiq-style) for zero-noise extrapolation.

Each factory consumes ``(scale_factor, expectation)`` pairs and returns
the zero-noise estimate — the fitted curve evaluated at scale 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "LinearFactory",
    "PolyFactory",
    "RichardsonFactory",
    "all_factories",
]


@dataclass(frozen=True)
class LinearFactory:
    """Ordinary least-squares line through the data, evaluated at 0."""

    name: str = "linear"

    def extrapolate(self, scales: Sequence[float],
                    values: Sequence[float]) -> float:
        """Zero-noise estimate."""
        if len(scales) < 2:
            raise ValueError("linear extrapolation needs >= 2 points")
        coeffs = np.polyfit(scales, values, 1)
        return float(np.polyval(coeffs, 0.0))


@dataclass(frozen=True)
class PolyFactory:
    """Least-squares polynomial of the given order, evaluated at 0."""

    order: int = 2
    name: str = "poly"

    def extrapolate(self, scales: Sequence[float],
                    values: Sequence[float]) -> float:
        """Zero-noise estimate."""
        if len(scales) <= self.order:
            raise ValueError(
                f"poly order {self.order} needs > {self.order} points")
        coeffs = np.polyfit(scales, values, self.order)
        return float(np.polyval(coeffs, 0.0))


@dataclass(frozen=True)
class RichardsonFactory:
    """Richardson extrapolation: the interpolating polynomial through
    *all* points (degree n-1), evaluated at 0."""

    name: str = "richardson"

    def extrapolate(self, scales: Sequence[float],
                    values: Sequence[float]) -> float:
        """Zero-noise estimate."""
        if len(scales) < 2:
            raise ValueError("richardson needs >= 2 points")
        if len(set(scales)) != len(scales):
            raise ValueError("scale factors must be distinct")
        coeffs = np.polyfit(scales, values, len(scales) - 1)
        return float(np.polyval(coeffs, 0.0))


def all_factories() -> Tuple[object, ...]:
    """The three factories the paper compares (best-of is reported)."""
    return (LinearFactory(), PolyFactory(order=2), RichardsonFactory())
