"""Uniform sample grids and tabulated functions shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "SampledFunction"]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D domain with n nodes from min to max inclusive."""

    min: float
    max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not self.max > self.min:
            raise ValueError("grid requires max > min")
        if not np.isfinite([self.min, self.max]).all():
            raise ValueError("grid bounds must be finite")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.n)

    def interior(self) -> np.ndarray:
        return self.nodes()[1:-1]


@dataclass
class SampledFunction:
    """A function tabulated on explicit nodes: a solver state on its grid."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values)
        if self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must have matching length")
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @classmethod
    def on_grid(cls, grid: Grid, values) -> "SampledFunction":
        return cls(grid.nodes(), np.asarray(values))

    def __len__(self) -> int:
        return self.nodes.size
