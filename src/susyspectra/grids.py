"""The uniform sample grid shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid"]


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

