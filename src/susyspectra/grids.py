"""The sample grid shared across modules: uniform, or mapped so that its
nodes are fine near the origin and coarse on the tails."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "MAP_SCALE"]

# a in the map rho = x + beta (a sinh(x/a) - x)
MAP_SCALE = 2.0
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class Grid:
    """1-D domain with n nodes from min to max inclusive.

    The nodes are rho_i = rho(x_i) on n uniform points x_i, where
    rho(x) = x + stretch (a sinh(x/a) - x), a = MAP_SCALE: the local spacing
    J h, with J = drho/dx = 1 - stretch + stretch cosh(x/a) >= 1, grows as
    e^{|x|/a} on the tails.  Stretch 0 is the uniform grid.  `spacing` is
    the x-spacing h; min and max are the end nodes in rho.
    """

    min: float
    max: float
    n: int
    stretch: float = 0.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not self.max > self.min:
            raise ValueError("grid requires max > min")
        if not np.isfinite([self.min, self.max]).all():
            raise ValueError("grid bounds must be finite")
        if not 0.0 <= self.stretch < np.inf:
            raise ValueError("grid stretch must be finite and >= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            reached = np.isfinite(self.x_bounds).all()
        if not reached:
            raise ValueError(f"grid bounds [{self.min:g}, {self.max:g}] "
                             f"are out of reach of the map at stretch "
                             f"{self.stretch:g}")

    @cached_property
    def x_bounds(self) -> tuple[float, float]:
        """x(min) and x(max), inverted once per grid."""
        lo, hi = self.to_x(np.array([self.min, self.max]))
        return float(lo), float(hi)

    @property
    def spacing(self) -> float:
        lo, hi = self.x_bounds
        return (hi - lo) / (self.n - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(*self.x_bounds, self.n)

    def nodes(self) -> np.ndarray:
        rho = self.to_rho(self.x_nodes())
        rho[0], rho[-1] = self.min, self.max  # exactly, not to rounding
        return rho

    def interior(self) -> np.ndarray:
        return self.nodes()[1:-1]

    def weights(self) -> np.ndarray:
        """Quadrature weights J_i h of the nodes: sum_i w_i f(rho_i) is the
        integral of f over the grid."""
        return self.jacobian(self.x_nodes()) * self.spacing

    def to_rho(self, x) -> np.ndarray:
        """rho(x); x itself at stretch 0, where sinh(x/a) may overflow."""
        x = np.asarray(x, dtype=float)
        if not self.stretch:
            return x
        return x + self.stretch * (MAP_SCALE * np.sinh(x / MAP_SCALE) - x)

    def jacobian(self, x) -> np.ndarray:
        """J = drho/dx at x; 1 at stretch 0, where cosh(x/a) may overflow."""
        x = np.asarray(x, dtype=float)
        if not self.stretch:
            return np.ones_like(x)
        return 1.0 - self.stretch + self.stretch * np.cosh(x / MAP_SCALE)

    def to_x(self, rho) -> np.ndarray:
        """x(rho) by Newton's method from a sinh-only guess.  rho(x) is odd
        and convex for x > 0: from the far side of the root (stretch < 1)
        each step moves toward it; from the near side (stretch > 1) the
        first overshoots to the far side.  Infinite rho maps to itself."""
        rho = np.asarray(rho, dtype=float)
        if not self.stretch:
            return rho
        finite = np.isfinite(rho)
        r = np.where(finite, rho, 0.0)
        x = MAP_SCALE * np.arcsinh(r / (self.stretch * MAP_SCALE))
        for _ in range(_NEWTON_STEPS):
            step = (self.to_rho(x) - r) / self.jacobian(x)
            x = x - step
            if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(x))):
                break
        return np.where(finite, x, rho)
