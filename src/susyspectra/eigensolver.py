"""Bound-state solver for H = -d^2/drho^2 + V(rho) on a truncated line.

Sinc discrete variable representation (DVR) on the interior nodes of a
uniform grid: the kinetic matrix is dense and exact for the band-limited
sinc basis, V is diagonal, and the spectrum follows from one dense
symmetric eigensolve.  The error falls exponentially as the spacing shrinks,
so the ~250-node default grids reach 1e-8 or better at the verification
point; memory grows as N^2 and time as N^3 in the node count.  States are
kept only if they sit below the continuum threshold and actually decay at
the walls; with no Dirichlet node pinning the edges, the edge amplitude of
a DVR state is its true tail, so the decay check sees whether the domain
is wide enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, SampledFunction
from .numerics import sinc_kinetic
from .numerics import tridiag_eigen  # noqa: F401  (retired; see numerics)
from .potentials import Well

# Nothing in the package calls this binding.  perfbench/tracer.py still
# wraps it by name, so it stays until the next change to the benchmark.
morse_rho_min = Well.rho_min

__all__ = [
    "Grid",
    "Spectrum",
    "GridTooSmallError",
    "discretize",
    "solve_bound_states",
    "default_grid",
    "DEFAULT_SPACING",
]

DEFAULT_SPACING = 0.15
_TOL_EDGE = 1e-3
_DECAY_TOL = 1e-6
_SIGN_FRACTION = 1e-3


class GridTooSmallError(RuntimeError):
    """A bound state failed the boundary-decay check; widen the domain."""


@dataclass
class Spectrum:
    """Bound eigenvalues (ascending) with trapezoid-normalized states."""

    eigenvalues: np.ndarray
    eigenfunctions: list[SampledFunction] = field(default_factory=list)
    continuum_threshold: float = np.inf

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if self.eigenvalues.size > 1 and np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if np.any(self.eigenvalues >= self.continuum_threshold):
            raise ValueError("bound eigenvalues must sit below the threshold")

    @property
    def bound_count(self) -> int:
        return int(self.eigenvalues.size)

    def __len__(self) -> int:
        return self.bound_count


def discretize(potential, grid: Grid) -> np.ndarray:
    """Sinc-DVR matrix of -d^2 + V on the interior nodes: the dense kinetic
    matrix of `numerics.sinc_kinetic` plus V(rho_i) on the diagonal."""
    x = grid.interior()
    v = np.asarray(potential(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"potential gives shape {v.shape} on {x.size} "
                         "nodes; it must map arrays elementwise")
    if not np.all(np.isfinite(v)):
        bad = x[~np.isfinite(v)][0]
        raise ValueError(f"potential is not finite at node rho={bad:.6g}")
    matrix = sinc_kinetic(x.size, grid.spacing)
    matrix.flat[::x.size + 1] += v
    return matrix


def solve_bound_states(potential, grid: Grid, threshold: float) -> Spectrum:
    """All eigenpairs below threshold - _TOL_EDGE, with decay-checked,
    unit-norm eigenfunctions on the full grid.

    No bound states is a legitimate outcome (empty spectrum); a bound state
    that does not decay at the walls raises GridTooSmallError.
    """
    values, vectors = np.linalg.eigh(discretize(potential, grid))
    k = int(np.searchsorted(values, threshold - _TOL_EDGE))
    h = grid.spacing
    states = []
    for energy, vec in zip(values[:k], vectors[:, :k].T):
        peak = float(np.max(np.abs(vec)))
        edge = max(abs(float(vec[0])), abs(float(vec[-1])))
        if edge > _DECAY_TOL * peak:
            raise GridTooSmallError(
                f"state at E={energy:.6g} has edge amplitude "
                f"{edge/peak:.2e} of its peak; widen the grid beyond "
                f"[{grid.min:g}, {grid.max:g}]")
        # deterministic sign: the leftmost component above 1e-3 of the peak
        # is positive.  Not the largest one: an odd state of a symmetric well
        # has two, at +-rho, whose magnitudes tie to rounding.
        lead = vec[np.argmax(np.abs(vec) > _SIGN_FRACTION * peak)]
        sign = 1.0 if lead > 0 else -1.0
        full = np.zeros(grid.n)
        full[1:-1] = vec * (sign / np.sqrt(h * float(np.dot(vec, vec))))
        states.append(SampledFunction.on_grid(grid, full))
    return Spectrum(values[:k], states, threshold)


def _grid_at_spacing(lo: float, hi: float, spacing: float) -> Grid:
    """Uniform grid on [lo, hi] with spacing at most `spacing`."""
    return Grid(lo, hi, math.ceil((hi - lo) / spacing) + 1)


def default_grid(params: Well) -> Grid:
    """The family's default domain at spacing DEFAULT_SPACING, the same at
    every gamma: a gamma below the negative-tail mass is refused by `q`,
    not by moving the grid."""
    return _grid_at_spacing(*params.default_domain, DEFAULT_SPACING)
