"""Bound-state solver for H = -d^2/drho^2 + V(rho) on a truncated line.

Sinc discrete variable representation (DVR) on the interior nodes of a
uniform grid: the kinetic matrix is dense and exact for the band-limited
sinc basis, V is diagonal, and the spectrum follows from one dense
symmetric eigensolve.  The error falls exponentially as the spacing shrinks,
so the default grids (182 Morse and 268 sech-well nodes at the verification
point) reach 1e-8 or better there; memory grows as N^2 and time as N^3 in
the node count.  A default grid spans `Well.default_domain`: out to where
the least-bound closed-form level has decayed by the WKB factor 1e-9 past
its turning points, within the family's box.  States are
kept only if they sit below the continuum threshold and actually decay at
the walls; with no Dirichlet node pinning the edges, the edge amplitude of
a DVR state is its true tail, so the decay check sees whether the domain
is wide enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
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
    """Bound eigenvalues (ascending), the grid they were solved on and their
    unit-norm states, one row per level over every node of the grid: a row
    holds a sinc-DVR state's coefficients, so with the grid it is the state."""

    eigenvalues: np.ndarray
    grid: Grid
    states: np.ndarray
    continuum_threshold: float = np.inf

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.eigenvalues.size > 1 and np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if np.any(self.eigenvalues >= self.continuum_threshold):
            raise ValueError("bound eigenvalues must sit below the threshold")
        if self.states.shape != (self.eigenvalues.size, self.grid.n):
            raise ValueError(f"states have shape {self.states.shape}, not "
                             f"({self.eigenvalues.size}, {self.grid.n})")

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
    unit-norm states on the full grid.

    No bound states is a legitimate outcome (empty spectrum); a bound state
    that does not decay at the walls raises GridTooSmallError, which names
    the lowest such state.
    """
    values, vectors = np.linalg.eigh(discretize(potential, grid))
    k = int(np.searchsorted(values, threshold - _TOL_EDGE))
    vecs = vectors[:, :k].T
    peak = np.max(np.abs(vecs), axis=1)
    edge = np.maximum(np.abs(vecs[:, 0]), np.abs(vecs[:, -1]))
    wide = np.flatnonzero(edge > _DECAY_TOL * peak)
    if wide.size:
        i = wide[0]
        raise GridTooSmallError(
            f"state at E={values[i]:.6g} has edge amplitude "
            f"{edge[i]/peak[i]:.2e} of its peak; widen the grid beyond "
            f"[{grid.min:g}, {grid.max:g}]")
    # deterministic sign: the leftmost component above 1e-3 of the peak is
    # positive.  Not the largest one: an odd state of a symmetric well has
    # two, at +-rho, whose magnitudes tie to rounding.
    lead = np.argmax(np.abs(vecs) > _SIGN_FRACTION * peak[:, None], axis=1)
    sign = np.where(vecs[np.arange(k), lead] > 0, 1.0, -1.0)
    norm = np.sqrt(grid.spacing * np.sum(vecs * vecs, axis=1))
    states = np.zeros((k, grid.n))
    states[:, 1:-1] = vecs * (sign / norm)[:, None]
    return Spectrum(values[:k], grid, states, threshold)


def _grid_at_spacing(lo: float, hi: float, spacing: float) -> Grid:
    """Uniform grid on [lo, hi] with spacing at most `spacing`, to rounding:
    27.15 / 0.15 = 181.00000000000003 gives 181 intervals, not 182."""
    return Grid(lo, hi, math.ceil(round((hi - lo) / spacing, 9)) + 1)


def default_grid(params: Well) -> Grid:
    """`Well.default_domain` at spacing DEFAULT_SPACING, the same at every
    gamma: a gamma below the negative-tail mass is refused by `q`, not by
    moving the grid."""
    return _grid_at_spacing(*params.default_domain(), DEFAULT_SPACING)
