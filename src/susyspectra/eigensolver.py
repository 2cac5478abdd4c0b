"""Bound-state solver for H = -d^2/drho^2 + V(rho) on a truncated line.

Sinc discrete variable representation (DVR) on the interior nodes of a
grid that is uniform in x, with rho = rho(x) the grid's map (`Grid`): the
kinetic matrix is the exact symmetric form of -d^2/drho^2 in x, dense and
exact for the band-limited sinc basis, V is diagonal, and the spectrum
follows from one dense symmetric eigensolve, or from two of half the size
when the well is even in rho on a grid centred on 0 (the shifted and
partner sech wells): their states split exactly into even and odd ones
(Cooper, Khare & Sukhatme, Phys. Rep. 251, 267 (1995)), each set solved
in its own parity block.  The error falls exponentially as the spacing
shrinks; memory grows as N^2 and time as N^3 in the node count.  A default
grid is stretched, fine in the well and coarse on the decaying tails (121
Morse and 171 sech-well nodes at the verification point, where every level
at gamma = 1 comes out to 2.3e-13 or better).
Its outermost interior nodes sit on `Well.default_domain`: out to where the
least-bound closed-form level has decayed by the WKB factor 1e-9 past its
turning points, within the family's box, or past it where the box would
leave that level too little decay for the edge check.  States are kept
only if they sit below the continuum threshold and actually decay at the
walls; with no Dirichlet node pinning the edges, the edge value of a DVR
state is its true tail, so the decay check sees whether the domain is wide
enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MAP_SCALE, Grid
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
    "DEFAULT_STRETCH",
]

# x-spacing and stretch of every default grid (see `grids.Grid`)
DEFAULT_SPACING = 0.065
DEFAULT_STRETCH = 1.5
_TOL_EDGE = 1e-3
_DECAY_TOL = 1e-6
_SIGN_FRACTION = 1e-3
_MIRROR_TOL = 1e-12


class GridTooSmallError(RuntimeError):
    """A bound state failed the boundary-decay check; widen the domain."""


@dataclass
class Spectrum:
    """Bound eigenvalues (ascending), the grid they were solved on and their
    states, one row per level over every node of the grid: a row holds the
    values psi(rho_i) of a sinc-DVR state, unit-norm under `Grid.weights`,
    so with the grid it is the state."""

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
    """Sinc-DVR matrix of -d^2/drho^2 + V on the interior nodes.

    With J = drho/dx, W = 1/J, S = J^-1/2 and T the `numerics.sinc_kinetic`
    matrix at the x-spacing, the kinetic part
    S [(W_i + W_j) T_ij / 2 + delta_ij W''_i / 2] S is the exact symmetric
    form of -(1/J) d/dx (1/J) d/dx acting on sqrt(J) psi (W'' = d^2W/dx^2).
    On a uniform grid (stretch 0) J = 1, the scaling is by exactly 1.0 and
    the W'' term exactly 0.0, so the matrix is T bit for bit; V(rho_i) goes
    on the diagonal."""
    x = grid.interior()
    v = np.asarray(potential(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"potential gives shape {v.shape} on {x.size} "
                         "nodes; it must map arrays elementwise")
    if not np.all(np.isfinite(v)):
        bad = x[~np.isfinite(v)][0]
        raise ValueError(f"potential is not finite at node rho={bad:.6g}")
    xi = grid.x_nodes()[1:-1]
    jac = grid.jacobian(xi)
    d1 = grid.stretch * np.sinh(xi / MAP_SCALE) / MAP_SCALE
    d2 = grid.stretch * np.cosh(xi / MAP_SCALE) / MAP_SCALE ** 2
    s = 1.0 / np.sqrt(jac)
    coef = np.outer(s / jac, s)  # W_i S_i S_j
    matrix = sinc_kinetic(x.size, grid.spacing)
    matrix *= 0.5 * (coef + coef.T)
    # W'' = (2 J'^2 - J J'') / J^3, times S_i^2 = 1/J
    matrix.flat[::x.size + 1] += 0.5 * (2.0 * d1 * d1 - jac * d2) / jac ** 4
    matrix.flat[::x.size + 1] += v
    return matrix


def _mirror_symmetric(matrix: np.ndarray, grid: Grid) -> bool:
    """Whether the grid's ends mirror each other and the matrix's diagonal
    is mirror-symmetric, both to _MIRROR_TOL of their largest magnitude:
    the DVR matrix of a well that is even in rho, on a grid centred on 0."""
    diag = np.diagonal(matrix)
    return (abs(grid.min + grid.max) <= _MIRROR_TOL * grid.max
            and np.max(np.abs(diag - diag[::-1]))
            <= _MIRROR_TOL * np.max(np.abs(diag)))


def _parity_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh` of a mirror-symmetric matrix H in two parity
    blocks: the eigenpairs of (H + PHP) / 2, P the node reversal, in
    ascending order, each vector exactly even or odd.

    With m nodes, h = m // 2 and the halves A = H[:h, :h],
    B_ij = H[i, m-1-j], the even states (u, u reversed) / sqrt 2 solve
    A + B and the odd ones (u, -u reversed) / sqrt 2 solve A - B; for odd
    m the even block gains the centre node, coupled by sqrt 2 H[i, h]."""
    m = matrix.shape[0]
    h = m // 2
    # the rows of (H + PHP) / 2 down to the centre
    sym = 0.5 * (matrix[:h + 1] + matrix[:m - h - 2:-1, ::-1])
    a, b = sym[:h, :h], sym[:h, :m - h - 1:-1]
    even = np.empty((m - h, m - h))
    even[:h, :h] = a + b
    if m % 2:
        even[h, :h] = even[:h, h] = math.sqrt(2.0) * sym[:h, h]
        even[h, h] = sym[h, h]
    even_values, even_vectors = np.linalg.eigh(even)
    odd_values, odd_vectors = np.linalg.eigh(a - b)
    values = np.append(even_values, odd_values)
    order = np.argsort(values, kind="stable")
    vectors = np.empty((m, m))
    vectors[:h] = np.hstack([even_vectors[:h], odd_vectors])[:, order]
    vectors[:h] /= math.sqrt(2.0)
    np.multiply(vectors[:h], np.repeat([1.0, -1.0], [m - h, h])[order],
                out=vectors[:m - h - 1:-1])
    if m % 2:
        vectors[h] = np.append(even_vectors[h], np.zeros(h))[order]
    return values[order], vectors


def solve_bound_states(potential, grid: Grid, threshold: float) -> Spectrum:
    """All eigenpairs below threshold - _TOL_EDGE, with decay-checked states
    psi(rho_i) on the full grid, unit-norm under `Grid.weights`.

    An eigenvector entry is sqrt(J_i h) psi(rho_i); the edge check and the
    sign rule read the state values psi_i.  No bound states is a legitimate
    outcome (empty spectrum); a bound state that does not decay at the walls
    raises GridTooSmallError, which names the lowest such state.
    """
    matrix = discretize(potential, grid)
    jac = grid.jacobian(grid.x_nodes()[1:-1])
    if _mirror_symmetric(matrix, grid):
        values, vectors = _parity_eigh(matrix)
        jac = 0.5 * (jac + jac[::-1])
    else:
        values, vectors = np.linalg.eigh(matrix)
    k = int(np.searchsorted(values, threshold - _TOL_EDGE))
    vecs = vectors[:, :k].T / np.sqrt(jac)
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
    norm = np.sqrt(grid.spacing * np.sum(jac * vecs * vecs, axis=1))
    states = np.zeros((k, grid.n))
    states[:, 1:-1] = vecs * (sign / norm)[:, None]
    return Spectrum(values[:k], grid, states, threshold)


def _grid_at_spacing(lo: float, hi: float, spacing: float,
                     stretch: float) -> Grid:
    """Grid of the given stretch whose outermost interior nodes sit on lo
    and hi, with x-spacing at most `spacing`, to rounding (15.66 / 0.13
    must not gain an interval from floating-point noise); its end nodes lie
    one x-spacing beyond."""
    domain = Grid(lo, hi, 16, stretch)
    x_lo, x_hi = domain.x_bounds
    intervals = math.ceil(round((x_hi - x_lo) / spacing, 9))
    h = (x_hi - x_lo) / intervals
    ends = domain.to_rho(np.array([x_lo - h, x_hi + h]))
    return Grid(float(ends[0]), float(ends[1]), intervals + 3, stretch)


def default_grid(params: Well) -> Grid:
    """`Well.default_domain` at x-spacing DEFAULT_SPACING and stretch
    DEFAULT_STRETCH, the same at every gamma: a gamma below the
    negative-tail mass is refused by `q`, not by moving the grid."""
    return _grid_at_spacing(*params.default_domain(), DEFAULT_SPACING,
                            DEFAULT_STRETCH)
