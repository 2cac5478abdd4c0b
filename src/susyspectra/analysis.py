"""Cross-family spectral comparisons and the energy-shift relation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import (_TOL_EDGE, GridTooSmallError, Spectrum,
                          default_grid, solve_bound_states)
from .grids import Grid
from .potentials import FAMILIES, MorseParams, PTParams, Well

__all__ = [
    "SpectralReport",
    "isospectral_check",
    "energy_shift_check",
    "normalized_l2_discrepancy",
    "KINDS",
    "solve",
    "solve_morse",
    "solve_pt",
    "gamma_sweep",
]

DEFAULT_TOLERANCE = 5e-3


@dataclass
class SpectralReport:
    """Pairwise spectrum comparison with a pass/fail verdict."""

    pairs: list[tuple[float, float, float]]
    max_delta: float
    skipped_ground: bool
    tolerance: float
    passed: bool
    details: str = ""


def _paired_report(left: np.ndarray, right: np.ndarray, skipped: bool,
                   tolerance: float) -> SpectralReport:
    """Pair the levels in order, as far as the shorter list goes; lists of
    different lengths fail with max_delta = inf."""
    n = min(left.size, right.size)
    deltas = right[:n] - left[:n]
    pairs = [(float(l), float(r), float(d))
             for l, r, d in zip(left, right, deltas)]
    matched = left.size == right.size
    max_delta = (float(np.max(np.abs(deltas), initial=0.0)) if matched
                 else math.inf)
    return SpectralReport(
        pairs=pairs,
        max_delta=max_delta,
        skipped_ground=skipped,
        tolerance=tolerance,
        passed=matched and max_delta <= tolerance,
        details="" if matched else
        f"count mismatch: {left.size} vs {right.size} levels",
    )


def isospectral_check(A: Spectrum, B: Spectrum, skip_ground_of_A: bool = False,
                      tolerance: float = DEFAULT_TOLERANCE) -> SpectralReport:
    """Pair A's levels (optionally dropping its ground state) with B's, in
    order.  1-D bound spectra are simple, so order-based pairing is exact."""
    left = A.eigenvalues[1:] if skip_ground_of_A else A.eigenvalues
    return _paired_report(left, B.eigenvalues, skip_ground_of_A, tolerance)


def energy_shift_check(E_M: Spectrum, E_PT: Spectrum, lam: float, mu: float,
                       tolerance: float = DEFAULT_TOLERANCE) -> SpectralReport:
    """Compare E_PT,n against E_M,n + (lam - mu - 1/2).

    At the pairing point mu = lam - 1/2 the shift vanishes and this reduces
    to a plain isospectrality check; away from it the report is data."""
    shift = lam - mu - 0.5
    left = E_M.eigenvalues + shift
    report = _paired_report(left, E_PT.eigenvalues, False, tolerance)
    report.details = (report.details + f" shift={shift:g}").strip()
    return report


def normalized_l2_discrepancy(u, v, x) -> float:
    """L2 distance of two functions on common nodes after unit-normalizing
    both and aligning the overall sign."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    na = np.sqrt(np.trapezoid(a * a, x))
    nb = np.sqrt(np.trapezoid(b * b, x))
    if na == 0.0 or nb == 0.0:
        return 0.0 if na == nb else float("inf")
    a = a / na
    b = b / nb
    if np.trapezoid(a * b, x) < 0:
        a = -a
    return float(np.sqrt(np.trapezoid((a - b) ** 2, x)))


# ---------------------------------------------------------------------------
# Solve helpers used by sweeps, the CLI and the acceptance suite
# ---------------------------------------------------------------------------

KINDS = ("shifted", "partner", "generalized")

# perfbench/tracer.py wraps the entries of the two kind tables and the names
# solve_morse and solve_pt by attribute, so `solve` samples the wells and
# `gamma_sweep` solves through them.  They retire with the numerics stubs at
# the next change to the benchmark.
_MORSE_KINDS = {kind: getattr(MorseParams, kind) for kind in KINDS}
_PT_KINDS = {kind: getattr(PTParams, kind) for kind in KINDS}
_KIND_TABLES = {"morse": _MORSE_KINDS, "pt": _PT_KINDS}


def solve(params: Well, kind: str = "shifted",
          grid: Grid | None = None) -> Spectrum:
    """Bound states of the family's shifted, partner or generalized well on
    `grid` (default: the family's default grid).

    Raises GridTooSmallError when the grid returns fewer levels than the
    closed form holds: `Well.level_count`, one fewer for the partner well.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown {params.label} potential kind {kind!r}")
    grid = grid or default_grid(params)
    pot = _KIND_TABLES[params.family][kind]
    spec = solve_bound_states(lambda r: pot(params, r), grid, params.threshold)
    # the partner's levels are the shifted well's from n = 1 on
    first = int(kind == "partner")
    expected = params.level_count - first
    if spec.bound_count < expected:
        n = first + spec.bound_count
        s = math.sqrt(params.threshold)
        energy = params.level(n)
        gap = params.threshold - energy
        reason = (f"is not resolved on the grid [{grid.min:g}, {grid.max:g}]"
                  if gap >= _TOL_EDGE else "falls inside the solver's "
                  f"near-threshold cut ({_TOL_EDGE:g}), so no grid returns it")
        raise GridTooSmallError(
            f"{params.label} {kind} well: {spec.bound_count} of {expected} "
            f"bound levels found; the level at E = n(2s - n) = {energy:.6g} "
            f"(n={n}, s={s:g}), {gap:.3g} below the threshold "
            f"{params.threshold:.6g}, {reason}")
    return spec


solve_morse = solve_pt = solve


def gamma_sweep(family: str, strength: float, gammas,
                grid: Grid | None = None,
                tolerance: float = DEFAULT_TOLERANCE):
    """Solve the generalized potential for each gamma, one after another
    in ascending order, and compare every spectrum against the shifted base.

    Returns (base_spectrum, {gamma: spectrum}, {gamma: SpectralReport}).
    """
    gammas = sorted(float(g) for g in gammas)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {', '.join(FAMILIES)}")
    cls = FAMILIES[family]
    solve_family = globals()[f"solve_{family}"]
    base = solve_family(cls(strength, gammas[0]), "shifted", grid)
    spectra = {g: solve_family(cls(strength, g), "generalized", grid)
               for g in gammas}
    reports = {g: isospectral_check(base, spectra[g], False, tolerance)
               for g in gammas}
    return base, spectra, reports
