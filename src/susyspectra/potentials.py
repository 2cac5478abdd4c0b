"""Morse and Poschl-Teller potential families.

A family is a frozen parameter record (`MorseParams`, `PTParams`) that
carries its closed forms: the log ground-state weight ln psi0^2 and its
decay rate, the superpotential derivatives W' and W'', the shifted base
well (ground state displaced to zero energy) and its factorization partner
(same spectrum minus the zero mode), the continuum threshold, the strength,
the range of the weight table and the default domains.  The `Well` base
class builds the rest once for every family:

* the deformation term q = psi0^2 / (gamma + int_0^rho psi0^2) and q',
* the one-parameter generalized well V - 2 q', isospectral to the shifted
  one for every gamma > 0,
* the deformed superpotential derivative f = W' + q, which solves the
  Riccati equation f' + f^2 = W'^2 + W''.

The cumulative integral in the denominator of q is precomputed once per
parameter strength on a fine grid and evaluated between nodes by cubic
Hermite interpolation (the integrand is the known derivative, so both values
and slopes are exact at the nodes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .grids import Grid
from .numerics import _GK_NODES, _GK_WEIGHTS

__all__ = [
    "Well",
    "MorseParams",
    "PTParams",
    "FAMILIES",
    "SingularConfigurationError",
    "riccati_residual",
]


class SingularConfigurationError(ValueError):
    """The q-term denominator hit zero; gamma is too small for this rho."""

    def __init__(self, family: str, rho: float, gamma: float):
        super().__init__(
            f"{family} q-term denominator is not positive at rho={rho:.6g} "
            f"(gamma={gamma:g} is below the negative-tail mass)")
        self.rho = rho


# ---------------------------------------------------------------------------
# Cached cumulative weight tables
# ---------------------------------------------------------------------------


class _CumulativeTable:
    """Cumulative integral I(rho) = int_0^rho w with Hermite interpolation.

    Outside the tabulated range the integrand has decayed below double
    precision, so I saturates at its end values.
    """

    def __init__(self, weight, rho_lo: float, rho_hi: float, h: float):
        n_neg = int(math.ceil(-rho_lo / h))
        n_pos = int(math.ceil(rho_hi / h))
        xs = np.arange(-n_neg, n_pos + 1) * h
        # Gauss-Kronrod panel integrals, vectorized over all panels
        mids = 0.5 * (xs[:-1] + xs[1:])
        pts = mids[:, None] + (0.5 * h) * _GK_NODES[None, :]
        with np.errstate(over="ignore", under="ignore"):
            wv = weight(pts.ravel()).reshape(pts.shape)
        panels = (0.5 * h) * (wv @ _GK_WEIGHTS)
        cum = np.concatenate(([0.0], np.cumsum(panels)))
        self.xs = xs
        self.h = h
        self.I = cum - cum[n_neg]          # anchored so that I(0) = 0
        with np.errstate(over="ignore", under="ignore"):
            self.w = weight(xs)
        self.I_lo = float(self.I[0])       # = -(negative-tail mass)
        self.I_hi = float(self.I[-1])

    def eval(self, rho: np.ndarray) -> np.ndarray:
        xs, h = self.xs, self.h
        s = (rho - xs[0]) / h
        j = np.clip(np.floor(s).astype(int), 0, xs.size - 2)
        u = s - j
        h00 = (2 * u - 3) * u * u + 1.0
        h10 = ((u - 2) * u + 1.0) * u
        h01 = (3 - 2 * u) * u * u
        h11 = (u - 1) * u * u
        out = (h00 * self.I[j] + h * h10 * self.w[j]
               + h01 * self.I[j + 1] + h * h11 * self.w[j + 1])
        out = np.where(rho < xs[0], self.I_lo, out)
        out = np.where(rho > xs[-1], self.I_hi, out)
        return out

    def rho_min(self, gamma: float) -> float:
        """Leftmost rho with gamma + I(rho) > 0; -inf when gamma clears the
        whole negative tail."""
        if gamma + self.I_lo > 0:
            return -math.inf
        lo, hi = self.xs[0], 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gamma + float(self.eval(np.array([mid]))[0]) > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-13 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=128)
def _weight_table(well: "Well") -> _CumulativeTable:
    """Table of int_0^rho psi0^2; keyed by a well whose gamma is fixed at 1,
    because the weight depends on the strength alone."""
    lo, hi = well.table_range
    h = max(0.005, (hi - lo) / 400_000)
    return _CumulativeTable(lambda r: np.exp(well.log_weight(r)), lo, hi, h)


# ---------------------------------------------------------------------------
# Generic family
# ---------------------------------------------------------------------------


def _elementwise(method):
    """Let a method written for 1-D arrays of rho take a scalar as well and
    return a float for it."""

    @functools.wraps(method)
    def wrapper(self, rho):
        out = method(self, np.atleast_1d(np.asarray(rho, dtype=float)))
        return float(out[0]) if np.ndim(rho) == 0 else out

    return wrapper


class Well:
    """What every family provides, and what is built from it.

    A family is a frozen dataclass with fields (strength, gamma) that sets
    the class attributes `family` (CLI name), `label` (for messages) and
    `strength_name` (its flag), the attributes `strength`, `threshold`
    (continuum edge of the shifted well), `table_range` (where the weight
    is tabulated), `default_domain`, `rho_min_margin` (how far right of
    `rho_min` the default domain starts, or None to keep it fixed) and
    `riccati_domain` (lo, hi, nodes), and the closed forms `log_weight`
    (ln psi0^2), `decay_rate` (-d ln psi0^2 / drho), `w_prime`, `w_second`,
    `shifted` and `partner`.
    """

    family: ClassVar[str]
    label: ClassVar[str]
    strength_name: ClassVar[str]

    def __post_init__(self):
        if not math.isfinite(self.strength):
            raise ValueError(f"{self.label} {self.strength_name} must be "
                             "finite")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def _table(self) -> _CumulativeTable:
        return _weight_table(replace(self, gamma=1.0))

    @property
    def level_count(self) -> int:
        """Closed-form count of bound levels n(2s - n), n < s, of the
        shifted and generalized wells, where s = sqrt(threshold)."""
        return math.ceil(math.sqrt(self.threshold) - 1e-9)

    def rho_min(self) -> float:
        """Left edge of the domain where the generalized well is defined
        (-inf when gamma exceeds the weight's negative-tail mass)."""
        return self._table().rho_min(self.gamma)

    @_elementwise
    def q(self, r):
        """Deformation term: squared ground state over (gamma + its running
        integral from 0).  Strictly positive wherever defined."""
        with np.errstate(over="ignore", under="ignore"):
            num = np.exp(self.log_weight(r))
        den = self.gamma + self._table().eval(r)
        bad = den <= 0.0
        if np.any(bad):
            raise SingularConfigurationError(
                self.label, float(r[np.argmax(bad)]), self.gamma)
        return num / den

    @_elementwise
    def q_derivative(self, r):
        """dq/drho through the logarithmic-derivative identity
        q' = -g' q - q^2, with g' = `decay_rate`."""
        q = self.q(r)
        out = -self.decay_rate(r) * q - q * q
        # where q has underflowed to 0, g' may have overflowed (0 * inf)
        return np.where(q == 0.0, 0.0, out)

    @_elementwise
    def generalized(self, r):
        """Isospectral deformation of the shifted well: V - 2 dq/drho."""
        return self.shifted(r) - 2.0 * self.q_derivative(r)

    @_elementwise
    def f(self, r):
        """Deformed superpotential derivative W' + q."""
        return self.w_prime(r) + self.q(r)


# ---------------------------------------------------------------------------
# Morse family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorseParams(Well):
    """Morse family: depth lam > 1/2 (so the deformation integral converges
    at large rho) and deformation constant gamma > 0."""

    lam: float
    gamma: float

    family: ClassVar[str] = "morse"
    label: ClassVar[str] = "Morse"
    strength_name: ClassVar[str] = "lambda"
    default_domain: ClassVar[tuple] = (-2.0, 32.0)
    rho_min_margin: ClassVar[float | None] = 0.5
    riccati_domain: ClassVar[tuple] = (-1.0, 6.0, 7001)

    def __post_init__(self):
        if not self.lam > 0.5:
            raise ValueError("Morse requires lam > 1/2")
        super().__post_init__()

    @property
    def strength(self) -> float:
        return self.lam

    @property
    def a(self) -> float:
        """Shifted-well strength a = lam - 1/2 (continuum sits at a^2)."""
        return self.lam - 0.5

    @property
    def threshold(self) -> float:
        return self.a ** 2

    @property
    def table_range(self) -> tuple[float, float]:
        # upper range: e^-(2 lam - 1) rho tail below 1e-20
        return -8.0, max(12.0, 46.0 / (2.0 * self.lam - 1.0) + 2.0)

    def log_weight(self, r):
        return -(2.0 * self.lam - 1.0) * r - 2.0 * self.lam * np.exp(-r)

    def decay_rate(self, r):
        with np.errstate(over="ignore"):
            return (2.0 * self.lam - 1.0) - 2.0 * self.lam * np.exp(-r)

    @_elementwise
    def shifted(self, r):
        """lam^2 (1 - e^-rho)^2 - lam + 1/4; zero-energy ground state."""
        with np.errstate(over="ignore"):
            return self.lam**2 * (1.0 - np.exp(-r))**2 - self.lam + 0.25

    @_elementwise
    def partner(self, r):
        """Factorization partner: shifted potential plus 2 lam e^-rho."""
        with np.errstate(over="ignore"):
            return (self.lam**2 * (1.0 - np.exp(-r))**2 - self.lam + 0.25
                    + 2.0 * self.lam * np.exp(-r))

    @_elementwise
    def w_prime(self, r):
        """Base superpotential derivative W' = lam(1 - e^-rho) - 1/2."""
        with np.errstate(over="ignore"):
            return self.lam * (1.0 - np.exp(-r)) - 0.5

    @_elementwise
    def w_second(self, r):
        with np.errstate(over="ignore"):
            return self.lam * np.exp(-r)


# ---------------------------------------------------------------------------
# Poschl-Teller family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTParams(Well):
    """Sech-squared well: strength mu > 0, deformation constant gamma > 0."""

    mu: float
    gamma: float

    family: ClassVar[str] = "pt"
    label: ClassVar[str] = "PT"
    strength_name: ClassVar[str] = "mu"
    default_domain: ClassVar[tuple] = (-20.0, 20.0)
    rho_min_margin: ClassVar[float | None] = None
    riccati_domain: ClassVar[tuple] = (-5.0, 5.0, 10001)

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("PT requires mu > 0")
        super().__post_init__()

    @property
    def strength(self) -> float:
        return self.mu

    @property
    def threshold(self) -> float:
        return self.mu ** 2

    @property
    def table_range(self) -> tuple[float, float]:
        hi = max(12.0, 46.0 / (2.0 * self.mu) + math.log(2.0) + 2.0)
        return -hi, hi

    def log_weight(self, r):
        # -2 mu * ln cosh, computed overflow-free
        abs_r = np.abs(r)
        lncosh = abs_r + np.log1p(np.exp(-2.0 * abs_r)) - math.log(2.0)
        return -2.0 * self.mu * lncosh

    def decay_rate(self, r):
        return 2.0 * self.mu * np.tanh(r)

    @_elementwise
    def shifted(self, r):
        """-mu(mu+1)/cosh^2 rho + mu^2; zero-energy ground state."""
        return -self.mu * (self.mu + 1.0) / np.cosh(r)**2 + self.mu**2

    @_elementwise
    def partner(self, r):
        """Partner well: strength drops from mu(mu+1) to mu(mu-1)."""
        return ((-self.mu * (self.mu + 1.0) + 2.0 * self.mu) / np.cosh(r)**2
                + self.mu**2)

    @_elementwise
    def w_prime(self, r):
        return self.mu * np.tanh(r)

    @_elementwise
    def w_second(self, r):
        return self.mu / np.cosh(r)**2


FAMILIES = {cls.family: cls for cls in (MorseParams, PTParams)}


# ---------------------------------------------------------------------------
# Riccati residual
# ---------------------------------------------------------------------------


def riccati_residual(f, w_prime, w_second, grid: Grid) -> float:
    """max |f' + f^2 - W'^2 - W''| over interior nodes, with f' from a
    five-point central-difference stencil at the grid spacing."""
    if grid.n < 3:
        raise ValueError("riccati_residual needs at least 3 nodes")
    x = grid.nodes()
    h = grid.spacing

    def _vec(name, func):
        v = np.asarray(func(x), dtype=float)
        if v.shape != x.shape:
            raise ValueError(f"{name} gives shape {v.shape} on {x.size} "
                             "nodes; it must map arrays elementwise")
        return v

    fv = _vec("f", f)
    wp = _vec("w_prime", w_prime)
    ws = _vec("w_second", w_second)
    fp = (-fv[4:] + 8.0 * fv[3:-1] - 8.0 * fv[1:-3] + fv[:-4]) / (12.0 * h)
    core = slice(2, -2)
    res = fp + fv[core]**2 - wp[core]**2 - ws[core]
    return float(np.max(np.abs(res)))
