"""Morse and Poschl-Teller potential families, built from their
superpotentials.

A family is a frozen parameter record (`MorseParams`, `PTParams`) that
declares its superpotential W and the derivatives W' and W'', its strength
and its domains.  The `Well` base class derives the rest once for every
family (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267 (1995)):

* the shifted well W'^2 - W'' (ground state psi0 = e^-W at zero energy),
  its factorization partner W'^2 + W'' (same spectrum minus the zero mode)
  and the continuum threshold W'(+inf)^2,
* the deformation term q = psi0^2 / (gamma + int_0^rho psi0^2) and q',
* the one-parameter generalized well V - 2 q', isospectral to the shifted
  one for every gamma > 0,
* the deformed superpotential derivative f = W' + q, which solves the
  Riccati equation f' + f^2 = W'^2 + W''.

The running integral in the denominator of q is computed at the points it
is asked for: the cumulative sum of 15-point Gauss-Legendre panels of a
fixed step from 0 to the multiple of the step nearest each point, plus one
short panel of the same rule from there to the point.  Where it is not
positive (gamma below the negative-tail mass of psi0^2), q raises
`SingularConfigurationError`, the one admissibility rule of both families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grids import Grid
from .numerics import _panel_integrals

__all__ = [
    "Well",
    "MorseParams",
    "PTParams",
    "FAMILIES",
    "SingularConfigurationError",
    "riccati_residual",
]

# Panel width of the running integral of psi0^2.  psi0^2 is a bump of width
# about 1/sqrt(2 W'') at its peak, 0.2 or more for strengths up to 12.
_STEP = 0.1

# Decay of the least-bound level at the edges of the default domain, as
# the WKB factor exp(-int sqrt(V - E) drho) from its turning points.
_DOMAIN_TOL = 1e-9
# The least decay a box-clipped edge may leave, a decade under the
# eigensolver's 1e-6 edge check, and how far past the box, as a multiple of
# it, an edge may move to reach that.
_REACH_TOL = 1e-7
_REACH = 2.0


class SingularConfigurationError(ValueError):
    """The q-term denominator hit zero; gamma is too small for this rho."""

    def __init__(self, family: str, rho: float, gamma: float):
        super().__init__(
            f"{family} q-term denominator is not positive at rho={rho:.6g} "
            f"(gamma={gamma:g} is below the negative-tail mass)")
        self.rho = rho


def _elementwise(method):
    """Let a method written for arrays of rho take a scalar as well and
    return a float for it."""

    @functools.wraps(method)
    def wrapper(self, rho):
        out = method(self, np.atleast_1d(np.asarray(rho, dtype=float)))
        return float(out[0]) if np.ndim(rho) == 0 else out

    return wrapper


def _edge_steps(exponent: np.ndarray, box: int) -> int:
    """Steps from a turning point to the domain edge on one side, given the
    running WKB exponent along that side and the steps to the box edge."""
    steps = min(int(np.searchsorted(exponent, math.log(1.0 / _DOMAIN_TOL))),
                box)
    reach = int(np.searchsorted(exponent, math.log(1.0 / _REACH_TOL)))
    return reach if steps < reach < exponent.size else steps


# ---------------------------------------------------------------------------
# Generic family
# ---------------------------------------------------------------------------


class Well:
    """What every family declares, and what is derived from it.

    A family is a frozen dataclass with fields (strength, gamma) that
    declares:

    * the class attributes `family` (CLI name), `label` (for messages),
      `strength_name` (its flag), `domain_box` (the interval a default
      domain is clipped to, unless its least-bound level needs more reach;
      see `default_domain`) and `riccati_domain` (lo, hi, nodes);
    * the attributes `strength` and `weight_support`, the (lo, hi) outside
      which psi0^2 is below double precision, so that its running integral
      has saturated there;
    * the superpotential `w` and its derivatives `w_prime` and `w_second`.

    From these it derives the shifted and partner wells, the threshold, the
    level count, the default domain, `rho_min`, q, q', the generalized well
    and f.
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

    @property
    def threshold(self) -> float:
        """Continuum edge of the shifted well, W'(+inf)^2."""
        return self.w_prime(math.inf) ** 2

    @property
    def level_count(self) -> int:
        """Closed-form count of bound levels n(2s - n), n < s, of the
        shifted and generalized wells, where s = sqrt(threshold)."""
        return math.ceil(math.sqrt(self.threshold) - 1e-9)

    @property
    def levels(self) -> np.ndarray:
        """The closed-form levels n(2s - n), n = 0 .. level_count - 1."""
        n = np.arange(self.level_count)
        return n * (2.0 * math.sqrt(self.threshold) - n)

    def default_domain(self) -> tuple[float, float]:
        """The default grid's domain, the same for every kind and every
        gamma: on each side, where the WKB exponent int sqrt(V - E*) drho of
        the least-bound level E* = levels[-1] reaches ln(1/_DOMAIN_TOL)
        beyond its outermost turning point on the shifted well V (sampled
        on a 0.01 step; the exponent is its cumulative sum), clipped to
        `domain_box`.  Where the box would cut an edge off before the
        exponent reaches ln(1/_REACH_TOL), the edge moves out to where it
        does, if that lies within _REACH times the box; otherwise it stays
        on the box and the eigensolver's edge check judges it.  A well with
        no level gets the box."""
        h = 0.01
        box_lo, box_hi = self.domain_box
        if not self.level_count:
            return float(box_lo), float(box_hi)
        # the reach is sampled only when the box leaves too little decay
        for reach in (1.0, _REACH):
            lo, hi = reach * box_lo, reach * box_hi
            r = np.linspace(lo, hi, round((hi - lo) / h) + 1)
            excess = self.shifted(r) - self.levels[-1]
            allowed = excess <= 0.0
            left = int(np.argmax(allowed))
            right = r.size - 1 - int(np.argmax(allowed[::-1]))
            kappa = h * np.sqrt(np.maximum(excess, 0.0))
            decay_l = np.cumsum(kappa[left::-1])
            decay_r = np.cumsum(kappa[right:])
            if min(decay_l[-1], decay_r[-1]) >= math.log(1.0 / _REACH_TOL):
                break
        left -= _edge_steps(decay_l, left - round((box_lo - lo) / h))
        right += _edge_steps(decay_r, round((box_hi - lo) / h) - right)
        return float(r[max(left, 0)]), float(r[min(right, r.size - 1)])

    @_elementwise
    def shifted(self, r):
        """W'^2 - W'': the base well with its ground state at zero energy."""
        with np.errstate(over="ignore"):
            return self.w_prime(r) ** 2 - self.w_second(r)

    @_elementwise
    def partner(self, r):
        """W'^2 + W'': the factorization partner, whose levels are the
        shifted well's without the zero mode."""
        with np.errstate(over="ignore"):
            return self.w_prime(r) ** 2 + self.w_second(r)

    def _weight(self, r):
        """psi0^2 = e^-2W."""
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-2.0 * self.w(r))

    @_elementwise
    def _weight_integral(self, r):
        """I(rho) = int_0^rho psi0^2 at each point, with the points clipped
        to `weight_support`: the cumulative sum of the panels of width
        _STEP from 0 to the multiple k _STEP nearest the point, plus one
        signed panel from there to the point."""
        r = np.clip(r, *self.weight_support)
        k = np.rint(r / _STEP).astype(int)
        lo = k.min(initial=0)
        edges = np.arange(lo, k.max(initial=0) + 1) * _STEP
        cum = np.concatenate((
            [0.0], np.cumsum(_panel_integrals(self._weight, edges[:-1],
                                              edges[1:]))))
        return (cum[k - lo] - cum[-lo]
                + _panel_integrals(self._weight, k * _STEP, r))

    def rho_min(self) -> float:
        """Left edge of the domain where the generalized well is defined,
        the root of gamma + I(rho) (-inf when gamma exceeds the weight's
        negative-tail mass).  gamma + I at the edges of one pass of _STEP
        panels from `weight_support`'s left end to 0 brackets the root in a
        panel; bisection in it integrates one short panel per step."""
        edges = np.arange(round(self.weight_support[0] / _STEP), 1) * _STEP
        panels = _panel_integrals(self._weight, edges[:-1], edges[1:])
        at_edges = self.gamma - np.append(np.cumsum(panels[::-1])[::-1], 0.0)
        if at_edges[0] > 0:
            return -math.inf
        i = int(np.argmax(at_edges > 0)) - 1
        lo, hi = edges[i], edges[i + 1]
        while hi - lo >= 1e-13 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if at_edges[i] + _panel_integrals(self._weight, edges[i], mid) > 0:
                hi = mid
            else:
                lo = mid
        return float(0.5 * (lo + hi))

    @_elementwise
    def q(self, r):
        """Deformation term: squared ground state over (gamma + its running
        integral from 0).  Strictly positive wherever defined."""
        den = self.gamma + self._weight_integral(r)
        bad = den <= 0.0
        if np.any(bad):
            raise SingularConfigurationError(
                self.label, float(r[np.argmax(bad)]), self.gamma)
        return self._weight(r) / den

    @_elementwise
    def q_derivative(self, r):
        """dq/drho through the logarithmic-derivative identity
        q' = -2 W' q - q^2."""
        q = self.q(r)
        out = -2.0 * self.w_prime(r) * q - q * q
        # where q has underflowed to 0, W' may have overflowed (0 * inf)
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
    domain_box: ClassVar[tuple] = (-4.0, 32.0)
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

    def hankel_order(self, n: int) -> int:
        """Bessel order round(a) - n of the map from Morse state n to
        sech-well state n (a - n at the pairing points mu = lam - 1/2), from
        a, so no round-off in a computed level can pick it."""
        return round(self.a) - n

    @property
    def weight_support(self) -> tuple[float, float]:
        # upper end: e^-(2 lam - 1) rho tail below 1e-20
        return -8.0, max(12.0, 46.0 / (2.0 * self.lam - 1.0) + 2.0)

    @_elementwise
    def w(self, r):
        """Superpotential W = lam e^-rho + (lam - 1/2) rho."""
        with np.errstate(over="ignore"):
            return self.lam * np.exp(-r) + (self.lam - 0.5) * r

    @_elementwise
    def w_prime(self, r):
        """W' = lam (1 - e^-rho) - 1/2."""
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
    domain_box: ClassVar[tuple] = (-20.0, 20.0)
    riccati_domain: ClassVar[tuple] = (-5.0, 5.0, 10001)

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("PT requires mu > 0")
        super().__post_init__()

    @property
    def strength(self) -> float:
        return self.mu

    @property
    def weight_support(self) -> tuple[float, float]:
        hi = max(12.0, 46.0 / (2.0 * self.mu) + math.log(2.0) + 2.0)
        return -hi, hi

    @_elementwise
    def w(self, r):
        """Superpotential W = mu ln cosh rho, computed overflow-free."""
        abs_r = np.abs(r)
        return self.mu * (abs_r + np.log1p(np.exp(-2.0 * abs_r))
                          - math.log(2.0))

    @_elementwise
    def w_prime(self, r):
        return self.mu * np.tanh(r)

    @_elementwise
    def w_second(self, r):
        with np.errstate(over="ignore"):
            return self.mu / np.cosh(r)**2


FAMILIES = {cls.family: cls for cls in (MorseParams, PTParams)}


# ---------------------------------------------------------------------------
# Riccati residual
# ---------------------------------------------------------------------------


def riccati_residual(f, w_prime, w_second, grid: Grid) -> float:
    """max |f' + f^2 - W'^2 - W''| over interior nodes, with f' from a
    five-point central-difference stencil at the spacing of a uniform
    grid."""
    if grid.stretch:
        raise ValueError("riccati_residual needs a uniform grid; got one "
                         f"with stretch {grid.stretch:g}")
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
