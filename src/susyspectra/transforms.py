"""Fourier-Bessel machinery connecting the two potential families.

The angular reduction of the 2-D Fourier transform, the order-m Hankel
transform on a truncated axis, the radial wavefunction map between the Morse
and sech-well pictures, and the deformation-term comparison reports.

Phase bookkeeping: the transform of a state with angular index m carries a
constant factor (-i)^m.  It is tracked as a quarter-turn count in metadata so
every stored array stays real; bound-state comparisons are phase-blind.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import SampledFunction
from .coordinates import rho_from_morse_t, rho_from_pt_t
from .eigensolver import Spectrum
from .numerics import (QuadratureResult, bessel_j,
                       integrate_oscillatory_bessel, sinc_interp)
from .numerics import cubic_interp  # noqa: F401  (retired; see numerics)
from .potentials import MorseParams, PTParams

__all__ = [
    "TruncationWarning",
    "HankelPlan",
    "make_hankel_plan",
    "hankel",
    "hankel_oscillatory",
    "angular_phase_integral",
    "wavefunction_map",
    "morse_state_on_plan",
    "pt_state_on_nodes",
    "morse_term_values",
    "pt_term_values",
    "TermMapReport",
    "potential_term_map",
    "SandwichCheck",
    "potential_term_sandwich",
]

_DECAY_TOL = 1e-8
_CHUNK = 512


class TruncationWarning(UserWarning):
    """The integrand has not decayed at the truncation radius."""


@dataclass(frozen=True)
class HankelPlan:
    """Quadrature plan for integral_0^tmax t g(t) J_order(t t') dt."""

    order: int
    t_max: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be positive and strictly increasing")
        if nodes[-1] > self.t_max + 1e-12:
            raise ValueError("nodes must not exceed t_max")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")


def make_hankel_plan(order: int, t_max: float = 40.0, n: int = 16384) -> HankelPlan:
    """Uniform nodes h, 2h, ..., t_max with trapezoid weights; the implicit
    node at t = 0 contributes nothing because of the measure factor t.

    The leading trapezoid error is (h^2/12) f'(0); n = 16384 over t_max = 40
    puts it near 5e-7 for order-0 transforms of O(1) integrands."""
    if n < 16:
        raise ValueError("plan needs at least 16 nodes")
    h = t_max / n
    nodes = h * np.arange(1, n + 1)
    weights = np.full(n, h)
    weights[-1] = 0.5 * h
    return HankelPlan(order, t_max, nodes, weights)


def _g_values(g, plan: HankelPlan):
    if isinstance(g, SampledFunction):
        if g.nodes.shape != plan.nodes.shape or not np.allclose(g.nodes, plan.nodes):
            raise ValueError("sampled function must live on the plan's nodes")
        return np.asarray(g.values, dtype=float), g.meta
    return np.asarray(g, dtype=float), {}


def _weighted(g, plan: HankelPlan) -> np.ndarray:
    """Quadrature weight times measure times g on the plan nodes.  Warns
    (TruncationWarning, at the caller of the public function) when g is
    still alive at t_max, unless it carries meta['analytic_tail']."""
    gv, meta = _g_values(g, plan)
    if gv.shape != plan.nodes.shape:
        raise ValueError("g must provide one value per plan node")
    tail = abs(float(gv[-1])) * plan.t_max
    if tail > _DECAY_TOL * max(1.0, float(np.max(np.abs(gv)))) \
            and not meta.get("analytic_tail"):
        warnings.warn(
            f"integrand tail {tail:.2e} at t_max={plan.t_max:g}; "
            "increase t_max or flag an analytic tail", TruncationWarning,
            stacklevel=3)
    return plan.weights * plan.nodes * gv


def _contract(cores, plan: HankelPlan, tp: np.ndarray) -> list[np.ndarray]:
    """sum_i core_i J_order(t_i t') at the t' of the 1-D array tp, for each
    core.  Each chunk of the Bessel kernel is built once and contracted with
    every core by its own vector-matrix product."""
    outs = [np.empty(tp.size) for _ in cores]
    for start in range(0, tp.size, _CHUNK):
        chunk = tp[start:start + _CHUNK]
        kernel = bessel_j(plan.order, plan.nodes[:, None] * chunk[None, :])
        for out, core in zip(outs, cores):
            out[start:start + _CHUNK] = core @ kernel
        del kernel  # free it before the next chunk's kernel is built
    return outs


def hankel(g, plan: HankelPlan, t_prime):
    """Truncated Hankel transform of g at t_prime (scalar or array).

    g is a SampledFunction on the plan's nodes or a plain value array.
    Emits TruncationWarning when the integrand is still alive at t_max,
    unless the function carries meta['analytic_tail'].
    """
    core = _weighted(g, plan)
    tp = np.asarray(t_prime, dtype=float)
    out = _contract([core], plan, np.atleast_1d(tp))[0]
    return float(out[0]) if tp.ndim == 0 else out


def hankel_oscillatory(g, m: int, t_prime: float,
                       tol: float = 1e-9) -> QuadratureResult:
    """Hankel transform of a non-decaying g by semi-infinite oscillatory
    integration (the measure factor t is folded into the integrand)."""
    return integrate_oscillatory_bessel(
        lambda t: np.asarray(t, dtype=float) * np.asarray(g(t), dtype=float),
        m, t_prime, tol)


def angular_phase_integral(x: float, m: int, phi_prime: float,
                           n_nodes: int = 512) -> complex:
    """Periodic trapezoid value of the angular integral
    closed-integral_0^2pi exp(-i x cos(Phi - Phi') + i m Phi) dPhi,
    which collapses to 2 pi (-i)^m e^{i m Phi'} J_m(x)."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    n = max(n_nodes, 8 * (int(abs(x)) + abs(int(m)) + 8))
    phi = 2.0 * np.pi * np.arange(n) / n
    vals = np.exp(1j * (-x * np.cos(phi - phi_prime) + m * phi))
    return complex(2.0 * np.pi * np.mean(vals))


# ---------------------------------------------------------------------------
# Radial resampling between the solver grid and transform nodes
# ---------------------------------------------------------------------------


def morse_state_on_plan(state: SampledFunction, lam: float,
                        plan: HankelPlan) -> SampledFunction:
    """Re-express a level-coordinate eigenfunction as R(t) on plan nodes,
    t = lam e^-rho, by sinc interpolation in rho (exact for a sinc-DVR
    state).  Outside the solved window the state has decayed; zeros."""
    rho = rho_from_morse_t(lam, plan.nodes)
    x0 = float(state.nodes[0])
    dx = float(state.nodes[1] - state.nodes[0])
    vals = sinc_interp(x0, dx, state.values, rho)
    return SampledFunction(plan.nodes, vals)


def pt_state_on_nodes(state: SampledFunction, t_prime_nodes) -> SampledFunction:
    """Re-express a sech-well eigenfunction as U(t'), t' = e^-rho."""
    tp = np.asarray(t_prime_nodes, dtype=float)
    rho = rho_from_pt_t(tp)
    x0 = float(state.nodes[0])
    dx = float(state.nodes[1] - state.nodes[0])
    vals = sinc_interp(x0, dx, state.values, rho)
    return SampledFunction(tp, vals)


def wavefunction_map(R: SampledFunction, m: int, t_prime_nodes,
                     plan: HankelPlan | None = None) -> SampledFunction:
    """Map a radial Morse-picture state to the sech-well picture:
    U(t') = 2 pi (1 + t'^2)^(3/2) * Hankel_m[R](t'), with the constant
    (-i)^m phase factored out into meta['quarter_turns']."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if plan is None:
        nodes = R.nodes
        h = nodes[1] - nodes[0]
        if not np.allclose(np.diff(nodes), h):
            raise ValueError("R must be sampled uniformly (or pass a plan)")
        weights = np.full(nodes.size, h)
        weights[-1] = 0.5 * h
        plan = HankelPlan(m, float(nodes[-1]), nodes, weights)
    else:
        plan = replace(plan, order=m)
    tp = np.asarray(t_prime_nodes, dtype=float)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        vals = 2.0 * np.pi * (1.0 + tp * tp) ** 1.5 * hankel(R, plan, tp)
    truncated = any(issubclass(w.category, TruncationWarning) for w in caught)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return SampledFunction(tp, vals, meta={
        "quarter_turns": m % 4,
        "truncation_warning": truncated,
    })


# ---------------------------------------------------------------------------
# Deformation-term comparison
# ---------------------------------------------------------------------------


def morse_term_values(params: MorseParams, t) -> np.ndarray:
    """(1/t) d/dt of the Morse deformation term in t = lam e^-rho, via
    d/dt = -(1/t) d/drho."""
    t = np.asarray(t, dtype=float)
    rho = rho_from_morse_t(params.lam, t)
    return -params.q_derivative(rho) / (t * t)


def pt_term_values(params: PTParams, t_prime) -> np.ndarray:
    """(1/t') d/dt' of the sech-well deformation term in t' = e^-rho."""
    tp = np.asarray(t_prime, dtype=float)
    rho = rho_from_pt_t(tp)
    return -params.q_derivative(rho) / (tp * tp)


@dataclass
class TermMapReport:
    """Pointwise comparison of the transformed Morse deformation term with
    the direct sech-well term, plus a quadrature-refinement trace.

    The residual is reported as data: the comparison probes whether the
    term-level transform claim holds at all, so no threshold is attached.
    The refinement trace shows the residual is resolution-converged (a
    property of the functions, not quadrature noise).
    """

    order: int
    t_prime: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    max_residual: float
    refinement: list[tuple[int, float]]
    truncation_warned: bool = False


def potential_term_map(params_m: MorseParams, params_pt: PTParams, m: int,
                       plan: HankelPlan, t_prime_nodes) -> TermMapReport:
    """LHS(t') = Hankel_m of the Morse-side term, RHS(t') = direct
    sech-well-side term; residual emitted with a two-resolution trace."""
    tp = np.asarray(t_prime_nodes, dtype=float)
    plan = replace(plan, order=m)
    coarse = make_hankel_plan(m, plan.t_max, plan.nodes.size // 2)
    rhs = pt_term_values(params_pt, tp)
    refinement = []
    lhs = np.empty(0)
    warned = False
    for pl in (coarse, plan):
        g = morse_term_values(params_m, pl.nodes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            lhs = hankel(g, pl, tp)
        warned = warned or any(
            issubclass(w.category, TruncationWarning) for w in caught)
        refinement.append((pl.nodes.size, float(np.max(np.abs(lhs - rhs)))))
    residual = lhs - rhs
    return TermMapReport(
        order=m,
        t_prime=tp,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_residual=float(np.max(np.abs(residual))),
        refinement=refinement,
        truncation_warned=warned,
    )


@dataclass
class SandwichCheck:
    """State-integrated comparison of the term-transform claim.

    hankel_route: t'-integral of the Hankel-transformed Morse term against
    the state's transform.  direct_pt: same integral with the sech-well term
    in place of the transformed one.  morse_direct: the single-integral
    evaluation of the Hankel route (its quadrature cross-check).
    """

    n: int
    order: int
    hankel_route: float
    direct_pt: float
    morse_direct: float
    rel_diff: float


def potential_term_sandwich(params_m: MorseParams, params_pt: PTParams,
                            spectrum: Spectrum, plan: HankelPlan,
                            t_prime_nodes,
                            orders: list[int] | None = None) -> list[SandwichCheck]:
    """For each bound state R_n: compare
    integral dt' t' Hankel_m[morse term](t') Psi_n(t')   (Hankel route)
    with
    integral dt' t' [sech-well term](t') Psi_n(t')       (direct evaluation)
    where Psi_n = Hankel_m[R_n] and m_n resolves from the state's energy.
    """
    tp = np.asarray(t_prime_nodes, dtype=float)
    a = params_m.a
    checks = []
    for n, state in enumerate(spectrum.eigenfunctions):
        energy = float(spectrum.eigenvalues[n])
        if orders is not None:
            m = orders[n]
        else:
            m = int(round(math.sqrt(max(a * a - energy, 0.0))))
        pl = replace(plan, order=m)
        R = morse_state_on_plan(state, params_m.lam, pl)
        g = morse_term_values(params_m, pl.nodes)
        # R and g share the order and the t' nodes, hence the Bessel kernel
        psi_t, lhs_fun = _contract([_weighted(R, pl), _weighted(g, pl)],
                                   pl, tp)
        hankel_route = float(np.trapezoid(tp * lhs_fun * psi_t, tp))
        direct_pt = float(np.trapezoid(tp * pt_term_values(params_pt, tp) * psi_t, tp))
        morse_direct = float(np.sum(pl.weights * pl.nodes * g * R.values))
        denom = max(abs(hankel_route), abs(direct_pt), 1e-300)
        checks.append(SandwichCheck(
            n=n, order=m,
            hankel_route=hankel_route,
            direct_pt=direct_pt,
            morse_direct=morse_direct,
            rel_diff=abs(hankel_route - direct_pt) / denom,
        ))
    return checks
