"""Fourier-Bessel machinery connecting the two potential families.

The angular reduction of the 2-D Fourier transform, the order-m Hankel
transform on a truncated axis, the radial wavefunction map between the Morse
and sech-well pictures, and the deformation-term comparison reports.

A Hankel plan is a quadrature rule on [0, t_max] that serves every order;
transforms take and return value arrays.  `truncated` is the one check of a
function still alive at t_max: the transforms warn when it holds, and the
CLI tables record it as `truncation_warned`.

Phase bookkeeping: the transform of a state with angular index m carries a
constant factor (-i)^m.  Arrays stay real; the CLI tables record the phase
as `quarter_turns` = m % 4.  Bound-state comparisons are phase-blind.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import SampledFunction
from .coordinates import rho_from_morse_t, rho_from_pt_t
from .eigensolver import Spectrum
from .numerics import (QuadratureResult, bessel_j, bessel_j_pair,
                       gauss_legendre, integrate_oscillatory_bessel,
                       sinc_interp)
from .numerics import cubic_interp  # noqa: F401  (retired; see numerics)
from .potentials import MorseParams, PTParams

__all__ = [
    "DEFAULT_PLAN_N",
    "DEFAULT_T_MAX",
    "MIN_PLAN_N",
    "TruncationWarning",
    "HankelPlan",
    "make_hankel_plan",
    "truncated",
    "hankel",
    "hankel_oscillatory",
    "angular_phase_integral",
    "wavefunction_map",
    "morse_state_on_plan",
    "pt_state_on_nodes",
    "morse_term_values",
    "pt_term_values",
    "StateContraction",
    "TermMapReport",
    "potential_term_map",
    "SandwichCheck",
    "potential_term_sandwich",
]

DEFAULT_PLAN_N = 256
DEFAULT_T_MAX = 40.0
MIN_PLAN_N = 16
_DECAY_TOL = 1e-8
# The element budget (nodes x t') of a kernel block, 2 MB per array, so
# that one block's arrays stay near a core's L2 cache; at most
# _MAX_WORKERS blocks are in flight, as many elements as one 2048 x 512
# block.
_BLOCK_ELEMENTS = 1 << 18
_MAX_WORKERS = 4


class TruncationWarning(UserWarning):
    """The integrand has not decayed at the truncation radius."""


@dataclass(frozen=True)
class HankelPlan:
    """Quadrature rule for integral_0^t_max t g(t) J_m(t t') dt at any
    order m."""

    t_max: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be positive and strictly increasing")
        if nodes[-1] > self.t_max + 1e-12:
            raise ValueError("nodes must not exceed t_max")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")


def make_hankel_plan(t_max: float = DEFAULT_T_MAX,
                     n: int = DEFAULT_PLAN_N) -> HankelPlan:
    """n-point Gauss-Legendre rule on [0, t_max], for transforms of every
    order.

    The rule is exact for polynomials of degree 2n - 1 and converges
    exponentially for integrands analytic on [0, t_max], once the nodes
    resolve the oscillation of J_m(t t') there.  At lambda = 4.5,
    mu = 4 the wavefunction map over t' <= 6 is converged at 96 nodes on
    [0, 40] (L2 discrepancy 2e-9 to 6e-9 for states 0-3, the level of the
    eigenstates themselves) and fails at 64; the default of 256 leaves a
    margin of more than two.  Building the plan is O(n) above 100 nodes
    (`gauss_legendre`), about 0.3 ms at 2048, so a fresh plan per call
    costs next to nothing."""
    if n < MIN_PLAN_N:
        raise ValueError(f"plan needs at least {MIN_PLAN_N} nodes")
    x, w = gauss_legendre(n)
    half = 0.5 * t_max
    return HankelPlan(t_max, half * (1.0 + x), half * w)


def truncated(g, plan: HankelPlan) -> bool:
    """Whether g, given by its values on the plan's nodes, is still alive at
    t_max: its last value times t_max exceeds _DECAY_TOL (1e-8) times
    max(1, max |g|)."""
    gv = np.asarray(g, dtype=float)
    if gv.shape != plan.nodes.shape:
        raise ValueError(f"g has shape {gv.shape}; the plan has "
                         f"{plan.nodes.size} nodes")
    tail = abs(float(gv[-1])) * plan.t_max
    return tail > _DECAY_TOL * max(1.0, float(np.max(np.abs(gv))))


def _outside_stacklevel() -> int:
    """The `warnings.warn` stacklevel, counted from the caller of this
    function, of the first frame outside this module: the caller of the
    public transform, however deep inside the module the warning is
    raised."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


def _weighted(g, plan: HankelPlan) -> np.ndarray:
    """Quadrature weight times measure times the values g on the plan's
    nodes.  Warns (TruncationWarning, at the caller of the public function)
    when `truncated(g, plan)`."""
    gv = np.asarray(g, dtype=float)
    if truncated(gv, plan):
        warnings.warn(f"integrand tail {abs(gv[-1]) * plan.t_max:.2e} at "
                      f"t_max={plan.t_max:g}; increase t_max",
                      TruncationWarning, stacklevel=_outside_stacklevel())
    return plan.weights * plan.nodes * gv


def _kernels_down(top: int, bottom: int, x: np.ndarray):
    """(k, J_k(x)) for k = top, top - 1, ..., bottom.

    A single order is built by bessel_j.  Otherwise bessel_j_pair builds
    J_top and J_{top-1} together, J_top bit for bit as bessel_j builds it;
    every lower order follows from the downward recurrence
    J_{k-1}(x) = (2k/x) J_k(x) - J_{k+1}(x) (Abramowitz & Stegun 9.1.27),
    stable in that direction, written over the buffer of J_{k+1}, which is
    dropped by then.  Where x = 0 the recurrence takes 2/x as 0, which gives
    J_k(0) = -J_{k+2}(0) = 0 for k > 0, and J_0(0) = 1 is set.  Once the top
    two orders are built, x itself is overwritten by 2/x."""
    if top == bottom:
        yield top, bessel_j(top, x)
        return
    upper, lower = bessel_j_pair(top, x)
    yield top, upper
    yield top - 1, lower
    zero = x == 0.0
    two_over_x = np.divide(2.0, x, out=x, where=~zero)
    scratch = np.empty_like(x)
    for k in range(top - 1, bottom, -1):
        np.multiply(two_over_x, lower, out=scratch)
        scratch *= k
        upper, lower = lower, np.subtract(scratch, upper, out=upper)
        if k == 1:
            lower[zero] = 1.0
        yield k - 1, lower


@functools.cache
def _executor():
    """The thread pool of the kernel blocks, made at first use: one worker
    per CPU this process may run on, at most _MAX_WORKERS; None on one
    CPU."""
    try:
        workers = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    except AttributeError:  # no sched_getaffinity on this platform
        workers = min(os.cpu_count() or 1, _MAX_WORKERS)
    if workers < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="susyspectra-kernel")


def _contract(jobs, plan: HankelPlan, tp: np.ndarray) -> list[np.ndarray]:
    """sum_i core_i J_order(t_i t') at the t' of the 1-D array tp, for each
    (order, core) job.

    tp is split into ceil(nodes * tp.size / _BLOCK_ELEMENTS) blocks of equal
    width (to one column), so a block's kernel holds at most 2^18 elements
    and the rounding's one column.
    The blocks run on the `_executor` pool (one block, or one CPU, runs in
    the calling thread), and each writes only its own columns of the
    results.  The boundaries depend only on the plan's size and tp, so every
    result is the same whatever the worker count.

    Per block, one pass of _kernels_down serves every job: the kernel is
    built at the highest order of the jobs and the one below it, and by
    recurrence at every lower order down to the lowest, gaps included.
    Each job is contracted with the kernel at its own order by its own
    vector-matrix product.  `hankel` passes one job; `potential_term_map`
    passes the term map's and every bound state's jobs to a single pass
    when the term map's order is not above the states'.  A job's result is
    the same whichever jobs share its pass, up to rounding when the pass
    reaches its order by recurrence rather than directly, as long as the
    top order's kernel has not underflowed where a lower order's has not:
    the recurrence gets nothing back from J_top = 0, and J_300(x) is 0 for
    every x < 10."""
    outs = [np.empty(tp.size) for _ in jobs]
    if not jobs or not tp.size:
        return outs
    orders = [order for order, _ in jobs]
    blocks = min(tp.size, -(-plan.nodes.size * tp.size // _BLOCK_ELEMENTS))
    edges = [tp.size * b // blocks for b in range(blocks + 1)]

    def block(lo: int, hi: int) -> None:
        x = plan.nodes[:, None] * tp[None, lo:hi]
        for order, kernel in _kernels_down(max(orders), min(orders), x):
            for out, (k, core) in zip(outs, jobs):
                if k == order:
                    out[lo:hi] = core @ kernel

    pool = _executor() if blocks > 1 else None
    if pool is None:
        for lo, hi in zip(edges, edges[1:]):
            block(lo, hi)
    else:
        # a block's exception is raised again here, in the caller
        list(pool.map(block, edges[:-1], edges[1:]))
    return outs


def hankel(g, plan: HankelPlan, t_prime, order: int):
    """Truncated order-`order` Hankel transform, sum_i w_i t_i g_i
    J_order(t_i t'), of the values g on the plan's nodes, at t_prime
    (scalar or array).

    Emits TruncationWarning when `truncated(g, plan)`: g is still alive at
    t_max, so the truncated integral misses its tail.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    core = _weighted(g, plan)
    tp = np.asarray(t_prime, dtype=float)
    out = _contract([(order, core)], plan, np.atleast_1d(tp))[0]
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


def _on_solver_grid(state: SampledFunction, rho) -> np.ndarray:
    """A solver state at the points rho, by sinc interpolation (exact for a
    sinc-DVR state); zero outside the solved window, where it has
    decayed."""
    x0 = float(state.nodes[0])
    return sinc_interp(x0, float(state.nodes[1]) - x0, state.values, rho)


def morse_state_on_plan(state: SampledFunction, lam: float,
                        plan: HankelPlan) -> np.ndarray:
    """A level-coordinate eigenfunction as R(t) on the plan's nodes,
    t = lam e^-rho."""
    return _on_solver_grid(state, rho_from_morse_t(lam, plan.nodes))


def pt_state_on_nodes(state: SampledFunction, t_prime_nodes) -> np.ndarray:
    """A sech-well eigenfunction as U(t') at t' = e^-rho."""
    return _on_solver_grid(
        state, rho_from_pt_t(np.asarray(t_prime_nodes, dtype=float)))


def wavefunction_map(R, m: int, t_prime_nodes,
                     plan: HankelPlan) -> np.ndarray:
    """Map a radial Morse-picture state R, its values on the plan's nodes,
    to the sech-well picture at t_prime_nodes:
    U(t') = 2 pi (1 + t'^2)^(3/2) * Hankel_m[R](t'), less the constant
    phase (-i)^m."""
    tp = np.asarray(t_prime_nodes, dtype=float)
    return 2.0 * np.pi * (1.0 + tp * tp) ** 1.5 * hankel(R, plan, tp, m)


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
class StateContraction:
    """One bound state R_n of the Morse well on the fine plan, at its order
    m_n: psi = Hankel_m[R_n](t'), term = Hankel_m[Morse term](t'), and
    morse_direct = sum_i w_i t_i g_i R_n(t_i), the single-integral form of
    their t'-overlap."""

    n: int
    order: int
    psi: np.ndarray
    term: np.ndarray
    morse_direct: float


@dataclass
class TermMapReport:
    """Pointwise comparison of the transformed Morse deformation term with
    the direct sech-well term, plus a quadrature-refinement trace.

    The residual is reported as data: the comparison probes whether the
    term-level transform claim holds at all, so no threshold is attached.
    The refinement trace shows the residual is resolution-converged (a
    property of the functions, not quadrature noise).  `states` holds the
    fine-plan contractions of each bound state given to
    `potential_term_map`, which `potential_term_sandwich` integrates.
    """

    order: int
    t_prime: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    max_residual: float
    refinement: list[tuple[int, float]]
    truncation_warned: bool = False
    states: list[StateContraction] = field(default_factory=list)


def potential_term_map(params_m: MorseParams, params_pt: PTParams, m: int,
                       plan: HankelPlan, t_prime_nodes,
                       spectrum: Spectrum) -> TermMapReport:
    """LHS(t') = Hankel_m of the Morse-side term, RHS(t') = direct
    sech-well-side term; residual emitted with a two-resolution trace, the
    plan's and a coarse plan of half its nodes.

    On the fine plan one `_contract` pass serves the term map and every
    bound state of `spectrum`: its jobs are (m, g) and, per state at its
    order m_n, (m_n, R_n) and (m_n, g), so the Bessel kernel is built once
    per block of t' for all of them.  An m above every m_n gets a pass of
    its own, so the states' contractions never depend on m.  They are kept
    on the report's `states` for `potential_term_sandwich`; an empty
    spectrum gives the term map alone."""
    tp = np.asarray(t_prime_nodes, dtype=float)
    coarse = make_hankel_plan(plan.t_max, plan.nodes.size // 2)
    rhs = pt_term_values(params_pt, tp)
    g = morse_term_values(params_m, coarse.nodes)
    warned = truncated(g, coarse)
    lhs = hankel(g, coarse, tp, m)
    refinement = [(coarse.nodes.size, float(np.max(np.abs(lhs - rhs))))]
    g = morse_term_values(params_m, plan.nodes)
    warned = warned or truncated(g, plan)
    g_core = _weighted(g, plan)
    jobs = []
    states = []
    a2 = params_m.a * params_m.a
    for n, state in enumerate(spectrum.eigenfunctions):
        energy = float(spectrum.eigenvalues[n])
        m_n = int(round(math.sqrt(max(a2 - energy, 0.0))))
        R = morse_state_on_plan(state, params_m.lam, plan)
        states.append((n, m_n, float(np.sum(g_core * R))))
        jobs += [(m_n, _weighted(R, plan)), (m_n, g_core)]
    if m <= max((k for k, _ in jobs), default=m):
        lhs, *contracted = _contract([(m, g_core)] + jobs, plan, tp)
    else:
        # a pass started at m would take the states' kernels by recurrence
        # from J_m, which underflows where theirs does not (for x < 10 at
        # m = 300), so the term map takes a pass of its own
        lhs = _contract([(m, g_core)], plan, tp)[0]
        contracted = _contract(jobs, plan, tp)
    residual = lhs - rhs
    refinement.append((plan.nodes.size, float(np.max(np.abs(residual)))))
    return TermMapReport(
        order=m,
        t_prime=tp,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_residual=float(np.max(np.abs(residual))),
        refinement=refinement,
        truncation_warned=warned,
        states=[StateContraction(n, m_n, contracted[2 * i],
                                 contracted[2 * i + 1], direct)
                for i, (n, m_n, direct) in enumerate(states)],
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


def potential_term_sandwich(report: TermMapReport) -> list[SandwichCheck]:
    """For each bound state R_n on the report: compare
    integral dt' t' Hankel_m[morse term](t') Psi_n(t')   (Hankel route)
    with
    integral dt' t' [sech-well term](t') Psi_n(t')       (direct evaluation)
    where Psi_n = Hankel_m[R_n] and m_n resolves from the state's energy.
    Both integrals are trapezoid sums over the report's t'; the
    contractions are those `potential_term_map` kept, so no kernel is
    built here.
    """
    tp = report.t_prime
    direct_pt_term = tp * report.rhs
    checks = []
    for st in report.states:
        hankel_route = float(np.trapezoid(tp * st.term * st.psi, tp))
        direct_pt = float(np.trapezoid(direct_pt_term * st.psi, tp))
        denom = max(abs(hankel_route), abs(direct_pt), 1e-300)
        checks.append(SandwichCheck(
            n=st.n, order=st.order,
            hankel_route=hankel_route,
            direct_pt=direct_pt,
            morse_direct=st.morse_direct,
            rel_diff=abs(hankel_route - direct_pt) / denom,
        ))
    return checks
