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

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coordinates import rho_from_morse_t, rho_from_pt_t
from .eigensolver import Spectrum
from .numerics import (QuadratureResult, bessel_j, gauss_legendre,
                       integrate_oscillatory_bessel, sinc_interp)
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
    costs next to nothing.  A transform's kernel is built on the Chebyshev
    points of `_contract`, whatever n: in t, N + 1 points with N set by
    max |t'| times t_max / 2, onto which the plan's nodes move; in t', as
    many from t_max times the half-width of the t' range, where they are
    fewer than the t' asked for (226 x 226 for t' in [0.01, 8] at
    t_max = 40).  The points do not depend on n, so plans of any size on
    one t_max share a kernel."""
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

    The top order, and the one below it when there are more, are built by
    one bessel_j call each; every lower order follows from the downward
    recurrence J_{k-1}(x) = (2k/x) J_k(x) - J_{k+1}(x) (Abramowitz & Stegun
    9.1.27), stable in that direction.  Where x = 0 the recurrence takes
    2/x as 0, which gives J_k(0) = -J_{k+2}(0) = 0 for k > 0, and
    J_0(0) = 1 is set.  x itself is left as it is."""
    upper = bessel_j(top, x)
    yield top, upper
    if top == bottom:
        return
    lower = bessel_j(top - 1, x)
    yield top - 1, lower
    zero = x == 0.0
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=~zero)
    for k in range(top - 1, bottom, -1):
        upper, lower = lower, two_over_x * lower * k - upper
        if k == 1:
            lower[zero] = 1.0
        yield k - 1, lower


# Bernstein-ellipse parameters over which _chebyshev_degree minimises its
# bound; any rho > 1 gives a valid bound, the grid only sharpens it
_RHO = 1.0 + np.logspace(-4.0, 2.0, 601)

# bessel_j's stated range, |x| <= 1000: the largest t t' a transform takes
_X_MAX = 1000.0


def _chebyshev_degree(exp_type: float, half_width: float) -> int:
    """The smallest degree N at which Chebyshev interpolation of
    H(s) = sum_i c_i J_m(s u_i), |u_i| <= exp_type, on an interval of
    half-length `half_width` is within 2^-53 sum |c_i| of H.

    H is entire of exponential type `exp_type` in s: |J_m(z)| <= e^|Im z|
    for integer m, so on the Bernstein ellipse E_rho of the interval |H| is
    at most sum |c_i| e^(exp_type L (rho - 1/rho) / 2), L = half_width, and
    the degree-N interpolant in the Chebyshev points of the second kind is
    off by at most 4 rho^-N / (rho - 1) times that bound (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2).  N is the
    least, over the _RHO grid, that brings this to 2^-53; at least 1.
    `_contract` keeps exp_type * half_width within _X_MAX, so N is finite
    (about 550 at that bound)."""
    need = (np.log(4.0 / (_RHO - 1.0))
            + 0.5 * exp_type * half_width * (_RHO - 1.0 / _RHO)
            + 53.0 * math.log(2.0)) / np.log(_RHO)
    return max(1, math.ceil(float(np.min(need))))


def _chebyshev_points(a: float, b: float, exp_type: float) -> np.ndarray:
    """The N + 1 Chebyshev points of the second kind on [a, b], a < b,
    N = `_chebyshev_degree(exp_type, (b - a) / 2)`, from b down to a, with
    the end points set to exactly b and a."""
    n = _chebyshev_degree(exp_type, 0.5 * (b - a))
    j = np.arange(n + 1)
    points = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / n)
    points[0], points[-1] = b, a
    return points


def _barycentric(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The matrix, of shape (targets.size, points.size), that takes values
    at the Chebyshev `points` to the 1-D array `targets`: the barycentric
    formula of Berrut & Trefethen (SIAM Rev. 46, 501 (2004)) with weights
    (-1)^j, halved at the ends.  A target equal to a point takes that
    point's value exactly."""
    j = np.arange(points.size)
    weights = np.where(j % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    diff = targets[:, None] - points[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    matrix = weights / diff
    matrix /= matrix.sum(axis=1, keepdims=True)
    hits = exact.any(axis=1)
    matrix[hits] = exact[hits]
    return matrix


def _chebyshev_interpolant(a: float, b: float, exp_type: float,
                           targets: np.ndarray):
    """(points, matrix) that take a function of exponential type
    `exp_type` on [a, b] to the 1-D array `targets` from its values at
    fewer points, `_chebyshev_points(a, b, exp_type)` and their
    `_barycentric` matrix; None when a == b or the targets themselves are
    as few."""
    if a == b:
        return None
    points = _chebyshev_points(a, b, exp_type)
    if points.size >= targets.size:
        return None
    return points, _barycentric(points, targets)


def _contract(jobs, tp: np.ndarray) -> list[np.ndarray]:
    """sum_i core_i J_order(t_i t') at the t' of the 1-D array tp, for each
    (order, plan, core) job, t_i the nodes of the job's plan.  The plans
    may differ in their nodes but share one t_max.

    The sum is entire in t' of exponential type t_max, and J_order(t t')
    is entire in t of exponential type max |t'|, so the kernel is built on
    Chebyshev points of both axes, each of a degree `_chebyshev_degree`
    chooses at a bound of 2^-53 sum |core_i|, below the rounding of
    `bessel_j`:
    - in t', the points p_j on [min t', max t'] (tp itself where it is as
      few), whose values are carried to tp by one barycentric matrix;
    - in t, the points s_k on [0, t_max] at the type max |t'|, onto which
      each job's core moves by the barycentric matrix L of its plan's
      nodes, core @ L, whatever the number of nodes.  A product per job,
      like the contraction, keeps a job's result the same bit for bit
      whichever jobs share its pass; one stacked product rounds
      differently for one job than for several.
    A moved core sums in magnitude to at most Lambda sum |core_i|, Lambda
    the Lebesgue constant of the points in t, so the pass is within
    2^-53 (1 + Lambda) sum |core_i| of the direct sum.  The points depend
    on t_max and the t' range only, so one kernel J(s_k p_j) serves every
    job and plan of the pass: 226 x 226 for 800 t' in [0.01, 8] and
    180 x 180 for 1200 t' in [0.02, 6], at t_max = 40, on the calling
    thread.  A t' equal to an end or a point takes that point's value, and
    t' = 0 takes sum_i core_i (of the plan's cores) at order 0 and 0 above
    it, as J_k(0) = delta_k0.

    Every t' must be finite, and t_max max |t'| at most 1000 (_X_MAX), the
    range of `bessel_j`; both are checked, NaN-safely, before any kernel
    or matrix is built.  The bound also caps the points at about 550 per
    axis.

    One pass of _kernels_down serves every job: the kernel is built at the
    highest order of the jobs and the one below it, and by recurrence at
    every lower order down to the lowest, gaps included.  Each job is
    contracted with the kernel at its own order by its own vector-matrix
    product.  `hankel` passes one job; `potential_term_map` passes both
    plans' term maps and every bound state's jobs to a single pass when
    the term map's order is not above the states'.  A job's result is the
    same whichever jobs share its pass, up to rounding when the pass
    reaches its order by recurrence rather than directly, as long as the
    top order's kernel has not underflowed where a lower order's has not:
    the recurrence gets nothing back from J_top = 0, and J_300(x) is 0 for
    every x < 10."""
    if not np.all(np.isfinite(tp)):
        raise ValueError("t' must be finite")
    if not jobs or not tp.size:
        return [np.empty(tp.size) for _ in jobs]
    t_max = jobs[0][1].t_max
    reach = float(np.max(np.abs(tp)))
    if not t_max * reach <= _X_MAX:
        raise ValueError(f"t_max * max|t'| = {t_max * reach:g} exceeds "
                         f"{_X_MAX:g}, the range of bessel_j")
    if any(plan.t_max != t_max for _, plan, _ in jobs):
        raise ValueError("the plans of one pass must share t_max")
    cheb = _chebyshev_interpolant(float(tp.min()), float(tp.max()), t_max,
                                  tp)
    points = tp if cheb is None else cheb[0]
    nodes = _chebyshev_points(0.0, t_max, reach)
    cores = [None] * len(jobs)
    for plan in {id(plan): plan for _, plan, _ in jobs}.values():
        # one plan's matrix is built, used and dropped before the next's
        matrix = _barycentric(nodes, plan.nodes)
        for i, (_, job_plan, core) in enumerate(jobs):
            if job_plan is plan:
                cores[i] = core @ matrix
        del matrix
    orders = [order for order, _, _ in jobs]
    outs = [None] * len(jobs)
    x = nodes[:, None] * points[None, :]
    for order, kernel in _kernels_down(max(orders), min(orders), x):
        for i, k in enumerate(orders):
            if k == order:
                outs[i] = cores[i] @ kernel
    if cheb is not None:
        outs = [cheb[1] @ out for out in outs]
    zero = tp == 0.0
    for out, (k, _, core) in zip(outs, jobs):
        out[zero] = np.sum(core) if k == 0 else 0.0
    return outs


def hankel(g, plan: HankelPlan, t_prime, order: int):
    """Truncated order-`order` Hankel transform, sum_i w_i t_i g_i
    J_order(t_i t'), of the values g on the plan's nodes, at t_prime
    (scalar or array of finite values, t_max |t'| <= 1000).

    The kernel is built at the Chebyshev points of `_contract` in t, onto
    which the plan's nodes move however many they are, and in t' where
    they are fewer than the t' asked for; the transform is within
    2^-53 (1 + Lambda) sum_i |w_i t_i g_i| of the direct sum,
    Lambda <= 2/pi log(N + 1) + 1 (about 4.5) the Lebesgue constant of
    the N + 1 points in t.

    Emits TruncationWarning when `truncated(g, plan)`: g is still alive at
    t_max, so the truncated integral misses its tail.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    core = _weighted(g, plan)
    tp = np.asarray(t_prime, dtype=float)
    out = _contract([(order, plan, core)], np.atleast_1d(tp))[0]
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


def _on_solver_grid(spectrum: Spectrum, rho) -> np.ndarray:
    """Every state of a spectrum at the points rho, one row each: sqrt(J) psi
    sinc-interpolated in x (exact for sinc-DVR states), divided by sqrt(J)
    at x(rho); zero outside the solved grid, where they have decayed."""
    grid = spectrum.grid
    x = grid.to_x(rho)
    root = np.sqrt(grid.jacobian(grid.x_nodes()))
    values = sinc_interp(grid.x_bounds[0], grid.spacing,
                         spectrum.states * root, x)
    return values / np.sqrt(grid.jacobian(x))


def morse_state_on_plan(spectrum: Spectrum, lam: float,
                        plan: HankelPlan) -> np.ndarray:
    """The level-coordinate states of a Morse spectrum as R(t) on the
    plan's nodes, t = lam e^-rho: one row per state."""
    return _on_solver_grid(spectrum, rho_from_morse_t(lam, plan.nodes))


def pt_state_on_nodes(spectrum: Spectrum, t_prime_nodes) -> np.ndarray:
    """The states of a sech-well spectrum as U(t') at t' = e^-rho: one row
    per state."""
    return _on_solver_grid(
        spectrum, rho_from_pt_t(np.asarray(t_prime_nodes, dtype=float)))


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

    All bound states R_n of `spectrum` are resampled onto the fine plan in
    one call.  One `_contract` pass serves both plans' term maps and every
    state: its jobs are (m, g) on the coarse plan and on the fine plan
    and, per state at m_n = hankel_order(n) of params_m, (m_n, R_n) and
    (m_n, g) on the fine plan.  Both plans move onto the same Chebyshev
    points in t, so one Bessel kernel serves all of them, and the coarse
    term map is bit for bit a lone `hankel` of its plan whenever m is the
    pass's top order.  An m above every m_n gets a pass of its own, so the
    states' contractions never depend on m.  They are kept on the
    report's `states` for `potential_term_sandwich`; an empty spectrum
    gives the term map alone."""
    tp = np.asarray(t_prime_nodes, dtype=float)
    coarse = make_hankel_plan(plan.t_max, plan.nodes.size // 2)
    rhs = pt_term_values(params_pt, tp)
    g_coarse = morse_term_values(params_m, coarse.nodes)
    g = morse_term_values(params_m, plan.nodes)
    warned = truncated(g_coarse, coarse) or truncated(g, plan)
    coarse_core = _weighted(g_coarse, coarse)
    g_core = _weighted(g, plan)
    maps = [(m, coarse, coarse_core), (m, plan, g_core)]
    R = morse_state_on_plan(spectrum, params_m.lam, plan)
    orders = [params_m.hankel_order(n) for n in range(spectrum.bound_count)]
    direct = R @ g_core
    jobs = []
    for m_n, R_n in zip(orders, R):
        jobs += [(m_n, plan, _weighted(R_n, plan)), (m_n, plan, g_core)]
    if m <= max(orders, default=m):
        lhs_coarse, lhs, *contracted = _contract(maps + jobs, tp)
    else:
        # a pass started at m would take the states' kernels by recurrence
        # from J_m, which underflows where theirs does not (for x < 10 at
        # m = 300), so the term maps take a pass of their own
        lhs_coarse, lhs = _contract(maps, tp)
        contracted = _contract(jobs, tp)
    refinement = [(coarse.nodes.size,
                   float(np.max(np.abs(lhs_coarse - rhs))))]
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
        states=[StateContraction(n, m_n, contracted[2 * n],
                                 contracted[2 * n + 1], float(direct[n]))
                for n, m_n in enumerate(orders)],
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
    where Psi_n = Hankel_m[R_n] and m_n = `MorseParams.hankel_order(n)`.
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
