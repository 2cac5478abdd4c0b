"""Special functions and numerical kernels used throughout the package.

Everything here is self-contained (numpy only): cylindrical Bessel functions
of integer order, the 15-point Gauss-Kronrod rule (also used by the
potentials' weight tables), semi-infinite oscillatory integrals against
Bessel weights, and the sinc basis on a uniform grid (the DVR kinetic matrix
and band-limited interpolation between the nodes).

All functions are pure and hold no module-level mutable state, so they are
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "OscillatoryError",
    "bessel_j",
    "bessel_j_zero",
    "integrate_oscillatory_bessel",
    "sinc_kinetic",
    "sinc_interp",
]


class OscillatoryError(RuntimeError):
    """Partial sums of an oscillatory integral failed to settle."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an absolute error estimate."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


# ---------------------------------------------------------------------------
# Bessel J of integer order
# ---------------------------------------------------------------------------

# Region boundaries: ascending series while the terms cannot cancel
# catastrophically, normalized downward recurrence through the transition
# band, real (Stokes-free) asymptotic expansion once its optimal-truncation
# error is below double precision.
_SERIES_X = 10.0
_ASYM_X = 18.0


def _bessel_series(m: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = np.ones_like(x)
    for k in range(1, m + 1):
        term = term * half / k
    out = term.copy()
    hh = half * half
    for k in range(1, 64):
        term = -term * hh / (k * (k + m))
        out += term
        if np.all(np.abs(term) <= 1e-17 * (np.abs(out) + 1e-300)):
            break
    return out


def _bessel_miller(m: int, x: np.ndarray) -> np.ndarray:
    """Downward recurrence from a high order, normalized by
    J_0 + 2*sum_k J_{2k} = 1.  Stable for all x; used in the band where
    neither the series nor the asymptotic expansion reaches full accuracy.
    """
    xmax = float(np.max(x))
    start = int(max(m, xmax) + 20 + math.ceil(14.0 * math.sqrt(max(xmax, 1.0))))
    if start % 2 == 1:
        start += 1
    fk1 = np.zeros_like(x)
    fk = np.full_like(x, 1e-30)
    total = np.zeros_like(x)
    target = np.zeros_like(x)
    for k in range(start, 0, -1):
        fkm1 = (2.0 * k / x) * fk - fk1
        fk1 = fk
        fk = fkm1
        if k - 1 == m:
            target = fk.copy()
        if (k - 1) % 2 == 0 and k - 1 > 0:
            total += 2.0 * fk
        if k % 8 == 0:
            big = np.abs(fk) > 1e280
            if np.any(big):
                scale = np.where(big, 1e-280, 1.0)
                fk = fk * scale
                fk1 = fk1 * scale
                total = total * scale
                target = target * scale
    total += fk
    return target / total


def _bessel_asymptotic(m: int, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion J_m ~ sqrt(2/pi x) [P cos chi - Q sin chi],
    truncated at the smallest term."""
    mu = 4.0 * m * m
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    eightx = 8.0 * x
    prev = math.inf
    for k in range(40):
        t1 = term * (mu - (4 * k + 1) ** 2) / ((2 * k + 1) * eightx)
        q += (-1) ** k * t1
        t2 = t1 * (mu - (4 * k + 3) ** 2) / ((2 * k + 2) * eightx)
        p += (-1) ** (k + 1) * t2
        term = t2
        mx = float(np.max(np.abs(t2)))
        if mx < 1e-17 or mx > prev:
            break
        prev = mx
    chi = x - (0.5 * m + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(m: int, x):
    """Cylindrical Bessel function J_m for integer order.

    Negative orders are reduced with J_{-m}(x) = (-1)^m J_m(x).  Accurate to
    roughly 1e-13 absolute over 0 <= x <= 50 (and beyond, where the
    asymptotic expansion only improves).  Accepts scalars or arrays.
    """
    if m != int(m):
        raise ValueError("order must be an integer")
    m = int(m)
    sign = 1.0
    if m < 0:
        sign = -1.0 if m % 2 else 1.0
        m = -m
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("bessel_j requires finite x")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    neg = xa < 0
    if np.any(neg):
        # J_m(-x) = (-1)^m J_m(x)
        xa = np.abs(xa)
    out = np.empty_like(xa)
    lo = xa <= min(m + 8.0, _SERIES_X)
    hi = xa >= max(_ASYM_X, m + 10.0)
    mid = ~(lo | hi)
    if np.any(lo):
        out[lo] = _bessel_series(m, xa[lo])
    if np.any(mid):
        out[mid] = _bessel_miller(m, xa[mid])
    if np.any(hi):
        out[hi] = _bessel_asymptotic(m, xa[hi])
    if np.any(neg) and m % 2:
        out = np.where(neg, -out, out)
    out = sign * out
    return float(out[0]) if scalar else out


def bessel_j_zero(m: int, k: int) -> float:
    """k-th positive zero of J_m (k >= 1), McMahon's expansion.

    Good to ~1e-8 already for the first zero and rapidly better; zeros are
    only used to partition oscillatory integrals, so this accuracy is ample.
    """
    if k < 1:
        raise ValueError("zero index starts at 1")
    b = (k + 0.5 * m - 0.25) * math.pi
    mu = 4.0 * m * m
    return (
        b
        - (mu - 1) / (8 * b)
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * b) ** 3)
        - 32 * (mu - 1) * (83 * mu * mu - 982 * mu + 3779) / (15 * (8 * b) ** 5)
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15-point rule
# ---------------------------------------------------------------------------

# QUADPACK dqk15 abscissae/weights (symmetric half shown).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])

_GK_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending
_GK_WEIGHTS = np.concatenate((_WGK[:-1], _WGK[::-1]))


def _gk15_panel(f, a: float, b: float) -> float:
    """Kronrod 15-point value of the integral of f over [a, b]."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = c + hw * _GK_NODES
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.array([f(xi) for xi in x], dtype=float)
    return hw * float(np.dot(_GK_WEIGHTS, fx))


# ---------------------------------------------------------------------------
# Semi-infinite oscillatory integrals against J_m
# ---------------------------------------------------------------------------


def _wynn_epsilon(s: np.ndarray) -> float:
    """Wynn's epsilon algorithm (iterated Shanks) on a partial-sum sequence."""
    n = s.size
    e0 = np.zeros(n + 1)
    e1 = s.astype(float).copy()
    best = float(s[-1])
    for col in range(1, n):
        d = e1[1:] - e1[:-1]
        if np.any(d == 0.0):
            # exact convergence of a diagonal
            return float(e1[np.argmax(d == 0.0) + 1])
        e2 = e0[1:n - col + 1] + 1.0 / d
        e0 = e1
        e1 = e2
        if col % 2 == 0 and e1.size:
            best = float(e1[-1])
    return best


def integrate_oscillatory_bessel(g, m: int, p: float, tol: float = 1e-9,
                                 max_blocks: int = 80) -> QuadratureResult:
    """Evaluate integral_0^inf g(x) J_m(p x) dx.

    The axis is partitioned at the zeros of J_m(p x) (McMahon approximation);
    each inter-zero block is integrated with Gauss-Kronrod panels, and the
    alternating sequence of partial sums is accelerated with Wynn's epsilon
    algorithm.  Integrands whose envelope decays (or at worst stays bounded)
    converge; anything with a growing envelope raises OscillatoryError.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def f(x):
        return np.asarray(g(x), dtype=float) * bessel_j(m, p * x)

    partials = []
    total = 0.0
    evals = 0
    a = 0.0
    window = 24
    last_pair: tuple[float, float] | None = None
    for k in range(1, max_blocks + 1):
        b = bessel_j_zero(m, k) / p
        width = b - a
        npanels = max(1, int(math.ceil(width * p / 3.0)))
        block = 0.0
        for j in range(npanels):
            lo = a + width * j / npanels
            hi = a + width * (j + 1) / npanels
            block += _gk15_panel(f, lo, hi)
            evals += 15
        if not math.isfinite(block):
            raise OscillatoryError("block integral is not finite")
        total += block
        partials.append(total)
        a = b
        if len(partials) >= 8:
            tail = np.array(partials[-window:])
            est1 = _wynn_epsilon(tail)
            est2 = _wynn_epsilon(tail[:-1])
            last_pair = (est1, est2)
            delta = abs(est1 - est2)
            if math.isfinite(est1) and delta <= tol * max(1.0, abs(est1)):
                return QuadratureResult(est1, delta, evals)
    if last_pair is None or not math.isfinite(last_pair[0]):
        raise OscillatoryError("partial sums failed to alternate or converge")
    est1, est2 = last_pair
    delta = abs(est1 - est2)
    if delta > 1e3 * tol * max(1.0, abs(est1)):
        raise OscillatoryError(
            f"oscillatory series not converged: estimate {est1:g}, "
            f"uncertainty {delta:g}")
    return QuadratureResult(est1, delta, evals)


# ---------------------------------------------------------------------------
# Sinc basis on a uniform grid
# ---------------------------------------------------------------------------


def sinc_kinetic(n: int, h: float) -> np.ndarray:
    """Sinc-DVR matrix of -d^2/dx^2 on n uniform nodes of spacing h
    (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)):
    T_ii = pi^2 / (3 h^2), T_ij = 2 (-1)^(i-j) / ((i-j)^2 h^2).

    The Toeplitz matrix is copied out of a sliding window over its 2n-1
    distinct entries, so the n x n result is the only n^2 allocation.
    """
    k = np.arange(1 - n, n, dtype=float)
    stencil = np.empty(2 * n - 1)
    off = k != 0
    stencil[off] = 2.0 * np.where(k[off] % 2, -1.0, 1.0) / (k[off] * h) ** 2
    stencil[n - 1] = np.pi ** 2 / (3.0 * h * h)
    return np.lib.stride_tricks.sliding_window_view(stencil, n)[::-1].copy()


def sinc_interp(x0: float, dx: float, fvals: np.ndarray, x):
    """Band-limited interpolation sum_j f_j sinc((x - x_j) / dx) of samples
    f(x_j), x_j = x0 + j dx.  For a sinc-DVR eigenvector this is the state
    itself, not an approximation of it.  Points outside the sampled range
    map to 0.
    """
    f = np.asarray(fvals, dtype=float)
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    s = (np.atleast_1d(xq) - x0) / dx
    inside = (s >= 0.0) & (s <= f.size - 1)
    out = np.zeros(s.size)
    out[inside] = np.sinc(s[inside, None] - np.arange(f.size)) @ f
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Retired names
# ---------------------------------------------------------------------------

# The finite-difference path (Sturm bisection, inverse iteration and cubic
# resampling between grids) gave way to the sinc DVR above.  The span tracer
# of the benchmark (perfbench/tracer.py) still wraps these names where they
# used to be imported, so they remain, as stubs that nothing calls, until the
# tracer follows the new layers.


def _retired(name: str, replacement: str):
    def stub(*args, **kwargs):
        raise NotImplementedError(f"{name} was removed; use {replacement}")
    stub.__name__ = stub.__qualname__ = name
    return stub


_sturm_counts = _retired("_sturm_counts", "numpy.linalg.eigh")
tridiag_eigen = _retired("tridiag_eigen", "eigensolver.solve_bound_states")
cubic_interp = _retired("cubic_interp", "sinc_interp")
