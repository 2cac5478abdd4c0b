"""Special functions and numerical kernels used throughout the package.

Everything here is self-contained (numpy only): cylindrical Bessel functions
of integer order, Clenshaw-Curtis rules of any size (the Hankel plans),
15-point Gauss-Legendre panel integrals (the rule by Golub-Welsch: one
15 x 15 symmetric eigenproblem, solved at import), semi-infinite
oscillatory integrals against Bessel weights, and the sinc basis on a
uniform grid (the DVR kinetic and first-derivative matrices and
band-limited interpolation between the nodes).

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
    "clenshaw_curtis",
    "integrate_oscillatory_bessel",
    "sinc_kinetic",
    "sinc_derivative",
    "sinc_interp",
]


class OscillatoryError(RuntimeError):
    """Partial sums of an oscillatory integral failed to settle."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an absolute error estimate; for a
    batch of integrals, float arrays of both and the total evaluations."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int

    def __post_init__(self):
        if np.any(np.asarray(self.error_estimate) < 0):
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")

    def __eq__(self, other):
        # the generated == compares field tuples, and == on arrays has no
        # truth value
        if not isinstance(other, QuadratureResult):
            return NotImplemented
        return (np.array_equal(self.value, other.value)
                and np.array_equal(self.error_estimate, other.error_estimate)
                and int(self.evaluations) == int(other.evaluations))


# ---------------------------------------------------------------------------
# Bessel J of integer order
# ---------------------------------------------------------------------------

# Region boundaries: ascending series while the terms cannot cancel
# catastrophically, normalized downward recurrence through the transition
# band, real (Stokes-free) asymptotic expansion once its optimal-truncation
# error is below double precision.  Hankel's expansion needs x >= m^2 / 2
# as well: below it the first correction, about 4m^2 / (8x) of the leading
# term, is larger than the term itself, and the optimal-truncation stop
# keeps the leading term alone (errors of order 1 from m = 13 at x = m + 10).
_SERIES_X = 10.0
_ASYM_X = 18.0


def _bessel_series(m: int, x: np.ndarray) -> np.ndarray:
    """Ascending series, stopped once every term of the band is below 1e-17
    of its partial sum.  The stop is tested every fourth term: the terms
    shrink from there on, so the ones added past the stop leave every sum
    as it is."""
    half = 0.5 * x
    term = np.ones_like(x)
    for k in range(1, m + 1):
        term = term * half / k
    out = term.copy()
    hh = half * half
    for k in range(1, 64):
        term *= hh
        term /= -(k * (k + m))
        out += term
        if k % 4 == 0 and np.all(
                np.abs(term) <= 1e-17 * (np.abs(out) + 1e-300)):
            break
    return out


def _bessel_miller(m: int, x: np.ndarray) -> np.ndarray:
    """Downward recurrence from a high order, normalized by
    J_0 + 2*sum_k J_{2k} = 1.  Stable for all x; used in the band where
    neither the series nor the asymptotic expansion reaches full accuracy.
    2/x is formed once and the recurrence runs in three buffers; every
    eighth step one maximum tests whether the values near overflow.
    """
    xmax = float(np.max(x))
    start = int(max(m, xmax) + 20 + math.ceil(14.0 * math.sqrt(max(xmax, 1.0))))
    if start % 2 == 1:
        start += 1
    two_over_x = 2.0 / x
    fk1 = np.zeros_like(x)
    fk = np.full_like(x, 1e-30)
    nxt = np.empty_like(x)
    evens = np.zeros_like(x)  # sum of f_{2j}, j >= 1
    target = None
    for k in range(start, 0, -1):
        np.multiply(two_over_x, k, out=nxt)
        nxt *= fk
        nxt -= fk1
        fk1, fk, nxt = fk, nxt, fk1
        if k - 1 == m:
            target = fk.copy()
        if (k - 1) % 2 == 0 and k - 1 > 0:
            evens += fk
        if k % 8 == 0 and np.max(np.abs(fk, out=nxt)) > 1e280:
            scale = np.where(nxt > 1e280, 1e-280, 1.0)
            fk *= scale
            fk1 *= scale
            evens *= scale
            if target is not None:
                target *= scale
    return target / (2.0 * evens + fk)


def _asymptotic_coefficients(m: int, x_min: float) -> tuple[list, list]:
    """Signed coefficients of P and Q in Hankel's expansion as polynomials
    in y = 1/(8x)^2: P = sum_k p_k y^k, Q = (1/8x) sum_k q_k y^k.

    The length is fixed at x_min, the smallest argument the band holds: the
    terms stop after the first of magnitude below 1e-17 or the first that
    grows (optimal truncation).  Every term shrinks as x grows, so the same
    length serves the whole band."""
    mu = 4.0 * m * m
    p = [1.0]
    q = []
    coef = 1.0  # a_n = prod_{j<=n} (mu - (2j-1)^2) / n!, signs applied below
    eightx = 8.0 * x_min
    prev = math.inf
    for k in range(40):
        coef = coef * (mu - (4 * k + 1) ** 2) / (2 * k + 1)
        q.append((-1) ** k * coef)
        coef = coef * (mu - (4 * k + 3) ** 2) / (2 * k + 2)
        p.append((-1) ** (k + 1) * coef)
        mx = abs(coef) / eightx ** (2 * k + 2)
        if mx < 1e-17 or mx > prev:
            break
        prev = mx
    return p, q


def _horner(coefs: list, y: np.ndarray) -> np.ndarray:
    out = np.full_like(y, coefs[-1])
    for c in coefs[-2::-1]:
        out *= y
        out += c
    return out


def _bessel_asymptotic(m: int, x: np.ndarray, x_min: float) -> np.ndarray:
    """Hankel's expansion J_m ~ sqrt(2/pi x) [P cos chi - Q sin chi],
    truncated at the smallest term for x >= x_min and summed by Horner's
    rule."""
    p, q = _asymptotic_coefficients(m, x_min)
    inv8x = 0.125 / x
    y = inv8x * inv8x
    chi = x - (0.5 * m + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (
        _horner(p, y) * np.cos(chi) - inv8x * _horner(q, y) * np.sin(chi))


def _bands(m: int, x: np.ndarray):
    """(method, x_min, sel) for each non-empty band of x >= 0 at order m:
    one "series" band below min(m + 8, 10); "miller" up to
    max(18, m + 10, m^2 / 2), split at 18 * 2^k; one "asymptotic" band
    from there.  x_min is the band's lower edge."""
    series_x = min(m + 8.0, _SERIES_X)
    asym_x = max(_ASYM_X, m + 10.0, 0.5 * m * m)
    # the recurrence starts above its band's largest x and grows by up to
    # 2k/x a step between overflow checks, so past _ASYM_X its bands span
    # a factor of two each
    recur = []
    while _ASYM_X * 2.0 ** len(recur) < asym_x:
        recur.append(_ASYM_X * 2.0 ** len(recur))
    lowers = [0.0, series_x] + recur + [asym_x]
    band = np.searchsorted(lowers[1:], x, side="right")
    for b, lower in enumerate(lowers):
        sel = band == b
        if not np.any(sel):
            continue
        method = ("series" if lower < series_x else
                  "miller" if lower < asym_x else "asymptotic")
        yield method, lower, sel


def bessel_j(m: int, x):
    """Cylindrical Bessel function J_m for integer order.

    Negative orders are reduced with J_{-m}(x) = (-1)^m J_m(x).  Small x
    takes the ascending series; the transition band takes the normalized
    downward recurrence; large x, from max(18, m + 10, m^2 / 2), takes
    Hankel's asymptotic expansion, whose length is fixed by that edge and
    whose scalar coefficients are summed by Horner's rule in 1/(8x)^2.
    Accurate to roughly 1e-13 absolute over 0 <= |x| <= 1000 for orders up
    to 300 (within 2.7e-14 of SciPy's jv past 400).  Accepts scalars or
    arrays.
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
        xa = np.abs(xa)
    out = np.empty_like(xa)
    for method, x_min, sel in _bands(m, xa):
        xs = xa[sel]
        if method == "series":
            out[sel] = _bessel_series(m, xs)
        elif method == "miller":
            out[sel] = _bessel_miller(m, xs)
        else:
            out[sel] = _bessel_asymptotic(m, xs, x_min)
    if m % 2:
        # J_m(-x) = (-1)^m J_m(x)
        np.negative(out, out=out, where=neg)
    out = sign * out
    return float(out[0]) if scalar else out


def bessel_j_zero(m: int, k: int) -> float:
    """k-th positive zero of J_m (k >= 1), McMahon's expansion.

    Good to ~1e-8 already for the first zero and rapidly better; zeros are
    only used to partition oscillatory integrals, so this accuracy is ample.
    A negative order takes the zeros of J_|m|, as J_-m = (-1)^m J_m.
    """
    if k < 1:
        raise ValueError("zero index starts at 1")
    m = abs(m)
    b = (k + 0.5 * m - 0.25) * math.pi
    mu = 4.0 * m * m
    return (
        b
        - (mu - 1) / (8 * b)
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * b) ** 3)
        - 32 * (mu - 1) * (83 * mu * mu - 982 * mu + 3779) / (15 * (8 * b) ** 5)
    )


# ---------------------------------------------------------------------------
# Quadrature rules and fixed-rule panel integrals
# ---------------------------------------------------------------------------


def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Clenshaw-Curtis rule with n
    intervals on [-1, 1], n >= 2: the n + 1 points cos(k pi / n), exact for
    polynomials of degree n.

    The nodes are sin(pi (2k - n) / (2n)), k = 0, ..., n: exactly -1 and 1
    at the ends and exactly mirrored.  The weights are the inverse real DFT
    of the moments 2 / (1 - 4 l^2), l <= n / 2, of the even Chebyshev
    polynomials, with the end weight halved at both ends (Waldvogel, BIT
    46, 195 (2006)): one FFT, O(n log n), within about 1e-13 relative of
    their exact values.
    """
    if n < 2:
        raise ValueError("rule needs at least two intervals")
    moments = 2.0 / (1.0 - 4.0 * np.arange(n // 2 + 1) ** 2)
    w = np.fft.irfft(moments, n)
    # the DFT's index j is the node cos(j pi / n): descending
    w = np.append(w[0], w[::-1])
    w[[0, -1]] *= 0.5
    return np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n)), w


def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the 15-point Gauss-Legendre rule on
    [-1, 1] by Golub-Welsch (Math. Comp. 23, 221 (1969)): the eigenvalues
    of the Jacobi matrix, off-diagonal k / sqrt(4k^2 - 1), and twice the
    squared first components of its unit eigenvectors.  Both are mirrored,
    so the middle node is exactly 0; the nodes are within 3e-16, and the
    weights 2e-14 relative, of their exact values."""
    k = np.arange(1.0, 15.0)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (x - x[::-1]), v[0] ** 2 + v[0, ::-1] ** 2


_PANEL_NODES, _PANEL_WEIGHTS = _panel_rule()


def _panel_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(half-widths, nodes) of the 15-point Gauss-Legendre rule on each
    panel [lo_i, hi_i] of two equal-shape arrays; the nodes have shape
    lo.shape + (15,)."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[..., None] + half[..., None] * _PANEL_NODES


def _panel_integrals(f, lo, hi) -> np.ndarray:
    """15-point Gauss-Legendre value of the integral of f over each panel
    [lo_i, hi_i] of two equal-shape arrays, exact to polynomial degree 29.
    Widths are signed: hi_i < lo_i gives the negative of the reverse panel.
    f is called once, on the nodes of every panel."""
    half, x = _panel_nodes(lo, hi)
    vals = f(x.ravel()).reshape(x.shape)
    return half * (vals @ _PANEL_WEIGHTS)


# ---------------------------------------------------------------------------
# Semi-infinite oscillatory integrals against J_m
# ---------------------------------------------------------------------------


_EPSILON_DEPTH = 24
_BATCH_BLOCKS = 8  # block 8 is the first at which a p may stop


class _EpsilonTable:
    """Wynn's epsilon table (P. Wynn, MTAC 10, 91 (1956)) over a run of
    partial sums, kept as its newest ascending diagonal.  add(s) builds the
    diagonal ending at s from the one before, one rhombus step per column:
    eps_0 = s, eps_{k+1} = prev_{k-1} + 1 / (eps_k - prev_k), prev_{-1} = 0,
    to at most _EPSILON_DEPTH columns, and returns the deepest even column.
    A zero difference is exact convergence and ends the diagonal; while its
    pair is among the last _EPSILON_DEPTH sums, the entry of the lowest
    such zero, the oldest first, is the estimate."""

    def __init__(self):
        self.diag: list[float] = []
        self.zeros: list[tuple[int, int, float]] = []  # (column, pair, entry)
        self.count = 0

    def add(self, s: float) -> float:
        prev, diag = self.diag, [s]
        for k in range(min(len(prev), _EPSILON_DEPTH - 1)):
            d = diag[k] - prev[k]
            if d == 0.0:
                self.zeros.append((k, self.count - 1 - k, diag[k]))
                break
            diag.append((prev[k - 1] if k else 0.0) + 1.0 / d)
        self.diag, self.count = diag, self.count + 1
        first = self.count - _EPSILON_DEPTH
        self.zeros = [z for z in self.zeros if z[1] >= first]
        if self.zeros:
            return min(self.zeros)[2]
        return diag[-1] if len(diag) % 2 else diag[-2]


def _batch_panels(zeros, p):
    """The panels of a batch of blocks at each p: (half-widths, nodes,
    count), those of the first p first and block by block within each p,
    count the panel count of each block, shape (p.size, blocks).  zeros
    are the edges of the blocks in x = p t, the first 0 or the zero of the
    block before.  A block [a, b] in t takes n = ceil((b - a) p / 3)
    equal panels, at least one, with edges a + (b - a) j / n, j = 0 .. n:
    the arithmetic of a block built on its own."""
    edges = np.asarray(zeros) / p[:, None]
    a, b = edges[:, :-1], edges[:, 1:]
    count = np.maximum(1, np.ceil((b - a) * p[:, None] / 3.0)).astype(np.intp)
    n = count.ravel()
    block = np.repeat(np.arange(n.size), n)
    j = np.arange(block.size) - np.repeat(np.cumsum(n) - n, n)
    a, width, n = a.ravel()[block], (b - a).ravel()[block], n[block]
    half, nodes = _panel_nodes(a + width * j / n, a + width * (j + 1) / n)
    return half, nodes, count


def integrate_oscillatory_bessel(g, m: int, p, tol: float = 1e-9,
                                 max_blocks: int = 80) -> QuadratureResult:
    """Evaluate integral_0^inf g(x) J_m(p x) dx at a scalar p or at each p
    of a 1-D array, every p finite and positive.

    The axis is partitioned at the zeros of J_m(p x) (McMahon approximation);
    each inter-zero block is the sum of its Gauss-Legendre panel integrals,
    and the alternating sequence of partial sums is accelerated with Wynn's
    epsilon algorithm, one table diagonal per block.  From block 8 on a p
    stops when two successive estimates agree to tol; at max_blocks it
    accepts 1000 tol.  Integrands whose envelope decays (or at worst stays
    bounded) converge; anything with a growing envelope, at any p, raises
    OscillatoryError for the whole call.

    The blocks come in batches of _BATCH_BLOCKS, and the integrals of every
    p run in lockstep: the panel nodes of a batch's blocks at every p still
    running take g in one call and J_m in one `bessel_j` call, so g must
    act element by element.  Each p then feeds its epsilon table and stop
    test block by block; the blocks of the batch past its stop enter
    neither its value nor the finiteness check.  Each p keeps its own
    partial sum, epsilon table, stop test and final checks, and its panel
    sums are taken as for that p alone.  In x = p t, block k of every p
    spans the same Bessel-zero interval up to rounding, so each p's value
    agrees with a call on that p alone to rounding, and bit for bit
    whenever that rounding leaves the start order of `bessel_j`'s
    recurrence band as it is (as at `hankel-verify`'s p = 0.5, 1, 2, 5).

    A scalar p gives float value and error_estimate; an array gives float
    arrays of its shape.  evaluations counts every node at which the
    integrand was evaluated, over every p, past a p's stop too.
    """
    ps = np.asarray(p, dtype=float)
    if ps.ndim > 1 or ps.size == 0:
        raise ValueError("p must be a scalar or a non-empty 1-D array")
    if not np.all(np.isfinite(ps) & (ps > 0)):
        raise ValueError("p must be finite and positive")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if max_blocks < 8:
        raise OscillatoryError("partial sums failed to alternate or converge")

    pv = ps.ravel()
    total = [0.0] * pv.size
    est = [math.nan] * pv.size
    delta = [math.nan] * pv.size
    tables = [_EpsilonTable() for _ in range(pv.size)]
    evals = 0
    running = list(range(pv.size))
    first = 1
    while running and first <= max_blocks:
        blocks = range(first, min(first + _BATCH_BLOCKS, max_blocks + 1))
        zeros = [bessel_j_zero(m, k) if k else 0.0
                 for k in range(first - 1, blocks[-1] + 1)]
        p_run = pv[running]
        half, nodes, count = _batch_panels(zeros, p_run)
        per_p = count.sum(axis=1)
        x = nodes.ravel()
        scale = np.repeat(p_run, per_p * _PANEL_NODES.size)
        vals = np.asarray(g(x), dtype=float) * bessel_j(m, scale * x)
        vals = vals.reshape(nodes.shape)
        evals += x.size
        still = []
        for i, n, end in zip(running, count, np.cumsum(per_p).tolist()):
            start = end - int(n.sum())
            # one product per p, as for p alone: a stacked product rounds
            # a panel differently with other panels beside it
            panel = half[start:end] * (vals[start:end] @ _PANEL_WEIGHTS)
            sums = np.add.reduceat(panel, np.cumsum(n) - n)
            for k, block in zip(blocks, sums.tolist()):
                if not math.isfinite(block):
                    raise OscillatoryError(
                        f"block integral is not finite (p = {pv[i]:g})")
                total[i] += block
                prev, est[i] = est[i], tables[i].add(total[i])
                delta[i] = abs(est[i] - prev)
                if (k >= 8 and math.isfinite(est[i])
                        and delta[i] <= tol * max(1.0, abs(est[i]))):
                    break
            else:
                still.append(i)
        running = still
        first += len(blocks)
    for i in range(pv.size):
        if not math.isfinite(est[i]):
            raise OscillatoryError("partial sums failed to alternate or "
                                   f"converge (p = {pv[i]:g})")
        if delta[i] > 1e3 * tol * max(1.0, abs(est[i])):
            raise OscillatoryError(
                f"oscillatory series not converged: estimate {est[i]:g}, "
                f"uncertainty {delta[i]:g} (p = {pv[i]:g})")
    if ps.ndim == 0:
        return QuadratureResult(est[0], delta[0], evals)
    return QuadratureResult(np.array(est), np.array(delta), evals)


# ---------------------------------------------------------------------------
# Sinc basis on a uniform grid
# ---------------------------------------------------------------------------


def _sinc_toeplitz(n: int, h: float, scale: float, power: int,
                   diagonal: float) -> np.ndarray:
    """n x n Toeplitz matrix M_ij = scale (-1)^k / (k h)^power, k = i - j,
    with `diagonal` on k = 0.  It is copied out of a sliding window over
    its 2n-1 distinct entries, so the result is the only n^2 allocation."""
    k = np.arange(n - 1, -n, -1, dtype=float)  # i - j along a window row
    stencil = (np.where(k % 2, -scale, scale)
               / np.where(k, k * h, 1.0) ** power)
    stencil[n - 1] = diagonal
    return np.lib.stride_tricks.sliding_window_view(stencil, n)[::-1].copy()


def sinc_kinetic(n: int, h: float) -> np.ndarray:
    """Sinc-DVR matrix of -d^2/dx^2 on n uniform nodes of spacing h
    (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)):
    T_ii = pi^2 / (3 h^2), T_ij = 2 (-1)^(i-j) / ((i-j)^2 h^2)."""
    return _sinc_toeplitz(n, h, 2.0, 2, np.pi ** 2 / (3.0 * h * h))


def sinc_derivative(n: int, h: float) -> np.ndarray:
    """Sinc-DVR matrix of d/dx on n uniform nodes of spacing h, antisymmetric:
    D_ii = 0, D_ij = (-1)^(i-j) / ((i-j) h)."""
    return _sinc_toeplitz(n, h, 1.0, 1, 0.0)


def sinc_interp(x0: float, dx: float, fvals: np.ndarray, x):
    """Band-limited interpolation sum_j f_j sinc((x - x_j) / dx) of samples
    f(x_j), x_j = x0 + j dx.  For a sinc-DVR eigenvector this is the state
    itself, not an approximation of it.  Points outside the sampled range
    map to 0.

    A stack of sample rows, shape (..., n), gives shape (..., points): the
    rows share one reciprocal matrix, each row contracted with it by its own
    matrix-vector product, so bit for bit as a call with that row alone.

    With s = (x - x0) / dx = r + d, r the nearest integer,
    sinc(s - j) = (-1)^(r + j) sin(pi d) / (pi (s - j)), so each point
    takes one sine, of the small argument pi d, and the sum over the
    samples is one division per term: sin(pi d) / pi times
    sum_j (-1)^(r + j) f_j / (s - j).  A point on a node (d = 0) is that
    node's sample.
    """
    f = np.asarray(fvals, dtype=float)
    xq = np.asarray(x, dtype=float)
    s = (np.atleast_1d(xq) - x0) / dx
    n = f.shape[-1]
    out = np.zeros(f.shape[:-1] + (s.size,))
    inside = np.flatnonzero((s >= 0.0) & (s <= n - 1))
    r = np.rint(s[inside])
    d = s[inside] - r
    on_node = d == 0.0
    out[..., inside[on_node]] = f[..., r[on_node].astype(int)]
    off, r, d = inside[~on_node], r[~on_node], d[~on_node]
    j = np.arange(n)
    recip = s[off, None] - j
    np.divide(1.0, recip, out=recip)
    alternating = np.where(j % 2, -f, f)
    out[..., off] = (np.where(r % 2, -1.0, 1.0) * np.sin(np.pi * d) / np.pi
                     * (recip @ alternating[..., None])[..., 0])
    if xq.ndim == 0:
        return float(out[0]) if f.ndim == 1 else out[..., 0]
    return out


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
