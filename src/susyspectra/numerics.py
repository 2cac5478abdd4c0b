"""Special functions and numerical kernels used throughout the package.

Everything here is self-contained (numpy only): cylindrical Bessel functions
of integer order, Gauss-Legendre rules of any size (the Hankel plans and
15-point panel integrals), semi-infinite oscillatory integrals against
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
    "gauss_legendre",
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
# error is below double precision.  Hankel's expansion needs x >= m^2 / 2
# as well: below it the first correction, about 4m^2 / (8x) of the leading
# term, is larger than the term itself, and the optimal-truncation stop
# keeps the leading term alone (errors of order 1 from m = 13 at x = m + 10).
_SERIES_X = 10.0
_ASYM_X = 18.0
# Both expansions are summed separately on each band of x split at these
# points, so that an argument stops after the few terms its own band needs
# instead of as many as the worst argument of the batch: small x for the
# ascending series, large x for the asymptotic expansion.
_SERIES_BANDS = (1.0, 3.0, 6.0)
_ASYM_BANDS = (30.0, 60.0)


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


def _bessel_miller(m: int, x: np.ndarray, pair: bool = False):
    """Downward recurrence from a high order, normalized by
    J_0 + 2*sum_k J_{2k} = 1.  Stable for all x; used in the band where
    neither the series nor the asymptotic expansion reaches full accuracy.
    2/x is formed once and the recurrence runs in three buffers; every
    eighth step one maximum tests whether the values near overflow.
    Returns [J_m], or with `pair` [J_m, J_{m-1}] from the same sweep.
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
    kept = []  # f_m, then f_{m-1} with `pair`
    for k in range(start, 0, -1):
        np.multiply(two_over_x, k, out=nxt)
        nxt *= fk
        nxt -= fk1
        fk1, fk, nxt = fk, nxt, fk1
        if k - 1 == m or (pair and k == m):
            kept.append(fk.copy())
        if (k - 1) % 2 == 0 and k - 1 > 0:
            evens += fk
        if k % 8 == 0 and np.max(np.abs(fk, out=nxt)) > 1e280:
            scale = np.where(nxt > 1e280, 1e-280, 1.0)
            fk *= scale
            fk1 *= scale
            evens *= scale
            for f in kept:
                f *= scale
    norm = 2.0 * evens + fk
    return [f / norm for f in kept]


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


def _bessel_asymptotic(m: int, x: np.ndarray, x_min: float,
                       pair: bool = False):
    """Hankel's expansion J_m ~ sqrt(2/pi x) [P cos chi - Q sin chi],
    truncated at the smallest term for x >= x_min and summed by Horner's
    rule.  Returns [J_m], or with `pair` [J_m, J_{m-1}]: chi_{m-1} =
    chi_m + pi/2 (Abramowitz & Stegun 9.2.5), so the square root, cos chi
    and sin chi serve both orders and only P and Q are summed again."""
    p, q = _asymptotic_coefficients(m, x_min)
    inv8x = 0.125 / x
    y = inv8x * inv8x
    chi = x - (0.5 * m + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    cos, sin = np.cos(chi), np.sin(chi)
    upper = amp * (_horner(p, y) * cos - inv8x * _horner(q, y) * sin)
    if not pair:
        return [upper]
    p, q = _asymptotic_coefficients(m - 1, x_min)
    # cos chi_{m-1} = -sin chi, sin chi_{m-1} = cos chi
    return [upper,
            -amp * (_horner(p, y) * sin + inv8x * _horner(q, y) * cos)]


def _bands(m: int, x: np.ndarray):
    """(method, x_min, sel) for each non-empty band of x >= 0 at order m:
    "series" below min(m + 8, 10), split at _SERIES_BANDS; "miller" up to
    max(18, m + 10, m^2 / 2), split at 18 * 2^k; "asymptotic" from there,
    split at _ASYM_BANDS.  x_min is the band's lower edge."""
    series_x = min(m + 8.0, _SERIES_X)
    asym_x = max(_ASYM_X, m + 10.0, 0.5 * m * m)
    # the recurrence starts above its band's largest x and grows by up to
    # 2k/x a step between overflow checks, so past _ASYM_X its bands span
    # a factor of two each
    recur = []
    while _ASYM_X * 2.0 ** len(recur) < asym_x:
        recur.append(_ASYM_X * 2.0 ** len(recur))
    lowers = ([0.0] + [e for e in _SERIES_BANDS if e < series_x]
              + [series_x] + recur + [asym_x]
              + [e for e in _ASYM_BANDS if e > asym_x])
    band = np.searchsorted(lowers[1:], x, side="right")
    for b, lower in enumerate(lowers):
        sel = band == b
        if not np.any(sel):
            continue
        method = ("series" if lower < series_x else
                  "miller" if lower < asym_x else "asymptotic")
        yield method, lower, sel


def _bessel_bands(m: int, x: np.ndarray, pair: bool) -> list[np.ndarray]:
    """[J_m(x)], or [J_m(x), J_{m-1}(x)] with `pair` (m >= 1), for finite
    x of any sign, band by band as `_bands` splits x at order m."""
    neg = x < 0
    if np.any(neg):
        x = np.abs(x)
    outs = [np.empty_like(x) for _ in range(1 + pair)]
    for method, x_min, sel in _bands(m, x):
        xs = x[sel]
        if method == "series":
            # order m - 1 re-splits the band: below m = 3 its own series
            # band ends at m + 7, one short of order m's
            vals = [_bessel_series(m, xs)] + (
                _bessel_bands(m - 1, xs, False) if pair else [])
        elif method == "miller":
            vals = _bessel_miller(m, xs, pair)
        else:
            vals = _bessel_asymptotic(m, xs, x_min, pair)
        for out, v in zip(outs, vals):
            out[sel] = v
    if np.any(neg):
        # J_k(-x) = (-1)^k J_k(x)
        for k, out in zip((m, m - 1), outs):
            if k % 2:
                np.negative(out, out=out, where=neg)
    return outs


def bessel_j(m: int, x):
    """Cylindrical Bessel function J_m for integer order.

    Negative orders are reduced with J_{-m}(x) = (-1)^m J_m(x).  Small x
    takes the ascending series, summed separately on the bands split at
    _SERIES_BANDS; the transition band takes the normalized downward
    recurrence; large x takes Hankel's asymptotic expansion, whose length
    is fixed per band of _ASYM_BANDS by the band's smallest x and whose
    scalar coefficients are summed by Horner's rule in 1/(8x)^2; it starts
    at max(18, m + 10, m^2 / 2).  Accurate to roughly 1e-13 absolute over
    0 <= x <= 400 for orders up to 300.  Accepts scalars or arrays.
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
    out = sign * _bessel_bands(m, xa, pair=False)[0]
    return float(out[0]) if scalar else out


def bessel_j_pair(m: int, x) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J_{m-1}(x) at an integer order m >= 1 on an array of
    finite x, from one split of x into the bands of `bessel_j` at order m.
    The series band sums both orders; the recurrence band keeps both from
    one sweep; the asymptotic band shares sqrt(2/pi x), cos chi and sin chi
    between them.  J_m is `bessel_j(m, x)` bit for bit; J_{m-1}, on order
    m's bands, is within 1e-14 of `bessel_j(m - 1, x)` for orders up to 300
    over 0 <= x <= 400."""
    if m != int(m) or m < 1:
        raise ValueError("order must be an integer >= 1")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("bessel_j requires finite x")
    upper, lower = _bessel_bands(int(m), np.atleast_1d(xa), pair=True)
    return upper, lower


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
# Gauss-Legendre rules
# ---------------------------------------------------------------------------


def _legendre_newton(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton step P_n(x) / P_n'(x) and the derivative P_n'(x), |x| < 1.

    P_n and P_{n-1} come from the three-term recurrence
    P_{k+1} = ((2k + 1) x P_k - k P_{k-1}) / (k + 1), run in place over
    three buffers."""
    pm, p, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, 2 * k + 1, out=nxt)
        nxt *= p
        pm *= k
        nxt -= pm
        nxt /= k + 1
        pm, p, nxt = p, nxt, pm
    dp = n * (x * p - pm) / (x * x - 1.0)
    return p / dp, dp


# Above this many nodes the rule comes from Bogaert's asymptotic formulas,
# O(n) and good to round-off; at and below it from Newton's method, O(n^2)
# but about 3 ms at most, where the asymptotic rule loses digits (weights off
# by 7e-15 relative at 50 nodes, 8e-12 at 20, 1e-9 at 10).
_NEWTON_MAX_N = 100

# First 20 positive zeros j_{0,k} of J_0 and first 21 values J_1(j_{0,k})^2,
# 40-digit values rounded to 30; later ones come from the McMahon-type
# series below.
_J0_ZEROS = np.array([
    2.40482555769577276862163187933, 5.52007811028631064959660411281,
    8.65372791291101221695419871266, 11.7915344390142816137430449119,
    14.9309177084877859477625939974, 18.0710639679109225431478829756,
    21.2116366298792589590783933505, 24.3524715307493027370579447632,
    27.4934791320402547958772882346, 30.6346064684319751175495789269,
    33.7758202135735686842385463467, 36.9170983536640439797694930633,
    40.0584257646282392947993073740, 43.1997917131767303575240727287,
    46.3411883716618140186857888791, 49.4826098973978171736027615332,
    52.6240518411149960292512853804, 55.7655107550199793116834927735,
    58.9069839260809421328344066346, 62.0484691902271698828525002647,
])
_J1_SQUARED = np.array([
    0.269514123941916926139021992911, 0.115780138582203695807812836182,
    0.0736863511364082151406476811985, 0.0540375731981162820417749182759,
    0.0426614290172430912655106063497, 0.0352421034909961013587473033648,
    0.0300210701030546726750888157688, 0.0261473914953080885904584675399,
    0.0231591218246913922652676382178, 0.0207838291222678576039808057296,
    0.0188504506693176678161056800213, 0.0172461575696650082995240053542,
    0.0158935181059235978027065594287, 0.0147376260964721895895742982591,
    0.0137384651453871179182880484135, 0.0128661817376151328791406637229,
    0.0120980515486267975471075438497, 0.0114164712244916085168627222987,
    0.0108075927911802040115547286831, 0.0102603729262807628110423992789,
    0.00976589713979105054059846736697,
])

# Polynomial coefficients, constant term first (the order _horner takes),
# of Bogaert's reference code fastgl: j_{0,k} = z + (1/z) P(1/z^2) with
# z = pi (k - 1/4), and J_1(j_{0,k})^2 = (1/y) Q(1/y^2) with y = k - 1/4.
_J0_ZERO_SERIES = (
    0.125, -0.807291666666666666666666666667e-1,
    0.246028645833333333333333333333, -1.82443876720610119047619047619,
    25.3364147973439050099206349206, -567.644412135183381139802038240,
    18690.4765282320653831636345064, -8.49353580299148769921876983660e5,
    5.09225462402226769498681286758e7)
_J1_SQUARED_SERIES = (
    0.202642367284675542887091750892, 0.0,
    -0.303380429711290253026202643516e-3, 0.198924364245969295201137972743e-3,
    -0.228969902772111653038747229723e-3, 0.433710719130746277915572905025e-3,
    -0.123632349727175414724737657367e-2, 0.496101423268883102872271417616e-2,
    -0.266837393702323757700998557826e-1, 0.185395398206345628711318848386)
# The corrections F_1, F_2, F_3 to the nodes and those to the weights,
# each a polynomial in theta^2.
_NODE_F = (
    (-0.416666666666662959639712457549e-1,
     0.416666666665193394525296923981e-2,
     -0.148809523713909147898955880165e-3,
     0.275573168962061235623801563453e-5, -3.13148654635992041468855740012e-8,
     2.40724685864330121825976175184e-10, -1.29052996274280508473467968379e-12),
    (0.815972221772932265640401128517e-2,
     -0.209022248387852902722635654229e-2,
     0.282116886057560434805998583817e-3,
     -0.253300326008232025914059965302e-4,
     0.161969259453836261731700382098e-5, -7.53036771373769326811030753538e-8,
     2.20639421781871003734786884322e-9),
    (-0.416012165620204364833694266818e-2,
     0.128654198542845137196151147483e-2,
     -0.251395293283965914823026348764e-3,
     0.418498100329504574443885193835e-4,
     -0.567797841356833081642185432056e-5, 5.55845330223796209655886325712e-7,
     -2.97058225375526229899781956673e-8),
)
_WEIGHT_F = (
    (0.833333333333333302184063103900e-1,
     -0.305555555555553028279487898503e-1,
     0.436507936507598105249726413120e-2,
     -0.326278659594412170300449074873e-3,
     0.149644593625028648361395938176e-4, -4.63968647553221331251529631098e-7,
     1.03756066927916795821098009353e-8, -1.75257700735423807659851042318e-10,
     2.30365726860377376873232578871e-12, -2.20902861044616638398573427475e-14),
    (-0.111111111111214923138249347172e-1,
     0.268959435694729660779984493795e-2,
     -0.407297185611335764191683161117e-3,
     0.465969530694968391417927388162e-4,
     -0.381817918680045468483009307090e-5, 2.11483880685947151466370130277e-7,
     -7.12912857233642220650643150625e-9, 7.67643545069893130779501844323e-11,
     3.63117412152654783455929483029e-12),
    (0.656966489926484797412985260842e-2,
     -0.947969308958577323145923317955e-4,
     -0.105646050254076140548678457002e-3,
     -0.422888059282921161626339411388e-4,
     0.200559326396458326778521795392e-4,
     -0.397933316519135275712977531366e-5, 5.08898347288671653137451093208e-7,
     -4.38647122520206649251063212545e-8, 2.01826791256703301806643264922e-9),
)


def _j0_zeros_and_j1_squared(count: int) -> tuple[np.ndarray, np.ndarray]:
    """j_{0,k} and J_1(j_{0,k})^2 for k = 1, 2, ..., count."""
    y = np.arange(1, count + 1) - 0.25
    z = np.pi * y
    nu = z + _horner(_J0_ZERO_SERIES, 1.0 / (z * z)) / z
    b = _horner(_J1_SQUARED_SERIES, 1.0 / (y * y)) / y
    nu[:_J0_ZEROS.size] = _J0_ZEROS[:count]
    b[:_J1_SQUARED.size] = _J1_SQUARED[:count]
    return nu, b


def _legendre_asymptotic(n: int, k: np.ndarray) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """Nodes cos(theta_k) and weights of the n-point rule, k = 1 nearest
    x = 1, from the asymptotic expansions of Bogaert (SIAM J. Sci. Comput.
    36, A1008 (2014)) in w = 1/(n + 1/2) about the Bessel-function
    approximation theta_k ~ w j_{0,k}."""
    nu, b = _j0_zeros_and_j1_squared(k.size)
    w = 1.0 / (n + 0.5)
    theta = w * nu
    x = theta * theta
    nu_over_sin = nu / np.sin(theta)
    big_w = w * w * nu_over_sin
    w2 = big_w * big_w
    f1, f2, f3 = (_horner(c, x) for c in _NODE_F)
    theta = w * (nu + theta * big_w * (f1 + w2 * (f2 + w2 * f3)))
    g1, g2, g3 = (_horner(c, x) for c in _WEIGHT_F)
    denominator = b * nu_over_sin * (1.0 + w2 * (g1 + w2 * (g2 + w2 * g3)))
    return np.cos(theta), 2.0 * w / denominator


def _legendre_by_newton(n: int, k: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """Nodes and weights of the n-point rule, k = 1 nearest x = 1, by
    Newton's method on P_n from Tricomi's guesses
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (k - 1/4) / (n + 1/2)), stopped once
    no node moves by more than 1e-15.  The weights
    2 / ((1 - x^2) P_n'(x)^2) take P_n' afresh at the converged nodes."""
    x = ((1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3))
         * np.cos(np.pi * (k - 0.25) / (n + 0.5)))
    for _ in range(20):
        step, _ = _legendre_newton(n, x)
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre_newton(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1].

    The nodes of [0, 1) are computed and mirrored; an odd rule's middle
    node is exactly 0.  Above 100 nodes they come in O(n) work from
    Bogaert's iteration-free asymptotic formulas (SIAM J. Sci. Comput. 36,
    A1008 (2014)), nodes and weights both within a few ulps of their
    40-digit values; 2048 nodes take well under a millisecond.  Up to 100
    nodes Newton's method on the Legendre recurrence, O(n^2) work but
    3 ms at most, keeps full accuracy where the asymptotic formulas do
    not; its weights lose O(n^2 eps) at the ends of the rule (1.2e-13
    relative at 100 nodes, 7e-11 at 2048), which is why it does not serve
    larger rules.  The
    eigenvalue route (Golub-Welsch, numpy's leggauss) is O(n^3) and less
    accurate still.
    """
    if n < 1:
        raise ValueError("rule needs at least one node")
    k = np.arange(1, (n + 1) // 2 + 1)
    rule = _legendre_asymptotic if n > _NEWTON_MAX_N else _legendre_by_newton
    x, w = rule(n, k)
    lo = n // 2  # an odd rule's middle node, x = 0, is not mirrored
    if n % 2:
        x[lo] = 0.0
    return (np.concatenate((-x[:lo], x[::-1])),
            np.concatenate((w[:lo], w[::-1])))


# ---------------------------------------------------------------------------
# Fixed-rule panel integrals
# ---------------------------------------------------------------------------

_PANEL_NODES, _PANEL_WEIGHTS = gauss_legendre(15)


def _panel_integrals(f, lo, hi) -> np.ndarray:
    """15-point Gauss-Legendre value of the integral of f over each panel
    [lo_i, hi_i] of two equal-shape arrays, exact to polynomial degree 29.
    Widths are signed: hi_i < lo_i gives the negative of the reverse panel.
    f is called once, on the nodes of every panel."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[..., None] + half[..., None] * _PANEL_NODES
    vals = f(x.ravel()).reshape(x.shape)
    return half * (vals @ _PANEL_WEIGHTS)


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
    each inter-zero block is the sum of its Gauss-Legendre panel integrals,
    whose nodes take g and J_m in one call per block, and the alternating
    sequence of partial sums is accelerated with Wynn's epsilon algorithm.
    Integrands whose envelope decays (or at worst stays bounded) converge;
    anything with a growing envelope raises OscillatoryError.
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
        npanels = max(1, int(math.ceil((b - a) * p / 3.0)))
        edges = a + (b - a) * np.arange(npanels + 1) / npanels
        block = float(np.sum(_panel_integrals(f, edges[:-1], edges[1:])))
        evals += _PANEL_NODES.size * npanels
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

    With s = (x - x0) / dx = r + d, r the nearest integer,
    sinc(s - j) = (-1)^(r + j) sin(pi d) / (pi (s - j)), so each point
    takes one sine, of the small argument pi d, and the sum over the
    samples is one division per term: sin(pi d) / pi times
    sum_j (-1)^(r + j) f_j / (s - j).  A point on a node (d = 0) is that
    node's sample.
    """
    f = np.asarray(fvals, dtype=float)
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    s = (np.atleast_1d(xq) - x0) / dx
    out = np.zeros(s.size)
    inside = np.flatnonzero((s >= 0.0) & (s <= f.size - 1))
    r = np.rint(s[inside])
    d = s[inside] - r
    on_node = d == 0.0
    out[inside[on_node]] = f[r[on_node].astype(int)]
    off, r, d = inside[~on_node], r[~on_node], d[~on_node]
    j = np.arange(f.size)
    recip = s[off, None] - j
    np.divide(1.0, recip, out=recip)
    alternating = np.where(j % 2, -f, f)
    out[off] = (np.where(r % 2, -1.0, 1.0) * np.sin(np.pi * d) / np.pi
                * (recip @ alternating))
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
