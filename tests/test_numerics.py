import decimal
from decimal import Decimal

import numpy as np
import pytest
import scipy.special

from susyspectra.numerics import (_J0_ZEROS, _J1_SQUARED, OscillatoryError,
                                  _j0_zeros_and_j1_squared, _panel_integrals,
                                  bessel_j, bessel_j_pair, bessel_j_zero,
                                  gauss_legendre,
                                  integrate_oscillatory_bessel, sinc_interp)
from susyspectra.transforms import hankel_oscillatory

# First positive zero of J0, located by bisection on the plain power series
# (oracle below) and frozen here.
J0_FIRST_ZERO = 2.404825557695773


def _series_j0(x: float) -> float:
    # independent oracle: raw ascending series, scalar, no shared code paths
    term, out = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        out += term
    return out


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(7, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        # bracket the root with the series oracle, then check the frozen value
        lo, hi = 2.0, 3.0
        assert _series_j0(lo) > 0 > _series_j0(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _series_j0(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - J0_FIRST_ZERO) < 1e-12
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-10

    def test_against_scipy(self):
        # up to 400 every band of the asymptotic expansion is covered
        x = np.linspace(1e-6, 400.0, 56001)
        for m in range(0, 11):
            err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
            assert err < 1e-12, f"m={m}: {err}"

    @pytest.mark.parametrize("m", range(0, 11))
    def test_band_edges_against_scipy(self, m):
        # each side of every edge where the method or the length of the
        # expansion changes: the series bands, the series/recurrence and
        # recurrence/asymptotic switches (at 10 and 18, or at m + 8 and
        # m + 10), and the asymptotic bands
        edges = np.array([1.0, 3.0, 6.0, 10.0, 18.0, 30.0, 60.0,
                          m + 8.0, m + 10.0])
        x = np.concatenate([np.nextafter(edges, 0.0), edges,
                            np.nextafter(edges, np.inf),
                            edges * (1.0 - 1e-6), edges * (1.0 + 1e-6)])
        err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
        assert err < 1e-12, err

    @pytest.mark.parametrize("m", [11, 12, 13, 14, 15, 20, 30, 60, 300])
    def test_high_orders_against_scipy(self, m):
        # Hankel's expansion starts no lower than m^2 / 2, where its first
        # correction falls below the leading term; both sides of that edge
        # and of m + 10 are in the sample
        edges = np.array([m + 10.0, 0.5 * m * m])
        x = np.concatenate([np.linspace(1e-6, 400.0, 8001),
                            np.nextafter(edges, 0.0), edges])
        err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
        assert err < 1e-12, err

    def test_pair_matches_single_orders(self):
        # bessel_j_pair splits x once, at order m's bands: J_m must be
        # bessel_j's bit for bit (the fused term map equals a lone hankel),
        # and J_{m-1} within 1e-14 of bessel_j's, on each side of every
        # band edge of both orders below 400
        orders = np.arange(0, 301)
        edges = np.concatenate(([1.0, 3.0, 6.0, 10.0, 18.0, 30.0, 60.0],
                                orders + 7.0, orders + 8.0, orders + 9.0,
                                orders + 10.0, 0.5 * orders ** 2))
        edges = edges[edges <= 400.0]
        x = np.concatenate([np.linspace(0.0, 400.0, 2001),
                            np.nextafter(edges, 0.0), edges])
        below = bessel_j(0, x)
        for m in range(1, 301):
            upper, lower = bessel_j_pair(m, x)
            err = np.max(np.abs(lower - below))
            assert err < 1e-14, (m, err)
            below = bessel_j(m, x)
            assert np.array_equal(upper, below), m

    def test_pair_negative_argument_and_order(self):
        x = np.linspace(-30.0, 30.0, 601)
        for m in (1, 2, 5):
            upper, lower = bessel_j_pair(m, x)
            assert np.array_equal(upper, bessel_j(m, x))
            assert np.max(np.abs(lower - bessel_j(m - 1, x))) < 1e-14
        with pytest.raises(ValueError):
            bessel_j_pair(0, x)
        with pytest.raises(ValueError):
            bessel_j_pair(3, np.array([1.0, np.nan]))

    def test_three_term_recurrence(self):
        x = np.linspace(0.5, 30.0, 901)
        for m in range(1, 10):
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = (2.0 * m / x) * bessel_j(m, x)
            scale = np.maximum(np.abs(rhs), 1.0)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-9

    def test_negative_order_reflection(self):
        x = np.linspace(0.1, 20.0, 101)
        for m in (1, 2, 5):
            assert np.allclose(bessel_j(-m, x), (-1.0) ** m * bessel_j(m, x),
                               rtol=0, atol=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j(0, np.inf)
        with pytest.raises(ValueError):
            bessel_j(2, np.nan)

    def test_angular_integral_identity(self):
        # (1/2pi) closed-integral e^{i x sin phi - i m phi} dphi = J_m(x),
        # by direct periodic trapezoid quadrature
        phi = 2.0 * np.pi * np.arange(512) / 512
        for m in range(0, 9):
            for x in (0.2, 1.0, 3.0, 7.0, 12.0, 20.0):
                quad = np.mean(np.exp(1j * (x * np.sin(phi) - m * phi)))
                assert abs(quad - bessel_j(m, x)) < 1e-9

    def test_mcmahon_zeros(self):
        # the expansion is asymptotic in the zero index: low orders are sharp
        # everywhere, higher orders only need to land between true zeros
        for m in (0, 1, 2):
            ref = scipy.special.jn_zeros(m, 8)
            got = np.array([bessel_j_zero(m, k) for k in range(1, 9)])
            assert np.max(np.abs(got - ref)) < 2e-3
            assert np.abs(got[-1] - ref[-1]) < 1e-8
        for m in (5, 8):
            ref = scipy.special.jn_zeros(m, 13)
            got = np.array([bessel_j_zero(m, k) for k in range(1, 13)])
            assert np.all(got > np.concatenate(([0.0], ref[:-2] + 1e-9)))
            assert np.all(got < ref[1:])


def _legendre_decimal(n: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """P_n(x) and P_n'(x) from the three-term recurrence, in the precision
    of the current decimal context."""
    pm, p = Decimal(1), x
    for k in range(1, n):
        pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
    return p, n * (x * p - pm) / (x * x - 1)


def _legendre_oracle(n: int, x0: float) -> tuple[Decimal, Decimal]:
    """40-digit node and weight of the n-point Gauss-Legendre rule nearest
    x0: Newton's method on P_n in decimal arithmetic, started at x0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(float(x0))
        for _ in range(3):
            p, dp = _legendre_decimal(n, x)
            x -= p / dp
        _, dp = _legendre_decimal(n, x)
        return x, 2 / ((1 - x * x) * dp * dp)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [17, 64, 100, 101, 256, 257, 2048, 2049])
    def test_against_decimal_oracle(self, n):
        x, w = gauss_legendre(n)
        # Newton's weights (n <= 100) lose O(n^2 eps) at the ends of the
        # rule; above 100 nodes the asymptotic rule holds them to round-off
        w_tol = 1e-14 if n > 100 else 2e-13
        for i in (0, 1, n // 4, n // 2, n - 2, n - 1):
            x_ref, w_ref = _legendre_oracle(n, x[i])
            assert abs(float(x_ref - Decimal(x[i]))) <= 1e-15, i
            assert abs(float((Decimal(w[i]) - w_ref) / w_ref)) <= w_tol, i

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 101, 256, 2049])
    def test_ascending_and_mirrored(self, n):
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)

    def test_tabulated_bessel_values(self):
        nu, b = _j0_zeros_and_j1_squared(40)
        ref = scipy.special.jn_zeros(0, 40)
        ref_b = scipy.special.j1(ref) ** 2
        # the literals (k <= 20, 21) and the series beyond them
        assert _J0_ZEROS.size == 20 and _J1_SQUARED.size == 21
        assert np.max(np.abs(nu / ref - 1.0)) <= 1e-15
        assert np.max(np.abs(b / ref_b - 1.0)) <= 1e-15

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestPanelIntegrals:
    # uneven panels on both sides of 0, one of them long
    EDGES = np.array([-1.3, -0.9, -0.85, 0.0, 0.1, 0.7, 2.5])

    @pytest.mark.parametrize("k", range(30))
    def test_exact_to_degree_29(self, k):
        lo, hi = self.EDGES[:-1], self.EDGES[1:]
        got = _panel_integrals(lambda x: x**k, lo, hi)
        exact = (hi**(k + 1) - lo**(k + 1)) / (k + 1)
        assert got.shape == lo.shape
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-14

    def test_zero_width_and_reversed_panels(self):
        f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
        lo = np.array([0.0, 0.4, -2.0])
        hi = np.array([0.0, 1.3, 0.5])
        forward = _panel_integrals(f, lo, hi)
        assert forward[0] == 0.0
        backward = _panel_integrals(f, hi, lo)
        assert backward[0] == 0.0
        assert np.allclose(backward, -forward, rtol=1e-15, atol=0.0)

    def test_hankel_verify_evaluation_count(self):
        # the twelve oscillatory integrals of `hankel-verify` take one
        # 15-node panel per block as the rule they replaced did
        total = sum(
            hankel_oscillatory(lambda t: 1.0 / np.asarray(t), order, p,
                               tol=1e-9).evaluations
            for p in (0.5, 1.0, 2.0, 5.0) for order in (0, 1, 2))
        assert total == 4830


class TestOscillatoryBessel:
    def test_unit_over_p_identity(self):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        for p in (0.5, 1.0, 2.0, 5.0):
            for nu in (0, 1, 2):
                res = integrate_oscillatory_bessel(ones, nu, p, tol=1e-9)
                assert abs(p * res.value - 1.0) < 1e-6

    def test_zero_integrand(self):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        res = integrate_oscillatory_bessel(zero, 0, 1.0, tol=1e-10)
        assert res.value == 0.0

    def test_divergent_envelope_raises(self):
        grow = lambda x: np.exp(np.asarray(x, dtype=float))
        with pytest.raises((OscillatoryError, OverflowError)):
            integrate_oscillatory_bessel(grow, 0, 1.0, tol=1e-8, max_blocks=30)


class TestSincInterp:
    def test_band_limited_exact(self):
        # spectrum exp(-(k -+ 2)^2 / 4): below 1e-20 past the Nyquist
        # wavenumber pi/h, so the samples determine f to round-off
        h = 0.2
        xs = np.arange(-12.0, 12.0 + h / 2, h)
        f = lambda x: np.exp(-(x - 0.3) ** 2) * np.cos(2.0 * x)
        xq = np.linspace(-5.0, 5.0, 777)
        err = np.max(np.abs(sinc_interp(xs[0], h, f(xs), xq) - f(xq)))
        assert err < 1e-13

    def test_nodes_and_out_of_range(self):
        xs = np.arange(0.0, 1.01, 0.1)
        vals = np.cos(7.0 * xs)
        assert np.allclose(sinc_interp(0.0, 0.1, vals, xs), vals, atol=1e-15)
        out = sinc_interp(0.0, 0.1, vals, np.array([-1e-9, 1.0 + 1e-9, 2.0]))
        assert np.all(out == 0.0)
        assert sinc_interp(0.0, 0.1, vals, 0.3) == pytest.approx(vals[3])

    def test_one_sine_form_matches_sinc_matrix(self):
        def sinc_matrix(x0, dx, f, x):
            # the direct form: np.sinc on every point x sample
            s = (x - x0) / dx
            inside = (s >= 0.0) & (s <= f.size - 1)
            out = np.zeros(s.size)
            out[inside] = np.sinc(s[inside, None] - np.arange(f.size)) @ f
            return out

        rng = np.random.default_rng(7)
        x0, dx = -3.0, 0.0625  # nodes x0 + j dx are exact floats
        f = rng.standard_normal(227) * np.exp(-np.linspace(-4, 4, 227) ** 2)
        on = [0, 1, 2, 57, 58, 113, 225, 226]  # both ends, odd and even r
        nodes = x0 + dx * np.array(on, dtype=float)
        near = x0 + dx * (np.array([1, 2, 57, 58, 225])[:, None]
                          + np.array([-1e-13, 1e-13])).ravel()
        ends = x0 + dx * np.array([1e-13, 226 - 1e-13, -1e-13, 226 + 1e-13])
        x = np.concatenate((rng.uniform(x0 - 0.2, x0 + 226 * dx + 0.2, 500),
                            nodes, near, ends))
        got = sinc_interp(x0, dx, f, x)
        assert np.max(np.abs(got - sinc_matrix(x0, dx, f, x))) \
            <= 1e-14 * np.max(np.abs(f))
        assert np.array_equal(got[500:508], f[on])
