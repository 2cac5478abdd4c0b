import numpy as np
import pytest
import scipy.special

from susyspectra.numerics import (OscillatoryError, bessel_j, bessel_j_zero,
                                  integrate_oscillatory_bessel, sinc_interp)

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
        x = np.linspace(1e-6, 50.0, 7001)
        for m in range(0, 11):
            err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
            assert err < 1e-12, f"m={m}: {err}"

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
