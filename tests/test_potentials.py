import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from susyspectra.eigensolver import default_grid
from susyspectra.potentials import (MorseParams, PTParams,
                                    SingularConfigurationError,
                                    riccati_residual)

BIG_GAMMA = 1e12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MorseParams(0.5, 1.0)
        with pytest.raises(ValueError):
            MorseParams(2.0, 0.0)
        with pytest.raises(ValueError):
            PTParams(0.0, 1.0)
        with pytest.raises(ValueError):
            PTParams(1.0, -1.0)

    @pytest.mark.parametrize("cls, strength, gamma", [
        (MorseParams, math.inf, 1.0),
        (MorseParams, 4.5, math.inf),
        (MorseParams, 4.5, math.nan),
        (PTParams, math.inf, 1.0),
        (PTParams, math.nan, 1.0),
        (PTParams, 4.0, math.inf),
        (PTParams, 4.0, -math.inf),
    ])
    def test_non_finite_refused(self, cls, strength, gamma):
        with pytest.raises(ValueError):
            cls(strength, gamma)

    @pytest.mark.parametrize("cls, strength", [
        (MorseParams, 1e155), (MorseParams, 1e300), (PTParams, 1e155),
        (PTParams, 1e200)])
    def test_overflowing_threshold_refused(self, cls, strength):
        # W'(inf)^2 is past the largest float from about 1.34e154
        with pytest.raises(ValueError, match="threshold"):
            cls(strength, 1.0)
        assert cls(1e154, 1.0).threshold == pytest.approx(1e308, rel=1e-10)

    def test_derived_a(self):
        assert MorseParams(4.5, 1.0).a == 4.0


class TestMorse:
    def test_shifted_values(self):
        p = MorseParams(4.5, 1.0)
        assert p.shifted(0.0) == pytest.approx(-4.25, abs=1e-14)
        assert p.shifted(40.0) == pytest.approx(p.a ** 2, abs=1e-12)
        p1 = MorseParams(1.0, 1.0)
        assert p1.shifted(math.log(2.0)) == pytest.approx(-0.5, abs=1e-14)

    def test_partner_values(self):
        p = MorseParams(4.5, 1.0)
        assert p.partner(0.0) == pytest.approx(4.75, abs=1e-14)
        assert p.partner(40.0) == pytest.approx(16.0, abs=1e-12)
        p1 = MorseParams(1.0, 1.0)
        assert p1.partner(math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_q_at_zero(self):
        for lam, gamma in ((1.0, 1.0), (4.5, 2.0), (2.5, 0.7)):
            p = MorseParams(lam, gamma)
            assert p.q(0.0) == pytest.approx(
                math.exp(-2 * lam) / gamma, rel=1e-13)

    def test_q_denominator_two_routes(self):
        # summed route vs incomplete-gamma closed form of the integral
        lam, gamma, rho = 1.0, 1.0, 1.0
        p = MorseParams(lam, gamma)
        s = 2 * lam - 1
        lower_gamma = lambda x: scipy.special.gammainc(s, x) * math.gamma(s)
        integral = (2 * lam) ** (1 - 2 * lam) * (
            lower_gamma(2 * lam) - lower_gamma(2 * lam * math.exp(-rho)))
        num = math.exp(-(2 * lam - 1) * rho - 2 * lam * math.exp(-rho))
        expected = num / (gamma + integral)
        assert p.q(rho) == pytest.approx(expected, rel=1e-10)
        # and the pure-quadrature route agrees as well
        f = lambda r: np.exp(-(2 * lam - 1) * r - 2 * lam * np.exp(-r))
        quad, _ = scipy.integrate.quad(f, 0.0, rho, epsabs=1e-13,
                                       epsrel=1e-13)
        assert quad == pytest.approx(integral, rel=1e-10)

    def test_q_vanishes_for_large_gamma(self):
        p = MorseParams(2.0, BIG_GAMMA)
        assert p.q(1.3) < 1e-11

    def test_q_derivative_closed_case(self):
        p = MorseParams(1.0, 1.0)
        q0 = math.exp(-2.0)
        assert p.q_derivative(0.0) == pytest.approx(q0 - q0 * q0,
                                                           rel=1e-12)

    def test_q_derivative_matches_finite_difference(self):
        p = MorseParams(2.5, 1.0)
        rng = np.random.default_rng(42)
        h = 1e-5
        for rho in rng.uniform(-1.0, 5.0, size=20):
            fd = (p.q(rho + h) - p.q(rho - h)) / (2 * h)
            assert p.q_derivative(rho) == pytest.approx(fd, abs=1e-6)

    def test_generalized_limits(self):
        p_inf = MorseParams(3.0, BIG_GAMMA)
        x = np.linspace(-1.0, 8.0, 50)
        assert np.max(np.abs(p_inf.generalized(x)
                             - p_inf.shifted(x))) < 1e-10
        p1 = MorseParams(1.0, 1.0)
        q0 = math.exp(-2.0)
        assert p1.generalized(0.0) == pytest.approx(
            -0.75 - 2 * (q0 - q0 * q0), rel=1e-12)
        p = MorseParams(4.5, 1.0)
        # approach to the continuum value is 2 lam^2 e^-rho ~ 5.6e-10 here
        assert p.generalized(25.0) == pytest.approx(16.0, abs=1e-8)

    def test_deformation_vanishes_at_boundary(self):
        for gamma in (0.5, 1.0, 10.0):
            p = MorseParams(4.5, gamma)
            assert abs(p.generalized(25.0)
                       - p.shifted(25.0)) < 1e-8

    def test_f_values(self):
        p_inf = MorseParams(2.0, BIG_GAMMA)
        x = np.linspace(-1.0, 6.0, 30)
        assert np.allclose(p_inf.f(x), p_inf.w_prime(x),
                           atol=1e-11)
        p1 = MorseParams(1.0, 1.0)
        assert p1.f(0.0) == pytest.approx(-0.5 + math.exp(-2.0),
                                                 rel=1e-13)

    def test_singular_configuration(self):
        p = MorseParams(0.6, 0.1)
        rmin = p.rho_min()
        assert math.isfinite(rmin)
        with pytest.raises(SingularConfigurationError) as exc:
            p.q(rmin - 1.0)
        assert f"{rmin - 1.0:.6g}"[:4] in str(exc.value)
        # safely above the singular point
        assert p.q(rmin + 0.2) > 0

    def test_rho_min_unrestricted_for_large_gamma(self):
        assert MorseParams(4.5, 1.0).rho_min() == -math.inf
        assert MorseParams(4.5, 0.5).rho_min() == -math.inf


class TestPT:
    def test_shifted_values(self):
        p = PTParams(4.0, 1.0)
        assert p.shifted(0.0) == pytest.approx(-4.0, abs=1e-14)
        assert p.shifted(30.0) == pytest.approx(16.0, abs=1e-12)
        assert p.shifted(-30.0) == pytest.approx(16.0, abs=1e-12)
        p1 = PTParams(1.0, 1.0)
        assert p1.shifted(math.log(1 + math.sqrt(2))) == pytest.approx(
            0.0, abs=1e-14)

    def test_partner_values(self):
        p = PTParams(4.0, 1.0)
        assert p.partner(0.0) == pytest.approx(4.0, abs=1e-14)
        assert p.partner(25.0) == pytest.approx(16.0, abs=1e-12)
        # mu = 1 partner is the free constant mu^2
        p1 = PTParams(1.0, 1.0)
        x = np.linspace(-5, 5, 41)
        assert np.allclose(p1.partner(x), 1.0, atol=1e-14)

    def test_w_second_far_out_is_silent(self):
        # cosh(rho)**2 overflows past |rho| ~ 355; mu / inf = 0 is the right
        # value, and no RuntimeWarning reaches the caller
        p = PTParams(4.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.w_second(np.array([-800.0, 800.0]))
        assert np.array_equal(got, [0.0, 0.0])

    def test_q_values(self):
        for mu, gamma in ((1.0, 1.0), (4.0, 0.5), (2.0, 3.0)):
            assert PTParams(mu, gamma).q(0.0) == pytest.approx(
                1.0 / gamma, rel=1e-13)
        p1 = PTParams(1.0, 1.0)
        expected = (1.0 / math.cosh(1.0) ** 2) / (1.0 + math.tanh(1.0))
        assert p1.q(1.0) == pytest.approx(expected, rel=1e-10)
        assert PTParams(2.0, BIG_GAMMA).q(0.7) < 1e-11

    def test_q_derivative_matches_finite_difference(self):
        p = PTParams(3.0, 1.0)
        rng = np.random.default_rng(11)
        h = 1e-5
        for rho in rng.uniform(-4.0, 4.0, size=20):
            fd = (p.q(rho + h) - p.q(rho - h)) / (2 * h)
            assert p.q_derivative(rho) == pytest.approx(fd, abs=1e-6)

    def test_generalized_values(self):
        p1 = PTParams(1.0, 1.0)
        # q(0)=1, q'(0) = -1, so V = -1 + 2 = 1
        assert p1.generalized(0.0) == pytest.approx(1.0, rel=1e-12)
        p_inf = PTParams(2.5, BIG_GAMMA)
        x = np.linspace(-6, 6, 60)
        assert np.max(np.abs(p_inf.generalized(x)
                             - p_inf.shifted(x))) < 1e-10

    def test_deformation_vanishes_at_boundary(self):
        for gamma in (0.5, 1.0, 10.0):
            p = PTParams(4.0, gamma)
            for edge in (-15.0, 15.0):
                assert abs(p.generalized(edge)
                           - p.shifted(edge)) < 1e-8

    def test_f_values(self):
        p1 = PTParams(1.0, 1.0)
        assert p1.f(0.0) == pytest.approx(1.0, rel=1e-13)
        p_inf = PTParams(3.0, BIG_GAMMA)
        x = np.linspace(-5, 5, 30)
        assert np.allclose(p_inf.f(x), p_inf.w_prime(x), atol=1e-11)

    def test_singular_configuration(self):
        # negative-tail mass of sech^1.2 exceeds gamma = 0.5
        p = PTParams(0.6, 0.5)
        rmin = p.rho_min()
        assert math.isfinite(rmin)
        with pytest.raises(SingularConfigurationError):
            p.q(rmin - 1.0)


class TestProperties:
    @given(rho=st.floats(0.0, 8.0), g1=st.floats(0.3, 5.0),
           g2=st.floats(0.3, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_q_strictly_decreasing_in_gamma(self, rho, g1, g2):
        lo, hi = sorted((g1, g2))
        if hi - lo < 1e-9:
            return
        assert MorseParams(2.5, lo).q(rho) > MorseParams(2.5, hi).q(rho)
        assert PTParams(3.0, lo).q(rho) > PTParams(3.0, hi).q(rho)

    @given(rho=st.floats(-2.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_positivity(self, rho):
        assert MorseParams(4.5, 1.0).q(rho) > 0
        assert PTParams(4.0, 1.0).q(rho) > 0


class TestRiccati:
    # the residual max |q' + 2 W' q + q^2| of f = W' + q on the default
    # grid, q' by the sinc-DVR derivative; q is passed as a function, so a
    # wrong one can be handed in
    def test_base_superpotential_is_exact_solution(self):
        # f = W' (q = 0) solves the equation identically
        p = MorseParams(2.0, BIG_GAMMA)
        res = riccati_residual(lambda r: 0.0 * r, p.w_prime, default_grid(p))
        assert res == 0.0

    def test_f_morse_solves_riccati(self):
        p = MorseParams(2.5, 1.0)
        assert riccati_residual(p.q, p.w_prime, default_grid(p)) < 1e-6

    def test_f_pt_solves_riccati(self):
        p = PTParams(3.0, 1.0)
        assert riccati_residual(p.q, p.w_prime, default_grid(p)) < 1e-6

    def test_wrong_f_has_large_residual(self):
        p = MorseParams(2.5, 1.0)
        # f shifted by 0.1
        res = riccati_residual(lambda r: p.q(r) + 0.1, p.w_prime,
                               default_grid(p))
        assert res > 1e-2

    @pytest.mark.parametrize("well", [
        PTParams(2.0, 1.0), PTParams(3.0, 1.0), PTParams(4.0, 1.0),
        MorseParams(2.5, 1.0), MorseParams(4.5, 1.0)],
        ids=["pt-2", "pt-3", "pt-4", "morse-2.5", "morse-4.5"])
    def test_f_solves_riccati_to_stencil_resolution(self, well):
        res = riccati_residual(well.q, well.w_prime, default_grid(well))
        assert res <= 1e-10


# ---------------------------------------------------------------------------
# The running integral I(rho) = int_0^rho psi0^2 against independent values.
# Tolerance, fixed before the first run: |I - I_ref| <= 1e-13 M, with M the
# total mass of psi0^2 over the line; rho_min to 1e-10 of brentq's root.
# ---------------------------------------------------------------------------


def _morse_mass(lam: float) -> float:
    return (2 * lam) ** (1 - 2 * lam) * math.gamma(2 * lam - 1)


def _morse_integral(lam: float, rho):
    """(2 lam)^(1 - 2 lam) Gamma(2 lam - 1) [P(2 lam - 1, 2 lam)
    - P(2 lam - 1, 2 lam e^-rho)], P the regularized lower incomplete
    gamma function."""
    s = 2 * lam - 1
    with np.errstate(over="ignore"):
        x = 2 * lam * np.exp(-np.asarray(rho, dtype=float))
    return _morse_mass(lam) * (scipy.special.gammainc(s, 2 * lam)
                               - scipy.special.gammainc(s, x))


def _pt_mass(mu: float) -> float:
    return math.sqrt(math.pi) * math.gamma(mu) / math.gamma(mu + 0.5)


def _pt_integral(mu: float, rho):
    f = lambda x: np.cosh(x) ** (-2.0 * mu)
    return np.array([scipy.integrate.quad(f, 0.0, r, epsabs=1e-14,
                                          epsrel=1e-13, limit=400)[0]
                     for r in np.atleast_1d(rho)])


# both tails, either side of a half step, points past the clip range on
# each side; unsorted
_POINTS = np.array([0.26, -3.0, 0.0, 7.5, -0.05, 0.05, -0.051, 1.7, -12.0,
                    40.0, -1.3, 0.149, 300.0, -300.0, 25.0])


@pytest.mark.parametrize("params", [
    MorseParams(lam, 1.0) for lam in (0.6, 4.5, 5.0, 12.0)
] + [PTParams(mu, 1.0) for mu in (0.2, 4.0, 10.0)], ids=repr)
def test_closed_form_levels(params):
    # n(2s - n) for every n < s, s = lam - 1/2 or mu (a level at s itself
    # would sit on the threshold s^2)
    s = params.lam - 0.5 if isinstance(params, MorseParams) else params.mu
    want = [n * (2.0 * s - n) for n in range(math.ceil(s))]
    assert params.levels.tolist() == want
    assert [params.level(n) for n in range(len(want))] == want


class TestWeightIntegral:
    @pytest.mark.parametrize("lam", [0.6, 1.05, 4.5, 12.0])
    def test_morse_against_incomplete_gamma(self, lam):
        p = MorseParams(lam, 1.0)
        lo, hi = p.weight_support
        pts = np.concatenate((_POINTS, [lo - 1.0, hi + 1.0, hi - 0.3]))
        got = p._weight_integral(pts)
        assert got.shape == pts.shape
        want = _morse_integral(lam, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * _morse_mass(lam)
        for r in (-0.7, 2.03, hi + 5.0):
            value = p._weight_integral(r)
            assert isinstance(value, float)
            assert abs(value - _morse_integral(lam, r)) <= (
                1e-13 * _morse_mass(lam))

    @pytest.mark.parametrize("mu", [0.2, 0.6, 4.0, 10.0])
    def test_pt_against_quadrature(self, mu):
        p = PTParams(mu, 1.0)
        lo, hi = p.weight_support
        pts = np.concatenate((_POINTS, [lo - 1.0, hi + 1.0, hi - 0.3]))
        got = p._weight_integral(pts)
        assert got.shape == pts.shape
        # sech^(2 mu) is even: the clipped tails hold half the mass each
        want = np.where(np.abs(pts) > hi, np.sign(pts) * _pt_mass(mu) / 2,
                        0.0)
        inside = np.abs(pts) <= hi
        want[inside] = _pt_integral(mu, pts[inside])
        assert np.max(np.abs(got - want)) <= 1e-13 * _pt_mass(mu)
        value = p._weight_integral(-0.7)
        assert isinstance(value, float)
        assert abs(value - _pt_integral(mu, -0.7)[0]) <= 1e-13 * _pt_mass(mu)

    @pytest.mark.parametrize("well, integral", [
        (MorseParams(0.6, 0.1), lambda r: _morse_integral(0.6, r)),
        (PTParams(0.6, 0.5), lambda r: _pt_integral(0.6, r)[0]),
        (PTParams(0.3, 0.15), lambda r: _pt_integral(0.3, r)[0]),
    ], ids=["morse", "pt", "pt_weak"])
    def test_rho_min_against_brentq(self, well, integral):
        lo = well.weight_support[0]
        want = scipy.optimize.brentq(lambda r: well.gamma + integral(r),
                                     lo, 0.0, xtol=1e-14, rtol=1e-15)
        assert abs(well.rho_min() - want) <= 1e-10
