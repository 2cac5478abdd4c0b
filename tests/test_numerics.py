import decimal
from decimal import Decimal

import numpy as np
import pytest
import scipy.special

from susyspectra import numerics
from susyspectra.numerics import (OscillatoryError, QuadratureResult,
                                  _EpsilonTable, _panel_integrals, bessel_j,
                                  bessel_j_zero, integrate_oscillatory_bessel,
                                  sinc_derivative, sinc_interp)
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
        # up to 400 every band of the asymptotic expansion is covered; the
        # kernels of a t_max = 80 term map reach 640
        x = np.concatenate([np.linspace(1e-6, 400.0, 56001),
                            np.linspace(400.0, 1000.0, 24001)[1:]])
        for m in range(0, 11):
            err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
            assert err < 1e-12, f"m={m}: {err}"

    @pytest.mark.parametrize("m", range(0, 11))
    def test_band_edges_against_scipy(self, m):
        # each side of every edge where the method changes (series to
        # recurrence at 10 or m + 8, recurrence to asymptotic at 18 or
        # m + 10), and of 1, 3, 6, 30 and 60, inside the series and
        # asymptotic bands
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
        # correction falls below the leading term; both sides of that edge,
        # of m + 10 and of the recurrence's edges at 18 * 2^k below it are
        # in the sample
        recur = 18.0 * 2.0 ** np.arange(16)
        edges = np.concatenate([[m + 10.0, 0.5 * m * m],
                                recur[recur < 0.5 * m * m]])
        x = np.concatenate([np.linspace(1e-6, 1000.0, 20001),
                            np.nextafter(edges, 0.0), edges])
        err = np.max(np.abs(bessel_j(m, x) - scipy.special.jv(m, x)))
        assert err < 1e-12, err

    @pytest.mark.parametrize("m", [0, 4, 6])
    def test_one_call_per_method(self, m, monkeypatch):
        # below order 7 the series, the recurrence and the asymptotic
        # expansion each take one band: one call each
        calls = []
        for name in ("_bessel_series", "_bessel_miller",
                     "_bessel_asymptotic"):
            def counted(*args, _name=name, _f=getattr(numerics, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(numerics, name, counted)
        bessel_j(m, np.linspace(0.0, 320.0, 5001))
        assert sorted(calls) == ["_bessel_asymptotic", "_bessel_miller",
                                 "_bessel_series"]

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
    # the 15-point panel rule
    def test_against_decimal_oracle(self):
        x, w = numerics._PANEL_NODES, numerics._PANEL_WEIGHTS
        for i in range(15):
            x_ref, w_ref = _legendre_oracle(15, x[i])
            assert abs(float(x_ref - Decimal(x[i]))) <= 1e-15, i
            assert abs(float((Decimal(w[i]) - w_ref) / w_ref)) <= 2e-13, i

    def test_ascending_and_mirrored(self):
        x, w = numerics._PANEL_NODES, numerics._PANEL_WEIGHTS
        assert x.shape == w.shape == (15,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert x[7] == 0.0
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


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


def _wynn_epsilon(s: np.ndarray) -> float:
    """Wynn's epsilon table rebuilt from scratch on a window of partial
    sums, the form `_EpsilonTable` replaced (the last 24 sums were its
    window), kept as its oracle."""
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


def _alternating(count: int, power: int) -> list[float]:
    """The first partial sums of sum_k (-1)^k / (k + 1)^power."""
    return np.cumsum([(-1.0) ** k / (k + 1) ** power
                      for k in range(count)]).tolist()


def _hankel_verify_sums() -> list[float]:
    """The partial sums one `hankel-verify` integral (order 0, p = 0.5)
    feeds its epsilon table."""
    sums = []

    class Recording(_EpsilonTable):
        def add(self, s):
            sums.append(s)
            return super().add(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_EpsilonTable", Recording)
        hankel_oscillatory(lambda t: 1.0 / np.asarray(t), 0, 0.5, tol=1e-9)
    return sums


class TestOscillatoryBessel:
    def test_unit_over_p_identity(self):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        for p in (0.5, 1.0, 2.0, 5.0):
            for nu in (0, 1, 2):
                res = integrate_oscillatory_bessel(ones, nu, p, tol=1e-9)
                assert abs(p * res.value - 1.0) < 1e-6

    @pytest.mark.parametrize("m", [-1, -2, -3])
    def test_negative_order_reflection(self, m):
        # J_-m = (-1)^m J_m has the zeros of J_|m|, so the blocks are the
        # same and the value is (-1)^m times that at |m|
        assert bessel_j_zero(m, 3) == bessel_j_zero(-m, 3)
        g = lambda t: 1.0 / np.asarray(t)
        tol = 1e-9
        got = hankel_oscillatory(g, m, 1.0, tol=tol)
        ref = hankel_oscillatory(g, -m, 1.0, tol=tol)
        assert abs(got.value - (-1) ** m * ref.value) <= tol

    def test_zero_integrand(self):
        # every difference is an exact zero; the run still takes 8 blocks
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        res = integrate_oscillatory_bessel(zero, 0, 1.0, tol=1e-10)
        eight = integrate_oscillatory_bessel(ones, 0, 1.0, tol=1.0,
                                             max_blocks=8)
        assert res == QuadratureResult(0.0, 0.0, eight.evaluations)

    def test_batch_results_compare(self):
        a = QuadratureResult(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 3)
        same = QuadratureResult(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                                3)
        assert a == same and not a != same
        assert a != QuadratureResult(np.array([1.0, 2.5]),
                                     np.array([0.0, 0.0]), 3)
        assert a != QuadratureResult(np.array([1.0, 2.0]),
                                     np.array([0.0, 1e-9]), 3)
        assert a != QuadratureResult(np.array([1.0, 2.0]),
                                     np.array([0.0, 0.0]), 4)
        assert a != QuadratureResult(1.0, 0.0, 3)

    def test_divergent_envelope_raises(self):
        grow = lambda x: np.exp(np.asarray(x, dtype=float))
        with pytest.raises((OscillatoryError, OverflowError)):
            integrate_oscillatory_bessel(grow, 0, 1.0, tol=1e-8, max_blocks=30)

    @pytest.mark.parametrize("max_blocks, tol, message", [
        (0, 1e-9, "partial sums failed to alternate or converge"),
        (7, 1e-9, "partial sums failed to alternate or converge"),
        # block 9's estimate is 2.8e-6 from block 8's, far above 1000 tol
        (9, 1e-15, "not converged: estimate 1, uncertainty 2.79067e-06"),
    ])
    def test_unsettled_runs_raise(self, max_blocks, tol, message):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(OscillatoryError, match=message):
            integrate_oscillatory_bessel(ones, 0, 1.0, tol=tol,
                                         max_blocks=max_blocks)

    @pytest.mark.parametrize("sequence", [
        # longer than the 24-sum depth, and converged to the last bit well
        # before its end, so zero differences enter and leave the window
        lambda: _alternating(60, 1),
        # a tail that repeats exactly
        lambda: _alternating(12, 2) + _alternating(12, 2)[-1:] * 8,
        _hankel_verify_sums,
    ], ids=["alternating_harmonic", "repeated_tail", "hankel_verify"])
    def test_table_matches_windowed_rebuild(self, sequence):
        # one block at a time, each estimate is bit for bit the rebuilt
        # table's on the last 24 sums
        sums = sequence()
        table = _EpsilonTable()
        for k, s in enumerate(sums, start=1):
            got = np.float64(table.add(s))
            want = np.float64(_wynn_epsilon(np.array(sums[max(0, k - 24):k])))
            assert got.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("p, tol, max_blocks, error, message", [
        (np.nan, 1e-9, 80, ValueError, "p must be finite and positive"),
        (np.inf, 1e-9, 80, ValueError, "p must be finite and positive"),
        (0.0, 1e-9, 80, ValueError, "p must be finite and positive"),
        (np.array([1.0, -2.0]), 1e-9, 80, ValueError,
         "p must be finite and positive"),
        (np.array([1.0, np.nan]), 1e-9, 80, ValueError,
         "p must be finite and positive"),
        (np.array([]), 1e-9, 80, ValueError, "non-empty 1-D array"),
        (np.ones((2, 2)), 1e-9, 80, ValueError, "non-empty 1-D array"),
        # a NaN tol passes `tol <= 0`, and then every stop test
        (1.0, np.nan, 80, ValueError, "tol must be finite and positive"),
        (1.0, np.inf, 80, ValueError, "tol must be finite and positive"),
        (1.0, 0.0, 80, ValueError, "tol must be finite and positive"),
        (1.0, 1e-9, 7, OscillatoryError,
         "partial sums failed to alternate or converge"),
    ], ids=["nan_p", "inf_p", "zero_p", "negative_in_array", "nan_in_array",
            "empty", "two_d", "nan_tol", "inf_tol", "zero_tol",
            "seven_blocks"])
    def test_refused_before_any_block(self, p, tol, max_blocks, error,
                                      message):
        def never(x):
            raise AssertionError("integrand evaluated")

        with pytest.raises(error, match=message):
            integrate_oscillatory_bessel(never, 0, p, tol=tol,
                                         max_blocks=max_blocks)


_VERIFY_P = np.array([0.5, 1.0, 2.0, 5.0])


def _inverse(t):
    return 1.0 / np.asarray(t)


def _count_bessel_calls(monkeypatch) -> list:
    """Record the size of every numerics.bessel_j call."""
    calls = []
    original = numerics.bessel_j

    def counting(m, x):
        calls.append(np.size(x))
        return original(m, x)

    monkeypatch.setattr(numerics, "bessel_j", counting)
    return calls


class TestOscillatoryLockstep:
    """A 1-D array of p runs every integral in lockstep, one bessel_j call
    per block, and gives each p the bits of a call on that p alone."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_hankel_verify_batch_is_the_scalar_calls(self, order):
        # with test_hankel_verify_evaluation_count, the three lockstep calls
        # evaluate the 4830 nodes of the twelve scalar ones
        batch = hankel_oscillatory(_inverse, order, _VERIFY_P, tol=1e-9)
        alone = [hankel_oscillatory(_inverse, order, p, tol=1e-9)
                 for p in _VERIFY_P.tolist()]
        assert batch.value.shape == batch.error_estimate.shape == (4,)
        assert batch.value.tobytes() == np.array(
            [r.value for r in alone]).tobytes()
        assert batch.error_estimate.tobytes() == np.array(
            [r.error_estimate for r in alone]).tobytes()
        assert type(batch.evaluations) is int
        assert batch.evaluations == sum(r.evaluations for r in alone)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_one_bessel_call_per_block(self, monkeypatch, order):
        # each scalar call makes one bessel_j call per block; the batch
        # makes one per block of its longest-running p, on every running
        # p's nodes together
        calls = _count_bessel_calls(monkeypatch)
        blocks = []
        for p in _VERIFY_P.tolist():
            calls.clear()
            hankel_oscillatory(_inverse, order, p, tol=1e-9)
            blocks.append(len(calls))
        calls.clear()
        batch = hankel_oscillatory(_inverse, order, _VERIFY_P, tol=1e-9)
        assert len(calls) == max(blocks)
        assert sum(calls) == batch.evaluations

    def test_each_p_stops_at_its_own_block(self, monkeypatch):
        # 14, 13 and 12 blocks: a p that has stopped leaves the later
        # blocks, and the others keep their own values
        g = lambda x: 1.0 / np.sqrt(1.0 + np.asarray(x))
        ps = np.array([0.7, 3.0, 11.0])
        calls = _count_bessel_calls(monkeypatch)
        blocks, alone = [], []
        for p in ps.tolist():
            calls.clear()
            alone.append(integrate_oscillatory_bessel(g, 1, p))
            blocks.append(len(calls))
        assert blocks == [14, 13, 12]
        calls.clear()
        batch = integrate_oscillatory_bessel(g, 1, ps)
        assert len(calls) == 14
        assert batch.value.tobytes() == np.array(
            [r.value for r in alone]).tobytes()
        assert batch.error_estimate.tobytes() == np.array(
            [r.error_estimate for r in alone]).tobytes()
        assert batch.evaluations == sum(r.evaluations for r in alone)

    def test_growing_integrand_at_one_p_raises(self):
        # g grows past x = 20, which p = 5 never reaches before it stops;
        # p = 0.5 does, and the whole call raises
        g = lambda x: np.exp(np.maximum(np.asarray(x) - 20.0, 0.0))
        alone = integrate_oscillatory_bessel(g, 0, 5.0)
        assert alone.value == pytest.approx(0.2, rel=1e-8)
        with pytest.raises(OscillatoryError, match=r"p = 0\.5\)"):
            integrate_oscillatory_bessel(g, 0, np.array([5.0, 0.5]))

    @pytest.mark.parametrize("p", [np.array(2.0), np.float64(2.0)],
                             ids=["zero_d_array", "numpy_scalar"])
    def test_zero_dimensional_p_gives_a_scalar_result(self, p):
        got = hankel_oscillatory(_inverse, 1, p, tol=1e-9)
        want = hankel_oscillatory(_inverse, 1, 2.0, tol=1e-9)
        assert type(got.value) is float and type(got.error_estimate) is float
        assert got == want


class TestSincDerivative:
    def test_gaussian_derivative(self):
        # exp(-x^2/2) is band-limited to round-off at h = 0.1 and below
        # 2e-22 at the ends, so D reproduces -x exp(-x^2/2) at the nodes;
        # D transposed would give the opposite sign
        x = np.linspace(-10.0, 10.0, 201)
        got = sinc_derivative(x.size, 0.1) @ np.exp(-x * x / 2.0)
        assert np.max(np.abs(got + x * np.exp(-x * x / 2.0))) < 5e-14

    def test_antisymmetric_toeplitz(self):
        d = sinc_derivative(7, 0.5)
        assert np.array_equal(d, -d.T)
        assert np.all(np.diag(d) == 0.0)
        # D_ij = (-1)^(i-j) / ((i-j) h)
        assert d[1, 0] == -2.0 and d[2, 0] == 1.0 and d[0, 3] == 2.0 / 3.0


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
        # a stack of rows: one row of results per row of samples
        stack = np.stack((vals, np.sin(3.0 * xs), -vals))
        got = sinc_interp(0.0, 0.1, stack, xs)
        assert got.shape == (3, xs.size)
        assert np.allclose(got, stack, atol=1e-15)
        out = sinc_interp(0.0, 0.1, stack, np.array([-1e-9, 1.0 + 1e-9, 2.0]))
        assert out.shape == (3, 3) and np.all(out == 0.0)
        at = sinc_interp(0.0, 0.1, stack, 0.3)
        assert at.shape == (3,)
        assert np.allclose(at, stack[:, 3], rtol=1e-15, atol=0)
        assert np.array_equal(sinc_interp(0.0, 0.1, stack, 2.0), np.zeros(3))

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

        # a (k, n) stack gives, row for row, bit for bit what k calls of
        # one row give: at array x and at scalar x on a node, between
        # nodes, near an end and outside the range
        stack = np.stack((f, rng.standard_normal(227), f[::-1], -f))
        rows = sinc_interp(x0, dx, stack, x)
        assert rows.shape == (4, x.size)
        for row, samples in zip(rows, stack, strict=True):
            assert np.array_equal(row, sinc_interp(x0, dx, samples, x))
        assert np.array_equal(rows[0], got)
        for xs in (*nodes[[0, 3, 7]], *near[:3], *ends, x0 + 0.37 * dx,
                   x0 - 1.0, x0 + 300 * dx):
            at = sinc_interp(x0, dx, stack, xs)
            assert at.shape == (4,)
            assert np.array_equal(
                at, [sinc_interp(x0, dx, samples, xs) for samples in stack])
        # any leading shape: (2, 2, n) reads as the rows of the (4, n) stack
        cube = sinc_interp(x0, dx, stack.reshape(2, 2, 227), x)
        assert np.array_equal(cube.reshape(4, x.size), rows)
