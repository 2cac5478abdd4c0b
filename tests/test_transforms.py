import dataclasses
import math
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from susyspectra import transforms
from susyspectra.analysis import normalized_l2_discrepancy, solve
from susyspectra.eigensolver import Spectrum
from susyspectra.grids import Grid
from susyspectra.numerics import bessel_j, clenshaw_curtis
from susyspectra.potentials import MorseParams, PTParams
from susyspectra.transforms import (DEFAULT_PLAN_N, DEFAULT_T_MAX,
                                    HankelPlan, TruncationWarning,
                                    angular_phase_integral, hankel,
                                    hankel_oscillatory, morse_state_on_plan,
                                    morse_term_values,
                                    potential_term_map,
                                    potential_term_sandwich,
                                    pt_state_on_nodes, pt_term_values,
                                    truncated, wavefunction_map)

# J1(1) frozen from the ascending series (cross-checked against scipy)
J1_AT_1 = 0.44005058574493355

# a spectrum without bound states: the term map alone
_NO_STATES = Spectrum(np.empty(0), Grid(0.0, 1.0, 16), np.empty((0, 16)))


# Bound fixed before the first run: the resampled ground state within 1e-9
# (max norm) of the normalised closed form e^-W at points between nodes.
@pytest.mark.parametrize("params, log_mass", [
    (MorseParams(4.5, 1.0), math.lgamma(8.0) - 8.0 * math.log(9.0)),
    (PTParams(4.0, 1.0), 0.5 * math.log(math.pi) + math.lgamma(4.0)
     - math.lgamma(4.5)),
], ids=["morse", "pt"])
def test_resampled_ground_state_is_closed_form(params, log_mass):
    # int e^-2W: (2 lam)^(1 - 2 lam) Gamma(2 lam - 1) for Morse,
    # B(1/2, mu) for the sech well
    spec = solve(params, "shifted")
    grid = spec.grid
    x = grid.x_nodes()
    rho = grid.to_rho(0.5 * (x[1:-2] + x[2:-1]))
    got = transforms._on_solver_grid(spec, rho)[0]
    want = np.exp(-params.w(rho) - 0.5 * log_mass)
    assert np.max(np.abs(got - want)) <= 1e-9


class TestAngularPhaseIntegral:
    def test_trivial_cases(self):
        assert angular_phase_integral(0.0, 0, 0.7) == pytest.approx(
            2 * math.pi, abs=1e-12)
        assert abs(angular_phase_integral(0.0, 1, 1.3)) < 1e-12

    def test_order_one_value(self):
        got = angular_phase_integral(1.0, 1, 0.0)
        expected = 2 * math.pi * (-1j) * J1_AT_1
        assert abs(got - expected) < 1e-9

    def test_matches_bessel_reduction(self):
        rng = np.random.default_rng(3)
        phis = rng.uniform(0.0, 2 * math.pi, size=16)
        for m in range(0, 9):
            for x in (0.3, 1.0, 5.0, 12.5, 20.0):
                for pp in phis[:4]:
                    got = angular_phase_integral(x, m, pp)
                    expected = (2 * math.pi * (-1j) ** m
                                * np.exp(1j * m * pp) * bessel_j(m, x))
                    assert abs(got - expected) < 1e-9


class TestHankel:
    def test_gaussian_self_reciprocal(self):
        plan = HankelPlan()
        g = np.exp(-plan.nodes ** 2 / 2)
        tp = np.linspace(0.0, 5.0, 101)
        got = hankel(g, plan, tp, 0)
        assert np.max(np.abs(got - np.exp(-tp ** 2 / 2))) < 1e-6

    def test_zero_function(self):
        plan = HankelPlan(20.0, 1024)
        assert hankel(np.zeros(1024), plan, 1.7, 2) == 0.0

    def test_oscillatory_route_inverse_law(self):
        # g(t) = 1/t has no decaying tail; the semi-infinite path handles it
        g = lambda t: 1.0 / np.asarray(t, dtype=float)
        for tprime in (0.5, 1.0, 2.0):
            res = hankel_oscillatory(g, 0, tprime, tol=1e-9)
            assert res.value == pytest.approx(1.0 / tprime, rel=1e-6)

    def test_parseval(self):
        # g must be smooth as a radial function (even in t) for its
        # transform to decay fast enough to truncate the t' integral;
        # t^4 e^-t^2/2 also kills the left-endpoint trapezoid term, so a
        # moderate plan already gives the transform to ~1e-9
        plan = HankelPlan(30.0, 4096)
        t = plan.nodes
        g = t ** 4 * np.exp(-t ** 2 / 2.0)
        tp = np.linspace(0.0, 12.0, 4097)
        gh = hankel(g, plan, tp, 0)
        lhs = np.sum(plan.weights * t * g ** 2)
        rhs = np.trapezoid(tp * gh ** 2, tp)
        assert abs(lhs - rhs) < 1e-5 * max(lhs, 1e-30)

    def test_at_zero_argument(self):
        # J_k(0) = delta_k0: the order-0 transform at t' = 0 is the plain
        # weighted sum, every other order vanishes there
        plan = HankelPlan()
        g = np.exp(-plan.nodes)
        assert hankel(g, plan, 0.0, 0) == pytest.approx(
            np.sum(plan.weights * plan.nodes * g), rel=1e-15)
        assert hankel(g, plan, 0.0, 3) == 0.0

    def test_truncation_warning(self):
        plan = HankelPlan(10.0, 512)
        alive = np.ones(512)
        assert truncated(alive, plan)
        with pytest.warns(TruncationWarning):
            hankel(alive, plan, 1.0, 0)
        # reported at the caller of the public function, here this file,
        # also when the map raises it through hankel
        with pytest.warns(TruncationWarning) as record:
            wavefunction_map(alive, 0, np.array([1.0]), plan)
        assert [Path(w.filename).name for w in record] == [Path(__file__).name]
        decayed = np.exp(-plan.nodes ** 2)
        assert not truncated(decayed, plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hankel(decayed, plan, 1.0, 0)

    def test_plan_validation(self):
        for t_max in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                HankelPlan(t_max, 64)
        with pytest.raises(ValueError, match="16 nodes"):
            HankelPlan(10.0, 15)
        with pytest.raises(TypeError):
            HankelPlan(10.0, 64.0)
        plan = HankelPlan(10.0, 16)
        with pytest.raises(ValueError, match="order"):
            hankel(np.zeros(16), plan, 1.0, -1)
        with pytest.raises(ValueError, match="16 nodes"):
            hankel(np.zeros(15), plan, 1.0, 0)

    def test_t_prime_of_any_shape(self):
        # a 2-D t' gives, bit for bit, the 1-D call's result in its shape
        plan = HankelPlan(40.0, 256)
        g = plan.nodes ** 4 * np.exp(-plan.nodes)
        tp = np.linspace(0.02, 6.0, 1200)
        for transform in (lambda t: hankel(g, plan, t, 4),
                          lambda t: wavefunction_map(g, 4, t, plan)):
            flat = transform(tp)
            square = transform(tp.reshape(40, 30))
            assert square.shape == (40, 30)
            assert np.array_equal(square, flat.reshape(40, 30))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_plan_refused(self, bad):
        # NaN passes every comparison, and an infinite t_max gives
        # infinite nodes
        with pytest.raises(ValueError, match="must be finite"):
            HankelPlan(bad, 32)


class TestOrderRecurrence:
    @pytest.mark.parametrize("orders", [[4, 3, 2, 1], [5, 2], [2, 0]],
                             ids=str)
    def test_matches_per_order_contraction(self, orders):
        # the kernels below the top two orders come from the downward
        # recurrence (through the gap at 4 and 3 for [5, 2]); t' = 0 checks
        # the x = 0 columns, where J_k(0) = delta_k0
        plan = HankelPlan(40.0, 2048)
        tp = np.concatenate(([0.0], np.linspace(0.01, 8.0, 799)))
        rng = np.random.default_rng(7)
        jobs = [(k, plan.weights * rng.standard_normal(plan.n))
                for k in orders]
        got = transforms._contract([jobs], tp, plan.t_max)
        x = plan.nodes[:, None] * tp[None, :]
        for (k, core), out in zip(jobs, got):
            ref = core @ scipy.special.jv(k, x)
            err = np.max(np.abs(out - ref))
            assert err < 1e-13 * np.max(np.abs(ref)), (k, err)
            if k == 0:
                assert out[0] == pytest.approx(np.sum(core), rel=1e-14)
            else:
                assert out[0] == 0.0

    def test_leaves_x_as_it_is(self):
        # the recurrence forms 2/x in an array of its own, and each kernel
        # it yields stays as it was yielded
        x = np.outer(np.linspace(0.0, 40.0, 64), np.linspace(0.0, 8.0, 48))
        before = x.copy()
        kernels = [(k, kernel, kernel.copy())
                   for k, kernel in transforms._kernels_down(4, 1, x)]
        assert np.array_equal(x, before)
        assert [k for k, _, _ in kernels] == [4, 3, 2, 1]
        for k, kernel, copy in kernels:
            assert np.array_equal(kernel, copy)
            np.testing.assert_allclose(kernel, scipy.special.jv(k, x),
                                       rtol=0, atol=1e-13)

    def test_two_kernel_builds_per_chunk(self, monkeypatch,
                                         morse_generalized_spectrum):
        # four states at orders 4, 3, 2, 1 share one kernel pass with both
        # plans' term maps: orders 4 and 3 are built directly, by one
        # bessel_j call each, and the rest by recurrence; no coarse build
        # comes before them
        plan = HankelPlan(40.0, 2048)
        calls = _count_kernel_builds(monkeypatch)
        tp = np.linspace(0.01, 8.0, 800)
        report = potential_term_map(
            MorseParams(4.5, 1.0), PTParams(4.0, 1.0), 4, plan, tp,
            morse_generalized_spectrum)
        checks = potential_term_sandwich(report)
        assert [chk.order for chk in checks] == [4, 3, 2, 1]
        assert [m for m, _ in calls] == [4, 3]


def _count_kernel_builds(monkeypatch) -> list:
    """Record (order, kernel shape) for each bessel_j call of a transform,
    in call order, and check that each is made on the calling thread."""
    calls = []
    caller = threading.get_ident()

    def single(m, x):
        assert threading.get_ident() == caller
        calls.append((m, x.shape))
        return bessel_j(m, x)

    monkeypatch.setattr(transforms, "bessel_j", single)
    return calls


def _t_prime_interpolant(plan, tp):
    """(points, matrix) of _contract's t' axis over tp, or None."""
    return transforms._chebyshev_interpolant(float(tp.min()), float(tp.max()),
                                             plan.t_max, tp)


class TestOneKernelPerPass:
    """A pass builds one kernel, on Chebyshev points of both t and t', on
    the calling thread (the term map's are pinned in TestFusedTermMap)."""

    TP = np.linspace(0.01, 8.0, 800)

    def test_wavefunction_map_kernel(self, monkeypatch,
                                     morse_shifted_spectrum):
        plan = HankelPlan()
        R = morse_state_on_plan(morse_shifted_spectrum, 4.5, plan)[0]
        calls = _count_kernel_builds(monkeypatch)
        wavefunction_map(R, 4, np.linspace(0.02, 6.0, 1200), plan)
        assert calls == [(4, (180, 180))]

    def test_small_plan_moves_onto_the_points(self, monkeypatch):
        # 64 nodes are fewer than the 226 points in t, and move onto them
        # all the same: the kernel is the one a large plan's pass builds
        plan = HankelPlan(40.0, 64)
        calls = _count_kernel_builds(monkeypatch)
        core = plan.weights * np.exp(-plan.nodes)
        out = transforms._contract([[(2, core)]], self.TP, plan.t_max)[0]
        assert calls == [(2, (226, 226))]
        ref = core @ scipy.special.jv(2, plan.nodes[:, None] * self.TP)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.sum(np.abs(core))

    @pytest.mark.parametrize("tp", [
        np.concatenate(([0.0], np.linspace(0.01, 8.0, 799))),
        np.array([0.0, 2.5]),
    ], ids=["chebyshev", "direct"])
    def test_zero_takes_the_plan_sum(self, tp):
        # the points in t carry moved cores; t' = 0 takes the sum of the
        # plan's own cores
        plan = HankelPlan(40.0, 2048)
        assert transforms._chebyshev_interpolant(
            0.0, plan.t_max, float(np.max(tp)), plan.nodes) is not None
        core = plan.weights * plan.nodes * np.exp(-plan.nodes)
        out = transforms._contract([[(0, core), (1, core)]], tp,
                                   plan.t_max)
        assert out[0][0] == pytest.approx(np.sum(core), rel=1e-14)
        assert out[1][0] == 0.0

    def test_no_t_prime(self):
        plan = HankelPlan(40.0, 64)
        out = transforms._contract([[(2, plan.weights), (0, plan.weights)]],
                                   np.empty(0), plan.t_max)
        assert [o.shape for o in out] == [(0,), (0,)]


# Bound fixed before the first run: the DCT move within 1e-13 sum |core| of
# the barycentric matrix it replaces, with the plan's nodes below, near and
# above the N + 1 points in t (34 at t_max = 2, 226 at 40, 596 at 125).
@pytest.mark.parametrize("t_max", [2.0, 40.0, 125.0])
@pytest.mark.parametrize("n", [16, 64, 225, 256, 2048, 8192])
def test_core_moves_as_the_barycentric_matrix(n, t_max):
    plan = HankelPlan(t_max, n)
    points = transforms._chebyshev_points(0.0, t_max, 1000.0 / 125.0)
    core = plan.weights * np.random.default_rng(n).standard_normal(n)
    ref = core @ transforms._barycentric(points, plan.nodes)
    got = transforms._moved_core(core, points.size - 1)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(core))


# bessel_j's absolute accuracy over 0 <= x <= 1000 (its docstring)
_J_TOL = 1e-13


def _interpolation_bound(plan, tp, core) -> float:
    """What the Chebyshev pass may be off by: 2^-53 sum |c| from its degree,
    plus bessel_j's _J_TOL at each point carried by the barycentric matrix,
    whose rows sum in magnitude to at most the Lebesgue constant
    2/pi log(N + 1) + 1 of the Chebyshev points.  Zero on the direct path."""
    cheb = _t_prime_interpolant(plan, tp)
    if cheb is None:
        return 0.0
    lebesgue = 2.0 / math.pi * math.log(cheb[0].size) + 1.0
    return (2.0 ** -53 + lebesgue * _J_TOL) * np.sum(np.abs(core))


class TestChebyshevContraction:
    """Past a few hundred t' the kernel is built at Chebyshev points only;
    the contraction stays within the interpolation bound, plus bessel_j's
    tolerance, of the direct sum and of scipy's J_m."""

    ORDERS = list(range(7))

    @staticmethod
    def check(plan, tp, orders, sample=slice(None)):
        rng = np.random.default_rng(11)
        jobs = [(k, plan.weights * rng.standard_normal(plan.n))
                for k in orders]
        got = transforms._contract([jobs], tp, plan.t_max)
        x = plan.nodes[:, None] * tp[None, sample]
        for (k, core), out in zip(jobs, got):
            total = np.sum(np.abs(core))
            bound = _interpolation_bound(plan, tp, core)
            direct = core @ bessel_j(k, x)
            exact = core @ scipy.special.jv(k, x)
            assert (np.max(np.abs(out[sample] - direct))
                    <= bound + _J_TOL * total), k
            assert (np.max(np.abs(out[sample] - exact))
                    <= bound + _J_TOL * total), k
            zero = tp == 0.0
            if k == 0:
                np.testing.assert_allclose(out[zero], np.sum(core),
                                           rtol=1e-14)
            else:
                assert np.all(out[zero] == 0.0)
        return got

    # x = t t' stays within bessel_j's stated range, 1000
    @pytest.mark.parametrize("t_max", [5.0, 40.0, 80.0])
    @pytest.mark.parametrize("n", [16, 64, 256, 2048, 4096])
    def test_plans(self, n, t_max):
        # every 8th t' and both ends, 0 among them, are compared
        plan = HankelPlan(t_max, n)
        tp = np.linspace(0.0, 4.0, 401)
        assert _t_prime_interpolant(plan, tp) is not None
        self.check(plan, tp, self.ORDERS, slice(None, None, 8))
        self.check(plan, tp, [300], slice(None, None, 8))

    @pytest.mark.parametrize("tp, path", [
        (np.array([1.3]), "direct"),
        (np.array([0.0, 2.5]), "direct"),
        (np.random.default_rng(5).uniform(0.0, 6.0, 500), "chebyshev"),
        (np.linspace(-6.0, -0.5, 400), "chebyshev"),
        (np.linspace(-3.0, 3.0, 401), "chebyshev"),
        (np.linspace(0.0, 10.0, 200), "direct"),
    ], ids=["one", "two", "unsorted", "negative", "zero_inside", "wide"])
    def test_t_prime_shapes(self, tp, path):
        plan = HankelPlan(40.0, 256)
        cheb = _t_prime_interpolant(plan, tp)
        assert (cheb is None) == (path == "direct")
        self.check(plan, tp, self.ORDERS)

    def test_points_at_the_cli_sizes(self):
        # term map: 800 t' in [0.01, 8]; wavefunction map: 1200 in
        # [0.02, 6]; both at t_max = 40
        plan = HankelPlan(40.0, 256)
        sizes = [_t_prime_interpolant(plan, tp)[0].size
                 for tp in (np.linspace(0.01, 8.0, 800),
                            np.linspace(0.02, 6.0, 1200))]
        assert sizes == [226, 180]

    def test_ends_are_exact(self):
        tp = np.linspace(0.01, 8.0, 800)
        points, matrix = _t_prime_interpolant(HankelPlan(40.0, 256),
                                              tp)
        assert (points[0], points[-1]) == (8.0, 0.01)
        assert matrix[0, -1] == 1.0 and matrix[-1, 0] == 1.0
        assert np.count_nonzero(matrix[[0, -1]]) == 2

    @pytest.mark.parametrize("t_max, top, message", [
        (125.0, np.nextafter(8.0, 9.0), "range of bessel_j"),
        (np.nextafter(125.0, 126.0), 8.0, "range of bessel_j"),
        (40.0, 1e200, "range of bessel_j"),
        (1e308, 8.0, "range of bessel_j"),
        (math.nan, 8.0, "t_max must be finite")],
        ids=["t_prime", "t_max", "huge_t_prime", "huge_t_max", "nan_t_max"])
    def test_past_the_range_refused(self, monkeypatch, t_max, top, message):
        # t_max max|t'| above 1000, bessel_j's range, is refused before any
        # kernel is built; a NaN t_max is refused, not let through, by the
        # plan itself
        def never(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(transforms, "bessel_j", never)
        tp = np.linspace(0.0, top, 800)
        with pytest.raises(ValueError, match=message):
            plan = HankelPlan(t_max, 16)
            transforms._contract([[(0, np.full(16, 0.5))]], tp, plan.t_max)
        with pytest.raises(ValueError, match=message):
            hankel(np.zeros(16), HankelPlan(t_max, 16), tp, 3)

    def test_range_bound_itself_runs(self):
        # t_max max|t'| = 1000 exactly is inside the range; the t points
        # stay a few hundred
        plan = HankelPlan(125.0, 64)
        tp = np.linspace(0.01, 8.0, 800)
        self.check(plan, tp, [0, 4], slice(None, None, 40))
        assert _t_prime_interpolant(plan, tp)[0].size < 600
        assert transforms._chebyshev_points(0.0, 125.0, 8.0).size < 600

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_prime_refused(self, monkeypatch, bad):
        # refused before any kernel is built
        def never(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(transforms, "bessel_j", never)
        plan = HankelPlan(40.0, 64)
        g = np.exp(-plan.nodes)
        tp = np.linspace(0.0, 6.0, 800)
        tp[400] = bad
        with pytest.raises(ValueError, match="t' must be finite"):
            hankel(g, plan, tp, 2)
        with pytest.raises(ValueError, match="t' must be finite"):
            hankel(g, plan, bad, 0)
        with pytest.raises(ValueError, match="t' must be finite"):
            wavefunction_map(g, 1, tp, plan)


class TestFusedTermMap:
    """The fine-plan term map and every state's contractions come from one
    kernel pass."""

    TP = np.linspace(0.01, 8.0, 800)

    def run(self, m, spectrum, plan):
        return potential_term_map(MorseParams(4.5, 1.0), PTParams(4.0, 1.0),
                                  m, plan, self.TP, spectrum)

    def test_bessel_calls_per_plan(self, monkeypatch,
                                   morse_generalized_spectrum):
        # one pass builds orders 4 and 3 once each for both plans' term
        # maps and all four states; every kernel is 226 x 226
        calls = _count_kernel_builds(monkeypatch)
        self.run(4, morse_generalized_spectrum, HankelPlan(40.0, 2048))
        assert calls == [(4, (226, 226)), (3, (226, 226))]

    @pytest.mark.parametrize("n", [2048, 256])
    def test_coarse_residual_is_a_lone_hankel(self, n,
                                              morse_generalized_spectrum):
        # the coarse plan's term map shares the fine plan's pass, on the
        # same points in t, and its refinement residual is bit for bit that
        # of a lone transform on the coarse plan (128 nodes at n = 256, the
        # default, fewer than the 226 points)
        report = self.run(4, morse_generalized_spectrum,
                          HankelPlan(40.0, n))
        coarse = HankelPlan(40.0, n // 2)
        lone = hankel(morse_term_values(MorseParams(4.5, 1.0), coarse.nodes),
                      coarse, self.TP, 4)
        rhs = pt_term_values(PTParams(4.0, 1.0), self.TP)
        assert report.refinement[0] == (n // 2,
                                        float(np.max(np.abs(lone - rhs))))

    @pytest.mark.parametrize("m", [4, 6])
    def test_one_interpolation_matrix_each(self, monkeypatch, m,
                                           morse_generalized_spectrum):
        # one t' matrix, and none for the plans, whose cores move by DCT,
        # also when m is above the states' orders and the term maps take a
        # kernel pass of their own
        plan = HankelPlan(40.0, 2048)
        builds = []
        original = transforms._barycentric

        def counting(points, targets):
            builds.append(targets.size)
            return original(points, targets)

        monkeypatch.setattr(transforms, "_barycentric", counting)
        report = self.run(m, morse_generalized_spectrum, plan)
        assert builds == [800]
        # the term map is still bit for bit a lone transform at its order
        g = morse_term_values(MorseParams(4.5, 1.0), plan.nodes)
        assert np.array_equal(report.lhs, hankel(g, plan, self.TP, m))

    def test_past_the_range_refused(self, monkeypatch,
                                    morse_generalized_spectrum):
        # t_max max|t'| just above 1000 is refused before any kernel
        def never(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(transforms, "bessel_j", never)
        plan = HankelPlan(np.nextafter(125.0, 126.0), 64)
        with pytest.raises(ValueError, match="range of bessel_j"):
            self.run(4, morse_generalized_spectrum, plan)
        with pytest.raises(ValueError, match="range of bessel_j"):
            self.run(6, morse_generalized_spectrum, plan)

    def test_default_order_matches_standalone_bitwise(
            self, morse_generalized_spectrum):
        # order 4 is the states' highest, built by bessel_j as a lone
        # transform builds it
        plan = HankelPlan(40.0, 2048)
        report = self.run(4, morse_generalized_spectrum, plan)
        g = morse_term_values(MorseParams(4.5, 1.0), plan.nodes)
        assert np.array_equal(report.lhs, hankel(g, plan, self.TP, 4))
        assert len(report.states) == 4

    @pytest.mark.parametrize("m", [2, 6])
    def test_other_orders_match_standalone(self, m,
                                           morse_generalized_spectrum):
        # order 2 comes from the recurrence below the states' top order;
        # order 6 is above the states' orders and takes a pass of its own
        plan = HankelPlan(40.0, 2048)
        report = self.run(m, morse_generalized_spectrum, plan)
        g = morse_term_values(MorseParams(4.5, 1.0), plan.nodes)
        ref = hankel(g, plan, self.TP, m)
        assert np.max(np.abs(report.lhs - ref)) < 1e-13 * np.max(np.abs(ref))
        assert report.order == m
        assert [st.order for st in report.states] == [4, 3, 2, 1]

    def test_states_do_not_depend_on_order(self, morse_generalized_spectrum):
        # started at order 300 the recurrence would reach the states' orders
        # from J_300, which is 0 for every t t' < 10
        plan = HankelPlan(40.0, 512)
        ref = self.run(4, morse_generalized_spectrum, plan)
        report = self.run(300, morse_generalized_spectrum, plan)
        for st, st_ref in zip(report.states, ref.states, strict=True):
            assert np.array_equal(st.psi, st_ref.psi)
            assert np.array_equal(st.term, st_ref.term)
        assert (potential_term_sandwich(report)
                == potential_term_sandwich(ref))
        g = morse_term_values(MorseParams(4.5, 1.0), plan.nodes)
        assert np.array_equal(report.lhs, hankel(g, plan, self.TP, 300))


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights of the n-interval Clenshaw-Curtis rule at cos(j pi / n),
    j = 0, ..., n, by the O(n^2) cosine sum (Waldvogel, BIT 46, 195
    (2006)): (c_j / n)(1 - sum_k b_k cos(2 k j pi / n) / (4 k^2 - 1)),
    c_j = 1 at the ends and 2 inside, b_k = 1 at k = n / 2 and 2 below."""
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0)
    total = (b / (4.0 * k * k - 1.0)) @ np.cos(2.0 * np.pi * np.outer(k, j)
                                              / n)
    c = np.where((j == 0) | (j == n), 1.0, 2.0)
    return c / n * (1.0 - total)


class TestClenshawCurtisPlan:
    @pytest.mark.parametrize("n", [16, 17, 256, 257])
    def test_matches_cosine_sum(self, n):
        # on [0, 2] the plan is the [-1, 1] rule shifted by one, less the
        # node -1: the nodes 1 + cos(j pi / n), j = n - 1, ..., 0
        plan = HankelPlan(2.0, n)
        j = np.arange(n - 1, -1, -1)
        oracle = _clenshaw_curtis_weights(n)[j]
        np.testing.assert_allclose(plan.weights, oracle, rtol=1e-12, atol=0)
        nodes = 1.0 + np.cos(np.pi * j / n)
        assert np.max(np.abs(plan.nodes - nodes)) < 1e-15

    @pytest.mark.parametrize("n", [16, 17, 256, 257, 2048, 2049])
    def test_exact_for_polynomials(self, n):
        t_max = 40.0
        plan = HankelPlan(t_max, n)
        assert plan.nodes.size == n and plan.nodes[-1] == t_max
        assert np.all(np.diff(plan.nodes) > 0) and np.all(plan.weights > 0)
        # integral_0^t_max t (t / t_max)^k dt = t_max^2 / (k + 2): degree
        # k + 1 <= n in t
        s = plan.nodes / t_max
        tw = plan.weights * plan.nodes
        power = np.ones(n)
        for k in range(n):
            got = np.dot(tw, power)
            assert abs(got * (k + 2) / t_max ** 2 - 1.0) < 1e-12, k
            power *= s

    def test_plan_is_its_two_numbers(self):
        # equal and hashable by (t_max, n); the rule is derived, read-only
        plan = HankelPlan(40.0, 64)
        assert plan == HankelPlan(40.0, 64) and plan != HankelPlan(40.0, 65)
        assert hash(plan) == hash(HankelPlan(40.0, 64))
        assert len({plan, HankelPlan(40.0, 64), HankelPlan(20.0, 64)}) == 2
        assert HankelPlan() == HankelPlan(DEFAULT_T_MAX, DEFAULT_PLAN_N)
        assert [f.name for f in dataclasses.fields(HankelPlan)] == ["t_max",
                                                                   "n"]
        with pytest.raises(ValueError):
            plan.nodes[0] = 1.0

    def test_rejects_one_interval(self):
        with pytest.raises(ValueError):
            clenshaw_curtis(1)

    def test_large_plan_is_cheap(self):
        # one FFT, O(n log n); an O(n^3) eigensolve is not cheap
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            HankelPlan(40.0, 2048)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.25

    # 160 nodes: the default's margin over the smallest converged plan
    @pytest.mark.parametrize("n", [DEFAULT_PLAN_N, 160])
    def test_default_plan_maps_every_state(self, morse_shifted_spectrum,
                                           pt_shifted_spectrum, n):
        tp = np.linspace(0.02, 6.0, 1200)
        plan = HankelPlan(DEFAULT_T_MAX, n)
        R = morse_state_on_plan(morse_shifted_spectrum, 4.5, plan)
        direct = pt_state_on_nodes(pt_shifted_spectrum, tp)
        assert R.shape == (4, plan.nodes.size) and direct.shape == (4, 1200)
        for n in range(4):
            mapped = wavefunction_map(R[n], 4 - n, tp, plan)
            assert normalized_l2_discrepancy(mapped, direct[n], tp) < 1e-8, n


class TestWavefunctionMap:
    def test_zero_maps_to_zero(self):
        plan = HankelPlan(20.0, 2048)
        out = wavefunction_map(np.zeros(2048), 3, np.linspace(0.1, 4.0, 64),
                               plan)
        assert np.allclose(out, 0.0)

    def test_ground_state_connects_families(self, morse_shifted_spectrum,
                                            pt_shifted_spectrum):
        plan = HankelPlan(40.0, 8192)
        tp = np.linspace(0.02, 6.0, 1200)
        R = morse_state_on_plan(morse_shifted_spectrum, 4.5, plan)[0]
        mapped = wavefunction_map(R, 4, tp, plan)
        direct = pt_state_on_nodes(pt_shifted_spectrum, tp)[0]
        assert normalized_l2_discrepancy(mapped, direct, tp) < 1e-3

    def test_analytic_ground_state_closed_form(self):
        # t^a e^-t at order a transforms to c * t'^a (1+t'^2)^-a
        a = 4
        plan = HankelPlan(40.0, 8192)
        R = plan.nodes ** a * np.exp(-plan.nodes)
        tp = np.linspace(0.05, 5.0, 300)
        mapped = wavefunction_map(R, a, tp, plan)
        closed = tp ** a / (1 + tp ** 2) ** a
        assert normalized_l2_discrepancy(mapped, closed, tp) < 1e-9


class TestPotentialTermMap:
    def test_zero_deformation_limit(self):
        params_m = MorseParams(4.5, 1e12)
        params_pt = PTParams(4.0, 1e12)
        plan = HankelPlan(40.0, 4096)
        tp = np.linspace(0.05, 5.0, 200)
        report = potential_term_map(params_m, params_pt, 4, plan, tp,
                                    _NO_STATES)
        assert report.max_residual < 1e-8

    def test_small_plan_refused(self):
        # the refinement plan has n/2 nodes, so the plan needs 32
        params = MorseParams(4.5, 1.0), PTParams(4.0, 1.0)
        tp = np.linspace(0.1, 3.0, 8)
        with pytest.raises(ValueError, match="refinement plan"):
            potential_term_map(*params, 4, HankelPlan(40.0, 31), tp,
                               _NO_STATES)
        report = potential_term_map(*params, 4, HankelPlan(40.0, 32), tp,
                                    _NO_STATES)
        assert [n for n, _ in report.refinement] == [16, 32]

    def test_residual_is_resolution_converged(self):
        params_m = MorseParams(4.5, 1.0)
        params_pt = PTParams(4.0, 1.0)
        plan = HankelPlan(40.0, 8192)
        tp = np.linspace(0.1, 3.0, 100)
        report = potential_term_map(params_m, params_pt, 4, plan, tp,
                                    _NO_STATES)
        (n1, r1), (n2, r2) = report.refinement
        assert n2 == 2 * n1
        assert r1 > 0 and r2 > 0
        # the residual is a property of the functions, not of the quadrature
        assert abs(r1 - r2) < 0.01 * max(r1, r2)
        assert report.max_residual == r2

    def test_truncation_radius_adequate(self):
        params_m = MorseParams(4.5, 1.0)
        tp = np.linspace(0.1, 3.0, 50)
        vals = {}
        for t_max in (40.0, 80.0):
            plan = HankelPlan(t_max, int(204.8 * t_max))
            g = morse_term_values(params_m, plan.nodes)
            vals[t_max] = hankel(g, plan, tp, 4)
        assert np.max(np.abs(vals[40.0] - vals[80.0])) < 1e-6

    @pytest.mark.parametrize("lam, orders", [
        # round(a) rounds a half to even: a = 3.5 -> 4, 4.5 -> 4, 5.5 -> 6
        (4.0, [4, 3, 2, 1]),
        (5.0, [4, 3, 2, 1, 0]),
        (6.0, [6, 5, 4, 3, 2, 1]),
    ])
    def test_state_orders_at_integer_lambda(self, lam, orders):
        # every a - n is a half-integer here, so an order taken from the
        # computed level E_n would be picked by its round-off
        params_m = MorseParams(lam, 1.0)
        spectrum = solve(params_m, "generalized")
        report = potential_term_map(params_m, PTParams(lam - 0.5, 1.0), 4,
                                    HankelPlan(80.0, 64),
                                    np.linspace(0.1, 3.0, 8), spectrum)
        assert [st.order for st in report.states] == orders
        assert [params_m.hankel_order(n) for n in range(len(orders))] \
            == orders

    def test_sandwich_parseval_consistency(self, morse_generalized_spectrum):
        # the Hankel-route scalar must match its single-integral twin;
        # whether it matches the PT side is a physics question, not asserted
        params_m = MorseParams(4.5, 1.0)
        params_pt = PTParams(4.0, 1.0)
        plan = HankelPlan(40.0, 8192)
        tp = np.linspace(0.01, 10.0, 1000)
        report = potential_term_map(params_m, params_pt, 4, plan, tp,
                                    morse_generalized_spectrum)
        checks = potential_term_sandwich(report)
        assert len(checks) == 4
        for chk in checks:
            scale = max(abs(chk.morse_direct), 1e-12)
            assert abs(chk.hankel_route - chk.morse_direct) < 1e-3 * scale


def test_term_values_coordinate_pullback():
    # chain rule: (1/t) d/dt q(t) = -q'(rho)/t^2 under t = lam e^-rho
    params = MorseParams(3.0, 1.0)
    t = np.array([0.5, 1.0, 2.0, 5.0])
    h = 1e-6
    from susyspectra.coordinates import rho_from_morse_t
    fd = (params.q(rho_from_morse_t(3.0, t + h))
          - params.q(rho_from_morse_t(3.0, t - h))) / (2 * h)
    assert np.allclose(morse_term_values(params, t), fd / t, rtol=1e-5)
    params_pt = PTParams(2.0, 1.0)
    from susyspectra.coordinates import rho_from_pt_t
    fd2 = (params_pt.q(rho_from_pt_t(t + h))
           - params_pt.q(rho_from_pt_t(t - h))) / (2 * h)
    assert np.allclose(pt_term_values(params_pt, t), fd2 / t, rtol=1e-5)
