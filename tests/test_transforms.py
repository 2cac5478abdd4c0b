import math
import warnings

import numpy as np
import pytest

from susyspectra.analysis import normalized_l2_discrepancy
from susyspectra.grids import SampledFunction
from susyspectra.numerics import bessel_j
from susyspectra.potentials import MorseParams, PTParams
from susyspectra.transforms import (HankelPlan, TruncationWarning,
                                    angular_phase_integral, hankel,
                                    hankel_oscillatory, make_hankel_plan,
                                    morse_state_on_plan, morse_term_values,
                                    potential_term_map,
                                    potential_term_sandwich,
                                    pt_state_on_nodes, pt_term_values,
                                    wavefunction_map)

# J1(1) frozen from the ascending series (cross-checked against scipy)
J1_AT_1 = 0.44005058574493355


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
        plan = make_hankel_plan(0)
        g = SampledFunction(plan.nodes, np.exp(-plan.nodes ** 2 / 2))
        tp = np.linspace(0.0, 5.0, 101)
        got = hankel(g, plan, tp)
        assert np.max(np.abs(got - np.exp(-tp ** 2 / 2))) < 1e-6

    def test_zero_function(self):
        plan = make_hankel_plan(2, 20.0, 1024)
        assert hankel(np.zeros(1024), plan, 1.7) == 0.0

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
        plan = make_hankel_plan(0, 30.0, 4096)
        t = plan.nodes
        g = SampledFunction(t, t ** 4 * np.exp(-t ** 2 / 2.0))
        tp = np.linspace(0.0, 12.0, 4097)
        gh = hankel(g, plan, tp)
        lhs = np.sum(plan.weights * t * g.values ** 2)
        rhs = np.trapezoid(tp * gh ** 2, tp)
        assert abs(lhs - rhs) < 1e-5 * max(lhs, 1e-30)

    def test_truncation_warning(self):
        plan = make_hankel_plan(0, 10.0, 512)
        alive = np.ones(512)
        with pytest.warns(TruncationWarning):
            hankel(alive, plan, 1.0)
        flagged = SampledFunction(plan.nodes, alive,
                                  meta={"analytic_tail": True})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hankel(flagged, plan, 1.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            HankelPlan(0, 1.0, np.array([0.5, 0.25]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            HankelPlan(-1, 1.0, np.array([0.5, 0.75]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            make_hankel_plan(0, 10.0, 4)


class TestWavefunctionMap:
    def test_zero_maps_to_zero(self):
        plan = make_hankel_plan(3, 20.0, 2048)
        R = SampledFunction(plan.nodes, np.zeros(2048))
        out = wavefunction_map(R, 3, np.linspace(0.1, 4.0, 64), plan)
        assert np.allclose(out.values, 0.0)
        assert out.meta["quarter_turns"] == 3

    def test_ground_state_connects_families(self, morse_shifted_spectrum,
                                            pt_shifted_spectrum):
        plan = make_hankel_plan(4, 40.0, 8192)
        tp = np.linspace(0.02, 6.0, 1200)
        R = morse_state_on_plan(morse_shifted_spectrum.eigenfunctions[0],
                                4.5, plan)
        mapped = wavefunction_map(R, 4, tp, plan)
        direct = pt_state_on_nodes(pt_shifted_spectrum.eigenfunctions[0], tp)
        assert normalized_l2_discrepancy(mapped.values, direct.values,
                                         tp) < 1e-3

    def test_analytic_ground_state_closed_form(self):
        # t^a e^-t at order a transforms to c * t'^a (1+t'^2)^-a
        a = 4
        plan = make_hankel_plan(a, 40.0, 8192)
        R = SampledFunction(plan.nodes,
                            plan.nodes ** a * np.exp(-plan.nodes))
        tp = np.linspace(0.05, 5.0, 300)
        mapped = wavefunction_map(R, a, tp, plan)
        closed = tp ** a / (1 + tp ** 2) ** a
        assert normalized_l2_discrepancy(mapped.values, closed, tp) < 1e-9


class TestPotentialTermMap:
    def test_zero_deformation_limit(self):
        params_m = MorseParams(4.5, 1e12)
        params_pt = PTParams(4.0, 1e12)
        plan = make_hankel_plan(4, 40.0, 4096)
        tp = np.linspace(0.05, 5.0, 200)
        report = potential_term_map(params_m, params_pt, 4, plan, tp)
        assert report.max_residual < 1e-8

    def test_residual_is_resolution_converged(self):
        params_m = MorseParams(4.5, 1.0)
        params_pt = PTParams(4.0, 1.0)
        plan = make_hankel_plan(4, 40.0, 8192)
        tp = np.linspace(0.1, 3.0, 100)
        report = potential_term_map(params_m, params_pt, 4, plan, tp)
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
            plan = make_hankel_plan(4, t_max, int(204.8 * t_max))
            g = morse_term_values(params_m, plan.nodes)
            vals[t_max] = hankel(g, plan, tp)
        assert np.max(np.abs(vals[40.0] - vals[80.0])) < 1e-6

    def test_sandwich_parseval_consistency(self, morse_generalized_spectrum):
        # the Hankel-route scalar must match its single-integral twin;
        # whether it matches the PT side is a physics question, not asserted
        params_m = MorseParams(4.5, 1.0)
        params_pt = PTParams(4.0, 1.0)
        plan = make_hankel_plan(4, 40.0, 8192)
        tp = np.linspace(0.01, 10.0, 1000)
        checks = potential_term_sandwich(params_m, params_pt,
                                         morse_generalized_spectrum, plan, tp)
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
