import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyspectra.coordinates import (chain_30, morse_t_from_rho,
                                     pt_t_from_rho, r_from_rho,
                                     rho_from_morse_t, rho_from_pt_t,
                                     rho_from_r, t_phi_from_r_phi,
                                     theta_from_rho)


def test_rho_from_r_examples():
    assert rho_from_r(2.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert rho_from_r(math.e / 2.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        rho_from_r(2.0, 0.0)
    with pytest.raises(ValueError):
        rho_from_r(2.0, -1.0)


@given(lam=st.floats(0.51, 50.0), r=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_rho_r_round_trip(lam, r):
    assert r_from_rho(lam, rho_from_r(lam, r)) == pytest.approx(r, rel=1e-12)


def test_chain_30_at_origin():
    zeta, sigma, t = chain_30(0.0)
    assert zeta == 0.0
    assert sigma == pytest.approx(math.pi / 2, abs=1e-15)
    assert t == pytest.approx(1.0, abs=1e-14)


def test_chain_30_large_rho_limit():
    _, _, t = chain_30(30.0)
    assert t == pytest.approx(0.0, abs=1e-12)


@given(rho=st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_chain_30_collapses_to_exp(rho):
    zeta, sigma, t = chain_30(rho)
    assert 0.0 < sigma < math.pi
    assert abs(t - math.exp(-rho)) < 1e-12 * max(1.0, math.exp(-rho))


def test_theta_examples():
    assert theta_from_rho(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert theta_from_rho(40.0) == pytest.approx(0.0, abs=1e-8)
    assert theta_from_rho(math.log(1 + math.sqrt(2))) == pytest.approx(
        math.pi / 4, abs=1e-14)


def test_t_phi_examples():
    t, Phi = t_phi_from_r_phi(math.sqrt(2.0), math.pi / 4)
    assert t == pytest.approx(1.0, abs=1e-15)
    assert Phi == pytest.approx(math.pi / 2, abs=1e-15)
    t_small, _ = t_phi_from_r_phi(1e-8, 0.0)
    assert t_small == pytest.approx(0.0, abs=1e-15)


@given(lam=st.floats(0.51, 20.0), rho=st.floats(-5.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_t_composition_with_radius(lam, rho):
    # t = r^2/2 composed with r^2 = 2 lam e^-rho gives lam e^-rho
    r = r_from_rho(lam, rho)
    t, _ = t_phi_from_r_phi(r, 0.0)
    assert t == pytest.approx(lam * math.exp(-rho), rel=1e-12)


def pt_t_map():
    return pt_t_from_rho, rho_from_pt_t


def pt_angle_map():
    return theta_from_rho, lambda theta: np.arctanh(np.cos(theta))


# each factory returns a (forward, inverse) pair of functions
@pytest.mark.parametrize("factory,samples", [
    (lambda: (lambda r: rho_from_r(3.0, r), lambda rho: r_from_rho(3.0, rho)),
     np.linspace(0.05, 50.0, 100)),
    (lambda: (lambda rho: morse_t_from_rho(3.0, rho),
              lambda t: rho_from_morse_t(3.0, t)),
     np.linspace(-5.0, 10.0, 100)),
    (pt_t_map, np.linspace(-8.0, 8.0, 100)),
    (pt_angle_map, np.linspace(-6.0, 6.0, 100)),
])
def test_map_round_trip_and_monotone(factory, samples):
    forward, inverse = factory()
    back = inverse(forward(samples))
    assert np.allclose(back, samples, rtol=1e-12, atol=1e-12)
    sweep = forward(np.linspace(samples[0], samples[-1], 1000))
    diffs = np.diff(sweep)
    assert np.all(diffs > 0) or np.all(diffs < 0)
