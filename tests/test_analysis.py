import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyspectra.analysis import (energy_shift_check, gamma_sweep,
                                  isospectral_check,
                                  normalized_l2_discrepancy)
from susyspectra.eigensolver import Spectrum
from susyspectra.grids import Grid


def _spectrum(values, threshold=1e9):
    grid = Grid(0.0, 1.0, 16)
    return Spectrum(values, grid, np.zeros((len(values), grid.n)), threshold)


def _well_separated(xs):
    xs = sorted(xs)
    return all(b - a > 1e-6 for a, b in zip(xs, xs[1:]))


ascending = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=8,
    unique=True,
).filter(_well_separated).map(sorted)


class TestIsospectralCheck:
    def test_identical_spectra_pass(self):
        s = _spectrum([0.0, 7.0, 12.0, 15.0])
        rep = isospectral_check(s, s)
        assert rep.passed and rep.max_delta == 0.0
        assert not rep.skipped_ground

    def test_skip_ground(self):
        a = _spectrum([0.0, 7.0, 12.0])
        b = _spectrum([7.001, 12.0005])
        rep = isospectral_check(a, b, skip_ground_of_A=True, tolerance=5e-3)
        assert rep.passed and rep.skipped_ground
        assert rep.max_delta == pytest.approx(1e-3, rel=1e-6)

    def test_count_mismatch_fails_with_details(self):
        # either side longer: pairs as far as the shorter one goes
        for left, right in (([0.0, 7.0, 12.0], [0.0, 7.5]),
                            ([0.0, 7.0], [0.0, 7.5, 12.0])):
            rep = isospectral_check(_spectrum(left), _spectrum(right))
            assert rep.pairs == [(0.0, 0.0, 0.0), (7.0, 7.5, 0.5)]
            assert rep.max_delta == float("inf")
            assert rep.passed is False
            assert rep.details == (f"count mismatch: {len(left)} vs "
                                   f"{len(right)} levels")

    def test_tolerance_boundary(self):
        a = _spectrum([0.0])
        b = _spectrum([0.004])
        assert isospectral_check(a, b, tolerance=5e-3).passed
        assert not isospectral_check(a, b, tolerance=1e-3).passed

    @given(xs=ascending, ys=ascending)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_without_skip(self, xs, ys):
        a, b = _spectrum(xs), _spectrum(ys)
        r1 = isospectral_check(a, b)
        r2 = isospectral_check(b, a)
        assert r1.passed == r2.passed
        assert r1.max_delta == r2.max_delta


class TestEnergyShiftCheck:
    def test_zero_shift_reduces_to_isospectral(self):
        a = _spectrum([0.0, 7.0, 12.0, 15.0])
        b = _spectrum([0.001, 7.0, 11.999, 15.0])
        lam, mu = 4.5, 4.0  # shift = 0
        shifted = energy_shift_check(a, b, lam, mu)
        plain = isospectral_check(a, b)
        assert shifted.passed == plain.passed
        assert shifted.max_delta == pytest.approx(plain.max_delta, abs=1e-15)

    def test_nonzero_shift_applied(self):
        a = _spectrum([0.0, 7.0])
        b = _spectrum([1.0, 8.0])
        rep = energy_shift_check(a, b, lam=4.5, mu=3.0)  # shift = +1
        assert rep.passed
        assert "shift=1" in rep.details

    def test_count_mismatch(self):
        for left, right in (([0.0, 7.0], [1.0]), ([0.0], [1.0, 8.0])):
            rep = energy_shift_check(_spectrum(left), _spectrum(right),
                                     4.5, 3.0)
            assert rep.pairs == [(1.0, 1.0, 0.0)]  # shift = +1
            assert rep.max_delta == float("inf")
            assert rep.passed is False
            assert rep.details == (f"count mismatch: {len(left)} vs "
                                   f"{len(right)} levels shift=1")

    @given(xs=ascending)
    @settings(max_examples=40, deadline=None)
    def test_exact_shift_always_passes(self, xs):
        lam, mu = 5.5, 2.0  # shift = 3
        a = _spectrum(xs)
        b = _spectrum([x + 3.0 for x in xs])
        assert energy_shift_check(a, b, lam, mu).passed


class TestNormalizedL2:
    def test_identical_up_to_scale_and_sign(self):
        x = np.linspace(0.0, 1.0, 101)
        u = np.sin(np.pi * x)
        assert normalized_l2_discrepancy(u, -3.7 * u, x) < 1e-14

    def test_orthogonal_functions_are_far(self):
        x = np.linspace(0.0, 1.0, 201)
        u = np.sin(np.pi * x)
        v = np.sin(2 * np.pi * x)
        assert normalized_l2_discrepancy(u, v, x) > 1.0


@pytest.mark.slow
def test_gamma_sweep_morse():
    base, spectra, reports = gamma_sweep("morse", 4.5, (0.5, 1.0))
    assert set(spectra) == {0.5, 1.0}
    for rep in reports.values():
        assert rep.passed
    with pytest.raises(ValueError):
        gamma_sweep("nope", 4.5, (1.0,))
