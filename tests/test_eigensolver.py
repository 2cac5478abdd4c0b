import numpy as np
import pytest

from susyspectra.eigensolver import (DEFAULT_SPACING, GridTooSmallError,
                                     Spectrum, default_grid, discretize,
                                     solve_bound_states)
from susyspectra.grids import Grid
from susyspectra.potentials import MorseParams, PTParams


def morse_levels(lam: float) -> np.ndarray:
    a = lam - 0.5
    n = np.arange(int(np.ceil(a - 1e-9)))
    return n * (2 * a - n)


def pt_levels(mu: float) -> np.ndarray:
    n = np.arange(int(np.ceil(mu - 1e-9)))
    return n * (2 * mu - n)


class TestDiscretize:
    def test_zero_potential_unit_spacing(self):
        grid = Grid(0.0, 17.0, 18)  # h = 1
        m = discretize(lambda x: np.zeros_like(x), grid)
        assert m.shape == (16, 16)
        i, j = np.indices(m.shape)
        k = np.where(i == j, 1, i - j)
        exact = np.where(i == j, np.pi ** 2 / 3.0, 2.0 * (-1.0) ** k / k ** 2)
        assert np.array_equal(m, m.T)
        assert np.max(np.abs(m - exact)) < 1e-15

    def test_constant_shift(self):
        grid = Grid(-3.0, 3.0, 64)
        m0 = discretize(lambda x: np.zeros_like(x), grid)
        mc = discretize(lambda x: np.full_like(x, 2.5), grid)
        assert np.allclose(mc - m0, 2.5 * np.eye(62), rtol=0, atol=1e-12)
        # kinetic entries scale as 1/h^2
        m2 = discretize(lambda x: np.zeros_like(x), Grid(-6.0, 6.0, 64))
        assert np.allclose(4.0 * m2, m0, rtol=1e-14, atol=0)

    def test_non_finite_potential_named(self):
        grid = Grid(0.5, 2.0, 16)
        with pytest.raises(ValueError, match="rho="):
            discretize(lambda x: np.where(x > 1.0, np.inf, 0.0), grid)

    def test_scalar_potential_refused(self):
        # a potential must map the node array elementwise
        with pytest.raises(ValueError, match=r"shape \(\) on 14 nodes"):
            discretize(lambda x: 1.0, Grid(0.5, 2.0, 16))

    def test_harmonic_oscillator(self):
        grid = Grid(-10.0, 10.0, 81)  # h = 0.25
        spec = solve_bound_states(lambda x: x * x, grid, 6.0)
        assert np.max(np.abs(spec.eigenvalues - [1.0, 3.0, 5.0])) <= 1e-10


class TestSolveBoundStates:
    def test_morse_spectrum(self, morse_shifted_spectrum):
        exact = morse_levels(4.5)
        got = morse_shifted_spectrum.eigenvalues
        assert got.size == exact.size == 4
        assert np.max(np.abs(got - exact)) < 2e-3

    def test_pt_spectrum(self, pt_shifted_spectrum):
        exact = pt_levels(4.0)
        got = pt_shifted_spectrum.eigenvalues
        assert got.size == exact.size == 4
        assert np.max(np.abs(got - exact)) < 2e-3

    def test_empty_spectrum_is_not_an_error(self):
        grid = Grid(-5.0, 5.0, 201)
        spec = solve_bound_states(lambda x: np.ones_like(x), grid, 0.0)
        assert spec.bound_count == 0
        assert len(spec.eigenfunctions) == 0

    def test_narrow_grid_raises(self):
        p = PTParams(4.0, 1.0)
        grid = Grid(-4.0, 4.0, 801)
        with pytest.raises(GridTooSmallError, match="widen"):
            solve_bound_states(p.shifted, grid, 16.0)

    def test_eigenfunctions_orthonormal(self, morse_shifted_spectrum):
        spec = morse_shifted_spectrum
        h = spec.eigenfunctions[0].nodes[1] - spec.eigenfunctions[0].nodes[0]
        vecs = np.array([f.values for f in spec.eigenfunctions])
        gram = h * (vecs @ vecs.T)
        assert np.max(np.abs(gram - np.eye(len(spec)))) < 1e-6

    def test_boundary_decay(self, pt_shifted_spectrum):
        for f in pt_shifted_spectrum.eigenfunctions:
            interior_edge = max(abs(f.values[1]), abs(f.values[-2]))
            assert interior_edge < 1e-6 * np.max(np.abs(f.values))

    def test_spectral_convergence(self):
        # the sinc-DVR error falls exponentially in 1/h: halving the spacing
        # from ~0.6 (error ~1e-6) reaches round-off, not the factor 4 of a
        # second-order scheme
        errs = []
        for n in (35, 69):  # h ~ 0.59, 0.29 on [-10, 10]
            grid = Grid(-10.0, 10.0, n)
            spec = solve_bound_states(lambda x: x * x, grid, 10.0)
            errs.append(np.max(np.abs(spec.eigenvalues - [1, 3, 5, 7, 9])))
        assert errs[0] > 1e3 * errs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_sign_survives_negation_and_noise(self, monkeypatch, seed):
        # an odd state of the symmetric sech well has its two largest
        # components at +-rho, tied to ~1e-15; the sign must not follow
        # the tie, nor the sign the eigensolver happens to return
        p = PTParams(4.0, 1.0)
        grid = default_grid(p)
        ref = solve_bound_states(p.shifted, grid, p.threshold)
        eigh = np.linalg.eigh
        rng = np.random.default_rng(seed)

        def flipped(matrix):
            values, vectors = eigh(matrix)
            return values, -vectors + 1e-14 * rng.standard_normal(
                vectors.shape)

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        got = solve_bound_states(p.shifted, grid, p.threshold)
        assert got.bound_count == ref.bound_count == 4
        for f, f_ref in zip(got.eigenfunctions, ref.eigenfunctions):
            assert np.max(np.abs(f.values - f_ref.values)) < 1e-12

    def test_spectrum_invariants(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 1.0]), [], 5.0)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 6.0]), [], 5.0)

    @pytest.mark.parametrize("kind", ["shifted", "partner", "generalized"])
    def test_default_grid_levels_closed_form(self, kind, request):
        skip = 1 if kind == "partner" else 0
        morse = request.getfixturevalue(f"morse_{kind}_spectrum").eigenvalues
        pt = request.getfixturevalue(f"pt_{kind}_spectrum").eigenvalues
        assert np.max(np.abs(morse - morse_levels(4.5)[skip:])) <= 1e-8
        assert np.max(np.abs(pt - pt_levels(4.0)[skip:])) <= 1e-8


class TestSUSYStructure:
    def test_morse_partner_isospectral(self, morse_shifted_spectrum,
                                       morse_partner_spectrum):
        base = morse_shifted_spectrum.eigenvalues
        partner = morse_partner_spectrum.eigenvalues
        assert partner.size == base.size - 1
        assert np.max(np.abs(base[1:] - partner)) < 5e-3

    def test_pt_partner_isospectral(self, pt_shifted_spectrum,
                                    pt_partner_spectrum):
        base = pt_shifted_spectrum.eigenvalues
        partner = pt_partner_spectrum.eigenvalues
        assert partner.size == base.size - 1
        assert np.max(np.abs(base[1:] - partner)) < 5e-3

    def test_generalized_strictly_isospectral(self, morse_shifted_spectrum,
                                              morse_generalized_spectrum,
                                              pt_shifted_spectrum,
                                              pt_generalized_spectrum):
        for base, gen in ((morse_shifted_spectrum, morse_generalized_spectrum),
                          (pt_shifted_spectrum, pt_generalized_spectrum)):
            assert gen.bound_count == base.bound_count
            assert np.max(np.abs(gen.eigenvalues - base.eigenvalues)) < 5e-3


def test_default_grids():
    g = default_grid(MorseParams(4.5, 1.0))
    assert g.min == -2.0 and g.max == 32.0 and g.n == 228
    g2 = default_grid(PTParams(4.0, 1.0))
    assert g2.min == -20.0 and g2.max == 20.0 and g2.n == 268
    assert max(g.spacing, g2.spacing) <= DEFAULT_SPACING
    # gamma does not move the grid, not even below the negative-tail mass
    assert default_grid(MorseParams(0.6, 0.1)) == default_grid(
        MorseParams(0.6, 1.0))
    assert default_grid(PTParams(0.3, 0.1)) == default_grid(
        PTParams(0.3, 1.0))
