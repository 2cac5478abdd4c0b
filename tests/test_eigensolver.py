import numpy as np
import pytest

from susyspectra.analysis import solve
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
        assert spec.states.shape == (0, grid.n)

    def test_narrow_grid_raises(self):
        p = PTParams(4.0, 1.0)
        grid = Grid(-4.0, 4.0, 801)
        with pytest.raises(GridTooSmallError, match="widen"):
            solve_bound_states(p.shifted, grid, 16.0)

    def test_eigenfunctions_orthonormal(self, morse_shifted_spectrum):
        spec = morse_shifted_spectrum
        vecs = spec.states
        assert vecs.shape == (len(spec), spec.grid.n)
        gram = spec.grid.spacing * (vecs @ vecs.T)
        assert np.max(np.abs(gram - np.eye(len(spec)))) < 1e-6

    def test_boundary_decay(self, pt_shifted_spectrum):
        for f in pt_shifted_spectrum.states:
            assert f[0] == f[-1] == 0.0
            interior_edge = max(abs(f[1]), abs(f[-2]))
            assert interior_edge < 1e-6 * np.max(np.abs(f))

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
        assert np.max(np.abs(got.states - ref.states)) < 1e-12

    def test_spectrum_invariants(self):
        grid = Grid(0.0, 1.0, 16)
        two = np.zeros((2, grid.n))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 1.0]), grid, two, 5.0)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 6.0]), grid, two, 5.0)
        # one state row per level, one column per node of the grid
        for shape in ((1, grid.n), (3, grid.n), (2, grid.n - 2), (2 * grid.n,),
                      (grid.n, 2)):
            with pytest.raises(ValueError, match="shape"):
                Spectrum(np.array([1.0, 2.0]), grid, np.zeros(shape), 5.0)
        assert Spectrum(np.array([1.0, 2.0]), grid, two, 5.0).bound_count == 2
        # no levels: no rows, but still one column per node
        empty = Spectrum(np.empty(0), grid, np.empty((0, grid.n)))
        assert empty.bound_count == 0
        with pytest.raises(ValueError, match="shape"):
            Spectrum(np.empty(0), grid, np.empty(0))
        with pytest.raises(ValueError, match="shape"):
            Spectrum(np.empty(0), grid, np.empty((0, grid.n - 1)))

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
    # the least-bound level of Morse lambda=4.5 has decayed by rho~25, well
    # inside its box; the sech well's needs the whole box
    g = default_grid(MorseParams(4.5, 1.0))
    # on [-2.12, 25.03], 27.15 / 0.15 is 181.00000000000003 in floating
    # point: 181 intervals, not 182, keep the spacing at 0.15 (27.15 / 181
    # rounds to 0.15 + 2e-17)
    assert g.n == 182
    assert g.spacing <= DEFAULT_SPACING * (1.0 + 1e-15)
    g2 = default_grid(PTParams(4.0, 1.0))
    assert g2.min == -20.0 and g2.max == 20.0 and g2.n == 268
    assert g2.spacing <= DEFAULT_SPACING


@pytest.mark.parametrize("params", [
    MorseParams(lam, 1.0) for lam in (0.6, 1.047, 1.5, 3.2, 4.5, 4.55, 12.0)
] + [PTParams(mu, 1.0) for mu in (0.3, 1.0, 4.0, 8.1)]
    # no bound level (s <= 1e-9): the whole box
    + [MorseParams(0.5 + 5e-10, 1.0), PTParams(5e-10, 1.0)], ids=repr)
def test_default_domain_in_box_and_gamma_free(params):
    lo, hi = params.default_domain()
    box_lo, box_hi = params.domain_box
    assert box_lo <= lo < hi <= box_hi
    if not params.level_count:
        assert (lo, hi) == (box_lo, box_hi)
    # gamma does not move the grid, not even below the negative-tail mass
    low_gamma = type(params)(params.strength, 0.1)
    assert default_grid(low_gamma) == default_grid(params)


@pytest.mark.parametrize("kind", ["shifted", "partner", "generalized"])
@pytest.mark.parametrize("lam", [1.5, 2.5, 3.5, 1.047, 3.2])
def test_morse_left_wall_closed_form(lam, kind):
    # a left wall at -2 cuts these wells' excited states off
    # (GridTooSmallError); the default domain reaches their tails
    skip = 1 if kind == "partner" else 0
    spec = solve(MorseParams(lam, 1.0), kind)
    np.testing.assert_allclose(spec.eigenvalues, morse_levels(lam)[skip:],
                               rtol=0, atol=1e-12)
