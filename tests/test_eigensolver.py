import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from susyspectra.analysis import solve
from susyspectra.eigensolver import (DEFAULT_SPACING, DEFAULT_STRETCH,
                                     GridTooSmallError,
                                     Spectrum, default_grid, discretize,
                                     solve_bound_states)
from susyspectra.grids import Grid
from susyspectra.numerics import sinc_kinetic
from susyspectra.potentials import (MorseParams, PTParams,
                                    SingularConfigurationError)

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    def test_stretch_zero_matrix_is_uniform_sinc(self):
        # a stretch-0 grid gives the uniform sinc-DVR matrix, bit for bit
        grid = Grid(-5.0, 5.0, 41, stretch=0.0)
        m = discretize(lambda x: x * x, grid)
        expected = sinc_kinetic(39, grid.spacing)
        expected.flat[::40] += grid.interior() ** 2
        assert np.array_equal(m, expected)

    def test_stretched_matrix_symmetric(self):
        m = discretize(lambda x: x * x, Grid(-12.0, 12.0, 101, stretch=0.25))
        assert np.array_equal(m, m.T)

    def test_stretched_harmonic_oscillator(self):
        grid = Grid(-12.0, 12.0, 101, stretch=0.25)
        spec = solve_bound_states(lambda x: x * x, grid, 8.0)
        assert np.max(np.abs(spec.eigenvalues - [1.0, 3.0, 5.0, 7.0])) <= 1e-10

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
        gram = (vecs * spec.grid.weights()) @ vecs.T
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
    # inside its box; the sech well's needs the whole box.  The outermost
    # interior nodes sit on the domain's edges, the end nodes one x-spacing
    # beyond.
    for params, n in ((MorseParams(4.5, 1.0), 121), (PTParams(4.0, 1.0), 171)):
        g = default_grid(params)
        assert g.n == n and g.stretch == DEFAULT_STRETCH
        assert g.spacing <= DEFAULT_SPACING
        np.testing.assert_allclose(g.interior()[[0, -1]],
                                   params.default_domain(), rtol=1e-13)
    g2 = default_grid(PTParams(4.0, 1.0))
    assert g2.min == -g2.max and 20.72 < g2.max < 20.73


@pytest.mark.parametrize("params", [
    MorseParams(lam, 1.0) for lam in (0.6, 1.047, 1.5, 3.2, 4.5, 4.55, 12.0)
] + [PTParams(mu, 1.0) for mu in (0.3, 1.0, 4.0, 8.1)]
    # no bound level (s <= 1e-9): the whole box
    + [MorseParams(0.5 + 5e-10, 1.0), PTParams(5e-10, 1.0)], ids=repr)
def test_default_domain_in_box_and_gamma_free(params):
    lo, hi = params.default_domain()
    box_lo, box_hi = params.domain_box
    if params in (MorseParams(1.047, 1.0), MorseParams(12.0, 1.0)):
        # their least-bound levels (kappa* = 0.45, 0.5) decay by less than
        # 1e-7 at the box's right edge, so the domain reaches past it, to
        # within twice the box
        assert box_lo <= lo < box_hi < hi <= 2.0 * box_hi
    else:
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


# Bounds, fixed before the first run: shifted and partner levels within
# 1e-5, generalized within 1e-4 of n(2s - n), and never worse than on the
# default grid before the stretch (+1e-12 for round-off).  That reference is
# uniform at spacing 0.15 with its end nodes on the domain, not one spacing
# beyond as `_grid_at_spacing` places them, because that is where the
# uniform default grid had them.  A gamma below the negative-tail mass is
# singular on the default grid.  PT mu = 9, gamma = 0.5 (1.67 times the
# negative-tail mass) reads 1.9e-12.
def _level_cases():
    for family, strength in (("morse", 2.5), ("morse", 4.5),
                             ("morse", 11.5), ("pt", 3.0), ("pt", 4.0),
                             ("pt", 9.0)):
        for kind, gamma in (("shifted", 1.0), ("partner", 1.0),
                            ("generalized", 0.5), ("generalized", 1.0),
                            ("generalized", 10.0)):
            yield pytest.param(family, strength, kind, gamma,
                               id=f"{family}-{strength}-{kind}-{gamma}")


@pytest.mark.parametrize("family, strength, kind, gamma", _level_cases())
def test_stretched_default_grid_levels(family, strength, kind, gamma):
    params = (MorseParams if family == "morse" else PTParams)(strength, gamma)
    tail_mass = -params._weight_integral(-np.inf)
    if kind == "generalized" and gamma < tail_mass:
        with pytest.raises(SingularConfigurationError):
            solve(params, kind)
        return
    skip = 1 if kind == "partner" else 0
    want = params.levels[skip:]
    err = np.max(np.abs(solve(params, kind).eigenvalues - want))
    lo, hi = params.default_domain()
    uniform = Grid(lo, hi, math.ceil(round((hi - lo) / 0.15, 9)) + 1)
    err_uniform = np.max(np.abs(solve(params, kind, uniform).eigenvalues
                                - want))
    assert err <= err_uniform + 1e-12
    assert err <= (1e-4 if kind == "generalized" else 1e-5)


# Strengths of ROADMAP item 2's sweep at gamma = 1 (240 per family, evenly
# spaced over Morse lambda in [0.613, 12] and sech mu in [0.213, 10]) whose
# least-bound level (kappa* 0.4 to 0.75) decays by only 1e-6 to 1e-5 at the
# box's edge.  The uniform default grids solved them; a stretched grid with
# its outermost interior nodes on the box refuses them at the edge check,
# so their domains reach past the box.  Bound fixed before the first run.
_PAST_THE_BOX = [
    ("morse", 0.8988661087866109), ("morse", 1.9470418410041843),
    ("morse", 2.9475732217573225), ("morse", 3.9481046025104605),
    ("morse", 4.948635983263598), ("morse", 5.949167364016738),
    ("morse", 6.949698744769876), ("morse", 6.99734309623431),
    ("morse", 7.997874476987448), ("morse", 8.998405857740586),
    ("morse", 9.998937238493724), ("morse", 10.999468619246862),
    ("morse", 12.0),
    ("pt", 0.6224979079497908), ("pt", 0.6634476987447699),
    ("pt", 1.687192468619247), ("pt", 2.669987447698745),
    ("pt", 2.7109372384937243), ("pt", 3.693732217573222),
    ("pt", 4.717476987447699), ("pt", 5.700271966527197),
    ("pt", 5.741221757322176), ("pt", 6.7240167364016745),
    ("pt", 7.747761506276151), ("pt", 8.730556485355649),
    ("pt", 9.754301255230125)]


@pytest.mark.parametrize("family, strength", _PAST_THE_BOX)
def test_box_clipped_strengths_solve(family, strength):
    params = (MorseParams if family == "morse" else PTParams)(strength, 1.0)
    assert params.default_domain()[1] > params.domain_box[1]
    levels = solve(params, "shifted").eigenvalues
    np.testing.assert_allclose(levels, params.levels, rtol=0, atol=1e-8)


# Outcome of every scan point of seeds 1-10 (seven points per seed, Morse
# then sech well at each) on the default grids: p solves to the closed form
# within the gate's 2e-3, 3 exits 3 (a level missing or not decayed), s is
# singular (gamma below the negative-tail mass).  Recorded on the uniform
# default grids before the stretch; the stretch changes none of them.
_SCAN_OUTCOMES = "pspppsp3psppp3" * 10


def test_scan_outcomes_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    scan_points = importlib.import_module("run").scan_points
    got = []
    for seed in range(1, 11):
        for lam, mu, gamma in scan_points(seed):
            for params in (MorseParams(lam, gamma), PTParams(mu, gamma)):
                try:
                    levels = solve(params, "generalized").eigenvalues
                except GridTooSmallError:
                    got.append("3")
                except SingularConfigurationError:
                    got.append("s")
                else:
                    ok = np.max(np.abs(levels - params.levels)) < 2e-3
                    got.append("p" if ok else "x")
    assert "".join(got) == _SCAN_OUTCOMES
    assert got.count("p") == 90
