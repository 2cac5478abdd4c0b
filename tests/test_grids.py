import numpy as np
import pytest

from susyspectra import grids
from susyspectra.eigensolver import DEFAULT_STRETCH, default_grid
from susyspectra.grids import Grid
from susyspectra.potentials import MorseParams, PTParams


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(-2.0, 25.0, 4001)
        assert g.spacing == pytest.approx(27.0 / 4000)
        nodes = g.nodes()
        assert nodes[0] == -2.0 and nodes[-1] == 25.0
        assert nodes.size == 4001
        assert g.interior().size == 3999

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 32)
        with pytest.raises(ValueError):
            Grid(2.0, 1.0, 32)
        with pytest.raises(ValueError):
            Grid(0.0, np.inf, 32)
        for stretch in (-0.1, np.inf, np.nan):
            with pytest.raises(ValueError, match="stretch"):
                Grid(0.0, 1.0, 32, stretch=stretch)
        # J = 1 - stretch + stretch cosh(x/a) >= 1 at any stretch >= 0
        for stretch in (1.0, 1.5, 10.0):
            g = Grid(-5.0, 5.0, 32, stretch)
            assert np.all(g.jacobian(g.x_nodes()) >= 1.0 - 1e-15)
        # x(1e308) at stretch 0.25 overflows the map
        with pytest.raises(ValueError, match="out of reach"):
            Grid(-5.0, 1e308, 101, stretch=0.25)

    def test_far_uniform_grid_is_linspace(self):
        # at stretch 0 the map is not evaluated, so sinh(x/a) cannot
        # overflow past |x| = 2 * 710
        for hi in (1e4, 2900.0):
            g = Grid(-5.0, hi, 10001)
            assert np.array_equal(g.nodes(), np.linspace(-5.0, hi, 10001))
            assert np.array_equal(g.weights(), np.full(10001, g.spacing))

    def test_stretch_zero_is_uniform(self):
        g = Grid(-2.0, 25.0, 401, stretch=0.0)
        assert np.array_equal(g.nodes(), np.linspace(-2.0, 25.0, 401))
        assert np.array_equal(g.x_nodes(), g.nodes())
        assert g.spacing == (25.0 - (-2.0)) / 400
        assert np.array_equal(g.weights(), np.full(401, g.spacing))

    @pytest.mark.parametrize("params", [MorseParams(4.5, 1.0),
                                        PTParams(4.0, 1.0)], ids=repr)
    def test_inverse_map_round_trips(self, params):
        # x(rho) by Newton to 1e-13 relative over the default domain, and
        # the end nodes land on min and max
        g = default_grid(params)
        rho = np.linspace(*params.default_domain(), 2001)
        x = g.to_x(rho)
        np.testing.assert_allclose(g.to_rho(x), rho, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g.to_x(g.to_rho(x)), x, rtol=1e-13,
                                   atol=0)
        nodes = g.nodes()
        assert nodes[0] == g.min and nodes[-1] == g.max
        np.testing.assert_allclose(g.to_rho(g.x_nodes()), nodes, rtol=1e-13)
        assert np.all(np.diff(nodes) > 0)

    def test_inverse_map_round_trips_to_the_float_range(self, monkeypatch):
        # at the default stretch, above 1, the sinh-only first guess lies
        # on the near side of the root; Newton overshoots once and still
        # converges well inside _NEWTON_STEPS, out to |x| = 1400 where rho
        # is near 1e304
        g = Grid(-1.0, 1.0, 16, DEFAULT_STRETCH)
        x = np.concatenate((np.linspace(-1400.0, 1400.0, 2001),
                            np.geomspace(1e-3, 1400.0, 300)))
        rho = g.to_rho(x)
        assert np.all(np.isfinite(rho))
        steps = []
        to_rho = Grid.to_rho

        def counted(self, x):  # one call per Newton step
            steps.append(x)
            return to_rho(self, x)

        monkeypatch.setattr(Grid, "to_rho", counted)
        back = g.to_x(rho)
        assert np.max(np.abs(back - x)) <= 1e-14
        assert len(steps) < grids._NEWTON_STEPS

    def test_weights_integrate(self):
        # sum w_i f(rho_i) of a smooth, decayed integrand is its integral:
        # int sech^2 = 2
        g = Grid(-30.0, 30.0, 161, stretch=0.25)
        total = np.sum(g.weights() / np.cosh(g.nodes()) ** 2)
        assert abs(total - 2.0) < 1e-12
