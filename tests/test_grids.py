import numpy as np
import pytest

from susyspectra.grids import Grid, SampledFunction


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


class TestSampledFunction:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledFunction(np.arange(4.0), np.arange(5.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SampledFunction(np.arange(4.0), np.array([0.0, 1.0, np.nan, 2.0]))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, np.inf]), np.zeros(2))

    def test_on_grid(self):
        g = Grid(0.0, 1.0, 16)
        f = SampledFunction.on_grid(g, np.zeros(16))
        assert len(f) == 16
        assert np.array_equal(f.nodes, g.nodes())
