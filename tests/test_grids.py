import numpy as np
import pytest

from susyspectra.grids import Grid


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

