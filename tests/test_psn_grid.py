"""IR-drop grid solver tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.psn.grid import IRDropGrid


@pytest.fixture()
def grid():
    return IRDropGrid(rows=6, cols=6)


def test_no_load_no_drop(grid):
    v = grid.solve(np.zeros((6, 6)))
    assert np.allclose(v, grid.vdd, atol=1e-12)


def test_load_causes_drop_everywhere(grid):
    v = grid.solve(np.full((6, 6), 0.1))
    assert np.all(v < grid.vdd)


def test_center_hotspot_drops_most(grid):
    currents = grid.hotspot_currents(total_current=5.0, hotspot=(3, 3),
                                     hotspot_share=0.9)
    v = grid.solve(currents)
    r, c = np.unravel_index(np.argmin(v), v.shape)
    # Deepest drop at or adjacent to the hotspot.
    assert abs(r - 3) <= 1 and abs(c - 3) <= 1


def test_pads_are_highest(grid):
    currents = np.full((6, 6), 0.05)
    v = grid.solve(currents)
    pad_vs = [v[r, c] for r, c in grid.pad_tiles]
    assert max(pad_vs) == pytest.approx(v.max(), abs=1e-9)


def test_superposition_linearity(grid):
    c1 = grid.hotspot_currents(total_current=2.0, hotspot=(1, 1))
    c2 = grid.hotspot_currents(total_current=3.0, hotspot=(4, 4))
    drop1 = grid.vdd - grid.solve(c1)
    drop2 = grid.vdd - grid.solve(c2)
    both = grid.vdd - grid.solve(c1 + c2)
    assert np.allclose(both, drop1 + drop2, atol=1e-9)


def test_worst_drop(grid):
    currents = np.full((6, 6), 0.1)
    wd = grid.worst_drop(currents)
    v = grid.solve(currents)
    assert wd == pytest.approx(grid.vdd - v.min())


def test_flat_current_array_accepted(grid):
    v = grid.solve(np.zeros(36))
    assert v.shape == (6, 6)


def test_wrong_size_rejected(grid):
    with pytest.raises(ConfigurationError):
        grid.solve(np.zeros(35))


def test_negative_current_rejected(grid):
    c = np.zeros((6, 6))
    c[0, 0] = -1.0
    with pytest.raises(ConfigurationError):
        grid.solve(c)


def test_custom_pads_respected():
    g = IRDropGrid(rows=4, cols=4, pad_tiles=((0, 0),))
    currents = np.full((4, 4), 0.05)
    v = g.solve(currents)
    assert v[0, 0] == pytest.approx(v.max(), abs=1e-12)
    assert v[3, 3] == pytest.approx(v.min(), abs=1e-12)


def test_pad_outside_grid_rejected():
    with pytest.raises(ConfigurationError):
        IRDropGrid(rows=4, cols=4, pad_tiles=((5, 0),))


def test_tile_index_bounds(grid):
    assert grid.tile_index(0, 0) == 0
    assert grid.tile_index(5, 5) == 35
    with pytest.raises(ConfigurationError):
        grid.tile_index(6, 0)


def test_hotspot_currents_total(grid):
    c = grid.hotspot_currents(total_current=7.0, hotspot=(2, 2),
                              hotspot_share=0.4)
    assert c.sum() == pytest.approx(7.0)


def test_hotspot_share_validation(grid):
    with pytest.raises(ConfigurationError):
        grid.hotspot_currents(total_current=1.0, hotspot=(0, 0),
                              hotspot_share=1.5)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        IRDropGrid(rows=0, cols=3)
    with pytest.raises(ConfigurationError):
        IRDropGrid(rows=3, cols=3, r_segment=0.0)
