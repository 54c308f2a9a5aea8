"""Resistive on-die power-grid solver for spatial IR-drop maps.

The paper's closing argument is that the sensor arrays "can be placed in
many points of the DUT" — a *PSN scan chain*.  Exercising that needs a
CUT whose supply differs from point to point: this module models the
on-die power grid as a rectangular resistive mesh fed from supply pads,
loaded by per-tile currents, and solves the nodal equations with a
sparse direct solve.  The resulting per-tile voltages feed per-site
sensor instances in the scan-chain experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from repro.errors import ConfigurationError


@functools.lru_cache(maxsize=16)
def _grid_factorization(grid: "IRDropGrid"):
    """Cached sparse LU of a mesh's conductance matrix + pad RHS.

    The matrix depends only on the (frozen, hashable) grid topology, so
    repeated solves — every timestep of a quasi-static transient —
    reuse one factorization and pay only the triangular solves.  The
    stamp pattern is built with whole-array COO triplets (duplicate
    entries sum), replacing the per-tile Python double loop.
    """
    n = grid.n_tiles
    g_seg = 1.0 / grid.r_segment
    g_pad = 1.0 / grid.r_pad
    idx = np.arange(n).reshape(grid.rows, grid.cols)
    ei = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ej = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    pad_idx = np.array([grid.tile_index(r, c)
                        for r, c in grid.pad_tiles])
    rows_coo = np.concatenate([ei, ej, ei, ej, pad_idx])
    cols_coo = np.concatenate([ei, ej, ej, ei, pad_idx])
    ones = np.ones(ei.size)
    data = np.concatenate([g_seg * ones, g_seg * ones,
                           -g_seg * ones, -g_seg * ones,
                           np.full(pad_idx.size, g_pad)])
    g_matrix = coo_matrix((data, (rows_coo, cols_coo)),
                          shape=(n, n)).tocsc()
    pad_rhs = np.zeros(n)
    np.add.at(pad_rhs, pad_idx, g_pad * grid.vdd)
    return splu(g_matrix), pad_rhs


@dataclass(frozen=True)
class IRDropGrid:
    """A ``rows x cols`` resistive power mesh.

    Attributes:
        rows: Grid rows (tiles).
        cols: Grid columns (tiles).
        r_segment: Resistance of one mesh segment between adjacent
            tiles, ohms.
        r_pad: Resistance from a pad tile down to the ideal supply, ohms.
        vdd: Pad supply level, volts.
        pad_tiles: Tile coordinates ``(row, col)`` connected to pads;
            defaults to the four corners.
    """

    rows: int
    cols: int
    r_segment: float = 0.05
    r_pad: float = 0.01
    vdd: float = 1.0
    pad_tiles: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("grid must have at least one tile")
        if self.r_segment <= 0 or self.r_pad <= 0:
            raise ConfigurationError("resistances must be positive")
        if self.vdd <= 0:
            raise ConfigurationError("vdd must be positive")
        pads = self.pad_tiles or self._default_pads()
        for r, c in pads:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ConfigurationError(f"pad tile {(r, c)} outside grid")
        object.__setattr__(self, "pad_tiles", tuple(pads))

    def _default_pads(self) -> tuple[tuple[int, int], ...]:
        corners = {
            (0, 0),
            (0, self.cols - 1),
            (self.rows - 1, 0),
            (self.rows - 1, self.cols - 1),
        }
        return tuple(sorted(corners))

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def tile_index(self, row: int, col: int) -> int:
        """Flattened index of a tile.

        Raises:
            ConfigurationError: for out-of-range coordinates.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"tile {(row, col)} outside {self.rows}x{self.cols} grid"
            )
        return row * self.cols + col

    def solve(self, tile_currents: np.ndarray) -> np.ndarray:
        """Nodal solve: per-tile rail voltage for per-tile load currents.

        Args:
            tile_currents: Array of shape ``(rows, cols)`` (or flat
                ``rows*cols``) of currents drawn by each tile, amperes.

        Returns:
            Array of shape ``(rows, cols)`` of tile voltages, volts.

        Raises:
            ConfigurationError: on shape mismatch or negative currents.
        """
        return self.solve_many(
            np.asarray(tile_currents, dtype=float)[None, ...]
        )[0]

    def solve_many(self, tile_currents: np.ndarray) -> np.ndarray:
        """Batched nodal solve: many current patterns, one factorization.

        The conductance matrix is factorized once per grid (cached);
        each pattern costs two triangular solves against the same LU,
        so the per-pattern numerics are identical to :meth:`solve`.

        Args:
            tile_currents: ``(m, rows, cols)`` (or ``(m, rows*cols)``)
                load-current patterns, amperes.

        Returns:
            ``(m, rows, cols)`` tile voltages, volts.

        Raises:
            ConfigurationError: on shape mismatch or negative currents.
        """
        currents = np.asarray(tile_currents, dtype=float)
        if currents.ndim < 2 \
                or currents[0].size != self.n_tiles:
            raise ConfigurationError(
                f"expected (m, {self.rows}, {self.cols}) tile currents, "
                f"got shape {currents.shape}"
            )
        if np.any(currents < 0):
            raise ConfigurationError("tile currents must be non-negative")
        m = currents.shape[0]
        lu, pad_rhs = _grid_factorization(self)
        rhs = pad_rhs[None, :] - currents.reshape(m, self.n_tiles)
        voltages = lu.solve(rhs.T).T
        return voltages.reshape(m, self.rows, self.cols)

    def worst_drop(self, tile_currents: np.ndarray) -> float:
        """Largest IR drop below the pad supply, volts."""
        v = self.solve(tile_currents)
        return float(self.vdd - v.min())

    def hotspot_currents(self, *, total_current: float,
                         hotspot: tuple[int, int],
                         hotspot_share: float = 0.5) -> np.ndarray:
        """A current map concentrating ``hotspot_share`` at one tile.

        The remainder spreads uniformly over all tiles.  Convenient for
        scan-chain experiments that need a known spatial gradient.
        """
        if total_current < 0:
            raise ConfigurationError("total_current must be non-negative")
        if not 0.0 <= hotspot_share <= 1.0:
            raise ConfigurationError("hotspot_share must be in [0, 1]")
        currents = np.full(
            (self.rows, self.cols),
            total_current * (1.0 - hotspot_share) / self.n_tiles,
        )
        r, c = hotspot
        self.tile_index(r, c)  # bounds check
        currents[r, c] += total_current * hotspot_share
        return currents
