"""Uniform structured mesh with cell-center and node samplings.

Conventions used throughout the package:

- Cells are indexed 0..n_a-1 per axis; cell centers sit at
  ``lo_a + (i + 1/2) * da``.  A scalar cell field is an ndarray of shape
  ``grid.shape_cells``; a vector cell field appends a trailing axis of
  length 3 (vectors keep 3 components even in 2D, where the z axis is
  inert).
- Nodes are the cell corners, indexed 0..n_a per axis (``n_a + 1`` values);
  node ``nu`` sits at ``lo_a + nu * da``.  Interior nodes are those with
  0 < nu < n_a on every axis; the remaining layer is the boundary node set.
- Cell volume includes a unit thickness for the inactive z axis in 2D so
  that discrete norms are comparable between 2D and 3D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Rectangular domain bounds and cell counts per active axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.cells):
            raise ValueError("lo, hi and cells must have the same length")
        if self.dim not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got dim={self.dim}")
        for a, (lo, hi, n) in enumerate(zip(self.lo, self.hi, self.cells)):
            if n < 2:
                raise ValueError(f"axis {a}: need at least 2 cells, got {n}")
            if not hi > lo:
                raise ValueError(f"axis {a}: extent must be positive ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((h - l) / n for l, h, n in zip(self.lo, self.hi, self.cells))


class Grid:
    """Mesh geometry: index sets, coordinates and measures.

    ``shape_cells``/``shape_nodes`` give the array shapes of cell and node
    fields.  ``interior_node_mask`` is True on nodes whose full stencil of
    surrounding cells exists (the complement is the outermost node layer).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.dim = spec.dim
        self.shape_cells = tuple(spec.cells)
        self.shape_nodes = tuple(n + 1 for n in spec.cells)
        self.spacing = spec.spacing
        self.cell_volume = float(np.prod(self.spacing))  # unit z-thickness in 2D
        self.num_cells = int(np.prod(self.shape_cells))
        self.num_nodes = int(np.prod(self.shape_nodes))

        self.cell_axes = tuple(
            spec.lo[a] + (np.arange(spec.cells[a]) + 0.5) * self.spacing[a]
            for a in range(self.dim)
        )
        self.node_axes = tuple(
            spec.lo[a] + np.arange(spec.cells[a] + 1) * self.spacing[a]
            for a in range(self.dim)
        )

        mask = np.zeros(self.shape_nodes, dtype=bool)
        mask[tuple(slice(1, -1) for _ in range(self.dim))] = True
        self.interior_node_mask = mask
        self.num_interior_nodes = int(mask.sum())

    def cell_coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of cell-center coordinates, one array per axis."""
        return tuple(np.meshgrid(*self.cell_axes, indexing="ij"))

    def node_coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of node coordinates, one array per axis."""
        return tuple(np.meshgrid(*self.node_axes, indexing="ij"))


def grid_2d(lo: tuple[float, float], hi: tuple[float, float],
            nx: int, ny: int) -> Grid:
    return Grid(GridSpec(lo=tuple(lo), hi=tuple(hi), cells=(nx, ny)))


def _check_cell_shape(u: np.ndarray, grid: Grid):
    if u.shape != grid.shape_cells and u.shape != grid.shape_cells + (3,):
        raise ValueError(f"expected cell field of shape {grid.shape_cells}"
                         f"(+ optional vector axis), got {u.shape}")


def _check_node_shape(w: np.ndarray, grid: Grid):
    if w.shape != grid.shape_nodes and w.shape != grid.shape_nodes + (3,):
        raise ValueError(f"expected node field of shape {grid.shape_nodes}"
                         f"(+ optional vector axis), got {w.shape}")


def pad_cells(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Edge-replicated ghost ring around the active axes.

    Values at a node therefore average/difference only the existing
    adjacent cells; at a boundary node the missing side collapses onto the
    nearest cell (one-sided treatment, no extrapolation).
    """
    pad = [(1, 1)] * grid.dim + [(0, 0)] * (u.ndim - grid.dim)
    return np.pad(u, pad, mode="edge")


def _avg_pairs(u: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (u[tuple(lo)] + u[tuple(hi)])


def _diff_pairs(u: np.ndarray, axis: int, d: float) -> np.ndarray:
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return (u[tuple(hi)] - u[tuple(lo)]) / d


def node_average(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Average a cell field onto nodes (mean of the 2^dim adjacent cells).

    Boundary nodes average only their existing neighbours (1, 2 or 4
    cells), which keeps constants exact everywhere.
    """
    _check_cell_shape(u, grid)
    out = pad_cells(u, grid)
    for a in range(grid.dim):
        out = _avg_pairs(out, a)
    return out


def cell_from_nodes(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Average a node field onto cells (mean of the 2^dim corner nodes)."""
    _check_node_shape(w, grid)
    out = w
    for a in range(grid.dim):
        out = _avg_pairs(out, a)
    return out


def discrete_norms(u: np.ndarray, grid: Grid) -> tuple[float, float, float]:
    """(L1, L2, Linf) of a scalar cell field, volume-weighted."""
    _check_cell_shape(u, grid)
    vol = grid.cell_volume
    au = np.abs(u)
    l1 = float(au.sum() * vol)
    l2 = float(np.sqrt((u * u).sum() * vol))
    linf = float(au.max())
    return l1, l2, linf


def write_field_csv(path, u: np.ndarray, grid: Grid):
    """Dump a 2D cell field as CSV, one row per cell in row-major order.

    Header is ``x,y,value`` for scalars, ``x,y,vx,vy,vz`` for vectors;
    values carry 17 significant digits.
    """
    if grid.dim != 2:
        raise ValueError("CSV field dump is defined for 2D grids")
    _check_cell_shape(u, grid)
    x, y = grid.cell_coords()
    table = np.column_stack((x.ravel(), y.ravel(),
                             u.reshape(grid.num_cells, -1)))
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("x,y,vx,vy,vz\n" if u.ndim == 3 else "x,y,value\n")
        fh.write((row_fmt * grid.num_cells) % tuple(table.ravel().tolist()))
