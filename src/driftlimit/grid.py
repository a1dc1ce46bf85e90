"""Uniform 2D Cartesian mesh, its cell and node samplings, and the state.

Conventions used throughout the package:

- Cells are indexed 0..n_a-1 per axis (a = x, y); cell centers sit at
  ``lo_a + (i + 1/2) * da``.  A scalar cell field is an ndarray of shape
  ``grid.shape_cells``.
- Layout: there is one.  A vector field (a momentum of the state, the
  field direction b) keeps 3 components, as the field has a z component
  while the z axis of the mesh is inert, and enters and is stored once,
  as a ``(3,) + shape`` array of contiguous planes, on which every kernel
  and ``dot`` and ``cross`` act.  Readers of the (..., 3) form (the CSV
  dumps, the benchmark) get ``np.moveaxis`` views.
- Nodes are the cell corners, indexed 0..n_a per axis (``n_a + 1`` values);
  node ``nu`` sits at ``lo_a + nu * da``.  Interior nodes are those with
  0 < nu < n_a on both axes; the remaining layer is the boundary node set.
- Cell volume is the cell area times a unit thickness along z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Grid:
    """Mesh on [lo_x, hi_x] x [lo_y, hi_y] with ``cells = (nx, ny)``:
    index sets, coordinates and measures.

    ``shape_cells``/``shape_nodes`` give the array shapes of cell and node
    fields.  ``interior_node_mask`` is True on nodes whose full stencil of
    surrounding cells exists (the complement is the outermost node layer).
    """

    def __init__(self, lo: tuple[float, float], hi: tuple[float, float],
                 cells: tuple[int, int]):
        lo, hi, cells = tuple(lo), tuple(hi), tuple(cells)
        if not len(lo) == len(hi) == len(cells) == 2:
            raise ValueError("lo, hi and cells must have exactly 2 entries "
                             f"(x, y), got {len(lo)}, {len(hi)}, {len(cells)}")
        for a, (l, h, n) in enumerate(zip(lo, hi, cells)):
            if n < 2:
                raise ValueError(f"axis {a}: need at least 2 cells, got {n}")
            if not h > l:
                raise ValueError(f"axis {a}: extent must be positive ({l}, {h})")
        self.lo, self.hi = lo, hi
        self.shape_cells = cells
        self.shape_nodes = (cells[0] + 1, cells[1] + 1)
        self.spacing = tuple((h - l) / n for l, h, n in zip(lo, hi, cells))
        self.cell_volume = self.spacing[0] * self.spacing[1]  # unit z-thickness
        self.num_cells = cells[0] * cells[1]
        self.num_nodes = self.shape_nodes[0] * self.shape_nodes[1]

        self.cell_axes = tuple(l + (np.arange(n) + 0.5) * d
                               for l, n, d in zip(lo, cells, self.spacing))
        self.node_axes = tuple(l + np.arange(n + 1) * d
                               for l, n, d in zip(lo, cells, self.spacing))

        mask = np.zeros(self.shape_nodes, dtype=bool)
        mask[1:-1, 1:-1] = True
        self.interior_node_mask = mask
        self._csv_rows = {}     # value width -> row template of write_field_csv

    def cell_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell-center coordinates (x, y)."""
        return tuple(np.meshgrid(*self.cell_axes, indexing="ij"))

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of node coordinates (x, y)."""
        return tuple(np.meshgrid(*self.node_axes, indexing="ij"))


@dataclass
class PlasmaState:
    """n, momenta and phi at time t.  A momentum is stored once, as planes
    of shape (3, nx, ny), ``q(a)``; ``q_i``, ``q_e`` are (nx, ny, 3) views."""

    n: np.ndarray
    q_i_planes: np.ndarray
    q_e_planes: np.ndarray
    phi: np.ndarray
    t: float = 0.0

    def q(self, a: str) -> np.ndarray:
        return self.q_i_planes if a == "i" else self.q_e_planes

    q_i = property(lambda self: np.moveaxis(self.q_i_planes, 0, -1))
    q_e = property(lambda self: np.moveaxis(self.q_e_planes, 0, -1))

    def copy(self) -> "PlasmaState":
        return PlasmaState(self.n.copy(), self.q_i_planes.copy(),
                           self.q_e_planes.copy(), self.phi.copy(), self.t)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(f)) for f in (
            self.n, self.q_i_planes, self.q_e_planes, self.phi))


def dot(u, v) -> np.ndarray:
    """Dot product of two vectors given as component planes, summed in
    component order."""
    out = u[0] * v[0]
    out += u[1] * v[1]
    out += u[2] * v[2]
    return out


def cross(u, v) -> tuple:
    """Cross product of two vectors given as component planes."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _check_cell_shape(u: np.ndarray, grid: Grid):
    if u.shape != grid.shape_cells and u.shape != grid.shape_cells + (3,):
        raise ValueError(f"expected cell field of shape {grid.shape_cells}"
                         f"(+ optional vector axis), got {u.shape}")


def _check_node_shape(w: np.ndarray, grid: Grid):
    if w.shape != grid.shape_nodes and w.shape != grid.shape_nodes + (3,):
        raise ValueError(f"expected node field of shape {grid.shape_nodes}"
                         f"(+ optional vector axis), got {w.shape}")


def pad_cells(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Edge-replicated ghost ring around the x and y axes.

    Values at a node therefore average/difference only the existing
    adjacent cells; at a boundary node the missing side collapses onto the
    nearest cell (one-sided treatment, no extrapolation).
    """
    out = np.empty((u.shape[0] + 2, u.shape[1] + 2) + u.shape[2:])
    out[1:-1, 1:-1] = u
    out[0, 1:-1] = u[0]
    out[-1, 1:-1] = u[-1]
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]
    return out


def _pairs(u: np.ndarray, axis: int):
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return u[tuple(lo)], u[tuple(hi)]


def _avg_pairs(u: np.ndarray, axis: int) -> np.ndarray:
    lo, hi = _pairs(u, axis)
    out = lo + hi
    out *= 0.5
    return out


def _diff_pairs(u: np.ndarray, axis: int, d: float) -> np.ndarray:
    lo, hi = _pairs(u, axis)
    out = hi - lo
    out /= d
    return out


def node_average(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Average a cell field onto nodes (mean of the 4 adjacent cells).

    Boundary nodes average only their existing neighbours (1, 2 or 4
    cells), which keeps constants exact everywhere.
    """
    _check_cell_shape(u, grid)
    return _avg_pairs(_avg_pairs(pad_cells(u, grid), 0), 1)


def cell_from_nodes(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Average a node field onto cells (mean of the 4 corner nodes)."""
    _check_node_shape(w, grid)
    return _avg_pairs(_avg_pairs(w, 0), 1)


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
    """Dump a cell field as CSV, one row per cell in row-major order.

    Header is ``x,y,value`` for scalars, ``x,y,vx,vy,vz`` for vectors;
    coordinates and values carry 17 significant digits.  The coordinates
    never change, so the first dump of each value width joins them once
    into a row template kept on the grid, from the text of each axis value
    (the cells are the meshgrid of ``cell_axes``); a dump formats only its
    values into the template's ``%.17g`` slots.
    """
    _check_cell_shape(u, grid)
    width = 3 if u.ndim == 3 else 1
    rows = grid._csv_rows.get(width)
    if rows is None:
        xs, ys = (["%.17g," % v for v in axis.tolist()]
                  for axis in grid.cell_axes)
        slots = ",".join(["%.17g"] * width) + "\n"
        y_tails = [y + slots for y in ys]
        rows = grid._csv_rows[width] = "".join(
            x + tail for x in xs for tail in y_tails)
    with open(path, "w") as fh:
        fh.write("x,y,vx,vy,vz\n" if width == 3 else "x,y,value\n")
        fh.write(rows % tuple(u.ravel().tolist()))
