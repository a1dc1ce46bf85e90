"""Three-point discrete operators between cell and node samplings.

Three stencils are provided, all second-order on the uniform 2D mesh:

- ``apply_dh``: directional derivative along the unit field b, cell -> node.
  Per axis it averages the two one-sided cell differences straddling the
  node (2 differences / 2*da) and contracts with b at the node.
- ``apply_dhstar``: divergence of a b-aligned node flux, node -> cell.  Per
  axis it averages (b_a * w) over the transverse node pairs of the cell and
  differences across the cell.
- ``apply_grad_star``: the full node gradient, i.e. the apply_dh stencil
  without the b contraction; ``bx*gx + by*gy == apply_dh(p)`` entry for
  entry.

Layout: there is one.  The stencils act on scalar planes, and a
gradient is the two planes (gx, gy): the mesh is 2D, so there is no z
plane.  b enters ``MagneticField`` as the state stores a momentum, as
contiguous component planes (``b_node_planes``, ``b_cell_planes``,
shape (3,) + shape) that ``from_function`` samples plane by plane;
``b_cells``, an (nx, ny, 3) view, is kept for the benchmark.

Raw stencils are defined at every node via edge-replicated ghost cells
(one-sided at the boundary layer).  The homogeneous flux condition of the
diffusion problems (b-derivative zero on the boundary node layer) is not
part of the raw stencils: the time stepper imposes it by zeroing the flux
on boundary nodes, the assembled operators by keeping only the interior
node columns of dhstar.

Only dhstar is assembled, as a sum of two Kronecker products of 1D
difference/average factors.  Its interior-column block DE determines the
rest: by the SBP identity the interior rows of dh are exactly -DE^T, so
the masked cell operator -dhstar(H dh(.)) is DE diag(H) DE^T (which only
the tests' direct oracle assembles) and the macro normal operator is
N1 = DE^T DE, a nine-point stencil that ``dia_from_csr`` stores on its
diagonals for the Krylov solves.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, _check_cell_shape, _check_node_shape, _avg_pairs, \
    _diff_pairs, dot, pad_cells

_UNIT_TOL = 1e-12


class MagneticField:
    """Unit direction b and magnitude |B| sampled at nodes and cells.

    Vectors keep 3 components: B may have a z component, while the mesh
    is 2D.  b enters and is stored as contiguous component planes of
    shape (3,) + shape; |B| must be finite and positive everywhere and b
    unit to 1e-12.  ``b_cells`` is an (nx, ny, 3) view of the cell planes,
    kept for ``bench/``, which counts its bytes in the flux trace.
    """

    def __init__(self, b_node_planes: np.ndarray, bmag_nodes: np.ndarray,
                 b_cell_planes: np.ndarray, bmag_cells: np.ndarray):
        self.b_node_planes = np.ascontiguousarray(b_node_planes, dtype=float)
        self.b_cell_planes = np.ascontiguousarray(b_cell_planes, dtype=float)
        self.bmag_nodes = np.asarray(bmag_nodes, dtype=float)
        self.bmag_cells = np.asarray(bmag_cells, dtype=float)
        self.b_cells = np.moveaxis(self.b_cell_planes, 0, -1)
        for b, bmag, where in ((self.b_node_planes, self.bmag_nodes, "nodes"),
                               (self.b_cell_planes, self.bmag_cells, "cells")):
            # written so that NaN fails both
            if not np.all((bmag > 0.0) & (bmag < np.inf)):
                raise ValueError(f"|B| must be finite and positive ({where})")
            if not np.all(np.abs(np.sqrt(dot(b, b)) - 1.0) <= _UNIT_TOL):
                raise ValueError(f"b must be unit to {_UNIT_TOL} ({where})")

    @classmethod
    def from_function(cls, grid: Grid, func) -> "MagneticField":
        """Sample B = func(*coords) -> (Bx, By, Bz) at nodes and cells,
        one plane per component."""
        def sample(coords):
            B = np.stack([np.broadcast_to(c, coords[0].shape)
                          for c in func(*coords)], dtype=float)
            mag = np.sqrt(dot(B, B))
            with np.errstate(divide="ignore", invalid="ignore"):
                return B / mag, mag     # the constructor checks both

        b_n, m_n = sample(grid.node_coords())
        b_c, m_c = sample(grid.cell_coords())
        return cls(b_n, m_n, b_c, m_c)

    @classmethod
    def uniform(cls, grid: Grid, B: tuple[float, float, float]) -> "MagneticField":
        return cls.from_function(grid, lambda *coords: B)


def apply_grad_star(p: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Node gradient (gx, gy) of a scalar cell field."""
    _check_cell_shape(p, grid)
    padded = pad_cells(p, grid)
    dx, dy = grid.spacing
    return (_avg_pairs(_diff_pairs(padded, 0, dx), 1),
            _diff_pairs(_avg_pairs(padded, 0), 1, dy))


def apply_dh(p: np.ndarray, field: MagneticField, grid: Grid) -> np.ndarray:
    """b . grad at nodes, raw on the boundary node layer too."""
    gx, gy = apply_grad_star(p, grid)
    bx, by, _ = field.b_node_planes
    return bx * gx + by * gy


def apply_dhstar(w: np.ndarray, field: MagneticField, grid: Grid) -> np.ndarray:
    """Divergence of the node flux b*w, cell field output."""
    _check_node_shape(w, grid)
    dx, dy = grid.spacing
    bx, by, _ = field.b_node_planes
    return (_avg_pairs(_diff_pairs(bx * w, 0, dx), 1)
            + _diff_pairs(_avg_pairs(by * w, 0), 1, dy))


# ---------------------------------------------------------------------------
# Sparse assembly: 1D factors combined with Kronecker products.
# ---------------------------------------------------------------------------

def _diff_matrix(m: int, d: float) -> sp.csr_matrix:
    """(m-1) x m forward difference / d."""
    return sp.diags([-np.ones(m - 1) / d, np.ones(m - 1) / d], [0, 1],
                    shape=(m - 1, m), format="csr")


def _avg_matrix(m: int) -> sp.csr_matrix:
    """(m-1) x m midpoint average."""
    return sp.diags([0.5 * np.ones(m - 1), 0.5 * np.ones(m - 1)], [0, 1],
                    shape=(m - 1, m), format="csr")


def assemble_dhstar(field: MagneticField, grid: Grid) -> sp.csr_matrix:
    """Node -> cell matrix of the b-aligned flux divergence."""
    bx, by, _ = field.b_node_planes
    (mx, my), (dx, dy) = grid.shape_nodes, grid.spacing
    x = sp.kron(_diff_matrix(mx, dx), _avg_matrix(my), format="csr")
    y = sp.kron(_avg_matrix(mx), _diff_matrix(my, dy), format="csr")
    return (x @ sp.diags(bx.ravel()) + y @ sp.diags(by.ravel())).tocsr()


def dia_from_csr(A: sp.csr_matrix) -> sp.dia_matrix:
    """A square CSR matrix without duplicate entries, stored on its
    diagonals.

    A present-offset table over the offset range picks the diagonals, so
    no sort runs (scipy's ``todia`` sums duplicates and sorts the offsets
    with ``np.unique``, which costs time and peak memory).  data[k, j] is
    the entry of column j on diagonal k, the layout ``dia_matrix`` reads.
    """
    n = A.shape[0]
    key = A.indices - np.repeat(np.arange(n), np.diff(A.indptr))
    lo = key.min(initial=0)
    key -= lo
    present = np.zeros(key.max(initial=0) + 1, dtype=bool)
    present[key] = True
    slot = np.cumsum(present) - 1
    data = np.zeros((slot[-1] + 1, n))
    data[slot[key], A.indices] = A.data
    return sp.dia_matrix((data, np.flatnonzero(present) + lo), shape=A.shape)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Immutable assembly cache of a static (field, grid); factors of its
    operators belong to the callers of the solvers.  N1, the one square
    operator, is kept on its diagonals: CG applies it once per iteration."""

    interior: np.ndarray   # flat indices of the interior nodes
    DE: sp.csr_matrix      # interior-node block of the assembled dhstar
    N1: sp.dia_matrix      # macro normal operator DE^T DE, nine diagonals


_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def get_operator_set(field: MagneticField, grid: Grid) -> OperatorSet:
    per_field = _cache.setdefault(field, weakref.WeakKeyDictionary())
    ops = per_field.get(grid)
    if ops is None:
        interior = np.flatnonzero(grid.interior_node_mask.ravel())
        DE = assemble_dhstar(field, grid)[:, interior].tocsr()
        # -dh(dhstar(.)) on interior nodes, SPD form
        N1 = dia_from_csr((DE.T @ DE).tocsr())
        ops = OperatorSet(interior=interior, DE=DE, N1=N1)
        per_field[grid] = ops
    return ops
