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

Only DE, the interior-node columns of dhstar, is assembled.  By the SBP
identity the interior rows of dh are exactly -DE^T, so the masked cell
operator -dhstar(H dh(.)) is DE diag(H) DE^T (which only the tests' direct
oracle assembles) and the macro normal operator is N1 = DE^T DE, a
nine-point stencil kept on its diagonals for the Krylov solves.  Both are
built from the four corner weights of each cell without a sparse product,
bit for bit equal to the tests' Kronecker-product oracle.
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
# Assembly in closed form from the corner weights of the cells.
# ---------------------------------------------------------------------------

def _interior_block(S: np.ndarray, D: np.ndarray) -> sp.csr_matrix:
    """DE, the interior-node columns of dhstar, as CSR from the node
    planes S, D: per cell its interior corners in column order, exact
    zeros dropped."""
    nx, ny = S.shape[0] - 1, S.shape[1] - 1
    col = np.full(S.shape, -1, dtype=np.int32)
    col[1:-1, 1:-1] = np.arange((nx - 1) * (ny - 1)).reshape(nx - 1, ny - 1)
    w = np.empty((nx, ny, 4))
    cols = np.empty((nx, ny, 4), dtype=np.int32)
    for k, (p, q, plane) in enumerate(((0, 0, -S), (0, 1, -D), (1, 0, D),
                                       (1, 1, S))):
        w[..., k] = plane[p:p + nx, q:q + ny]
        cols[..., k] = col[p:p + nx, q:q + ny]
    keep = (cols >= 0) & (w != 0.0)
    indptr = np.concatenate(([0], keep.sum(axis=2).cumsum()), dtype=np.int32)
    return sp.csr_matrix((w[keep], cols[keep], indptr),
                         shape=(nx * ny, (nx - 1) * (ny - 1)))


def _normal_operator(s: np.ndarray, d: np.ndarray) -> sp.dia_matrix:
    """N1 = DE^T DE from the interior planes s, d of S, D, on its nonzero
    diagonals.  The coupling of two nodes sums the products of their
    weights over the cells they share, from 0 in ascending cell index,
    as the CSR product does; each coupling array is indexed by the pair's
    lower row and column, and the pair (a, b) apart sits on diagonal
    a*mj + b at the column of its second node."""
    mi, mj = s.shape
    pairs = (((0, 0), ((s * s + d * d) + d * d) + s * s),
             ((0, 1), d[:, :-1] * s[:, 1:] + s[:, :-1] * d[:, 1:]),
             ((1, 0), -(d[:-1] * s[1:] + s[:-1] * d[1:])),
             ((1, 1), -(s[:-1, :-1] * s[1:, 1:])),
             ((1, -1), -(d[:-1, 1:] * d[1:, :-1])))
    placed = [(A, B, c) for (a, b), c in pairs for A, B in {(a, b), (-a, -b)}]
    # on an interior at most 2 nodes wide, offsets of distinct pairs
    # coincide; their entries sit in distinct columns, so they add
    offsets, slot = np.unique([A * mj + B for A, B, _ in placed],
                              return_inverse=True)
    data = np.zeros((offsets.size, mi, mj))
    for k, (A, B, c) in zip(slot, placed):
        data[k, max(A, 0):mi + min(A, 0), max(B, 0):mj + min(B, 0)] += c
    keep = data.any(axis=(1, 2))
    return sp.dia_matrix((data[keep].reshape(-1, mi * mj), offsets[keep]),
                         shape=(mi * mj,) * 2)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Immutable assembly cache of a static (field, grid), built from the
    cells' corner weights; factors of its operators belong to the callers
    of the solvers.  N1, the one square operator, is kept on its
    diagonals: CG applies it once per iteration."""

    interior: np.ndarray   # flat indices of the interior nodes
    DE: sp.csr_matrix      # interior-node columns of dhstar
    N1: sp.dia_matrix      # macro normal operator DE^T DE, nine diagonals


_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def get_operator_set(field: MagneticField, grid: Grid) -> OperatorSet:
    per_field = _cache.setdefault(field, weakref.WeakKeyDictionary())
    ops = per_field.get(grid)
    if ops is None:
        interior = np.flatnonzero(grid.interior_node_mask.ravel())
        # a node's weight in the row of a cell is -S, -D, D or S as it is
        # the cell's (0,0), (0,1), (1,0) or (1,1) corner; P and Q round as
        # the 1D difference and average factors scaled by b do
        (dx, dy), (bx, by, _) = grid.spacing, field.b_node_planes
        P, Q = ((1.0 / dx) * 0.5) * bx, ((1.0 / dy) * 0.5) * by
        S, D = P + Q, P - Q
        DE = _interior_block(S, D)
        # -dh(dhstar(.)) on interior nodes, SPD form
        N1 = _normal_operator(S[1:-1, 1:-1], D[1:-1, 1:-1])
        ops = OperatorSet(interior=interior, DE=DE, N1=N1)
        per_field[grid] = ops
    return ops
