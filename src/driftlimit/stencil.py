"""Three-point discrete operators between cell and node samplings.

Three stencils are provided, all second-order on uniform meshes:

- ``apply_dh``: directional derivative along the unit field b, cell -> node.
  Per axis it averages the one-sided cell differences straddling the node
  (2 differences / 2*da in 2D, 4 / 4*da in 3D) and contracts with b at the
  node.
- ``apply_dhstar``: divergence of a b-aligned node flux, node -> cell.  Per
  axis it averages (b_a * w) over the transverse node pairs of the cell and
  differences across the cell.
- ``apply_grad_star``: the full node gradient, i.e. the apply_dh stencil
  without the b contraction; ``b . apply_grad_star(p) == apply_dh(p)``
  entry for entry.

Raw stencils are defined at every node via edge-replicated ghost cells
(one-sided at the boundary layer).  The homogeneous flux condition of the
diffusion problems (b-derivative zero on the boundary node layer) is not
part of the raw stencils: the time stepper imposes it by zeroing the flux
on boundary nodes (``zero_boundary=True``), the assembled operators by
keeping only the interior node columns of dhstar.

Only dhstar is assembled, as a Kronecker product of 1D difference/average
factors.  Its interior-column block DE determines the rest: by the SBP
identity the interior rows of dh are exactly -DE^T, so the masked cell
operator -dhstar(H dh(.)) is DE diag(H) DE^T (which the micro solve
applies and the tests' direct oracle assembles) and the macro normal
operator is DE^T DE.
"""

from __future__ import annotations

import weakref
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .grid import Grid, _check_cell_shape, _check_node_shape, _avg_pairs, \
    _diff_pairs, pad_cells

_UNIT_TOL = 1e-12


class MagneticField:
    """Unit direction b and magnitude |B| sampled at nodes and cells.

    Vectors keep 3 components regardless of grid dimension.  |B| must be
    positive everywhere and b unit to 1e-12.
    """

    def __init__(self, b_nodes: np.ndarray, bmag_nodes: np.ndarray,
                 b_cells: np.ndarray, bmag_cells: np.ndarray):
        self.b_nodes = np.asarray(b_nodes, dtype=float)
        self.bmag_nodes = np.asarray(bmag_nodes, dtype=float)
        self.b_cells = np.asarray(b_cells, dtype=float)
        self.bmag_cells = np.asarray(bmag_cells, dtype=float)
        for bmag, where in ((self.bmag_nodes, "nodes"), (self.bmag_cells, "cells")):
            if not np.all(bmag > 0.0):
                raise ValueError(f"|B| must be positive everywhere ({where})")
        for b, where in ((self.b_nodes, "nodes"), (self.b_cells, "cells")):
            norms = np.sqrt((b * b).sum(axis=-1))
            if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
                raise ValueError(f"b must be unit to {_UNIT_TOL} ({where})")

    @classmethod
    def from_function(cls, grid: Grid, func) -> "MagneticField":
        """Sample B = func(*coords) -> (Bx, By, Bz) at nodes and cells."""
        def sample(coords):
            comps = [np.broadcast_to(np.asarray(c, dtype=float), coords[0].shape)
                     for c in func(*coords)]
            B = np.stack(comps, axis=-1)
            mag = np.sqrt((B * B).sum(axis=-1))
            if not np.all(mag > 0.0):
                raise ValueError("|B| must be positive everywhere")
            return B / mag[..., None], mag

        b_n, m_n = sample(grid.node_coords())
        b_c, m_c = sample(grid.cell_coords())
        return cls(b_n, m_n, b_c, m_c)

    @classmethod
    def uniform(cls, grid: Grid, B: tuple[float, float, float]) -> "MagneticField":
        B = np.asarray(B, dtype=float)
        return cls.from_function(grid, lambda *coords: (
            np.full_like(coords[0], B[0]),
            np.full_like(coords[0], B[1]),
            np.full_like(coords[0], B[2]),
        ))


def apply_grad_star(p: np.ndarray, grid: Grid) -> np.ndarray:
    """Node gradient of a cell field; z component is zero in 2D."""
    _check_cell_shape(p, grid)
    padded = pad_cells(p, grid)
    out = np.zeros(grid.shape_nodes + (3,))
    for a in range(grid.dim):
        comp = padded
        for b in range(grid.dim):
            if b == a:
                comp = _diff_pairs(comp, b, grid.spacing[a])
            else:
                comp = _avg_pairs(comp, b)
        out[..., a] = comp
    return out


def apply_dh(p: np.ndarray, field: MagneticField, grid: Grid,
             zero_boundary: bool = False) -> np.ndarray:
    """b . grad at nodes.  zero_boundary zeroes the boundary node layer,
    matching the flux condition built into the diffusion operators."""
    g = apply_grad_star(p, grid)
    out = np.einsum("...k,...k->...", field.b_nodes, g)
    if zero_boundary:
        out = np.where(grid.interior_node_mask, out, 0.0)
    return out


def apply_dhstar(w: np.ndarray, field: MagneticField, grid: Grid) -> np.ndarray:
    """Divergence of the node flux b*w, cell field output."""
    _check_node_shape(w, grid)
    out = np.zeros(grid.shape_cells)
    for a in range(grid.dim):
        comp = field.b_nodes[..., a] * w
        for b in range(grid.dim):
            if b == a:
                comp = _diff_pairs(comp, b, grid.spacing[a])
            else:
                comp = _avg_pairs(comp, b)
        out += comp
    return out


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


def _kron_all(factors) -> sp.csr_matrix:
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def assemble_dhstar(field: MagneticField, grid: Grid) -> sp.csr_matrix:
    """Node -> cell matrix of the b-aligned flux divergence."""
    b = field.b_nodes.reshape(-1, 3)
    out = None
    for a in range(grid.dim):
        factors = []
        for c in range(grid.dim):
            m = grid.shape_nodes[c]
            core = _diff_matrix(m, grid.spacing[a]) if c == a else _avg_matrix(m)
            factors.append(core)
        term = _kron_all(factors) @ sp.diags(b[:, a])
        out = term if out is None else out + term
    return out.tocsr()


# Cached per (field, grid): the interior block DE of the assembled dhstar,
# its transpose (the interior rows of -dh, stored in CSR for fast products),
# the macro normal operator N1 and the slot for its factor, which the
# solver fills on its first per-step solve.  Fields are static, so assembly
# happens once per configuration.
_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def get_operator_set(field: MagneticField, grid: Grid) -> SimpleNamespace:
    per_field = _cache.setdefault(field, weakref.WeakKeyDictionary())
    ops = per_field.get(grid)
    if ops is None:
        interior = np.flatnonzero(grid.interior_node_mask.ravel())
        DE = assemble_dhstar(field, grid)[:, interior].tocsr()
        N1 = (DE.T @ DE).tocsr()  # -dh(dhstar(.)) on interior nodes, SPD form
        ops = SimpleNamespace(interior=interior, DE=DE, DEt=DE.T.tocsr(),
                              N1=N1, N1_lu=None)
        per_field[grid] = ops
    return ops
