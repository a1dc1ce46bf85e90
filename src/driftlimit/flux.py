"""Rusanov finite-volume fluxes for the hydrodynamic blocks.

Per species the conserved block is W = (n, q) with q a 3-vector, and the
interface flux is centered plus scalar Rusanov viscosity, D = max of the
local viscosity speeds on both sides.  One argument, c2, selects which of
the two schemes' explicit fluxes is meant.

c2 = None is the AP split flux.  The parallel mass flux and the pressure
belong to the implicit n/phi solves, so along axis a

    F0   = e_a . ((I - b b) q)          (perpendicular mass flux)
    F1:4 = q_a q / n                    (convective momentum flux)

and the speed is the spectral radius of its Jacobian (b held fixed),
whose eigenvalues

    u_a (twice)  and  u_a +/- sqrt(u_a * b_a * (b . u)),   u = q / n,

the vectorised radius evaluates directly (the tests check it against a
dense 4x4 eigensolve).

A number c2, the squared isothermal sound speed, is the classical full
flux: F0 = q_a, the pressure c2 * n added on the axis momentum row, and
the speed |u_a| + sqrt(c2).

Boundary interfaces use zero-gradient (copy) ghost cells on all sides.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, pad_cells
from .stencil import MagneticField


def explicit_flux_vector(n: np.ndarray, q: np.ndarray, b_cells: np.ndarray,
                         axis: int, c2: float = None) -> np.ndarray:
    """Per-cell 4-vector flux along one axis (last array axis: n, qx, qy, qz)."""
    if np.any(n <= 0.0):
        raise FloatingPointError("non-positive density in flux evaluation")
    out = np.empty(n.shape + (4,))
    out[..., 1:] = q[..., axis, None] * q / n[..., None]
    if c2 is None:
        bq = np.einsum("...k,...k->...", b_cells, q)
        out[..., 0] = q[..., axis] - b_cells[..., axis] * bq
    else:
        out[..., 0] = q[..., axis]
        out[..., 1 + axis] += c2 * n
    return out


def _radius_field(n: np.ndarray, q: np.ndarray, b: np.ndarray, axis: int,
                  c2: float = None) -> np.ndarray:
    """Vectorised per-cell viscosity speed along one axis."""
    u = q / n[..., None]
    ua = u[..., axis]
    if c2 is not None:
        return np.abs(ua) + np.sqrt(c2)
    kappa = ua * b[..., axis] * np.einsum("...k,...k->...", b, u)
    root = np.sqrt(kappa.astype(complex))
    rad = np.maximum(np.abs(ua), np.maximum(np.abs(ua + root), np.abs(ua - root)))
    return rad.real


def fv_divergence(n: np.ndarray, q: np.ndarray, field: MagneticField,
                  grid: Grid, c2: float = None) -> np.ndarray:
    """Per-cell 4-vector FV divergence (mass row, 3 momentum rows) of the
    AP split flux (c2 None) or the classical full flux (c2 a number).

    Ghost cells copy the boundary state, so boundary interfaces carry the
    centered flux of the adjacent cell with no viscosity.
    """
    if np.any(n <= 0.0) or not (np.all(np.isfinite(n)) and np.all(np.isfinite(q))):
        raise FloatingPointError("invalid state in FV divergence")
    nP = pad_cells(n, grid)
    qP = pad_cells(q, grid)
    bP = pad_cells(field.b_cells, grid)
    out = np.zeros(grid.shape_cells + (4,))
    for a in range(grid.dim):
        # keep ghosts along axis a only; other axes restricted to interior
        sl = [slice(1, -1)] * grid.dim
        sl[a] = slice(None)
        nA, qA, bA = nP[tuple(sl)], qP[tuple(sl)], bP[tuple(sl)]
        f = explicit_flux_vector(nA, qA, bA, a, c2)
        rad = _radius_field(nA, qA, bA, a, c2)
        W = np.concatenate((nA[..., None], qA), axis=-1)

        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[a], hi[a] = slice(0, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        D = np.maximum(rad[lo], rad[hi])
        F = 0.5 * (f[lo] + f[hi]) - 0.5 * D[..., None] * (W[hi] - W[lo])

        out += (F[hi] - F[lo]) / grid.spacing[a]
    return out
