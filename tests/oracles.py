"""Test-only oracles.

The micro-macro solver never assembles the cell operator; the first two
helpers do, and solve the tau > 0 cell system with a sparse LU, so the
decomposition can be checked against an independent direct solve.

``ghost_fv_divergence`` is the Rusanov divergence written on the
(..., 3) vector layout with a copy-ghost ring around the state, against
which the component-plane kernel of ``driftlimit.flux`` is checked.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftlimit.diffusion import AnisoDiffusionProblem, SolverError
from driftlimit.grid import Grid, _check_node_shape, pad_cells
from driftlimit.stencil import MagneticField, get_operator_set


def assemble_operator(field: MagneticField, coeff: np.ndarray,
                      grid: Grid) -> sp.csr_matrix:
    """Cell diffusion operator A_c = -dhstar(coeff * dh(.)), cell -> cell.

    The flux coeff*dh is zeroed on boundary nodes (coeff sampled at nodes),
    which bakes in the homogeneous flux condition: A_c = DE diag(coeff) DE^T
    over the interior nodes.
    """
    coeff = np.asarray(coeff, dtype=float)
    if not np.all(coeff > 0.0):
        raise ValueError("diffusion coefficient must be positive")
    _check_node_shape(coeff, grid)
    ops = get_operator_set(field, grid)
    return (ops.DE @ sp.diags(coeff.ravel()[ops.interior]) @ ops.DEt).tocsr()


def solve_direct(prob: AnisoDiffusionProblem, grid: Grid) -> np.ndarray:
    """Sparse direct solve of (A_H + tau*lam*I) p = tau*f; requires tau > 0."""
    if prob.tau <= 0.0:
        raise ValueError("direct solve requires tau > 0 (system singular at 0)")
    A = assemble_operator(prob.field, prob.coeff, grid)
    M = (A + prob.tau * prob.lam * sp.eye(grid.num_cells)).tocsc()
    b = prob.tau * prob.rhs.ravel()
    lu = spla.splu(M)
    p = lu.solve(b)
    scale = np.linalg.norm(b)
    for _ in range(3):  # iterative refinement to a firm 1e-12
        r = b - M @ p
        if np.linalg.norm(r) <= 1e-13 * scale:
            break
        p = p + lu.solve(r)
    resid = np.linalg.norm(M @ p - b)
    if scale > 0.0 and resid > 1e-12 * scale:
        raise SolverError(f"direct solve residual {resid / scale:.3e} above 1e-12")
    return p.reshape(grid.shape_cells)


def _vector_flux(n: np.ndarray, q: np.ndarray, b_cells: np.ndarray,
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


def _vector_radius(n: np.ndarray, q: np.ndarray, b: np.ndarray, axis: int,
                   c2: float = None) -> np.ndarray:
    """Vectorised per-cell viscosity speed along one axis."""
    u = q / n[..., None]
    ua = u[..., axis]
    if c2 is not None:
        return np.abs(ua) + np.sqrt(c2)
    kappa = ua * b[..., axis] * np.einsum("...k,...k->...", b, u)
    # real roots u_a +/- sqrt(kappa) for kappa >= 0, a complex pair of
    # modulus sqrt(u_a^2 - kappa) otherwise; the clamps keep the branch
    # np.where discards free of square roots of negatives
    return np.where(kappa >= 0.0,
                    np.abs(ua) + np.sqrt(np.maximum(kappa, 0.0)),
                    np.sqrt(ua * ua - np.minimum(kappa, 0.0)))


def ghost_fv_divergence(n: np.ndarray, q: np.ndarray, field: MagneticField,
                        grid: Grid, c2: float = None) -> np.ndarray:
    """Per-cell 4-vector FV divergence with copy ghost cells on all sides."""
    if np.any(n <= 0.0) or not (np.all(np.isfinite(n)) and np.all(np.isfinite(q))):
        raise FloatingPointError("invalid state in FV divergence")
    nP = pad_cells(n, grid)
    qP = pad_cells(q, grid)
    bP = pad_cells(field.b_cells, grid)
    out = np.zeros(grid.shape_cells + (4,))
    for a in range(2):
        # keep ghosts along axis a only; the other axis restricted to interior
        sl = [slice(1, -1)] * 2
        sl[a] = slice(None)
        nA, qA, bA = nP[tuple(sl)], qP[tuple(sl)], bP[tuple(sl)]
        f = _vector_flux(nA, qA, bA, a, c2)
        rad = _vector_radius(nA, qA, bA, a, c2)
        W = np.concatenate((nA[..., None], qA), axis=-1)

        lo = [slice(None)] * 2
        hi = [slice(None)] * 2
        lo[a], hi[a] = slice(0, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        D = np.maximum(rad[lo], rad[hi])
        F = 0.5 * (f[lo] + f[hi]) - 0.5 * D[..., None] * (W[hi] - W[lo])

        out += (F[hi] - F[lo]) / grid.spacing[a]
    return out
