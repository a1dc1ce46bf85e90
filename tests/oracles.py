"""Test-only direct oracle for the aligned diffusion problem.

The micro-macro solver never assembles the cell operator; these helpers
do, and solve the tau > 0 cell system with a sparse LU, so the
decomposition can be checked against an independent direct solve.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftlimit.diffusion import AnisoDiffusionProblem, SolverError
from driftlimit.grid import Grid, _check_node_shape
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
