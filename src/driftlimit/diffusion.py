"""Micro-macro solver for b-aligned degenerate diffusion.

The discrete problem on cells is

    -dhstar(H * dh(p)) + tau*lam*p = tau*f,      dh(p) = 0 on boundary nodes,

well posed for tau > 0 but singular at tau = 0, where solutions are fixed
only up to the kernel K of the (masked) aligned derivative dh.  The solver
splits p = pi + q with pi in K and q in the orthogonal complement
K_perp = range of dhstar over interior-supported node fields:

1. node potential h:    -dh(dhstar(h)) = dh(f)  on interior nodes, h = 0
   on the boundary layer.  These are the normal equations of
   min || f + dhstar(h) ||, so the macro part
2.                      pi = (f + dhstar(h)) / lam
   is exactly the orthogonal projection of f/lam onto K.
3. micro part, solved in the cell variable w = q / tau:
                        (A_H + tau*lam) w = -dhstar(h),
   whose right-hand side lies in K_perp exactly; A_H leaves K and K_perp
   invariant, so CG stays well conditioned uniformly in tau and the
   returned q = tau * w scales exactly with tau.
4.                      p = pi + q.

At tau = 0 steps 3-4 give q = 0 and p = pi is the formal limit solution.
Step 3 is ``solve_micro``.  A node potential l with q = dhstar(l) exists
by construction, but nothing downstream needs it, so it is never formed.
The tests check the decomposition against an independent tau > 0 oracle,
a sparse direct solve of the assembled cell system.

The normal operator N1 of step 1 depends only on the field and the grid.
``solve_micro_macro``, the per-step solver of a time stepper, factors it
once (sparse LU with a symmetric minimum-degree ordering) and keeps the
factor on the cached operator set, so every later macro solve is one
triangular solve plus one step of iterative refinement.  One-shot callers
of ``macro_potential`` get unpreconditioned CG instead: two solves per
grid do not repay a factor whose fill costs more memory than the solves.
Step 3 always uses CG: its coefficient changes from solve to solve.  No
solve is warm-started, so a solution depends only on its problem.

Both Krylov operators are products with the cached interior block DE of
the assembled dhstar: N1 = DE^T DE and A_H = DE diag(H) DE^T, which is
-dhstar(H dh(.)) with the flux zeroed on boundary nodes.  The macro
right-hand side dh(f) and the kernel check dh(pi) stay on the matrix-free
stencil: it maps constants to exactly 0, while DE^T, whose merged entries
round, leaves about 1e-14 on a curved field.

``MicroMacroSolution.regime`` is tau*lam over the operator's eigenvalue
scale; above 1 the shift dominates and a plain direct solve of the cell
system would serve as well as the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid
from .stencil import MagneticField, apply_dh, apply_dhstar, get_operator_set

SOLVER_RTOL = 1e-12


class SolverError(RuntimeError):
    """Linear solver failed to reach the requested tolerance."""


@dataclass
class AnisoDiffusionProblem:
    field: MagneticField
    coeff: np.ndarray          # H at nodes, > 0
    lam: float
    tau: float
    rhs: np.ndarray            # f at cells

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if not np.all(self.coeff > 0.0):
            raise ValueError("coefficient must be positive everywhere")


@dataclass
class MicroMacroSolution:
    p: np.ndarray
    pi: np.ndarray
    q: np.ndarray
    iterations: dict = dataclass_field(default_factory=dict)
    kernel_residual: float = 0.0
    regime: float = 0.0        # tau*lam / operator eigenvalue scale


def _cg_solve(A, b, rtol: float, label: str = "cg") -> tuple[np.ndarray, int]:
    """CG from a zero start, with iteration count."""
    if not np.any(b):
        return np.zeros_like(b), 0
    count = [0]

    def cb(_):
        count[0] += 1

    maxiter = max(200, 12 * b.size)
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, callback=cb)
    if info != 0:
        resid = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        raise SolverError(f"{label}: no convergence after {count[0]} iterations,"
                          f" relative residual {resid:.3e}")
    return x, count[0]


def _factor_spd(A):
    """Sparse LU of an SPD matrix: a symmetric ordering without pivoting
    keeps the fill low."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _factored_solve(lu, A, b, rtol: float) -> tuple[np.ndarray, int]:
    """Factor solve plus one refinement step; the count is refinement solves."""
    if not np.any(b):
        return np.zeros_like(b), 0
    x = lu.solve(b)
    x += lu.solve(b - A @ x)
    resid = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    if resid > rtol:
        raise SolverError(f"macro potential: factored solve left relative "
                          f"residual {resid:.3e}")
    return x, 1


def _embed_nodes(values_int: np.ndarray, ops, grid: Grid) -> np.ndarray:
    full = np.zeros(grid.num_nodes)
    full[ops.interior] = values_int
    return full.reshape(grid.shape_nodes)


def macro_potential(g: np.ndarray, field: MagneticField, grid: Grid,
                    rtol: float = SOLVER_RTOL) -> tuple[np.ndarray, int]:
    """Node potential h with -dh(dhstar(h)) = dh(g), h = 0 on the boundary.

    -dhstar(h) is then the orthogonal projection of the cell field g onto
    K_perp, and g + dhstar(h) its projection onto the kernel K.  Solved
    through the factor of N1 when the operator set holds one, else by CG.
    """
    ops = get_operator_set(field, grid)
    # matrix-free stencil annihilates constants exactly, unlike DE^T whose
    # merged entries round
    rhs = apply_dh(g, field, grid).ravel()[ops.interior]
    if ops.N1_lu is None:
        h_int, iters = _cg_solve(ops.N1, rhs, rtol, label="macro potential")
    else:
        h_int, iters = _factored_solve(ops.N1_lu, ops.N1, rhs, rtol)
    return _embed_nodes(h_int, ops, grid), iters


def solve_micro(field: MagneticField, coeff: np.ndarray, shift: float,
                rhs: np.ndarray, grid: Grid,
                rtol: float = SOLVER_RTOL) -> tuple[np.ndarray, int]:
    """Cell field w with (A_H + shift) w = rhs, A_H = -dhstar(coeff dh(.)).

    The micro step of the decomposition, with shift = tau*lam and rhs in
    K_perp; returns w and the CG iteration count.  A_H is applied as
    DE diag(coeff) DE^T over the interior nodes.
    """
    ops = get_operator_set(field, grid)
    c = coeff.ravel()[ops.interior]
    M = spla.LinearOperator(
        (grid.num_cells, grid.num_cells),
        matvec=lambda v: ops.DE @ (c * (ops.DEt @ v)) + shift * v)
    w, iters = _cg_solve(M, rhs.ravel(), rtol, label="micro part")
    return w.reshape(grid.shape_cells), iters


def solve_micro_macro(prob: AnisoDiffusionProblem, grid: Grid,
                      rtol: float = SOLVER_RTOL) -> MicroMacroSolution:
    """Solve the degenerate diffusion problem, uniformly in tau >= 0.

    Factors the macro operator of (field, grid) on first use; later calls
    on the same field and grid reuse the factor.
    """
    ops = get_operator_set(prob.field, grid)
    if ops.N1_lu is None:
        ops.N1_lu = _factor_spd(ops.N1)
    lam, tau = prob.lam, prob.tau
    op_scale = 4.0 * sum(1.0 / d**2 for d in grid.spacing) * float(prob.coeff.max())

    h, it_h = macro_potential(prob.rhs, prob.field, grid, rtol)
    dstar_h = apply_dhstar(h, prob.field, grid)

    pi = (prob.rhs + dstar_h) / lam
    kernel_resid = float(np.max(
        np.abs(apply_dh(pi, prob.field, grid).ravel()[ops.interior]),
        initial=0.0))
    kernel_tol = 1e-8 * float(np.max(np.abs(pi))) + 1e-12
    if kernel_resid > kernel_tol:
        raise SolverError(f"macro part escaped the discrete kernel "
                          f"({kernel_resid:.3e} > {kernel_tol:.3e}); "
                          "operator assembly inconsistent")

    if tau == 0.0:
        q = np.zeros(grid.shape_cells)
        it_w = 0
    else:
        w, it_w = solve_micro(prob.field, prob.coeff, tau * lam, -dstar_h,
                              grid, rtol)
        q = tau * w

    return MicroMacroSolution(p=pi + q, pi=pi, q=q,
                              iterations={"macro": it_h, "micro": it_w},
                              kernel_residual=kernel_resid,
                              regime=tau * lam / op_scale)
