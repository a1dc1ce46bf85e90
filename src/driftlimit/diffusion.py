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
by construction.  ``solve_micro_macro`` solves for w and never forms l;
the manufactured sweep (``harness.ManufacturedDiffusion``) solves for l
instead, through an equivalent SPD node system preconditioned by its N1
factor, and forms q from it.  The tests check the decomposition against
an independent tau > 0 oracle, a sparse direct solve of the assembled
cell system.

A macro solve is CG on N1 preconditioned by its owner's factor, and a
complete factor takes one iteration.  The normal operator N1 of step 1
depends only on the field and the grid: a time stepper builds its
``macro_factor`` (sparse LU, symmetric minimum-degree ordering) once, and
``solve_micro_macro`` called without one builds it for its single solve.
With the exact inverse as preconditioner the first CG step lands on the
solution, and the loop's own residual test confirms it.  The manufactured
sweep factors N1 per grid up to a node bound: its two projections and
every micro PCG of the grid use that factor.  Above the bound a complete
factor's fill costs more memory than the solves (at 200^2 it has 4.27M
nonzeros, +53 MB of peak RSS), so the sweep builds
``incomplete_macro_factor`` instead, an incomplete LU in the natural
ordering with drop tolerance ILU_DROP_TOL (0.67M nonzeros at 200^2), and
all four CGs of the grid are preconditioned by it: 9 iterations each at
200^2, where plain CG took about 1100.  It is applied through its
symmetric part, because the incomplete factor alone is not symmetric.
Every CG stops with a ``SolverError`` as soon as r.z or p.Ap turns
negative, so an indefinite preconditioner or operator fails at once
instead of running to its iteration limit.

Every CG of the module, macro or micro, preconditioned or not, is one
loop (``_cg_solve``) on a product callable: a zero start, vectors updated
in place in the arithmetic order of ``scipy.sparse.linalg.cg`` (so its
iterates are scipy's, bit for bit), stopped when ||r|| < SOLVER_RTOL
||b||.  Each solve reports that achieved ||r|| / ||b|| with its
iteration count.

Step 3 is CG on the micro operator its caller passes.  An owner whose
coefficient stays fixed over many solves assembles A_H + shift once with
``micro_matrix``, one sparse product per CG iteration: the AP stepper for
its density (unit coefficient).  A coefficient used for one solve, such as
the AP potential's node-averaged density, goes through ``micro_operator``,
the matrix-free product.  A caller that solves many micro problems with one
shift can precondition that CG with ``micro_factor``, a factor of the
unit-coefficient operator A_1 + shift: the AP stepper does so for its
potential, whose coefficient stays close to 1, so the two operators are
spectrally equivalent and PCG converges in a few iterations.  Matrix and
factor are built only below regime 1 (see below), where the micro
condition number on K_perp, at most 1 + 1/regime, makes plain CG slow;
above it CG converges in a few iterations and neither repays its
assembly.  No solve is warm-started and no operator is cached, so a
solution depends only on its problem and the operators passed with it.

Both Krylov operators are products with the cached interior block DE of
the assembled dhstar: N1 = DE^T DE and A_H = DE diag(H) DE^T, which is
-dhstar(H dh(.)) with the flux zeroed on boundary nodes.  Both are
nine-point stencils on the structured mesh, so the assembled N1 and
``micro_matrix`` are stored on their nine diagonals (``dia_from_csr``):
a DIA product reads no column indices, and at 100^2 takes about 45-65 us
where the CSR product takes 60-100 us.  Factors take ``.tocsc()`` of the
same operators.  The macro
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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .stencil import MagneticField, apply_dh, apply_dhstar, dia_from_csr, \
    get_operator_set

SOLVER_RTOL = 1e-12        # relative residual that stops every CG
ILU_DROP_TOL = 1e-4        # drop tolerance of ``incomplete_macro_factor``


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
    residuals: dict = dataclass_field(default_factory=dict)   # ||r|| / ||b||
    kernel_residual: float = 0.0
    regime: float = 0.0        # tau*lam / operator eigenvalue scale


def _cg_solve(matvec, b: np.ndarray, label: str = "cg",
              psolve=None) -> tuple[np.ndarray, int, float]:
    """CG from a zero start to SOLVER_RTOL on the product v -> matvec(v),
    preconditioned by psolve if given; returns the solution, the
    iteration count and the relative residual ||r|| / ||b|| that stopped
    it.

    One loop with its vectors updated in place, in the arithmetic order of
    ``scipy.sparse.linalg.cg``, so its iterates are those of scipy's.  A
    negative r.z or p.Ap, which no SPD pair gives, raises at once.
    """
    if not np.any(b):
        return np.zeros_like(b), 0, 0.0
    b_norm = np.linalg.norm(b)
    tol = SOLVER_RTOL * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    p = np.empty_like(b)
    step = np.empty_like(b)
    rho_prev = 1.0
    maxiter = max(200, 12 * b.size)
    for it in range(maxiter):
        r_norm = np.sqrt(np.dot(r, r))
        if r_norm < tol:
            return x, it, float(r_norm / b_norm)
        z = r if psolve is None else psolve(r)
        rho = np.dot(r, z)
        # strict comparisons: an exact 0 or a NaN takes the usual path
        if rho < 0.0:
            raise SolverError(f"{label}: preconditioner not positive at "
                              f"iteration {it}")
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p[:] = z
        q = matvec(p)
        curvature = np.dot(p, q)
        if curvature < 0.0:
            raise SolverError(f"{label}: operator not positive at "
                              f"iteration {it}")
        alpha = rho / curvature
        np.multiply(alpha, p, out=step)
        x += step
        np.multiply(alpha, q, out=step)
        r -= step
        rho_prev = rho
    resid = np.linalg.norm(b - matvec(x)) / b_norm
    raise SolverError(f"{label}: no convergence after {maxiter} iterations,"
                      f" relative residual {resid:.3e}")


def _factor_spd(A):
    """Sparse LU of an SPD matrix: a symmetric ordering without pivoting
    keeps the fill low."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class _SymmetricILU:
    """Incomplete LU of an SPD matrix in a symmetric ordering, applied
    through its symmetric part 0.5 (M + M^T), M = (LU)^-1: M alone is not
    symmetric, and CG needs a symmetric preconditioner."""

    def __init__(self, A):
        self.ilu = spla.spilu(A.tocsc(), drop_tol=ILU_DROP_TOL,
                              fill_factor=4, permc_spec="NATURAL",
                              diag_pivot_thresh=0.0, drop_rule="basic",
                              options={"SymmetricMode": True})

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = self.ilu.solve(r)
        z += self.ilu.solve(r, trans="T")
        z *= 0.5
        return z


def operator_scale(grid: Grid, coeff_max: float = 1.0) -> float:
    """Eigenvalue scale of A_H, the denominator of the regime tau*lam / scale."""
    return 4.0 * sum(1.0 / d**2 for d in grid.spacing) * coeff_max


def macro_factor(field: MagneticField, grid: Grid):
    """Factor of the macro operator N1 of (field, grid) for ``macro_lu``."""
    return _factor_spd(get_operator_set(field, grid).N1)


def incomplete_macro_factor(field: MagneticField, grid: Grid):
    """Symmetric incomplete factor of the macro operator N1 of (field,
    grid), the preconditioner of a ``macro_potential`` CG."""
    return _SymmetricILU(get_operator_set(field, grid).N1)


def micro_operator(field: MagneticField, coeff: np.ndarray, shift: float,
                   grid: Grid):
    """A_H + shift, A_H = -dhstar(coeff dh(.)), as the matrix-free product
    v -> DE (c * (DE^T v)) + shift v over the interior nodes, for a
    coefficient used in one solve."""
    ops = get_operator_set(field, grid)
    c = coeff.ravel()[ops.interior]
    return lambda v: ops.DE @ (c * (ops.DEt @ v)) + shift * v


def micro_matrix(field: MagneticField, coeff: np.ndarray, shift: float,
                 grid: Grid):
    """A_H + shift assembled as DE diag(c) DE^T + shift I and stored on its
    nine diagonals, for a coefficient fixed over many solves; None at
    regime >= 1, where plain CG already converges in a few matrix-free
    products."""
    if shift >= operator_scale(grid, float(np.max(coeff))):
        return None
    ops = get_operator_set(field, grid)
    c = coeff.ravel()[ops.interior]
    return dia_from_csr(ops.DE @ sp.diags(c) @ ops.DEt
                        + shift * sp.identity(grid.num_cells, format="csr"))


def micro_factor(field: MagneticField, grid: Grid, shift: float):
    """Factor of the unit-coefficient micro operator A_1 + shift on cells,
    the preconditioner of ``solve_micro``; None at regime >= 1."""
    A = micro_matrix(field, np.ones(grid.shape_nodes), shift, grid)
    return None if A is None else _factor_spd(A)


def macro_potential(g: np.ndarray, field: MagneticField, grid: Grid,
                    lu) -> tuple[np.ndarray, int, float]:
    """Node potential h with -dh(dhstar(h)) = dh(g), h = 0 on the boundary,
    with the PCG iteration count and the achieved relative residual.

    -dhstar(h) is then the orthogonal projection of the cell field g onto
    K_perp, and g + dhstar(h) its projection onto the kernel K.  Solved by
    CG on N1 preconditioned by lu, a ``macro_factor`` of (field, grid),
    which takes one iteration, or an ``incomplete_macro_factor``.
    """
    ops = get_operator_set(field, grid)
    # matrix-free stencil annihilates constants exactly, unlike DE^T whose
    # merged entries round
    rhs = apply_dh(g, field, grid).ravel()[ops.interior]
    h_int, iters, resid = _cg_solve(ops.N1.dot, rhs, "macro potential",
                                    psolve=lu.solve)
    h = np.zeros(grid.num_nodes)
    h[ops.interior] = h_int
    return h.reshape(grid.shape_nodes), iters, resid


def solve_micro(matvec, rhs: np.ndarray,
                lu=None) -> tuple[np.ndarray, int, float]:
    """Cell field w with A w = rhs, where matvec applies A = A_H + shift: a
    ``micro_operator`` or the product of a ``micro_matrix``.

    The micro step of the decomposition, with shift = tau*lam and rhs in
    K_perp; returns w, the CG iteration count and the achieved relative
    residual.  lu, a ``micro_factor`` of the same shift, preconditions the
    CG.  Any SPD product and any object with a ``solve`` approximating its
    inverse serve: the manufactured sweep passes its node form of the
    micro step.
    """
    w, iters, resid = _cg_solve(matvec, rhs.ravel(), label="micro part",
                                psolve=None if lu is None else lu.solve)
    return w.reshape(rhs.shape), iters, resid


def solve_micro_macro(prob: AnisoDiffusionProblem, grid: Grid,
                      micro_lu=None, macro_lu=None,
                      micro_A=None) -> MicroMacroSolution:
    """Solve the degenerate diffusion problem, uniformly in tau >= 0.

    macro_lu, a ``macro_factor`` of the problem's field and grid,
    preconditions the macro PCG, which then takes one iteration; without
    one the solve factors N1 itself.  micro_A, a ``micro_matrix`` of the
    problem's coefficient and shift tau*lam, is the micro operator, else
    ``micro_operator`` applies it matrix-free; micro_lu, a
    ``micro_factor`` of shift tau*lam, preconditions the micro CG.
    """
    ops = get_operator_set(prob.field, grid)
    lam, tau = prob.lam, prob.tau
    op_scale = operator_scale(grid, float(prob.coeff.max()))

    if macro_lu is None:
        macro_lu = macro_factor(prob.field, grid)
    h, it_h, res_h = macro_potential(prob.rhs, prob.field, grid, macro_lu)
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
        it_w, res_w = 0, 0.0
    else:
        matvec = (micro_operator(prob.field, prob.coeff, tau * lam, grid)
                  if micro_A is None else micro_A.dot)
        w, it_w, res_w = solve_micro(matvec, -dstar_h, micro_lu)
        q = tau * w

    return MicroMacroSolution(p=pi + q, pi=pi, q=q,
                              iterations={"macro": it_h, "micro": it_w},
                              residuals={"macro": res_h, "micro": res_w},
                              kernel_residual=kernel_resid,
                              regime=tau * lam / op_scale)
