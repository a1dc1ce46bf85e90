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
3. micro part q = tau * w, where w solves (A_H + tau*lam) w = -DE h.  w
   lies in K_perp, the range of DE, and is solved for its node potential
   z on the interior nodes: with s = tau*lam and w = DE z,
   (A_H + s) DE z = DE H (N1 + s/H) z, so the cell system is the SPD
   node system
                        (N1 + tau*lam/H) z = -h / H.
   Preconditioned by diag(H), its spectrum is that of A_H on K_perp, so
   CG stays well conditioned uniformly in tau and the returned
   q = tau * w scales exactly with tau.
4.                      p = pi + q.

pi does not depend on tau: it is the limit solution, and every solve
below regime 1 returns it.
Step 3 is ``solve_micro``, which ``solve_micro_macro`` and the manufactured
sweep (``harness.ManufacturedDiffusion``) share.  The tests check the
decomposition against an independent tau > 0 oracle, a sparse direct
solve of the assembled cell system.

The regime of a solve is tau*lam over the eigenvalue scale
``operator_scale`` of A_H at unit coefficient
(``MicroMacroSolution.regime``).  The split exists for the stiff limit
tau*lam -> 0.  At and above regime 1 (``shift_dominated``, the one test
that picks the branch and the factors an owner builds) the shift
dominates, and ``solve_micro_macro`` has no macro part: with s = tau*lam
and p = f/lam + r,

                        (A_H + s) r = DE (H dh(f)) / lam,

so r lies in K_perp, and r = tau * w is one ``solve_micro`` for the
node potential -H dh(f) / s, with no factor.  Its condition number on
K_perp is at most 1 + 1/regime, and |r| <= |P_perp f| / lam, so nothing
cancels.  Below regime 1 that K_perp part would lose about 1/regime of
its relative precision, which is why the split stays there.

A macro solve is CG on N1 preconditioned by its owner's factor, and a
complete factor takes one iteration.  The normal operator N1 of step 1
depends only on the field and the grid: its owner (a time stepper with
a problem below regime 1) builds its ``node_factor`` of shift 0 (sparse
LU, symmetric minimum-degree ordering) once and passes it to every
solve, and ``solve_micro_macro`` builds none.  With the exact inverse
as preconditioner the first CG step lands on the solution, and the
loop's own residual test confirms it.  The
manufactured sweep factors N1 per grid up to a node bound: its two
projections and every micro PCG of the grid use that factor.  Above the
bound a complete factor's fill costs more memory than the solves (at
200^2 it has 4.27M nonzeros, +53 MB of peak RSS), so the sweep builds
``incomplete_macro_factor`` instead, an incomplete LU with drop
tolerance ILU_DROP_TOL, and all four CGs of the grid are preconditioned
by it.  Complete and incomplete factors share one rule
(``_SPD_FACTOR_OPTIONS``): symmetric minimum-degree ordering, no
pivoting.  In the natural ordering the band of N1 is as wide as the grid,
and the incomplete LU fills it column by column before it drops
anything; the minimum-degree ordering keeps the fill local, so the
factor keeps more entries but builds in about half the time and
preconditions better.  At 200^2 it has 1.82M nonzeros, builds in
0.18-0.23 s and takes 4-5 iterations per CG, where plain CG took about
1100.  Its memory grows with the grid: the build lifts peak RSS by about
34 MB at 200^2, and a 300^2 sweep peaks at about 192 MB.  It is applied
through its symmetric part, because the incomplete factor alone is not
symmetric.
Every CG stops with a ``SolverError`` as soon as r.z or p.Ap turns
negative, so an indefinite preconditioner or operator fails at once
instead of running to its iteration limit.

A micro solve is CG on ``node_operator``, N1 + shift/H formed by adding
shift/H to the main diagonal of a copy of N1's diagonals.  A caller
holding a factor F of N1 + s I (s >= 0) preconditions it with F^-1;
without one, the preconditioner is diag(H), under which the iterates are
those of plain CG on D N1 D + shift, D = diag(sqrt(H)), in the variable
y = z / sqrt(H): a coefficient far from 1 costs unpreconditioned CG
more iterations.  The manufactured sweep passes its factor of N1
(s = 0): tau*lam is tiny against the spectrum of the node operator, so
PCG takes a few iterations.  The AP stepper passes, for its potential, a
``node_factor`` of N1 + tau*lam2: the coefficient node_average(n) stays
close to 1, so the two operators are spectrally equivalent.  The stepper
builds that factor only below regime 1, where the micro condition number
on K_perp, at most 1 + 1/regime, makes CG slow; above it CG converges in
a few iterations and no factor repays its build.  Every solve forms its
operator, and no solve is warm-started and no operator is cached, so a
solution depends only on its problem and the factors passed with it.

Every CG of the module, macro or micro, is one preconditioned loop
(``_cg_solve``) on a product callable: a zero start, vectors updated
in place in the arithmetic order of ``scipy.sparse.linalg.cg`` (so its
iterates are scipy's, bit for bit), stopped when ||r|| < SOLVER_RTOL
||b||.  Each solve reports that achieved ||r|| / ||b|| with its
iteration count.

Both Krylov operators live on the interior nodes and come from the cached
interior block DE of the assembled dhstar: N1 = DE^T DE, a nine-point
stencil stored on its diagonals (``dia_from_csr``), whose products read no
column indices, and the node operator on the same diagonals.  The cell
operator A_H = DE diag(H) DE^T is never formed.  Factors take ``.tocsc()``
of the node operator.  The data dh(f), of a macro or a shift-dominated
solve, and the kernel check dh(pi) stay on the matrix-free stencil: it
maps constants to exactly 0, while DE^T, whose merged entries round,
leaves about 1e-14 on a curved field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .stencil import MagneticField, apply_dh, apply_dhstar, \
    get_operator_set

SOLVER_RTOL = 1e-12        # relative residual that stops every CG
ILU_DROP_TOL = 3e-6        # drop tolerance of ``incomplete_macro_factor``


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
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not np.all(self.coeff > 0.0):
            raise ValueError("coefficient must be positive everywhere")


@dataclass
class MicroMacroSolution:
    """A solve's answer p = pi + q, with its counts and residuals.

    Below regime 1 pi is the macro part in the kernel K and q the micro
    part.  A shift-dominated solve has no macro part: pi is f/lam, q is
    the K_perp correction r, and it reports macro iterations 0, macro
    residual 0.0 and kernel residual 0.0.  Its regime is 1 or more
    exactly when the solve is shift-dominated.
    """

    p: np.ndarray
    pi: np.ndarray
    q: np.ndarray
    iterations: dict = dataclass_field(default_factory=dict)
    residuals: dict = dataclass_field(default_factory=dict)   # ||r|| / ||b||
    kernel_residual: float = 0.0
    regime: float = 0.0        # tau*lam / operator_scale(grid)


def _cg_solve(matvec, b: np.ndarray, label: str,
              psolve) -> tuple[np.ndarray, int, float]:
    """CG from a zero start to SOLVER_RTOL on the product v -> matvec(v),
    preconditioned by r -> psolve(r); returns the solution, the iteration
    count and the relative residual ||r|| / ||b|| that stopped it.

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
        z = psolve(r)
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


# SuperLU options of every factor, complete or incomplete, of an SPD
# matrix: a symmetric minimum-degree ordering without pivoting keeps the
# fill low and local
_SPD_FACTOR_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                       "options": {"SymmetricMode": True}}


def _factor_spd(A):
    """Sparse LU of an SPD matrix."""
    return spla.splu(A.tocsc(), **_SPD_FACTOR_OPTIONS)


class _SymmetricILU:
    """Incomplete LU of an SPD matrix, ordered like a complete factor,
    applied through its symmetric part 0.5 (M + M^T), M = (LU)^-1: M alone
    is not symmetric, and CG needs a symmetric preconditioner."""

    def __init__(self, A):
        self.ilu = spla.spilu(A.tocsc(), drop_tol=ILU_DROP_TOL,
                              fill_factor=4, drop_rule="basic",
                              **_SPD_FACTOR_OPTIONS)
        self.nnz = self.ilu.nnz

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = self.ilu.solve(r)
        z += self.ilu.solve(r, trans="T")
        z *= 0.5
        return z


def operator_scale(grid: Grid) -> float:
    """Eigenvalue scale of A_H at unit coefficient, the denominator of the
    regime tau*lam / scale."""
    return 4.0 * sum(1.0 / d**2 for d in grid.spacing)


def node_operator(field: MagneticField, grid: Grid, coeff: np.ndarray,
                  shift: float) -> sp.dia_matrix:
    """N1 + diag(shift / coeff) on the interior nodes, the operator of the
    micro node system, on a copy of the diagonals of N1."""
    ops = get_operator_set(field, grid)
    N1 = ops.N1
    data = N1.data.copy()
    data[list(N1.offsets).index(0)] += shift / coeff.ravel()[ops.interior]
    return sp.dia_matrix((data, N1.offsets), shape=N1.shape)


def node_factor(field: MagneticField, grid: Grid, shift: float):
    """Factor of N1 + shift I on the interior nodes: with shift 0 the
    macro factor of ``macro_potential``, with shift tau*lam the micro
    preconditioner of a coefficient close to 1."""
    return _factor_spd(node_operator(field, grid, np.ones(grid.shape_nodes),
                                     shift))


def incomplete_macro_factor(field: MagneticField, grid: Grid):
    """Symmetric incomplete factor of the macro operator N1 of (field,
    grid), the preconditioner of a ``macro_potential`` CG."""
    return _SymmetricILU(get_operator_set(field, grid).N1)


def shift_dominated(grid: Grid, shift: float) -> bool:
    """Whether a solve of shift tau*lam is at or above regime 1: the one
    test that picks the solve's branch and the factors an owner builds."""
    return shift >= operator_scale(grid)


def macro_potential(g: np.ndarray, field: MagneticField, grid: Grid,
                    lu) -> tuple[np.ndarray, int, float]:
    """Node potential h with -dh(dhstar(h)) = dh(g), h = 0 on the boundary,
    with the PCG iteration count and the achieved relative residual.

    -dhstar(h) is then the orthogonal projection of the cell field g onto
    K_perp, and g + dhstar(h) its projection onto the kernel K.  Solved by
    CG on N1 preconditioned by lu, a ``node_factor`` of shift 0 of (field,
    grid), which takes one iteration, or an ``incomplete_macro_factor``.
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


def solve_micro(h: np.ndarray, field: MagneticField, grid: Grid,
                coeff: np.ndarray, shift: float,
                lu=None) -> tuple[np.ndarray, int, float]:
    """Cell field w with (A_H + shift) w = -DE h, A_H = -dhstar(coeff dh(.)),
    for a node potential h; its boundary node layer is not read.

    The micro step of the decomposition, shift = tau*lam, solved for the
    node potential z of w = DE z on the interior nodes: CG on the
    ``node_operator`` system (N1 + shift/coeff) z = -h / coeff,
    preconditioned by lu, a complete or incomplete factor of N1 + s I,
    when given, and by diag(coeff) otherwise.  Returns w, the CG
    iteration count and the achieved relative residual of the node
    system.
    """
    ops = get_operator_set(field, grid)
    H = coeff.ravel()[ops.interior]
    A = node_operator(field, grid, coeff, shift)
    z, iters, resid = _cg_solve(
        A.dot, -h.ravel()[ops.interior] / H, "micro part",
        psolve=(lambda r: H * r) if lu is None else lu.solve)
    return (ops.DE @ z).reshape(grid.shape_cells), iters, resid


def solve_micro_macro(prob: AnisoDiffusionProblem, grid: Grid,
                      micro_lu=None, macro_lu=None) -> MicroMacroSolution:
    """Solve the degenerate diffusion problem, uniformly in tau > 0.

    Below regime 1 (``shift_dominated`` false) the solve is the
    micro-macro split of the module docstring.  macro_lu, a
    ``node_factor`` of shift 0 of the problem's field and grid,
    preconditions the macro PCG, which then takes one iteration; the
    solve builds no factor, so it needs one.  At and above regime 1 it
    has no macro part and reads no macro_lu: pi = f/lam, and the micro
    part q = tau * w, with (A_H + tau*lam) w = DE (H dh(f)) / (tau*lam),
    is the K_perp correction r of p = f/lam + r.

    micro_lu, a ``node_factor`` of shift tau*lam, preconditions the micro
    CG; without one the micro CG is preconditioned by the coefficient.
    """
    lam, tau = prob.lam, prob.tau
    shift = tau * lam

    if shift_dominated(grid, shift):
        pi = prob.rhs / lam
        h = -prob.coeff * apply_dh(prob.rhs, prob.field, grid) / shift
        it_h, res_h, kernel_resid = 0, 0.0, 0.0
    else:
        if macro_lu is None:
            raise ValueError("solve below regime 1 needs macro_lu, a "
                             "node_factor of shift 0 of its field and grid")
        h, it_h, res_h = macro_potential(prob.rhs, prob.field, grid,
                                         macro_lu)
        pi = (prob.rhs + apply_dhstar(h, prob.field, grid)) / lam
        interior = get_operator_set(prob.field, grid).interior
        kernel_resid = float(np.max(
            np.abs(apply_dh(pi, prob.field, grid).ravel()[interior]),
            initial=0.0))
        kernel_tol = 1e-8 * float(np.max(np.abs(pi))) + 1e-12
        if kernel_resid > kernel_tol:
            raise SolverError(f"macro part escaped the discrete kernel "
                              f"({kernel_resid:.3e} > {kernel_tol:.3e}); "
                              "operator assembly inconsistent")

    w, it_w, res_w = solve_micro(h, prob.field, grid, prob.coeff, shift,
                                 micro_lu)
    q = tau * w

    return MicroMacroSolution(
        p=pi + q, pi=pi, q=q,
        iterations={"macro": it_h, "micro": it_w},
        residuals={"macro": res_h, "micro": res_w},
        kernel_residual=kernel_resid,
        regime=shift / operator_scale(grid))
