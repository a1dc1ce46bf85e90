"""Test-only oracles.

The micro-macro solver never assembles the cell operator; the first two
helpers do, and solve the tau > 0 cell system with a sparse LU, so the
decomposition can be checked against an independent direct solve.
``manufactured_problem`` states the manufactured sweep's deviation-form
problem for that solver and that oracle, and ``direct_macro_potential``
solves the macro potential with a sparse direct solve of N1.

``scipy_cg_solve`` is the CG solve the package ran before it had its own
loop: ``scipy.sparse.linalg.cg`` with an iteration-counting callback.
The package's in-place CG keeps scipy's arithmetic order, and is checked
against it for identical iterates.

``scaled_node_operator`` and ``ScaledFactor`` are the micro node system
the package solved before it solved for the node potential z itself: the
scaled potential y = z / sqrt(H), on the operator D N1 D + shift with
D = diag(sqrt(H)), preconditioned by D^-1 F^-1 D^-1 for a factor F.
``scaled_micro_solve`` runs that system's (P)CG, against which the
package's micro solve is checked for equal iteration counts and
solutions.

``ghost_fv_divergence`` is the Rusanov divergence written on the
(..., 3) vector layout with a copy-ghost ring around the state, against
which the component-plane kernel of ``driftlimit.flux`` is checked.

``interleave`` stacks component planes into a (..., 3) vector field,
``components`` splits one into contiguous planes (the tests draw random
momenta in the (..., 3) form), and ``q_vector`` is the (..., 3) view of
a state's momentum planes, through which the oracles below read the
state.

The rest are the step kernels written on the (..., 3) vector layout with
``einsum`` dots, ``np.cross`` and a node gradient that carries a zero z
component: ``stiff_force_terms``, ``ap_momentum_update`` (both species),
``step_residuals``, ``_div_parallel`` and ``central_gradient``, against
which the component-plane kernels of ``driftlimit.ap_stepper`` and
``driftlimit.classical`` are checked.  Their ``fv`` entries and forces
are vectors too: ``fv[a]["mom"]`` and ``P_c`` have shape (..., 3); the
force along b, ``f_par``, is one cell plane.

``write_field_csv`` is the field dump that formats each cell's
coordinates in every call, against whose bytes the template writer of
``driftlimit.grid`` is checked.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftlimit.ap_stepper import SPECIES, PhysParams, PlasmaState
from driftlimit.diffusion import SOLVER_RTOL, AnisoDiffusionProblem, \
    SolverError
from driftlimit.grid import Grid, _avg_pairs, _check_cell_shape, \
    _check_node_shape, _diff_pairs, cell_from_nodes, node_average, pad_cells
from driftlimit.stencil import MagneticField, apply_dh, apply_dhstar, \
    get_operator_set


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
    return (ops.DE @ sp.diags(coeff.ravel()[ops.interior]) @ ops.DE.T).tocsr()


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


def manufactured_problem(m, tau: float) -> AnisoDiffusionProblem:
    """Deviation-form problem of the ``ManufacturedDiffusion`` m at tau,
    with its prepared source: the tau-independent part is the K_perp
    projection -dhstar(h_g) of the aligned-flux divergence."""
    g_perp = -apply_dhstar(m.h_g, m.field, m.grid)
    return AnisoDiffusionProblem(field=m.field, coeff=m.H_nodes, lam=m.lam,
                                 tau=tau, rhs=m.lam * tau * m.p1 + g_perp)


def direct_macro_potential(g: np.ndarray, field: MagneticField,
                           grid: Grid) -> np.ndarray:
    """Node potential h with -dh(dhstar(h)) = dh(g), h = 0 on the boundary,
    by a sparse direct solve of N1."""
    ops = get_operator_set(field, grid)
    h = np.zeros(grid.num_nodes)
    h[ops.interior] = spla.spsolve(
        ops.N1.tocsc(), apply_dh(g, field, grid).ravel()[ops.interior])
    return h.reshape(grid.shape_nodes)


def scipy_cg_solve(A, b, label: str = "cg", M=None) -> tuple[np.ndarray, int]:
    """CG from a zero start to SOLVER_RTOL, preconditioned by M if given,
    with iteration count."""
    if not np.any(b):
        return np.zeros_like(b), 0
    count = [0]

    def cb(_):
        count[0] += 1

    maxiter = max(200, 12 * b.size)
    x, info = spla.cg(A, b, rtol=SOLVER_RTOL, atol=0.0, maxiter=maxiter,
                      M=M, callback=cb)
    if info != 0:
        resid = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        raise SolverError(f"{label}: no convergence after {count[0]} iterations,"
                          f" relative residual {resid:.3e}")
    return x, count[0]


def scaled_node_operator(field: MagneticField, grid: Grid,
                         coeff: np.ndarray, shift: float) -> sp.dia_matrix:
    """D N1 D + shift I with D = diag(sqrt(coeff)) on the interior nodes,
    the operator of the micro node system, on the diagonals of N1: the
    entry (j - o, j) of the diagonal at offset o scales by d[j - o] d[j],
    and the slots of a diagonal that fall outside the matrix stay 0."""
    ops = get_operator_set(field, grid)
    N1, d = ops.N1, np.sqrt(coeff.ravel()[ops.interior])
    n = d.size
    data = N1.data * d
    for k, offset in enumerate(N1.offsets):
        if offset >= 0:
            data[k, offset:] *= d[:n - offset]
        else:
            data[k, :n + offset] *= d[-offset:]
    data[list(N1.offsets).index(0)] += shift
    return sp.dia_matrix((data, N1.offsets), shape=N1.shape)


class ScaledFactor:
    """D^-1 F^-1 D^-1 with D = diag(d), from lu, a complete or incomplete
    factor F of N1 + s I: the (approximate) inverse of D N1 D + shift, the
    preconditioner of a micro CG."""

    def __init__(self, lu, d: np.ndarray):
        self.lu, self.d = lu, d

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self.lu.solve(r / self.d) / self.d


def scaled_micro_solve(h: np.ndarray, field: MagneticField, grid: Grid,
                       coeff: np.ndarray, shift: float,
                       lu=None) -> tuple[np.ndarray, int]:
    """Cell field w with (A_H + shift) w = -DE h, by scipy's CG on the
    scaled node system (D N1 D + shift) y = -h / sqrt(coeff), w = DE D y,
    preconditioned by D^-1 F^-1 D^-1 when lu, a factor F, is given; with
    the CG iteration count."""
    ops = get_operator_set(field, grid)
    d = np.sqrt(coeff.ravel()[ops.interior])
    A = scaled_node_operator(field, grid, coeff, shift)
    M = None if lu is None else spla.LinearOperator(
        A.shape, matvec=ScaledFactor(lu, d).solve, dtype=float)
    y, iters = scipy_cg_solve(A, -h.ravel()[ops.interior] / d, M=M)
    return (ops.DE @ (d * y)).reshape(grid.shape_cells), iters


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


def apply_grad_star(p: np.ndarray, grid: Grid) -> np.ndarray:
    """Node gradient of a cell field; the z component is zero."""
    _check_cell_shape(p, grid)
    padded = pad_cells(p, grid)
    dx, dy = grid.spacing
    out = np.zeros(grid.shape_nodes + (3,))
    out[..., 0] = _avg_pairs(_diff_pairs(padded, 0, dx), 1)
    out[..., 1] = _diff_pairs(_avg_pairs(padded, 0), 1, dy)
    return out


def interleave(v) -> np.ndarray:
    """The (..., 3) vector field of three component planes."""
    return np.stack(v, axis=-1)


def components(v: np.ndarray) -> np.ndarray:
    """The three contiguous component planes of a (..., 3) vector field,
    as one array of shape (3, ...)."""
    return np.moveaxis(v, -1, 0).copy()


def q_vector(state: PlasmaState, a: str) -> np.ndarray:
    """The momentum of species a as an (nx, ny, 3) view of its planes."""
    return state.q_i if a == "i" else state.q_e


def _parallel(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    return b * np.einsum("...k,...k->...", b, v)[..., None]


def solve_momentum_rotation(r: np.ndarray, B: np.ndarray, mu) -> np.ndarray:
    """Closed form of v - mu v x B = r,

        v = (r + mu r x B + mu^2 (r . B) B) / (1 + mu^2 |B|^2),

    written per component on the planes r[..., k], B[..., k]; mu is a
    scalar or a per-cell array.
    """
    r = np.moveaxis(r, -1, 0)
    B = np.moveaxis(B, -1, 0)
    mu2 = np.multiply(mu, mu)
    s = mu2 * (r[0] * B[0] + r[1] * B[1] + r[2] * B[2])
    den = 1.0 + mu2 * (B[0] * B[0] + B[1] * B[1] + B[2] * B[2])
    rxB = (r[1] * B[2] - r[2] * B[1],
           r[2] * B[0] - r[0] * B[2],
           r[0] * B[1] - r[1] * B[0])
    return np.stack([(r[k] + mu * rxB[k] + s * B[k]) / den for k in range(3)],
                    axis=-1)


def _explicit_parallel(q: np.ndarray, mom: np.ndarray,
                       b_c: np.ndarray, dt: float) -> np.ndarray:
    """The explicit parallel momentum b_c . q - dt b_c . mom, one cell
    plane."""
    return (np.einsum("...k,...k->...", b_c, q)
            - dt * np.einsum("...k,...k->...", b_c, mom))


def _div_parallel(v_cells: np.ndarray, field: MagneticField,
                  grid: Grid) -> np.ndarray:
    """div(b (b . v)) composite: dhstar of node_average(b_cell . v)."""
    par = np.einsum("...k,...k->...", field.b_cells, v_cells)
    return apply_dhstar(node_average(par, grid), field, grid)


def stiff_force_terms(n: np.ndarray, phi: np.ndarray, field: MagneticField,
                      p: PhysParams, grid: Grid) -> dict:
    """Node-coupled stiff pressure + electric force at one time level.

    With n_star = node_average(n), returns per species a the triple
    (s, f_par, P_c): the node field s = T_a dh(n) + q_a n_star dh(phi),
    the force along b, f_par = cell average of s, and the cell average
    of the perpendicular term b x (q_a T_a grad n + n_star grad phi) / |B|.
    """
    n_star = node_average(n, grid)
    grad_n = apply_grad_star(n, grid)
    grad_phi = apply_grad_star(phi, grid)
    b_n = np.moveaxis(field.b_node_planes, 0, -1)
    # apply_dh with the flux condition: zero on the boundary node layer
    dh_n, dh_phi = (np.where(grid.interior_node_mask,
                             np.einsum("...k,...k->...", b_n, g), 0.0)
                    for g in (grad_n, grad_phi))
    terms = {}
    for a in SPECIES:
        qa, Ta = p.charge(a), p.T_a(a)
        s = Ta * dh_n + qa * n_star * dh_phi
        P_node = np.cross(
            b_n, qa * Ta * grad_n + n_star[..., None] * grad_phi) \
            / field.bmag_nodes[..., None]
        terms[a] = (s, cell_from_nodes(s, grid),
                    cell_from_nodes(P_node, grid))
    return terms


def ap_momentum_update(state: PlasmaState, fv: dict, forces: dict,
                       field: MagneticField, p: PhysParams) -> dict:
    """New momenta of both species, as the AP step forms them from the
    state, its FV divergences and the stiff force at the new level."""
    b_c, bmag_c = field.b_cells, field.bmag_cells

    q_new = {}
    for a in SPECIES:
        qa, eta, q = p.charge(a), p.eps_a(a) * p.tau, q_vector(state, a)
        _, f_par, P_c = forces[a]

        # parallel update: b_c times one scalar; stiff force along b
        q_par = b_c * (_explicit_parallel(q, fv[a]["mom"], b_c, p.dt)
                       - (p.dt / eta) * f_par)[..., None]

        # perpendicular update; electric/pressure term node-coupled
        r = P_c + (qa * eta / bmag_c)[..., None] * np.cross(
            b_c, -q / p.dt + fv[a]["mom"])
        r_perp = r - _parallel(r, b_c)
        gamma = qa * eta / (p.dt * bmag_c)
        q_perp = solve_momentum_rotation(r_perp, b_c, -gamma)

        q_new[a] = q_par + q_perp
    return q_new


def step_residuals(state_m: PlasmaState, state_new: PlasmaState,
                   field: MagneticField, p: PhysParams, grid: Grid,
                   fv: dict, forces: dict) -> dict:
    """Plug both time levels into the discrete equations.

    fv is ``species_fv_divergence`` of state_m and forces is
    ``stiff_force_terms`` of (state_new.n, state_new.phi): the terms the
    step itself used.  Continuity uses the same realisations the
    eliminations used: explicit parallel flux via dhstar(node_average(
    b_c . (q - dt mom))), stiff force via the three-point composite
    dhstar(s).  Momentum recombines the parallel and perpendicular force
    realisations into the full equation.  Residual norms are reported
    relative to the largest constituent term.  Returns the residual
    columns of diagnostics.csv per species a: continuity_a, its float64
    floor continuity_floor_a, momentum_a and the aligned-derivative norm
    ap_node_a.  The norm of a (..., 3) vector field is the root of the
    squared norms of its contiguous component planes, summed in
    component order.
    """
    values = {}
    dt = p.dt
    b_c = field.b_cells

    def l2(x):
        return float(np.linalg.norm(x))

    def l2_vector(v):
        planes = (np.ascontiguousarray(v[..., k]).ravel() for k in range(3))
        return float(np.sqrt(sum(np.dot(x, x) for x in planes)))

    for a in SPECIES:
        qa, Ta, eta = p.charge(a), p.T_a(a), p.eps_a(a) * p.tau
        s, f_par, P_c = forces[a]

        # continuity
        q0, q1 = q_vector(state_m, a), q_vector(state_new, a)
        par = _explicit_parallel(q0, fv[a]["mom"], b_c, dt)
        w = node_average(par, grid) - (dt / eta) * s
        terms = [(state_new.n - state_m.n) / dt,
                 p.C_a(a) * (state_new.phi - state_m.phi) / dt,
                 apply_dhstar(w, field, grid),
                 fv[a]["mass"]]
        scale = max(l2(t) for t in terms)
        values[f"continuity_{a}"] = l2(sum(terms)) / scale if scale > 0 \
            else 0.0
        # smallest relative residual resolvable in float64: the stored
        # density is rounded to machine epsilon of its own magnitude, and
        # the identity divides that by dt (plus the stiff-force echo)
        eps_m = np.finfo(float).eps
        stiff_echo = 1.0 + 4.0 * Ta * dt**2 * sum(
            1.0 / d**2 for d in grid.spacing) / eta
        floor = eps_m * l2(state_new.n) / dt * stiff_echo
        values[f"continuity_floor_{a}"] = floor / scale if scale > 0 else 0.0

        # momentum
        F_perp = -qa * field.bmag_cells[..., None] * np.cross(b_c, P_c)
        B_c = b_c * field.bmag_cells[..., None]
        mterms = [(q1 - q0) / dt,
                  fv[a]["mom"],
                  (b_c * f_par[..., None] + F_perp) / eta,
                  -(qa / eta) * np.cross(q1, B_c)]
        # the Lorentz bound keeps the relative residual meaningful when the
        # state is (near) stationary and every term degenerates to dust
        mscale = max(max(l2_vector(t) for t in mterms),
                     l2_vector(field.bmag_cells[..., None] * q1)
                     / eta)
        values[f"momentum_{a}"] = l2_vector(sum(mterms)) / mscale \
            if mscale > 0 else 0.0
        values[f"ap_node_{a}"] = l2(s)
    return values


def central_gradient(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order cell-centered gradient with copy ghosts; 3-vector output."""
    padded = pad_cells(u, grid)
    dx, dy = grid.spacing
    out = np.zeros(grid.shape_cells + (3,))
    out[..., 0] = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / (2 * dx)
    out[..., 1] = (padded[1:-1, 2:] - padded[1:-1, :-2]) / (2 * dy)
    return out


def write_field_csv(path, u: np.ndarray, grid: Grid):
    """Dump a cell field as CSV, one row per cell in row-major order.

    Header is ``x,y,value`` for scalars, ``x,y,vx,vy,vz`` for vectors;
    values carry 17 significant digits.
    """
    _check_cell_shape(u, grid)
    x, y = grid.cell_coords()
    table = np.column_stack((x.ravel(), y.ravel(),
                             u.reshape(grid.num_cells, -1)))
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("x,y,vx,vy,vz\n" if u.ndim == 3 else "x,y,value\n")
        fh.write((row_fmt * grid.num_cells) % tuple(table.ravel().tolist()))
