"""One time step of the asymptotic-preserving two-fluid scheme.

A step advances (n, q_i, q_e, phi) by:

1. FV divergences of the explicit fluxes (perpendicular mass flux,
   convective momentum flux) for both species;
2. assembling the density source R and solving the aligned diffusion
   problem for n with lam1 = (1+eps) / (dt^2 (1+T_e));
3. assembling the potential source S (uses the new density) and solving
   the aligned diffusion problem for phi with coefficient n averaged to
   nodes and lam2 = T_e C / (dt^2 (1 + T_e));
4. updating the parallel momentum per species as one scalar along b:
   par (below) minus the stiff pressure + electric force, the cell
   average of the node scalar s whose dhstar the eliminations use;
5. updating the perpendicular momentum per species through the closed-form
   Lorentz rotation v - mu v x B = r with B = b, mu = -gamma, which is
   (I - gamma b x) q_perp = r_perp.

Layout: there is one.  Every kernel works on the (3, nx, ny) momentum
planes the state stores, the momentum update returns the planes the new
state stores, and the residual check (``step_residuals``) streams its
momentum terms one plane at a time.

Divergence composites div(b (b . v)) are realised as
dhstar(node_average(b_cell . v)), so momentum across b_cell carries no
parallel flux.  The explicit one takes par = b_cell . (q - dt mom), one
plane per species formed once per step and shared by the sources, the
momentum update and the residuals; the implicit one takes the node
scalar s and is exactly dhstar o dh, so the n/phi eliminations close.

The stiff force terms are evaluated literally (no analytic cancellation
of 1/tau): the diffusion solves keep the aligned gradients O(tau), so the
force stays O(1) uniformly in tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .diffusion import AnisoDiffusionProblem, SolverError, node_factor, \
    shift_dominated, solve_micro_macro
from .flux import fv_divergence
from .grid import Grid, PlasmaState, cell_from_nodes, cross, dot, \
    node_average
from .stencil import MagneticField, apply_dhstar, apply_grad_star

SPECIES = ("i", "e")


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless model and scheme constants.

    tau > 0: squared ion Mach number / rescaled gyro-period (both steppers
    evaluate the stiff 1/tau force as written); eps: electron to ion mass
    ratio; T_e: electron temperature (ion temperature is 1 by the scaling);
    C: quasi-neutrality regularization weight; dt: time step.
    """

    tau: float
    eps: float
    T_e: float
    C: float
    dt: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.T_e <= 0.0:
            raise ValueError("T_e must be positive (T_a, C_i and lam2 need "
                             "T_e > 0)")
        if self.C <= 0.0:
            raise ValueError("C must be positive (phi problem loses uniqueness)")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        for a in SPECIES:
            eta = self.eps_a(a) * self.tau    # may underflow to 0
            if not (eta > 0.0 and 1.0 / eta < math.inf):
                raise ValueError(f"1/(eps_a*tau) of species {a} must be "
                                 f"finite (eps = {self.eps!r}, tau = "
                                 f"{self.tau!r})")
        if not math.isfinite(self.C_e):
            raise ValueError(f"C_e = {self.C_e!r} must be finite (C = "
                             f"{self.C!r}, eps = {self.eps!r}, T_e = "
                             f"{self.T_e!r})")
        for name in ("lam1", "lam2"):
            try:
                lam = getattr(self, name)
            except ZeroDivisionError:     # dt*dt underflows to 0
                lam = math.inf
            if not 0.0 < lam < math.inf:
                raise ValueError(f"{name} = {lam!r} must be finite and "
                                 f"positive (dt = {self.dt!r}, C = "
                                 f"{self.C!r})")

    @property
    def C_i(self) -> float:
        return self.T_e * self.C / (1.0 + self.T_e)

    @property
    def C_e(self) -> float:
        return -self.T_e * self.C / (self.eps * (1.0 + self.T_e))

    @property
    def lam1(self) -> float:
        return (1.0 + self.eps) / (self.dt * self.dt * (1.0 + self.T_e))

    @property
    def lam2(self) -> float:
        # The species combination eliminating the aligned density force
        # weights the electric force by 1 + 1/T_e, hence the (1 + T_e)
        # denominator; the step residuals certify the constant.
        return self.T_e * self.C / (self.dt * self.dt * (1.0 + self.T_e))

    def eps_a(self, a: str) -> float:
        return 1.0 if a == "i" else self.eps

    def charge(self, a: str) -> float:
        return 1.0 if a == "i" else -1.0

    def T_a(self, a: str) -> float:
        return 1.0 if a == "i" else self.T_e

    def C_a(self, a: str) -> float:
        return self.C_i if a == "i" else self.C_e


@dataclass
class StepDiagnostics:
    """What a step reports: its diagnostics.csv values keyed by column
    name (none for the classical step), and its divergence flag and note."""

    values: dict = dataclass_field(default_factory=dict)
    diverged: bool = False
    note: str = ""


def solve_momentum_rotation(r, B, mu) -> np.ndarray:
    """Closed form of v - mu v x B = r,

        v = (r + mu r x B + mu^2 (r . B) B) / (1 + mu^2 |B|^2),

    on component planes: r and B are three planes each, and v is one new
    (3,) + plane-shape array; mu is a scalar or a per-cell array.
    """
    mu2 = np.multiply(mu, mu)
    s = mu2 * dot(r, B)
    den = 1.0 + mu2 * dot(B, B)
    rxB = cross(r, B)
    v = np.empty((3,) + np.shape(den))
    for k in range(3):
        # v[k, ...] is a view of v even when v holds a single vector
        np.divide(r[k] + mu * rxB[k] + s * B[k], den, out=v[k, ...])
    return v


def species_fv_divergence(state: PlasmaState, field: MagneticField,
                          grid: Grid) -> dict:
    """Explicit FV divergences per species: the mass plane (perp flux) and
    the three momentum planes."""
    out = {}
    for a in SPECIES:
        div = fv_divergence(state.n, state.q(a), field, grid)
        out[a] = {"mass": div[0], "mom": div[1:]}
    return out


def _div_parallel(v, field: MagneticField, grid: Grid) -> np.ndarray:
    """div(b (b . u)) composite of the cell plane v = b_cell . u: dhstar
    of node_average(v)."""
    return apply_dhstar(node_average(v, grid), field, grid)


def assemble_R(state: PlasmaState, par: dict, field: MagneticField,
               p: PhysParams, grid: Grid, fv: dict) -> np.ndarray:
    """Source of the density diffusion equation (explicit data only); par
    holds each species' explicit parallel momentum b_cell . (q - dt mom)
    and fv is the ``species_fv_divergence`` it was formed from."""
    dt, eps = p.dt, p.eps
    return ((1.0 + eps) / dt**2 * state.n
            - _div_parallel((par["i"] + eps * par["e"]) / dt, field, grid)
            - (fv["i"]["mass"] + eps * fv["e"]["mass"]) / dt) / (1.0 + p.T_e)


def assemble_S(state: PlasmaState, par: dict, n_new: np.ndarray,
               field: MagneticField, p: PhysParams, grid: Grid,
               fv: dict) -> np.ndarray:
    """Source of the potential diffusion equation (needs the new density);
    par and fv are as for ``assemble_R``."""
    dt, eps, Te = p.dt, p.eps, p.T_e
    r = eps / Te
    return (Te / (1.0 + Te)) * (
        (eps - Te) / (dt**2 * Te) * (n_new - state.n)
        + p.C / dt**2 * state.phi
        - _div_parallel((par["i"] - r * par["e"]) / dt, field, grid)
        - (fv["i"]["mass"] - r * fv["e"]["mass"]) / dt)


def stiff_force_terms(n: np.ndarray, phi: np.ndarray, field: MagneticField,
                      p: PhysParams, grid: Grid) -> dict:
    """Node-coupled stiff pressure + electric force at one time level.

    With n_star = node_average(n), returns per species a the triple
    (s, f_par, P_c): the node field s = T_a dh(n) + q_a n_star dh(phi),
    the force along b, f_par = cell average of s (one plane: the force
    points along b), and the cell average P_c (three planes) of the
    perpendicular term b x (q_a T_a grad n + n_star grad phi) / |B|.
    """
    n_star = node_average(n, grid)
    grad_n = apply_grad_star(n, grid)
    grad_phi = apply_grad_star(phi, grid)
    bx, by, bz = field.b_node_planes
    # apply_dh with the flux condition: zero on the boundary node layer
    dh_n, dh_phi = (np.where(grid.interior_node_mask, bx * gx + by * gy, 0.0)
                    for gx, gy in (grad_n, grad_phi))
    n_grad_phi = [n_star * g for g in grad_phi]
    terms = {}
    for a in SPECIES:
        qa, Ta = p.charge(a), p.T_a(a)
        s = Ta * dh_n + qa * n_star * dh_phi
        # b x (ux, uy, 0): the gradient on the 2D mesh has no z component
        ux, uy = (qa * Ta * g + ng for g, ng in zip(grad_n, n_grad_phi))
        P_node = (-(bz * uy), bz * ux, bx * uy - by * ux)
        P_c = tuple(cell_from_nodes(Pk / field.bmag_nodes, grid)
                    for Pk in P_node)
        terms[a] = (s, cell_from_nodes(s, grid), P_c)
    return terms


def update_momentum(a: str, q: np.ndarray, par: np.ndarray, fv: dict,
                    force: tuple, field: MagneticField,
                    p: PhysParams) -> np.ndarray:
    """New momentum planes of species a, one (3, nx, ny) array: q is its
    momentum planes, par its explicit parallel momentum b_cell . (q - dt
    mom), fv its ``species_fv_divergence`` entry and force its
    ``stiff_force_terms`` entry at the new time level; the parallel part
    is b_cell times one scalar."""
    qa, eta, dt = p.charge(a), p.eps_a(a) * p.tau, p.dt
    _, f_par, P_c = force
    b, bmag, mom = field.b_cell_planes, field.bmag_cells, fv["mom"]

    # perpendicular update; electric/pressure term node-coupled
    coeff = qa * eta / bmag
    bxw = cross(b, [-qk / dt + mk for qk, mk in zip(q, mom)])
    r = [Pk + coeff * ck for Pk, ck in zip(P_c, bxw)]
    b_r = dot(b, r)
    r_perp = [rk - bk * b_r for rk, bk in zip(r, b)]
    q_new = solve_momentum_rotation(r_perp, b, -(qa * eta / (dt * bmag)))

    # parallel update; stiff force f_par along b via the node coupling
    q_par = par - (dt / eta) * f_par
    for bk, qk in zip(b, q_new):
        qk += bk * q_par
    return q_new


class APStepper:
    """AP stepper on a static field.  A step is a function of its input
    state alone: no solve is warm-started from an earlier step.

    The stepper builds and owns its factors.  Its shifts tau*lam1 and
    tau*lam2 are fixed, so ``diffusion.shift_dominated`` decides once
    which branch each of its two diffusion problems takes and which
    factors it builds, and no step factors anything.  A shift-dominated
    problem is one micro solve, with no macro part and no factor.  When
    at least one problem is below regime 1, the stepper factors the
    field's macro operator N1 for the macro parts.  Each micro part is
    solved for its node potential (``diffusion.solve_micro``), on an
    operator the solve forms.  The density's coefficient is 1, so its
    micro CG is plain CG.  Below regime 1 the
    potential's micro CG is preconditioned by the stepper's factor of
    N1 + tau*lam2, which depends on tau, dt and C and is spectrally
    equivalent while the coefficient node_average(n) stays close to 1."""

    def __init__(self, params: PhysParams, grid: Grid, field: MagneticField):
        self.params = params
        self.grid = grid
        self.field = field
        shifts = (params.tau * params.lam1, params.tau * params.lam2)
        self.macro_lu = None
        if not all(shift_dominated(grid, s) for s in shifts):
            self.macro_lu = node_factor(field, grid, 0.0)
        self.phi_lu = None
        if not shift_dominated(grid, shifts[1]):
            self.phi_lu = node_factor(field, grid, shifts[1])

    def step(self, state: PlasmaState) -> tuple[PlasmaState, StepDiagnostics]:
        p, grid, field = self.params, self.grid, self.field
        diag = StepDiagnostics()
        t_new = state.t + p.dt

        if not (state.is_finite() and np.all(state.n > 0.0)):
            diag.diverged, diag.note = True, "invalid input state"
            return state, diag

        fv = species_fv_divergence(state, field, grid)
        b = field.b_cell_planes
        par = {a: dot(b, state.q(a)) - p.dt * dot(b, fv[a]["mom"])
               for a in SPECIES}

        R = assemble_R(state, par, field, p, grid, fv)
        try:
            sol_n = solve_micro_macro(AnisoDiffusionProblem(
                field=field, coeff=np.ones(grid.shape_nodes), lam=p.lam1,
                tau=p.tau, rhs=R), grid, macro_lu=self.macro_lu)
            n_new = sol_n.p
            if not np.all(np.isfinite(n_new)) or np.any(n_new <= 0.0):
                diag.diverged, diag.note = True, "density lost positivity"
                return state, diag

            S = assemble_S(state, par, n_new, field, p, grid, fv)
            sol_phi = solve_micro_macro(AnisoDiffusionProblem(
                field=field, coeff=node_average(n_new, grid), lam=p.lam2,
                tau=p.tau, rhs=S), grid, micro_lu=self.phi_lu,
                macro_lu=self.macro_lu)
        except SolverError as exc:
            # recorded as divergence, so one stalled solve ends only this run
            diag.diverged, diag.note = True, str(exc)
            return state, diag
        phi_new = sol_phi.p
        if not np.all(np.isfinite(phi_new)):
            diag.diverged, diag.note = True, "potential diverged"
            return state, diag

        forces = stiff_force_terms(n_new, phi_new, field, p, grid)
        q_new = {a: update_momentum(a, state.q(a), par[a], fv[a], forces[a],
                                    field, p)
                 for a in SPECIES}
        new = PlasmaState(n_new, q_new["i"], q_new["e"], phi_new, t_new)
        if not new.is_finite():
            diag.diverged, diag.note = True, "momentum diverged"
            return new, diag

        diag.values = step_residuals(state, new, par, field, p, grid, fv,
                                     forces)
        for slot, sol in (("n", sol_n), ("phi", sol_phi)):
            for part, count in sol.iterations.items():
                diag.values[f"iters_{slot}_{part}"] = count
                diag.values[f"resid_{slot}_{part}"] = sol.residuals[part]
            diag.values[f"regime_{slot}"] = sol.regime
            diag.values[f"kernel_{slot}"] = sol.kernel_residual
        return new, diag


def step_residuals(state_m: PlasmaState, state_new: PlasmaState,
                   par: dict, field: MagneticField, p: PhysParams, grid: Grid,
                   fv: dict, forces: dict) -> dict:
    """Plug both time levels into the discrete equations.

    par holds each species' explicit parallel momentum b_cell . (q - dt
    mom) at state_m, fv is ``species_fv_divergence`` of state_m and
    forces is ``stiff_force_terms`` of (state_new.n, state_new.phi): the
    terms the step itself used.  Continuity uses the same realisations the
    eliminations used: explicit parallel flux via
    dhstar(node_average(par)), stiff force via the three-point composite
    dhstar(s).  Momentum recombines the parallel force b_cell f_par and
    the perpendicular force realisation into the full equation.  Residual
    norms are reported relative to the largest constituent term.  Returns
    the residual columns of diagnostics.csv per species a: continuity_a,
    its float64 floor continuity_floor_a, momentum_a and the
    aligned-derivative norm ap_node_a.

    The momentum check streams one component plane at a time: it forms
    that plane of each term, adds its squared norm to the term's, and
    sums the terms in place.  The norm of a vector field is therefore
    the root of its planes' squared norms summed in component order, and
    no (..., 3) array is built.  No input is modified.
    """
    dt = p.dt
    b_c, bmag = field.b_cell_planes, field.bmag_cells
    B_c = [bk * bmag for bk in b_c]

    def l2(x):
        return float(np.linalg.norm(x))

    def sq(x):
        """Squared norm of a plane, as np.linalg.norm sums it."""
        x = x.ravel()
        return float(np.dot(x, x))

    # species-independent continuity terms
    dn_dt = (state_new.n - state_m.n) / dt
    dphi = state_new.phi - state_m.phi
    n_norm = l2(state_new.n)
    eps_m = np.finfo(float).eps

    # a species' planes are freed when its helper returns, so those of
    # the two species never coexist
    def continuity(a, eta, s):
        """Norm of the continuity residual of species a and the largest
        norm of its terms."""
        w = node_average(par[a], grid) - (dt / eta) * s
        terms = [dn_dt,
                 p.C_a(a) * dphi / dt,
                 apply_dhstar(w, field, grid),
                 fv[a]["mass"]]
        return l2(sum(terms)), max(l2(t) for t in terms)

    def momentum(a, eta, f_par, P_c):
        """Norms of the four momentum terms of species a (dq/dt, mom, the
        force (b f_par - q_a |B| b x P_c) / eta and the Lorentz term
        -(q_a / eta) q x B), of the Lorentz bound |B| q and of the
        residual ((t0 + t1) + t2) + t3, each summed over the component
        planes in order."""
        qa, mom = p.charge(a), fv[a]["mom"]
        q1, q0 = state_new.q(a), state_m.q(a)
        coeff = -qa * bmag
        sums = [0.0] * 6
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            force = b_c[i] * P_c[j]
            force -= b_c[j] * P_c[i]
            force *= coeff
            force += b_c[k] * f_par
            force /= eta
            lorentz = q1[i] * B_c[j]
            lorentz -= q1[j] * B_c[i]
            lorentz *= -(qa / eta)
            total = q1[k] - q0[k]
            total /= dt
            for m, t in enumerate((total, mom[k], force, lorentz)):
                sums[m] += sq(t)
            sums[4] += sq(bmag * q1[k])
            total += mom[k]
            total += force
            total += lorentz
            sums[5] += sq(total)
        return [math.sqrt(x) for x in sums]

    values = {}
    for a in SPECIES:
        Ta, eta = p.T_a(a), p.eps_a(a) * p.tau
        s, f_par, P_c = forces[a]

        resid, scale = continuity(a, eta, s)
        values[f"continuity_{a}"] = resid / scale if scale > 0 else 0.0
        # smallest relative residual resolvable in float64: the stored
        # density is rounded to machine epsilon of its own magnitude, and
        # the identity divides that by dt (plus the stiff-force echo)
        stiff_echo = 1.0 + 4.0 * Ta * dt**2 * sum(
            1.0 / d**2 for d in grid.spacing) / eta
        floor = eps_m * n_norm / dt * stiff_echo
        values[f"continuity_floor_{a}"] = floor / scale if scale > 0 else 0.0

        *terms, bound, resid = momentum(a, eta, f_par, P_c)
        # the Lorentz bound keeps the relative residual meaningful when the
        # state is (near) stationary and every term degenerates to dust
        mscale = max(max(terms), bound / eta)
        values[f"momentum_{a}"] = resid / mscale if mscale > 0 else 0.0
        values[f"ap_node_{a}"] = l2(s)
    return values
