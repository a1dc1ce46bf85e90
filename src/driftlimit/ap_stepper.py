"""One time step of the asymptotic-preserving two-fluid scheme.

A step advances (n, q_i, q_e, phi) by:

1. FV divergences of the explicit fluxes (perpendicular mass flux,
   convective momentum flux) for both species;
2. assembling the density source R and solving the aligned diffusion
   problem for n with lam1 = (1+eps) / (dt^2 (1+T_e));
3. assembling the potential source S (uses the new density) and solving
   the aligned diffusion problem for phi with coefficient n averaged to
   nodes and lam2 = T_e C / (dt^2 (1 + T_e));
4. updating the parallel momentum per species, with the stiff pressure +
   electric force coupled through the node gradient and averaged back to
   cells;
5. updating the perpendicular momentum per species through the closed-form
   rotation solve (I - gamma b x) q_perp = r_perp.

Divergence composites of parallel vector fields, written div(b (b . v)),
are realised as dhstar(b_nodes . node_average(v)); applied to the implicit
force this reduces exactly to the three-point operator pair dhstar o dh,
which is what makes the n/phi eliminations close.

The stiff force terms are evaluated literally (no analytic cancellation
of 1/tau): the diffusion solves keep the aligned gradients O(tau), so the
force stays O(1) uniformly in tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .diffusion import AnisoDiffusionProblem, SolverError, solve_micro_macro
from .flux import fv_divergence
from .grid import Grid, cell_from_nodes, node_average
from .stencil import MagneticField, apply_dh, apply_dhstar, apply_grad_star

SPECIES = ("i", "e")


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless model and scheme constants.

    tau: squared ion Mach number / rescaled gyro-period; eps: electron to
    ion mass ratio; T_e: electron temperature (ion temperature is 1 by the
    scaling); C: quasi-neutrality regularization weight; dt: time step.
    """

    tau: float
    eps: float
    T_e: float
    C: float
    dt: float
    T_i: float = 1.0

    def __post_init__(self):
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.T_e == 1.0:
            raise ValueError("T_e = 1 makes lam2 singular (division by T_e - 1)")
        if self.T_e < 1.0:
            raise ValueError("T_e must exceed 1 so that lam2 > 0")
        if self.C <= 0.0:
            raise ValueError("C must be positive (phi problem loses uniqueness)")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def C_i(self) -> float:
        return self.T_e * self.C / (1.0 + self.T_e)

    @property
    def C_e(self) -> float:
        return -self.T_e * self.C / (self.eps * (1.0 + self.T_e))

    @property
    def lam1(self) -> float:
        return (1.0 + self.eps) / (self.dt**2 * (1.0 + self.T_e))

    @property
    def lam2(self) -> float:
        # The species combination eliminating the aligned density force
        # weights the electric force by 1 + 1/T_e, hence the (1 + T_e)
        # denominator; the step residuals certify the constant.
        return self.T_e * self.C / (self.dt**2 * (1.0 + self.T_e))

    def eps_a(self, a: str) -> float:
        return 1.0 if a == "i" else self.eps

    def charge(self, a: str) -> float:
        return 1.0 if a == "i" else -1.0

    def T_a(self, a: str) -> float:
        return self.T_i if a == "i" else self.T_e

    def C_a(self, a: str) -> float:
        return self.C_i if a == "i" else self.C_e


@dataclass
class PlasmaState:
    n: np.ndarray
    q_i: np.ndarray
    q_e: np.ndarray
    phi: np.ndarray
    t: float = 0.0

    def q(self, a: str) -> np.ndarray:
        return self.q_i if a == "i" else self.q_e

    def copy(self) -> "PlasmaState":
        return PlasmaState(self.n.copy(), self.q_i.copy(), self.q_e.copy(),
                           self.phi.copy(), self.t)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(f))
                   for f in (self.n, self.q_i, self.q_e, self.phi))


@dataclass
class StepDiagnostics:
    continuity: dict = dataclass_field(default_factory=dict)
    momentum: dict = dataclass_field(default_factory=dict)
    ap_node: dict = dataclass_field(default_factory=dict)
    iterations: dict = dataclass_field(default_factory=dict)
    # smallest relative continuity residual resolvable in float64: the
    # stored density is rounded to machine epsilon of its own magnitude,
    # and the identity divides that by dt (plus the stiff-force echo)
    continuity_floor: dict = dataclass_field(default_factory=dict)
    regime: dict = dataclass_field(default_factory=dict)
    kernel: dict = dataclass_field(default_factory=dict)
    diverged: bool = False
    note: str = ""


def _parallel(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    return b * np.einsum("...k,...k->...", b, v)[..., None]


def solve_perp_rotation(r_perp: np.ndarray, b: np.ndarray,
                        gamma) -> np.ndarray:
    """Closed form of (I - gamma b x) v = r_perp on the plane normal to b."""
    g = np.asarray(gamma, dtype=float)[..., None]
    return (r_perp + g * np.cross(b, r_perp)) / (1.0 + g * g)


def species_fv_divergence(state: PlasmaState, field: MagneticField,
                          grid: Grid) -> dict:
    """Explicit FV divergences per species: mass (perp flux) and momentum."""
    out = {}
    for a in SPECIES:
        div4 = fv_divergence(state.n, state.q(a), field, grid)
        out[a] = {"mass": div4[..., 0], "mom": div4[..., 1:]}
    return out


def _div_parallel(v_cells: np.ndarray, field: MagneticField,
                  grid: Grid) -> np.ndarray:
    """div(b (b . v)) composite: dhstar of b . node_average(v)."""
    w = np.einsum("...k,...k->...", field.b_nodes, node_average(v_cells, grid))
    return apply_dhstar(w, field, grid)


def assemble_R(state: PlasmaState, field: MagneticField, p: PhysParams,
               grid: Grid, fv: dict) -> np.ndarray:
    """Source of the density diffusion equation (explicit data only); fv
    is ``species_fv_divergence`` of the state."""
    dt, eps = p.dt, p.eps
    arg = (-(state.q_i + eps * state.q_e) / dt
           + fv["i"]["mom"] + eps * fv["e"]["mom"])
    return ((1.0 + eps) / dt**2 * state.n
            + _div_parallel(arg, field, grid)
            - (fv["i"]["mass"] + eps * fv["e"]["mass"]) / dt) / (1.0 + p.T_e)


def assemble_S(state: PlasmaState, n_new: np.ndarray, field: MagneticField,
               p: PhysParams, grid: Grid, fv: dict) -> np.ndarray:
    """Source of the potential diffusion equation (needs the new density);
    fv is ``species_fv_divergence`` of the state."""
    dt, eps, Te = p.dt, p.eps, p.T_e
    r = eps / Te
    arg = (-(state.q_i - r * state.q_e) / dt
           + fv["i"]["mom"] - r * fv["e"]["mom"])
    return (Te / (1.0 + Te)) * (
        (eps - Te) / (dt**2 * Te) * (n_new - state.n)
        + p.C / dt**2 * state.phi
        + _div_parallel(arg, field, grid)
        - (fv["i"]["mass"] - r * fv["e"]["mass"]) / dt)


def stiff_force_terms(n: np.ndarray, phi: np.ndarray, field: MagneticField,
                      p: PhysParams, grid: Grid) -> dict:
    """Node-coupled stiff pressure + electric force at one time level.

    With n_star = node_average(n), returns per species a the triple
    (s, F_par, P_c): the node field s = T_a dh(n) + q_a n_star dh(phi),
    the parallel force F_par = cell average of b s, and the cell average
    of the perpendicular term b x (q_a T_a grad n + n_star grad phi) / |B|.
    """
    n_star = node_average(n, grid)
    dh_n = apply_dh(n, field, grid, zero_boundary=True)
    dh_phi = apply_dh(phi, field, grid, zero_boundary=True)
    grad_n = apply_grad_star(n, grid)
    grad_phi = apply_grad_star(phi, grid)
    b_n = field.b_nodes
    terms = {}
    for a in SPECIES:
        qa, Ta = p.charge(a), p.T_a(a)
        s = Ta * dh_n + qa * n_star * dh_phi
        F_par = cell_from_nodes(b_n * s[..., None], grid)
        P_node = np.cross(
            b_n, qa * Ta * grad_n + n_star[..., None] * grad_phi) \
            / field.bmag_nodes[..., None]
        terms[a] = (s, F_par, cell_from_nodes(P_node, grid))
    return terms


class APStepper:
    """AP stepper on a static field.  A step is a function of its input
    state alone: no solve is warm-started from an earlier step.  Both
    diffusion solves share the factor of the field's macro operator, which
    the first solve builds and the operator cache keeps."""

    def __init__(self, params: PhysParams, grid: Grid, field: MagneticField):
        if params.tau <= 0.0:
            raise ValueError("the AP step evaluates the stiff force as written "
                             "and requires tau > 0")
        self.params = params
        self.grid = grid
        self.field = field

    def step(self, state: PlasmaState) -> tuple[PlasmaState, StepDiagnostics]:
        p, grid, field = self.params, self.grid, self.field
        diag = StepDiagnostics()
        t_new = state.t + p.dt

        if not (state.is_finite() and np.all(state.n > 0.0)):
            diag.diverged, diag.note = True, "invalid input state"
            return state, diag

        fv = species_fv_divergence(state, field, grid)

        R = assemble_R(state, field, p, grid, fv)
        try:
            sol_n = solve_micro_macro(AnisoDiffusionProblem(
                field=field, coeff=np.ones(grid.shape_nodes), lam=p.lam1,
                tau=p.tau, rhs=R), grid)
            n_new = sol_n.p
            if not np.all(np.isfinite(n_new)) or np.any(n_new <= 0.0):
                diag.diverged, diag.note = True, "density lost positivity"
                return state, diag

            S = assemble_S(state, n_new, field, p, grid, fv)
            sol_phi = solve_micro_macro(AnisoDiffusionProblem(
                field=field, coeff=node_average(n_new, grid), lam=p.lam2,
                tau=p.tau, rhs=S), grid)
        except SolverError as exc:
            # recorded as divergence, so one stalled solve ends only this run
            diag.diverged, diag.note = True, str(exc)
            return state, diag
        phi_new = sol_phi.p
        if not np.all(np.isfinite(phi_new)):
            diag.diverged, diag.note = True, "potential diverged"
            return state, diag

        forces = stiff_force_terms(n_new, phi_new, field, p, grid)
        b_c, bmag_c = field.b_cells, field.bmag_cells

        q_new = {}
        for a in SPECIES:
            qa, eta = p.charge(a), p.eps_a(a) * p.tau
            _, F_par, P_c = forces[a]

            # parallel update; stiff force via the node coupling
            q_par = (_parallel(state.q(a), b_c)
                     - p.dt * _parallel(fv[a]["mom"], b_c)
                     - (p.dt / eta) * F_par)

            # perpendicular update; electric/pressure term node-coupled
            r = P_c + (qa * eta / bmag_c)[..., None] * np.cross(
                b_c, -state.q(a) / p.dt + fv[a]["mom"])
            r_perp = r - _parallel(r, b_c)
            gamma = qa * eta / (p.dt * bmag_c)
            q_perp = solve_perp_rotation(r_perp, b_c, gamma)

            q_new[a] = q_par + q_perp

        new = PlasmaState(n=n_new, q_i=q_new["i"], q_e=q_new["e"],
                          phi=phi_new, t=t_new)
        if not new.is_finite():
            diag.diverged, diag.note = True, "momentum diverged"
            return new, diag

        diag = step_residuals(state, new, field, p, grid, fv, forces)
        diag.iterations = {"n": sol_n.iterations, "phi": sol_phi.iterations}
        diag.regime = {"n": sol_n.regime, "phi": sol_phi.regime}
        diag.kernel = {"n": sol_n.kernel_residual,
                       "phi": sol_phi.kernel_residual}
        return new, diag


def step_residuals(state_m: PlasmaState, state_new: PlasmaState,
                   field: MagneticField, p: PhysParams, grid: Grid,
                   fv: dict, forces: dict) -> StepDiagnostics:
    """Plug both time levels into the discrete equations.

    fv is ``species_fv_divergence`` of state_m and forces is
    ``stiff_force_terms`` of (state_new.n, state_new.phi): the terms the
    step itself used.  Continuity uses the same realisations the
    eliminations used: explicit parallel flux via dhstar(b .
    node_average(.)), stiff force via the three-point composite
    dhstar(s).  Momentum recombines the parallel and perpendicular force
    realisations into the full equation.  Residual norms are reported
    relative to the largest constituent term.
    """
    diag = StepDiagnostics()
    dt = p.dt
    b_c, b_n = field.b_cells, field.b_nodes

    def l2(x):
        return float(np.linalg.norm(x))

    for a in SPECIES:
        qa, Ta, eta = p.charge(a), p.T_a(a), p.eps_a(a) * p.tau
        s, F_par, P_c = forces[a]

        # continuity
        expl_par = _parallel(state_m.q(a) - dt * fv[a]["mom"], b_c)
        w = np.einsum("...k,...k->...", b_n, node_average(expl_par, grid)) \
            - (dt / eta) * s
        terms = [(state_new.n - state_m.n) / dt,
                 p.C_a(a) * (state_new.phi - state_m.phi) / dt,
                 apply_dhstar(w, field, grid),
                 fv[a]["mass"]]
        scale = max(l2(t) for t in terms)
        diag.continuity[a] = l2(sum(terms)) / scale if scale > 0 else 0.0
        eps_m = np.finfo(float).eps
        stiff_echo = 1.0 + 4.0 * Ta * dt**2 * sum(
            1.0 / d**2 for d in grid.spacing) / eta
        floor = eps_m * l2(state_new.n) / dt * stiff_echo
        diag.continuity_floor[a] = floor / scale if scale > 0 else 0.0

        # momentum
        F_perp = -qa * field.bmag_cells[..., None] * np.cross(b_c, P_c)
        B_c = b_c * field.bmag_cells[..., None]
        mterms = [(state_new.q(a) - state_m.q(a)) / dt,
                  fv[a]["mom"],
                  (F_par + F_perp) / eta,
                  -(qa / eta) * np.cross(state_new.q(a), B_c)]
        # the Lorentz bound keeps the relative residual meaningful when the
        # state is (near) stationary and every term degenerates to dust
        mscale = max(max(l2(t) for t in mterms),
                     l2(field.bmag_cells[..., None] * state_new.q(a)) / eta)
        diag.momentum[a] = l2(sum(mterms)) / mscale if mscale > 0 else 0.0

        diag.ap_node[a] = l2(s)
    return diag
