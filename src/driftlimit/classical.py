"""Fully explicit reference scheme with implicit Lorentz rotation.

Everything except the magnetic rotation is explicit.  The whole
hydrodynamic block, isothermal pressure included, goes through the full
Rusanov flux with c2 = T_a/(eps_a tau), so the wave speed is
|u_a| + sqrt(c2); the electric force stays a pointwise source.  The
stability constraint then scales like dt = O(h sqrt(tau)); demonstrating
that restriction (and the blow-up when it is violated) is this scheme's
purpose.

phi is updated by subtracting the two species continuity equations, which
isolates (C_i - C_e) d_t phi; n follows from either one.  The momentum
rotation v - mu v x B = r is solved in closed form.  A step flags its own
divergence (non-finite field, n <= 0) in its diagnostics; the harness ends
a run on that flag or on momentum growth.
"""

from __future__ import annotations

import numpy as np

from .ap_stepper import PhysParams, SPECIES, StepDiagnostics, \
    solve_momentum_rotation
from .flux import fv_divergence
from .grid import Grid, PlasmaState, dot, pad_cells
from .stencil import MagneticField


def stable_dt(state: PlasmaState, p: PhysParams, grid: Grid,
              sigma: float) -> float:
    """CFL bound sigma * h / c_max with the acoustic speed sqrt(T_a/(eps_a tau))."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    h = min(grid.spacing)
    c_max = 0.0
    for a in SPECIES:
        u = state.q(a) / state.n
        speed = np.sqrt(dot(u, u)).max() \
            + np.sqrt(p.T_a(a) / (p.eps_a(a) * p.tau))
        c_max = max(c_max, float(speed))
    return sigma * h / c_max


def central_gradient(u: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Second-order cell-centered gradient (gx, gy) with copy ghosts."""
    padded = pad_cells(u, grid)
    dx, dy = grid.spacing
    return ((padded[2:, 1:-1] - padded[:-2, 1:-1]) / (2 * dx),
            (padded[1:-1, 2:] - padded[1:-1, :-2]) / (2 * dy))


def step_classical(state: PlasmaState, field: MagneticField, p: PhysParams,
                   grid: Grid) -> tuple[PlasmaState, StepDiagnostics]:
    """One explicit step; divergence is flagged, not raised."""
    diag = StepDiagnostics()
    if not (state.is_finite() and np.all(state.n > 0.0)):
        diag.diverged, diag.note = True, "invalid input state"
        return state, diag
    t_new = state.t + p.dt

    grad_phi = central_gradient(state.phi, grid)
    B_c = [bk * field.bmag_cells for bk in field.b_cell_planes]

    fv = {}
    for a in SPECIES:
        div = fv_divergence(state.n, state.q(a), field, grid,
                            c2=p.T_a(a) / (p.eps_a(a) * p.tau))
        fv[a] = {"mass": div[0], "mom": div[1:]}

    phi_new = state.phi - p.dt / (p.C_i - p.C_e) * (fv["i"]["mass"] - fv["e"]["mass"])
    n_new = state.n - p.C_i * (phi_new - state.phi) - p.dt * fv["i"]["mass"]

    q_new = {}
    for a in SPECIES:
        qa, eta = p.charge(a), p.eps_a(a) * p.tau
        # the electric force of the in-plane gradient has no z component
        mom = fv[a]["mom"]
        expl = [mk + (qa / eta) * state.n * g
                for mk, g in zip(mom, grad_phi)] + [mom[2]]
        r = [qk - p.dt * ek for qk, ek in zip(state.q(a), expl)]
        q_new[a] = solve_momentum_rotation(r, B_c, p.dt * qa / eta)

    new = PlasmaState(n_new, q_new["i"], q_new["e"], phi_new, t_new)
    if not new.is_finite() or np.any(n_new <= 0.0):
        diag.diverged = True
        diag.note = "non-finite field" if not new.is_finite() else "n <= 0"
    return new, diag

