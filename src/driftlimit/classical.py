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
rotation v - mu v x B = r is solved in closed form.
"""

from __future__ import annotations

import numpy as np

from .ap_stepper import PhysParams, PlasmaState, SPECIES, StepDiagnostics
from .flux import fv_divergence
from .grid import Grid, pad_cells
from .stencil import MagneticField


def stable_dt(state: PlasmaState, p: PhysParams, grid: Grid,
              sigma: float = 0.5) -> float:
    """CFL bound sigma * h / c_max with the acoustic speed sqrt(T_a/(eps_a tau))."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    h = min(grid.spacing)
    c_max = 0.0
    for a in SPECIES:
        u = state.q(a) / state.n[..., None]
        speed = np.sqrt((u * u).sum(axis=-1)).max() \
            + np.sqrt(p.T_a(a) / (p.eps_a(a) * p.tau))
        c_max = max(c_max, float(speed))
    return sigma * h / c_max


def central_gradient(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order cell-centered gradient with copy ghosts; 3-vector output."""
    padded = pad_cells(u, grid)
    out = np.zeros(grid.shape_cells + (3,))
    for a in range(grid.dim):
        lo = [slice(1, -1)] * grid.dim
        hi = [slice(1, -1)] * grid.dim
        lo[a], hi[a] = slice(0, -2), slice(2, None)
        out[..., a] = (padded[tuple(hi)] - padded[tuple(lo)]) / (2 * grid.spacing[a])
    return out


def solve_momentum_rotation(r: np.ndarray, B: np.ndarray, mu) -> np.ndarray:
    """Closed form of v - mu v x B = r."""
    mu = np.asarray(mu, dtype=float)[..., None]
    rxB = np.cross(r, B)
    rB = np.einsum("...k,...k->...", r, B)[..., None]
    B2 = np.einsum("...k,...k->...", B, B)[..., None]
    return (r + mu * rxB + mu * mu * rB * B) / (1.0 + mu * mu * B2)


def step_classical(state: PlasmaState, field: MagneticField, p: PhysParams,
                   grid: Grid) -> tuple[PlasmaState, StepDiagnostics]:
    """One explicit step; divergence is flagged, not raised."""
    diag = StepDiagnostics()
    if p.tau <= 0.0:
        raise ValueError("classical step requires tau > 0")
    if not (state.is_finite() and np.all(state.n > 0.0)):
        diag.diverged, diag.note = True, "invalid input state"
        return state, diag
    t_new = state.t + p.dt

    grad_phi = central_gradient(state.phi, grid)
    B_c = field.b_cells * field.bmag_cells[..., None]

    fv = {}
    for a in SPECIES:
        div4 = fv_divergence(state.n, state.q(a), field, grid,
                             c2=p.T_a(a) / (p.eps_a(a) * p.tau))
        fv[a] = {"mass": div4[..., 0], "mom": div4[..., 1:]}

    phi_new = state.phi - p.dt / (p.C_i - p.C_e) * (fv["i"]["mass"] - fv["e"]["mass"])
    n_new = state.n - p.C_i * (phi_new - state.phi) - p.dt * fv["i"]["mass"]

    q_new = {}
    for a in SPECIES:
        qa, eta = p.charge(a), p.eps_a(a) * p.tau
        expl = fv[a]["mom"] + (qa / eta) * state.n[..., None] * grad_phi
        r = state.q(a) - p.dt * expl
        q_new[a] = solve_momentum_rotation(r, B_c, p.dt * qa / eta)

    new = PlasmaState(n=n_new, q_i=q_new["i"], q_e=q_new["e"],
                      phi=phi_new, t=t_new)
    if not new.is_finite() or np.any(n_new <= 0.0):
        diag.diverged = True
        diag.note = "non-finite field" if not new.is_finite() else "n <= 0"
    return new, diag


class BlowupDetector:
    """Flags non-finite fields or momentum 1e6 times its initial size."""

    def __init__(self, initial: PlasmaState, factor: float = 1e6):
        self.q_ref = max(float(np.abs(initial.q_i).max()),
                         float(np.abs(initial.q_e).max()))
        self.factor = factor

    def __call__(self, state: PlasmaState) -> bool:
        if not state.is_finite():
            return True
        qmax = max(float(np.abs(state.q_i).max()),
                   float(np.abs(state.q_e).max()))
        return qmax > self.factor * self.q_ref
