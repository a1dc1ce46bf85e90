import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit import harness
from driftlimit.ap_stepper import SPECIES, PhysParams
from driftlimit.classical import central_gradient, fv_divergence, \
    solve_momentum_rotation, stable_dt, step_classical
from driftlimit.grid import components, interleave
from driftlimit.harness import RunConfig, make_two_fluid_setup, \
    run_simulation
from test_ap_stepper import circular_setup

PARAMS = dict(tau=1e-8, eps=1.0, T_e=3.0, C=1e-2, dt=1e-6)


def test_stable_dt_formula_at_rest():
    cfg = RunConfig(nx=10, ny=10, eta=0.0)
    grid, field, s = make_two_fluid_setup(cfg)
    s.q_i[...] = 0.0
    s.q_e[...] = 0.0
    p = PhysParams(**PARAMS)
    # electron acoustic speed dominates: sqrt(T_e / (eps tau))
    c = np.sqrt(p.T_e / (p.eps * p.tau))
    assert stable_dt(s, p, grid, sigma=1.0) == pytest.approx(min(grid.spacing) / c)
    assert stable_dt(s, p, grid, sigma=0.5) == pytest.approx(0.5 * min(grid.spacing) / c)


def test_stable_dt_tau_scaling():
    cfg = RunConfig(nx=10, ny=10, eta=0.0)
    grid, field, s = make_two_fluid_setup(cfg)
    p1 = PhysParams(**dict(PARAMS, tau=1e-6))
    p2 = PhysParams(**dict(PARAMS, tau=1e-8))
    ratio = stable_dt(s, p1, grid, 0.5) / stable_dt(s, p2, grid, 0.5)
    assert ratio == pytest.approx(10.0, rel=1e-3)


def test_stable_dt_sigma_domain():
    cfg = RunConfig(nx=8, ny=8)
    grid, _, s = make_two_fluid_setup(cfg)
    with pytest.raises(ValueError):
        stable_dt(s, PhysParams(**PARAMS), grid, sigma=0.0)


def test_central_gradient_affine():
    cfg = RunConfig(nx=9, ny=7)
    grid, _, _ = make_two_fluid_setup(cfg)
    x, y = grid.cell_coords()
    g = central_gradient(2 * x + 3 * y, grid)
    assert len(g) == 2  # (gx, gy): the mesh is 2D, no z plane
    assert np.max(np.abs(g[0][1:-1, 1:-1] - 2.0)) < 1e-12
    assert np.max(np.abs(g[1][1:-1, 1:-1] - 3.0)) < 1e-12


def test_rotation_closed_form_example():
    # v - v x B = r rotates the opposite way from the (I - gamma b x)
    # perpendicular solve, hence the negative y component here
    B = np.array([0.0, 0.0, 1.0])
    r = np.array([1.0, 0.0, 0.0])
    v = solve_momentum_rotation(r, B, 1.0)
    assert np.allclose(v, [0.5, -0.5, 0.0])
    res = v - np.cross(v, B) - r
    assert np.max(np.abs(res)) <= 1e-14
    assert np.allclose(solve_momentum_rotation(r, B, 0.0), r)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(-2, 2)] * 3), st.tuples(*[st.floats(-1.5, 1.5)] * 3),
       st.floats(-200, 200))
def test_rotation_properties(rraw, Braw, mu):
    r = np.asarray(rraw)
    B = np.asarray(Braw)
    v = solve_momentum_rotation(r, B, mu)
    res = v - mu * np.cross(v, B) - r
    assert np.max(np.abs(res)) <= 1e-13 * (1 + np.linalg.norm(r))
    # rotation leaves the component along B untouched
    assert v @ B == pytest.approx(r @ B, rel=1e-13, abs=1e-13)


def cross_rotation(r, B, mu):
    """The closed form on the (..., 3) layout with np.cross and einsum."""
    mu = np.asarray(mu, dtype=float)[..., None]
    rxB = np.cross(r, B)
    rB = np.einsum("...k,...k->...", r, B)[..., None]
    B2 = np.einsum("...k,...k->...", B, B)[..., None]
    return (r + mu * rxB + mu * mu * rB * B) / (1.0 + mu * mu * B2)


def vector_rotation(r, B, mu):
    """solve_momentum_rotation on the (..., 3) layout."""
    return np.stack(solve_momentum_rotation(
        np.moveaxis(r, -1, 0), np.moveaxis(B, -1, 0), mu), axis=-1)


def test_rotation_matches_cross_product_form():
    rng = np.random.default_rng(8)
    shape = (17, 13)
    r = rng.standard_normal(shape + (3,))
    B = rng.standard_normal(shape + (3,))
    assert np.min(np.abs(B[..., 2])) > 0.0
    for mu in (37.5, rng.uniform(-200.0, 200.0, shape)):
        v = vector_rotation(r, B, mu)
        ref = cross_rotation(r, B, mu)
        assert v.shape == ref.shape
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_stationary_state_preserved():
    cfg = RunConfig(nx=12, ny=12, eta=0.0)
    grid, field, s0 = make_two_fluid_setup(cfg)
    dt = stable_dt(s0, cfg.phys_params(), grid, cfg.sigma)
    p = dataclasses.replace(cfg, dt=dt).phys_params()
    s = s0.copy()
    for _ in range(100):
        s, diag = step_classical(s, field, p, grid)
        assert not diag.diverged
    drift = max(np.max(np.abs(s.n - s0.n)), np.max(np.abs(s.phi - s0.phi)),
                np.max(np.abs(s.q_i - s0.q_i)), np.max(np.abs(s.q_e - s0.q_e)))
    assert drift <= 1e-7


def test_blowup_detector(monkeypatch):
    # a run ends when max |q| grows beyond 1e6 times its initial value,
    # even on a step that flags no divergence itself
    cfg = RunConfig(nx=8, ny=8, eta=0.0, dt=1e-6, t_end=5e-6)
    grid, field, s0 = make_two_fluid_setup(cfg)
    calls = []

    def growing_step(state, *args):
        new, diag = step_classical(state, *args)
        calls.append(diag.diverged)
        if len(calls) >= 2:
            new.q_e = 2e6 * new.q_e
        return new, diag

    monkeypatch.setattr(harness, "step_classical", growing_step)
    res = run_simulation("classical", cfg, grid, field, s0)
    assert calls == [False, False]
    assert (res.diverged_step, res.note) == (2, "blow-up detector")


def test_divergence_flag_on_bad_input():
    cfg = RunConfig(nx=8, ny=8)
    grid, field, s0 = make_two_fluid_setup(cfg)
    s0.n[1, 1] = -1.0
    _, diag = step_classical(s0, field, cfg.phys_params(), grid)
    assert diag.diverged


def test_under_resolved_blowup_within_50_steps():
    cfg = RunConfig(nx=50, ny=50, dt=1e-6, t_end=50e-6)
    grid, field, s0 = make_two_fluid_setup(cfg)
    res = run_simulation("classical", cfg, grid, field, s0)
    assert 0 < res.diverged_step <= 50


def momentum_residual(s, new, field, p, grid):
    """Worst species' relative residual of the classical momentum equation
    (q_new - q)/dt + div F_q + (q_a/eta_a) n grad phi
    - (q_a/eta_a) q_new x B = 0, on the (..., 3) layout."""
    gx, gy = central_gradient(s.phi, grid)
    grad_phi = np.stack((gx, gy, np.zeros_like(gx)), axis=-1)
    B = field.b_cells * field.bmag_cells[..., None]
    worst = 0.0
    for a in SPECIES:
        qa, eta = p.charge(a), p.eps_a(a) * p.tau
        div = fv_divergence(s.n, components(s.q(a)), field, grid,
                            c2=p.T_a(a) / eta)
        terms = [(new.q(a) - s.q(a)) / p.dt, interleave(div[1:]),
                 (qa / eta) * s.n[..., None] * grad_phi,
                 -(qa / eta) * np.cross(new.q(a), B)]
        scale = max(np.linalg.norm(t) for t in terms)
        worst = max(worst, np.linalg.norm(sum(terms)) / scale)
    return worst


def test_curved_field_momentum_equation():
    # the step rotates the whole momentum with B_c, so a varying b leaves
    # no part of a force outside the rotation; measured worst 2.9e-15 at
    # dt = 5e-9, below the dt_crit of 2.2e-8 of ROADMAP item 3
    grid, field, s = circular_setup(80.0, PARAMS["tau"])
    p = PhysParams(**dict(PARAMS, dt=5e-9))
    for _ in range(30):
        new, diag = step_classical(s, field, p, grid)
        assert not diag.diverged, diag.note
        assert momentum_residual(s, new, field, p, grid) <= 1e-12
        s = new


def test_curved_field_constant_state_stays_exactly_stationary():
    grid, field, s0 = circular_setup(0.0, PARAMS["tau"])
    p = PhysParams(**dict(PARAMS, dt=5e-9))
    s = s0
    for _ in range(30):
        s, diag = step_classical(s, field, p, grid)
        assert not diag.diverged, diag.note
    for name in ("n", "q_i", "q_e", "phi"):
        assert np.array_equal(getattr(s, name), getattr(s0, name)), name
