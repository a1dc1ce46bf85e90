import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit.ap_stepper import PhysParams
from driftlimit.classical import BlowupDetector, central_gradient, \
    solve_momentum_rotation, stable_dt, step_classical
from driftlimit.harness import RunConfig, make_two_fluid_setup

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
    ratio = stable_dt(s, p1, grid) / stable_dt(s, p2, grid)
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
    assert np.max(np.abs(g[1:-1, 1:-1, 0] - 2.0)) < 1e-12
    assert np.max(np.abs(g[1:-1, 1:-1, 1] - 3.0)) < 1e-12
    assert np.all(g[..., 2] == 0.0)


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


def test_stationary_state_preserved():
    cfg = RunConfig(nx=12, ny=12, eta=0.0)
    grid, field, s0 = make_two_fluid_setup(cfg)
    p = cfg.phys_params(dt=stable_dt(s0, cfg.phys_params(), grid))
    s = s0.copy()
    for _ in range(100):
        s, diag = step_classical(s, field, p, grid)
        assert not diag.diverged
    drift = max(np.max(np.abs(s.n - s0.n)), np.max(np.abs(s.phi - s0.phi)),
                np.max(np.abs(s.q_i - s0.q_i)), np.max(np.abs(s.q_e - s0.q_e)))
    assert drift <= 1e-7


def test_blowup_detector():
    cfg = RunConfig(nx=8, ny=8, eta=0.0)
    _, _, s0 = make_two_fluid_setup(cfg)
    det = BlowupDetector(s0)
    assert not det(s0)
    bad = s0.copy()
    bad.q_i[2, 2, 0] = np.inf
    assert det(bad)
    big = s0.copy()
    big.q_e[...] = 2e6  # beyond 1e6 x initial magnitude
    assert det(big)


def test_divergence_flag_on_bad_input():
    cfg = RunConfig(nx=8, ny=8)
    grid, field, s0 = make_two_fluid_setup(cfg)
    s0.n[1, 1] = -1.0
    _, diag = step_classical(s0, field, cfg.phys_params(), grid)
    assert diag.diverged


def test_under_resolved_blowup_within_50_steps():
    cfg = RunConfig(nx=50, ny=50, dt=1e-6)
    grid, field, s0 = make_two_fluid_setup(cfg)
    p = cfg.phys_params()
    det = BlowupDetector(s0)
    s = s0.copy()
    blew = None
    for m in range(1, 51):
        s, diag = step_classical(s, field, p, grid)
        if diag.diverged or det(s):
            blew = m
            break
    assert blew is not None
