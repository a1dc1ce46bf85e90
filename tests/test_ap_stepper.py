import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit import ap_stepper, diffusion
from driftlimit.ap_stepper import APStepper, PhysParams, assemble_R, \
    assemble_S, solve_perp_rotation, species_fv_divergence, \
    step_residuals, stiff_force_terms
from driftlimit.diffusion import SolverError
from driftlimit.harness import RunConfig, fit_slope, make_two_fluid_setup, \
    run_c_study

PARAMS = dict(tau=1e-8, eps=1.0, T_e=3.0, C=1e-2, dt=1e-6)


def test_params_constraint_identities():
    p = PhysParams(**PARAMS)
    assert p.C_i + p.eps * p.C_e == pytest.approx(0.0, abs=1e-18)
    assert p.C_i - (p.eps / p.T_e) * p.C_e == pytest.approx(p.C, rel=1e-14)
    assert p.lam1 == pytest.approx((1 + p.eps) / (p.dt**2 * (1 + p.T_e)))
    assert p.lam2 > 0


@pytest.mark.parametrize("bad", [
    dict(PARAMS, tau=-1e-9),
    dict(PARAMS, eps=0.0),
    dict(PARAMS, C=0.0),
    dict(PARAMS, dt=0.0),
    dict(PARAMS, T_e=0.5),
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        PhysParams(**bad)


def test_te_one_rejected_with_singularity_message():
    with pytest.raises(ValueError, match="T_e - 1"):
        PhysParams(**dict(PARAMS, T_e=1.0))


def test_step_requires_positive_tau():
    cfg = RunConfig(nx=8, ny=8)
    grid, field, _ = make_two_fluid_setup(cfg)
    with pytest.raises(ValueError):
        APStepper(PhysParams(**dict(PARAMS, tau=0.0)), grid, field)


def stationary_setup(nx=12, tau=1e-8, dt=1e-6):
    cfg = RunConfig(nx=nx, ny=nx, eta=0.0, tau=tau, dt=dt)
    grid, field, state = make_two_fluid_setup(cfg)
    return cfg, grid, field, state


def test_assemble_R_stationary_value():
    # eta = 0 leaves n at the constant n0 + tau; only the density term of
    # R survives since every stencil annihilates the constant state
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    R = assemble_R(s, field, p, grid, species_fv_divergence(s, field, grid))
    expect = (1 + p.eps) * s.n[0, 0] / ((1 + p.T_e) * p.dt**2)
    assert np.max(np.abs(R - expect)) <= 1e-12 * abs(expect)


def test_assemble_R_zero_momentum_keeps_density_term_only():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    s.q_i[...] = 0.0
    s.q_e[...] = 0.0
    R = assemble_R(s, field, p, grid, species_fv_divergence(s, field, grid))
    expect = (1 + p.eps) * s.n / ((1 + p.T_e) * p.dt**2)
    assert np.max(np.abs(R - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_assemble_R_dt_scaling():
    cfg, grid, field, s = stationary_setup()
    s.q_i[...] = 0.0
    s.q_e[...] = 0.0
    p1 = cfg.phys_params(dt=1e-6)
    p2 = cfg.phys_params(dt=2e-6)
    fv = species_fv_divergence(s, field, grid)
    R1 = assemble_R(s, field, p1, grid, fv)
    R2 = assemble_R(s, field, p2, grid, fv)
    assert np.allclose(R2, R1 / 4.0, rtol=1e-12)


def test_assemble_S_stationary_is_zero():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    S = assemble_S(s, s.n, field, p, grid,
                   species_fv_divergence(s, field, grid))
    assert np.max(np.abs(S)) <= 1e-9  # scales ~1/dt^2, zero to round-off


def test_assemble_S_constant_phi_consistency():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    phi0 = 0.37
    s.phi[...] = phi0
    S = assemble_S(s, s.n, field, p, grid,
                   species_fv_divergence(s, field, grid))
    assert np.allclose(S, p.lam2 * phi0, rtol=1e-12)
    # and the phi solve then reproduces phi0
    stepper = APStepper(p, grid, field)
    new, diag = stepper.step(s)
    assert not diag.diverged
    assert np.max(np.abs(new.phi - phi0)) <= 1e-7 * abs(phi0)


def test_stationary_state_preserved_100_steps():
    cfg, grid, field, s0 = stationary_setup(nx=16)
    stepper = APStepper(cfg.phys_params(), grid, field)
    s = s0.copy()
    for _ in range(100):
        s, diag = stepper.step(s)
        assert not diag.diverged
    drift = max(np.max(np.abs(s.n - s0.n)), np.max(np.abs(s.phi - s0.phi)),
                np.max(np.abs(s.q_i - s0.q_i)), np.max(np.abs(s.q_e - s0.q_e)))
    assert drift <= 1e-7


def test_perp_rotation_closed_form():
    b = np.array([0.0, 0.0, 1.0])
    r = np.array([1.0, 0.0, 0.0])
    v = solve_perp_rotation(r, b, 1.0)
    assert np.allclose(v, [0.5, 0.5, 0.0])
    # gamma = 0 degenerates to identity
    assert np.allclose(solve_perp_rotation(r, b, 0.0), r)
    # residual of (I - gamma b x) v = r
    res = v - 1.0 * np.cross(b, v) - r
    assert np.max(np.abs(res)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(-2, 2)] * 3), st.tuples(*[st.floats(-1, 1)] * 3),
       st.floats(-50, 50))
def test_perp_rotation_properties(rraw, braw, gamma):
    b = np.asarray(braw)
    if np.linalg.norm(b) < 0.1:
        b = np.array([0.0, 0.0, 1.0])
    b = b / np.linalg.norm(b)
    r = np.asarray(rraw)
    r_perp = r - b * (b @ r)
    v = solve_perp_rotation(r_perp, b, gamma)
    assert abs(v @ b) <= 1e-12 * (1 + np.linalg.norm(v))
    res = v - gamma * np.cross(b, v) - r_perp
    assert np.max(np.abs(res)) <= 1e-13 * (1 + np.linalg.norm(r_perp))


def perturbed_step(tau, nx=24, dt=5e-9):
    cfg = RunConfig(tau=tau, nx=nx, ny=nx, dt=dt)
    grid, field, s0 = make_two_fluid_setup(cfg)
    stepper = APStepper(cfg.phys_params(), grid, field)
    s1, diag = stepper.step(s0)
    return cfg, grid, field, s0, s1, diag


def test_ap_node_residual_linear_in_tau():
    res = {}
    for tau in (1e-4, 1e-6, 1e-8):
        _, _, _, _, _, diag = perturbed_step(tau)
        res[tau] = diag.ap_node
        assert not diag.diverged
    for a in ("i", "e"):
        slope = fit_slope(list(res), [res[t][a] for t in res])
        assert 0.7 <= slope <= 1.3
    # two-point ratio over two decades
    assert res[1e-4]["i"] / res[1e-6]["i"] == pytest.approx(100, rel=0.8)


def test_momentum_residual_small_on_perturbed_step():
    _, _, _, _, _, diag = perturbed_step(1e-8)
    assert diag.momentum["i"] <= 1e-6
    assert diag.momentum["e"] <= 1e-6


def test_continuity_residual_exact_in_fp_friendly_regime():
    # per-step density increments far above ULP(n): the identity must
    # close to the stated 1e-6 without leaning on the float64 floor
    _, _, _, _, _, diag = perturbed_step(1e-4, nx=16, dt=1e-6)
    for a in ("i", "e"):
        assert diag.continuity[a] <= 1e-6


def test_continuity_residual_within_float64_floor():
    _, _, _, _, _, diag = perturbed_step(1e-8, nx=16, dt=5e-9)
    for a in ("i", "e"):
        assert diag.continuity[a] <= max(1e-6, 8.0 * diag.continuity_floor[a])


def test_perp_momentum_orthogonal_to_b():
    cfg, grid, field, s0, s1, _ = perturbed_step(1e-8)
    # reconstructed perpendicular part: subtract the aligned component
    for q in (s1.q_i, s1.q_e):
        qperp = q - field.b_cells * np.einsum("...k,...k->...",
                                              field.b_cells, q)[..., None]
        assert np.all(np.abs(np.einsum("...k,...k->...", field.b_cells, qperp))
                      <= 1e-12 * (1 + np.abs(qperp).max()))


def test_no_tau_dependent_restriction():
    # large step relative to gyro period: must not diverge
    cfg = RunConfig(tau=1e-8, nx=16, ny=16, dt=1e-6)
    grid, field, s0 = make_two_fluid_setup(cfg)
    stepper = APStepper(cfg.phys_params(), grid, field)
    s = s0.copy()
    for _ in range(6):
        s, diag = stepper.step(s)
        assert not diag.diverged


def test_divergence_flag_on_invalid_state():
    cfg, grid, field, s0 = stationary_setup()
    s0.n[3, 3] = np.nan
    s1, diag = APStepper(cfg.phys_params(), grid, field).step(s0)
    assert diag.diverged


def test_solver_failure_recorded_as_divergence(monkeypatch):
    def stall(*args, **kwargs):
        raise SolverError("micro part: no convergence")

    monkeypatch.setattr(ap_stepper, "solve_micro_macro", stall)
    cfg, grid, field, s0 = stationary_setup()
    s1, diag = APStepper(cfg.phys_params(), grid, field).step(s0)
    assert diag.diverged and s1 is s0
    assert diag.note == "micro part: no convergence"
    # a study records the failed runs instead of aborting
    cfg = RunConfig(nx=8, ny=8, c_values=(1e-2,), dt_values=(1e-6, 1e-7),
                    c_horizons=(2e-6,))
    assert set(run_c_study(cfg)["verdicts"].values()) == {"diverged"}


def test_step_residuals_on_stationary_pair():
    cfg, grid, field, s0 = stationary_setup()
    p = cfg.phys_params()
    stepper = APStepper(p, grid, field)
    s1, _ = stepper.step(s0)
    diag = step_residuals(s0, s1, field, p, grid,
                          species_fv_divergence(s0, field, grid),
                          stiff_force_terms(s1.n, s1.phi, field, p, grid))
    for a in ("i", "e"):
        assert diag.continuity[a] <= 1e-8
        assert diag.momentum[a] <= 1e-8
        assert diag.ap_node[a] <= 1e-10


def test_step_diagnostics_match_fresh_residuals():
    # the step hands its own FV divergences and stiff force to the
    # residuals; recomputing both from the two states gives the same bits
    cfg, grid, field, s0, s1, diag = perturbed_step(1e-8, nx=16)
    p = cfg.phys_params()
    fresh = step_residuals(s0, s1, field, p, grid,
                           species_fv_divergence(s0, field, grid),
                           stiff_force_terms(s1.n, s1.phi, field, p, grid))
    assert not diag.diverged
    for key in ("continuity", "momentum", "ap_node", "continuity_floor"):
        assert getattr(diag, key) == getattr(fresh, key), key


def test_stiff_force_evaluated_once_per_step(monkeypatch):
    calls = []
    forces = ap_stepper.stiff_force_terms

    def counting(*args):
        calls.append(args)
        return forces(*args)

    monkeypatch.setattr(ap_stepper, "stiff_force_terms", counting)
    cfg, grid, field, s0 = stationary_setup()
    stepper = APStepper(cfg.phys_params(), grid, field)
    s1, diag = stepper.step(s0)
    stepper.step(s1)
    assert not diag.diverged and diag.continuity
    assert len(calls) == 2


def test_step_is_a_function_of_its_input_state():
    # a fresh stepper and one that has already stepped give the same bits
    cfg, grid, field, s0, s1, _ = perturbed_step(1e-8, nx=16, dt=1e-6)
    stepper = APStepper(cfg.phys_params(), grid, field)
    stepper.step(s0)
    warm, _ = stepper.step(s1)
    fresh, _ = APStepper(cfg.phys_params(), grid, field).step(s1)
    for name in ("n", "phi", "q_i", "q_e"):
        assert np.array_equal(getattr(warm, name), getattr(fresh, name)), name


def test_steps_share_one_macro_factor(monkeypatch):
    factored = []
    factor = diffusion._factor_spd

    def counting(A):
        factored.append(A.shape)
        return factor(A)

    monkeypatch.setattr(diffusion, "_factor_spd", counting)
    cfg, grid, field, s0 = stationary_setup()
    stepper = APStepper(cfg.phys_params(), grid, field)
    s1, _ = stepper.step(s0)
    stepper.step(s1)
    # the n and phi solves of both steps use one operator set
    assert len(factored) == 1
    assert diffusion.get_operator_set(field, grid).N1_lu is not None
