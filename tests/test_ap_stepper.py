import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit import ap_stepper, diffusion
from driftlimit.ap_stepper import APStepper, PhysParams, PlasmaState, \
    assemble_R, assemble_S, solve_momentum_rotation, \
    species_fv_divergence, step_residuals, stiff_force_terms, update_momentum
from driftlimit.classical import step_classical
from driftlimit.diffusion import SolverError
from driftlimit.grid import Grid, dot
from driftlimit.harness import RunConfig, fit_slope, make_two_fluid_setup, \
    run_c_study, run_simulation
from driftlimit.stencil import MagneticField

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
    dict(PARAMS, T_e=0.0),
    dict(PARAMS, tau=0.0),
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        PhysParams(**bad)


def test_te_domain_is_positive():
    # no formula divides by T_e - 1: T_e = 1 and T_e < 1 are valid
    for T_e in (1.0, 0.5, 1e-3):
        assert PhysParams(**dict(PARAMS, T_e=T_e)).lam2 > 0.0
    for T_e in (0.0, -1.0):
        with pytest.raises(ValueError, match="T_e must be positive"):
            PhysParams(**dict(PARAMS, T_e=T_e))


def test_step_requires_positive_tau():
    cfg = RunConfig(nx=8, ny=8)
    grid, field, _ = make_two_fluid_setup(cfg)
    with pytest.raises(ValueError, match="tau must be positive"):
        APStepper(PhysParams(**dict(PARAMS, tau=0.0)), grid, field)


def stationary_setup(nx=12, tau=1e-8, dt=1e-6):
    cfg = RunConfig(nx=nx, ny=nx, eta=0.0, tau=tau, dt=dt)
    grid, field, state = make_two_fluid_setup(cfg)
    return cfg, grid, field, state


def parallel_and_fv(s, field, grid, dt):
    """The explicit parallel momentum b_cell . (q - dt mom) per species
    of a state and the FV divergences it is formed from, as a step
    computes them."""
    fv = species_fv_divergence(s, field, grid)
    b = field.b_cell_planes
    return {a: dot(b, s.q(a)) - dt * dot(b, fv[a]["mom"]) for a in fv}, fv


def test_assemble_R_stationary_value():
    # eta = 0 leaves n at the constant 1 + tau; only the density term of
    # R survives since every stencil annihilates the constant state
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    par, fv = parallel_and_fv(s, field, grid, p.dt)
    R = assemble_R(s, par, field, p, grid, fv)
    expect = (1 + p.eps) * s.n[0, 0] / ((1 + p.T_e) * p.dt**2)
    assert np.max(np.abs(R - expect)) <= 1e-12 * abs(expect)


def test_assemble_R_zero_momentum_keeps_density_term_only():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    s.q_i[...] = 0.0
    s.q_e[...] = 0.0
    par, fv = parallel_and_fv(s, field, grid, p.dt)
    R = assemble_R(s, par, field, p, grid, fv)
    expect = (1 + p.eps) * s.n / ((1 + p.T_e) * p.dt**2)
    assert np.max(np.abs(R - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_assemble_R_dt_scaling():
    cfg, grid, field, s = stationary_setup()
    s.q_i[...] = 0.0
    s.q_e[...] = 0.0
    p1 = dataclasses.replace(cfg, dt=1e-6).phys_params()
    p2 = dataclasses.replace(cfg, dt=2e-6).phys_params()
    par, fv = parallel_and_fv(s, field, grid, p1.dt)
    R1 = assemble_R(s, par, field, p1, grid, fv)
    R2 = assemble_R(s, par, field, p2, grid, fv)
    assert np.allclose(R2, R1 / 4.0, rtol=1e-12)


def test_assemble_S_stationary_is_zero():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    par, fv = parallel_and_fv(s, field, grid, p.dt)
    S = assemble_S(s, par, s.n, field, p, grid, fv)
    assert np.max(np.abs(S)) <= 1e-9  # scales ~1/dt^2, zero to round-off


def test_assemble_S_constant_phi_consistency():
    cfg, grid, field, s = stationary_setup()
    p = cfg.phys_params()
    phi0 = 0.37
    s.phi[...] = phi0
    par, fv = parallel_and_fv(s, field, grid, p.dt)
    S = assemble_S(s, par, s.n, field, p, grid, fv)
    assert np.allclose(S, p.lam2 * phi0, rtol=1e-12)
    # and the phi solve then reproduces phi0
    stepper = APStepper(p, grid, field)
    new, diag = stepper.step(s)
    assert not diag.diverged
    assert np.max(np.abs(new.phi - phi0)) <= 1e-7 * abs(phi0)


@pytest.mark.parametrize("scheme, dt", [("ap", 5e-9), ("ap", 1e-6),
                                        ("classical", 5e-9)])
def test_steps_store_contiguous_momentum_planes(scheme, dt):
    # one layout: a step builds its new state from the momentum planes it
    # computed, one C-contiguous (3, nx, ny) array per species, which q_i
    # and q_e view without a copy; a copy of the state keeps both
    cfg = RunConfig(dt=dt)
    grid, field, s0 = make_two_fluid_setup(cfg)
    p = cfg.phys_params()
    if scheme == "ap":
        new, diag = APStepper(p, grid, field).step(s0)
    else:
        new, diag = step_classical(s0, field, p, grid)
    assert not diag.diverged and new is not s0
    dup = new.copy()
    for state in (new, dup):
        for a, view in (("i", state.q_i), ("e", state.q_e)):
            planes = state.q(a)
            assert planes.shape == (3,) + grid.shape_cells
            assert planes.flags.c_contiguous
            assert view.shape == grid.shape_cells + (3,)
            assert np.shares_memory(view, planes)
    for a in ("i", "e"):
        assert not np.shares_memory(dup.q(a), new.q(a))


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
    # (I - gamma b x) v = r is the Lorentz rotation with B = b, mu = -gamma
    b = np.array([0.0, 0.0, 1.0])
    r = np.array([1.0, 0.0, 0.0])
    v = solve_momentum_rotation(r, b, -1.0)
    assert np.allclose(v, [0.5, 0.5, 0.0])
    # gamma = 0 degenerates to identity
    assert np.allclose(solve_momentum_rotation(r, b, 0.0), r)
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
    v = solve_momentum_rotation(r_perp, b, -gamma)
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
        res[tau] = {a: diag.values[f"ap_node_{a}"] for a in ("i", "e")}
        assert not diag.diverged
    for a in ("i", "e"):
        slope = fit_slope(list(res), [res[t][a] for t in res])
        assert 0.7 <= slope <= 1.3
    # two-point ratio over two decades
    assert res[1e-4]["i"] / res[1e-6]["i"] == pytest.approx(100, rel=0.8)


def test_momentum_residual_small_on_perturbed_step():
    _, _, _, _, _, diag = perturbed_step(1e-8)
    assert diag.values["momentum_i"] <= 1e-6
    assert diag.values["momentum_e"] <= 1e-6


def test_continuity_residual_exact_in_fp_friendly_regime():
    # per-step density increments far above ULP(n): the identity must
    # close to the stated 1e-6 without leaning on the float64 floor
    _, _, _, _, _, diag = perturbed_step(1e-4, nx=16, dt=1e-6)
    for a in ("i", "e"):
        assert diag.values[f"continuity_{a}"] <= 1e-6


def test_continuity_residual_within_float64_floor():
    _, _, _, _, _, diag = perturbed_step(1e-8, nx=16, dt=5e-9)
    for a in ("i", "e"):
        assert diag.values[f"continuity_{a}"] <= max(
            1e-6, 8.0 * diag.values[f"continuity_floor_{a}"])


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


def inject_fault(fault, monkeypatch):
    """Patch the step so that its density solve returns a cell at 0, its
    potential solve a NaN cell, or its momentum update inf everywhere."""
    if fault == "momentum":
        def blown_update(*args):
            q = update_momentum(*args)
            q[...] = np.inf
            return q

        monkeypatch.setattr(ap_stepper, "update_momentum", blown_update)
        return
    calls = []
    corrupted_call, value = {"density": (1, 0.0),
                             "potential": (2, np.nan)}[fault]

    def corrupted_solve(*args, **kwargs):
        sol = diffusion.solve_micro_macro(*args, **kwargs)
        calls.append(1)
        if len(calls) == corrupted_call:
            sol.p[0, 0] = value
        return sol

    monkeypatch.setattr(ap_stepper, "solve_micro_macro", corrupted_solve)


@pytest.mark.parametrize("fault, note", [
    ("density", "density lost positivity"),
    ("potential", "potential diverged"),
    ("momentum", "momentum diverged")])
def test_step_flags_a_diverged_result(fault, note, monkeypatch):
    cfg, grid, field, s0 = stationary_setup()
    inject_fault(fault, monkeypatch)
    s1, diag = APStepper(cfg.phys_params(), grid, field).step(s0)
    assert diag.diverged and diag.note == note
    if fault == "momentum":
        # the new state comes back, with its finite density and potential
        assert s1 is not s0 and s1.t == s0.t + cfg.dt
        assert np.all(np.isinf(s1.q_i)) and np.all(np.isinf(s1.q_e))
        assert np.all(np.isfinite(s1.n)) and np.all(np.isfinite(s1.phi))
    else:
        assert s1 is s0
    # a run stops at that step with the step's note
    inject_fault(fault, monkeypatch)
    res = run_simulation("ap", cfg, grid, field, s0)
    assert (res.steps, res.diverged_step, res.note) == (1, 1, note)


def test_step_flags_a_macro_part_outside_the_kernel(monkeypatch):
    # a zero macro potential leaves pi = rhs/lam, whose dh is not 0 on the
    # perturbed state, so the solve's kernel check raises and the step
    # records divergence
    def zero_potential(g, field, grid, lu):
        return np.zeros(grid.shape_nodes), 0, 0.0

    monkeypatch.setattr(diffusion, "macro_potential", zero_potential)
    cfg = RunConfig(nx=12, ny=12, dt=1e-6)
    grid, field, s0 = make_two_fluid_setup(cfg)
    s1, diag = APStepper(cfg.phys_params(), grid, field).step(s0)
    assert s1 is s0 and diag.diverged
    assert diag.note.startswith("macro part escaped the discrete kernel")


def test_step_residuals_on_stationary_pair():
    cfg, grid, field, s0 = stationary_setup()
    p = cfg.phys_params()
    stepper = APStepper(p, grid, field)
    s1, _ = stepper.step(s0)
    par, fv = parallel_and_fv(s0, field, grid, p.dt)
    values = step_residuals(s0, s1, par, field, p, grid, fv,
                            stiff_force_terms(s1.n, s1.phi, field, p, grid))
    for a in ("i", "e"):
        assert values[f"continuity_{a}"] <= 1e-8
        assert values[f"momentum_{a}"] <= 1e-8
        assert values[f"ap_node_{a}"] <= 1e-10


def test_step_diagnostics_match_fresh_residuals():
    # the step hands its own FV divergences and stiff force to the
    # residuals; recomputing both from the two states gives the same bits
    cfg, grid, field, s0, s1, diag = perturbed_step(1e-8, nx=16)
    p = cfg.phys_params()
    par, fv = parallel_and_fv(s0, field, grid, p.dt)
    fresh = step_residuals(s0, s1, par, field, p, grid, fv,
                           stiff_force_terms(s1.n, s1.phi, field, p, grid))
    assert not diag.diverged
    assert len(fresh) == 8
    for key, value in fresh.items():
        assert diag.values[key] == value, key


def reference_residual_args(monkeypatch):
    """The arguments the first step of the reference AP run (100², dt =
    5e-9) hands to step_residuals."""
    cfg = RunConfig()
    assert (cfg.nx, cfg.ny, cfg.dt) == (100, 100, 5e-9)
    grid, field, s0 = make_two_fluid_setup(cfg)
    calls = []

    def record(*args):
        calls.append(args)
        return step_residuals(*args)

    monkeypatch.setattr(ap_stepper, "step_residuals", record)
    _, diag = APStepper(cfg.phys_params(), grid, field).step(s0)
    assert not diag.diverged and len(calls) == 1
    return calls[0]


def test_step_residuals_streams_its_planes(monkeypatch):
    # the check forms its momentum terms one component plane at a time
    # and builds no (..., 3) array: one call peaks at about 12 cell
    # planes, where summing the terms as (..., 3) vectors took 35
    args = reference_residual_args(monkeypatch)
    grid = args[5]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step_residuals(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 8 * grid.num_cells


def test_step_residuals_leaves_its_inputs_unchanged(monkeypatch):
    # the momentum terms are summed in place; none of them may be an input
    args = reference_residual_args(monkeypatch)
    state_m, state_new, par, _, _, _, fv, forces = args

    def as_bytes(x):
        if isinstance(x, PlasmaState):
            x = [x.n, x.q_i, x.q_e, x.phi, x.t]
        if isinstance(x, dict):
            return {k: as_bytes(v) for k, v in x.items()}
        if isinstance(x, (tuple, list)):
            return [as_bytes(v) for v in x]
        x = np.asarray(x)
        return x.shape, x.dtype.str, x.tobytes()

    inputs = (state_m, state_new, par, fv, forces)
    before = as_bytes(copy.deepcopy(inputs))
    step_residuals(*args)
    assert as_bytes(inputs) == before


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
    assert not diag.diverged and diag.values
    assert len(calls) == 2


def test_step_is_a_function_of_its_input_state():
    # a fresh stepper and one that has already stepped give the same bits;
    # at dt = 1e-6 each builds its own phi micro factor and preconditions
    # with it
    cfg, grid, field, s0, s1, _ = perturbed_step(1e-8, nx=16, dt=1e-6)
    stepper = APStepper(cfg.phys_params(), grid, field)
    stepper.step(s0)
    warm, diag = stepper.step(s1)
    fresh_stepper = APStepper(cfg.phys_params(), grid, field)
    fresh, _ = fresh_stepper.step(s1)
    assert fresh_stepper.phi_lu is not None
    assert fresh_stepper.phi_lu is not stepper.phi_lu
    assert fresh_stepper.macro_lu is not stepper.macro_lu
    assert diag.values["iters_phi_micro"] <= 3
    for name in ("n", "phi", "q_i", "q_e"):
        assert np.array_equal(getattr(warm, name), getattr(fresh, name)), name


def test_steps_share_one_macro_factor(monkeypatch):
    factored = []
    factor = diffusion._factor_spd

    def counting(A):
        factored.append(A.shape)
        return factor(A)

    monkeypatch.setattr(diffusion, "_factor_spd", counting)
    # at 100^2, dt = 1e-6 puts both solves below regime 1, where the
    # stepper factors N1 and N1 + tau*lam2; at dt = 5e-9 (regimes ~2500
    # and ~40) both are shift-dominated and it factors nothing.  A density
    # of 2 + tau doubles phi's coefficient: at dt = 2.5e-8 its regime,
    # tau*lam2 over the operator scale at unit coefficient, stays above 1,
    # as does the branch it picks.  Every factor is of an interior-node
    # operator, and no step factors anything
    for dt, n0, factors in ((1e-6, 1.0, 2), (5e-9, 1.0, 0),
                            (2.5e-8, 2.0, 0)):
        factored.clear()
        cfg, grid, field, s0 = stationary_setup(nx=100, dt=dt)
        s0.n[...] = n0 + cfg.tau
        stepper = APStepper(cfg.phys_params(), grid, field)
        n_int = int(grid.interior_node_mask.sum())
        assert factored == [(n_int, n_int)] * factors
        assert (stepper.macro_lu is not None) == (factors == 2)
        assert (stepper.phi_lu is not None) == (factors == 2)
        factored.clear()
        s1, diag = stepper.step(s0)
        stepper.step(s1)
        assert not diag.diverged and factored == []
        assert (diag.values["regime_phi"] < 1.0) == (factors == 2)


def test_no_phi_factor_at_regime_one():
    # regime 1 itself is shift-dominated: the stepper builds no factor for
    # a potential solve whose shift tau*lam2 is the operator scale, and
    # the step reports regime_phi >= 1 with no macro iterations
    cfg = RunConfig(nx=12, ny=12, dt=1e-6)
    lam2 = cfg.phys_params().lam2
    scale = diffusion.operator_scale(cfg.build_grid())
    tau = scale / lam2
    while tau * lam2 < scale:
        tau = float(np.nextafter(tau, np.inf))
    cfg = dataclasses.replace(cfg, tau=tau)
    grid, field, s0 = make_two_fluid_setup(cfg)
    stepper = APStepper(cfg.phys_params(), grid, field)
    assert stepper.phi_lu is None and stepper.macro_lu is None
    _, diag = stepper.step(s0)
    assert not diag.diverged
    assert diag.values["regime_phi"] >= 1.0
    assert diag.values["iters_phi_macro"] == 0
    assert diag.values["iters_phi_micro"] > 0


def test_steps_leave_the_operator_cache_unchanged():
    cfg, grid, field, s0 = stationary_setup()
    stepper = APStepper(cfg.phys_params(), grid, field)
    ops = diffusion.get_operator_set(field, grid)
    before = dict(vars(ops))
    s1, _ = stepper.step(s0)
    stepper.step(s1)
    assert diffusion.get_operator_set(field, grid) is ops
    after = vars(ops)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_phi_micro_preconditioned_at_large_dt():
    _, _, _, _, _, diag = perturbed_step(1e-8, nx=24, dt=1e-6)
    assert not diag.diverged
    assert diag.values["regime_phi"] < 1.0
    assert diag.values["iters_phi_micro"] <= 3
    # the criterion-9 residual bounds
    for a in ("i", "e"):
        assert diag.values[f"momentum_{a}"] <= 1e-6
        assert diag.values[f"continuity_{a}"] <= max(
            1e-6, 8.0 * diag.values[f"continuity_floor_{a}"])


def circular_setup(eta, tau, q0=(0.0, 0.0, 0.0)):
    """The circular field B = (y, -x, 0) on [1,2]^2 at 50^2 and the state
    n = 1 + tau * bump (the test case's bump of width parameter eta, 0
    for a constant), q_i = q_e = q0 in every cell and phi = 0: grid,
    field and state.  With eta = 0 and q0 = 0 the state is exactly
    stationary on any field."""
    grid = Grid((1.0, 1.0), (2.0, 2.0), (50, 50))
    field = MagneticField.from_function(grid, lambda x, y: (y, -x, 0 * x))
    x, y = grid.cell_coords()
    bump = np.maximum(0.0, 1.0 - eta * (x - 1.5) ** 2 - eta * (y - 1.5) ** 2)
    q = np.broadcast_to(np.asarray(q0, dtype=float)[:, None, None],
                        (3,) + grid.shape_cells)
    return grid, field, PlasmaState(n=1.0 + tau * bump, q_i_planes=q.copy(),
                                    q_e_planes=q.copy(),
                                    phi=np.zeros(grid.shape_cells))


def curved_run(eta, dt, steps=30, tau=1e-8, q0=(0.0, 0.0, 0.0)):
    """AP steps (30 by default) on ``circular_setup(eta, tau, q0)``: the
    initial state, the final state and every step's diagnostics values.
    Where b varies the aligned derivative has a non-trivial kernel, so
    both branches of each diffusion solve see it."""
    grid, field, s0 = circular_setup(eta, tau, q0)
    stepper = APStepper(PhysParams(**dict(PARAMS, tau=tau, dt=dt)), grid,
                        field)
    state, values = s0, []
    for _ in range(steps):
        state, diag = stepper.step(state)
        assert not diag.diverged, diag.note
        values.append(diag.values)
    return s0, state, values


# the bump at rest, and the bump with a uniform momentum that has parts
# along and across the circular b
CURVED_RUNS = [(q0, dt) for q0 in ((0.0, 0.0, 0.0), (0.3, 0.2, 0.5))
               for dt in (5e-9, 1e-6)]


@pytest.fixture(scope="module", params=CURVED_RUNS,
                ids=[f"{dt:g}" if not any(q0) else f"q{q0[0]}_{q0[1]}_{q0[2]}"
                     f"-{dt:g}" for q0, dt in CURVED_RUNS])
def curved_bump_run(request):
    q0, dt = request.param
    return curved_run(80.0, dt, q0=q0)


def test_curved_field_continuity_within_criterion_9(curved_bump_run):
    # measured: at most 0.034 of the bound max(1e-6, 8 * floor) at rest,
    # 0.11 (dt = 5e-9) and 1.7e-3 (1e-6) from the moving start, where
    # momentum across b_cell must carry no parallel flux
    for values in curved_bump_run[2]:
        for a in ("i", "e"):
            assert values[f"continuity_{a}"] <= max(
                1e-6, 8.0 * values[f"continuity_floor_{a}"])


@pytest.mark.parametrize("dt", [5e-9, 1e-6])
def test_curved_field_constant_state_stays_exactly_stationary(dt):
    s0, final, _ = curved_run(0.0, dt)
    for name in ("n", "q_i", "q_e", "phi"):
        assert np.array_equal(getattr(final, name), getattr(s0, name)), name


def test_curved_field_momentum_within_criterion_9(curved_bump_run):
    # measured: worst 2.9e-16 at dt = 5e-9 and 7.6e-17 at dt = 1e-6
    for values in curved_bump_run[2]:
        for a in ("i", "e"):
            assert values[f"momentum_{a}"] <= 1e-6


@pytest.mark.parametrize("scheme", ["ap", "classical"])
def test_run_from_rest_is_not_a_blowup(scheme):
    # q0 = 0 gives no momentum scale of its own: the growth limit scales
    # with |B| too, so the small momentum a first step makes is no blow-up
    cfg = RunConfig(nx=50, ny=50, dt=1e-6, t_end=5e-6)
    grid, field, s0 = circular_setup(80.0, cfg.tau)
    res = run_simulation(scheme, cfg, grid, field, s0)
    assert (res.diverged_step, res.note, res.steps) == (-1, "", 5)
    assert np.max(np.abs(res.final_state.q_i)) > 0.0


@pytest.mark.parametrize("dt", [5e-9, 1e-6])
def test_curved_field_ap_node_residual_linear_in_tau(dt):
    # criterion 8 on the circular field; measured slopes 1.000 (both
    # species) at dt = 5e-9, 0.950 (ion) and 1.047 (electron) at 1e-6
    taus = (1e-4, 1e-6, 1e-8)
    res = [curved_run(80.0, dt, steps=1, tau=tau)[2][0] for tau in taus]
    for a in ("i", "e"):
        slope = fit_slope(list(taus), [v[f"ap_node_{a}"] for v in res])
        assert 0.7 <= slope <= 1.3
