"""The component-plane step kernels against the (..., 3) oracles.

``tests/oracles.py`` keeps the stiff force, the AP momentum update, the
step residuals, the parallel-flux composite and the classical gradient
as they were written on the (..., 3) vector layout.  On a field with a z
component the plane kernels sum their dot products in component order
where ``einsum`` reassociates, so the two agree to rounding; on the
planar reference field (b_z = 0) no sum can reassociate, and they agree
to the last bit.
"""

import numpy as np

import oracles
from driftlimit import ap_stepper
from driftlimit.ap_stepper import SPECIES, PhysParams, PlasmaState
from driftlimit.classical import central_gradient
from driftlimit.grid import Grid, components, cross, dot
from driftlimit.harness import RunConfig, make_two_fluid_setup
from driftlimit.stencil import MagneticField
from oracles import interleave


def random_state(grid, rng):
    vector = grid.shape_cells + (3,)
    return PlasmaState(n=rng.uniform(0.5, 2.0, grid.shape_cells),
                       q_i_planes=components(rng.uniform(-1.5, 1.5, vector)),
                       q_e_planes=components(rng.uniform(-1.5, 1.5, vector)),
                       phi=rng.standard_normal(grid.shape_cells))


def explicit_parallel(q, fv, field, dt):
    """Per species the plane b_cell . (q - dt mom), as a step forms it."""
    b = field.b_cell_planes
    return {a: dot(b, q[a]) - dt * dot(b, fv[a]["mom"]) for a in SPECIES}


def kernel_pairs(field, grid, p, rng):
    """(name, plane kernel, oracle) results on the (..., 3) layout for a
    random pair of time levels."""
    s0, s1 = random_state(grid, rng), random_state(grid, rng)
    q0 = {a: s0.q(a) for a in SPECIES}
    fv = ap_stepper.species_fv_divergence(s0, field, grid)
    par = explicit_parallel(q0, fv, field, p.dt)
    fv_vec = {a: {"mass": fv[a]["mass"], "mom": interleave(fv[a]["mom"])}
              for a in SPECIES}
    forces = ap_stepper.stiff_force_terms(s1.n, s1.phi, field, p, grid)
    want_forces = oracles.stiff_force_terms(s1.n, s1.phi, field, p, grid)
    want_q = oracles.ap_momentum_update(s0, fv_vec, want_forces, field, p)
    pairs = []
    for a in SPECIES:
        s, f_par, P_c = forces[a]
        for name, got, want in zip(("s", "f_par", "P_c"),
                                   (s, f_par, interleave(P_c)),
                                   want_forces[a]):
            pairs.append((f"{name}_{a}", got, want))
        q_new = ap_stepper.update_momentum(a, q0[a], par[a], fv[a],
                                           forces[a], field, p)
        pairs.append((f"q_new_{a}", interleave(q_new), want_q[a]))

    got = ap_stepper.step_residuals(s0, s1, par, field, p, grid, fv, forces)
    want = oracles.step_residuals(s0, s1, field, p, grid, fv_vec,
                                  want_forces)
    assert list(got) == list(want)
    pairs.append(("step_residuals", np.array(list(got.values())),
                  np.array(list(want.values()))))

    v = rng.standard_normal((3,) + grid.shape_cells)
    pairs.append(("_div_parallel",
                  ap_stepper._div_parallel(dot(field.b_cell_planes, v),
                                           field, grid),
                  oracles._div_parallel(interleave(v), field, grid)))
    gx, gy = central_gradient(s0.phi, grid)
    pairs.append(("central_gradient",
                  interleave((gx, gy, np.zeros(grid.shape_cells))),
                  oracles.central_gradient(s0.phi, grid)))
    return pairs


def curved_case():
    """A 13x11 grid, a field with a z component whose direction varies
    from cell to cell, and parameters with two distinct eta_a."""
    g = Grid((1.0, 1.0), (2.0, 2.0), (13, 11))
    f = MagneticField.from_function(
        g, lambda x, y: (np.sin(3 * y), 1.0 + 0.5 * np.cos(2 * x), 0.3 + x * y))
    assert np.min(np.abs(f.b_cells[..., 2])) > 0.05
    return g, f, PhysParams(tau=1e-3, eps=0.25, T_e=3.0, C=1e-2, dt=1e-3)


def test_plane_kernels_match_oracles_on_curved_field():
    g, f, p = curved_case()
    rng = np.random.default_rng(23)
    for _ in range(3):
        for name, got, want in kernel_pairs(f, g, p, rng):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), \
                name


def test_plane_kernels_bitwise_oracles_on_reference_field():
    cfg = RunConfig(nx=12, ny=9, dt=1e-6)
    g, f, _ = make_two_fluid_setup(cfg)
    assert np.all(f.b_cells[..., 2] == 0.0)
    rng = np.random.default_rng(29)
    for _ in range(3):
        for name, got, want in kernel_pairs(f, g, cfg.phys_params(), rng):
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name


def test_force_along_b_moves_only_the_parallel_momentum():
    # zeroing f_par leaves q_new's part across b_cell unchanged and moves
    # its part along b_cell by (dt/eta) f_par: the stiff parallel force
    # enters the momentum along b_cell alone, also where b varies
    g, f, p = curved_case()
    rng = np.random.default_rng(31)
    s0, s1 = random_state(g, rng), random_state(g, rng)
    q0 = {a: s0.q(a) for a in SPECIES}
    fv = ap_stepper.species_fv_divergence(s0, f, g)
    expl = explicit_parallel(q0, fv, f, p.dt)
    forces = ap_stepper.stiff_force_terms(s1.n, s1.phi, f, p, g)
    b = f.b_cell_planes
    for a in SPECIES:
        s, f_par, P_c = forces[a]
        kick = (p.dt / (p.eps_a(a) * p.tau)) * f_par
        parts = []
        for force in (forces[a], (s, np.zeros_like(f_par), P_c)):
            q_new = np.array(ap_stepper.update_momentum(
                a, q0[a], expl[a], fv[a], force, f, p))
            par = dot(b, q_new)
            parts.append((par, q_new - b * par))
        (par, perp), (par0, perp0) = parts
        assert np.max(np.abs(perp - perp0)) <= 1e-14 * np.max(np.abs(perp))
        assert np.max(np.abs(par0 - par - kick)) <= \
            1e-14 * np.max(np.abs(kick))


def test_momentum_across_b_carries_no_parallel_flux():
    # the sources see momentum only through b_cell . q: a momentum across
    # b_cell adds no parallel flux to R or S where b varies, while one of
    # equal size along b_cell does
    g, f, p = curved_case()
    rng = np.random.default_rng(37)
    b = f.b_cell_planes
    perp = np.array(cross(b, rng.standard_normal((3,) + g.shape_cells)))
    along = b * np.sqrt(dot(perp, perp))
    zero = np.zeros(g.shape_cells)
    rest = PlasmaState(n=zero, q_i_planes=None, q_e_planes=None, phi=zero)
    fv = {a: {"mass": zero, "mom": np.zeros((3,) + g.shape_cells)}
          for a in SPECIES}

    def sources(v):
        # what momentum v of both species adds to R and to S
        par = explicit_parallel({a: v for a in SPECIES}, fv, f, p.dt)
        return (ap_stepper.assemble_R(rest, par, f, p, g, fv),
                ap_stepper.assemble_S(rest, par, zero, f, p, g, fv))

    for leak, flux in zip(sources(perp), sources(along)):
        assert np.max(np.abs(flux)) > 0.0
        assert np.max(np.abs(leak)) <= 1e-14 * np.max(np.abs(flux))
