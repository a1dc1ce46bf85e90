import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit.flux import _radius_field, explicit_flux_vector, fv_divergence
from driftlimit.grid import Grid
from driftlimit.harness import RunConfig, make_two_fluid_setup
from driftlimit.stencil import MagneticField
from oracles import ghost_fv_divergence

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def planes(v):
    """(..., 3) vectors as component planes, shape (3, ...)."""
    return np.moveaxis(np.asarray(v, dtype=float), -1, 0)


def vector_divergence(n, q, field, grid, c2=None):
    """fv_divergence on the (..., 3) layout: q as vectors, the divergence
    as (..., 4) rows."""
    return np.moveaxis(fv_divergence(n, planes(q), field, grid, c2), 0, -1)


def cell_flux(n, q, b, axis, c2=None):
    """explicit_flux_vector of one cell: (n, qx, qy, qz) rows."""
    return explicit_flux_vector(np.array([n], dtype=float), planes([q]),
                                planes([b]), axis, c2)[:, 0]


def cell_radius(n, q, b, axis, c2=None):
    """_radius_field of one cell."""
    return _radius_field(np.array([n], dtype=float), planes([q]),
                         planes([b]), axis, c2)[0]


# Dense single-state oracles for the vectorised viscosity speed and
# interface flux of ``fv_divergence``.

def flux_jacobian(u, b, axis):
    """4x4 Jacobian of the explicit (perpendicular mass) flux, u = q/n."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    J = np.zeros((4, 4))
    J[0, 1:] = np.eye(3)[axis] - b[axis] * b
    J[1:, 0] = -u[axis] * u
    J[1:, 1:] = u[axis] * np.eye(3)
    J[1:, 1 + axis] += u
    return J


def jacobian_spectral_radius(n, q, b, axis):
    """max |eigenvalue| of the 4x4 flux Jacobian, dense eigensolve."""
    u = np.asarray(q, dtype=float) / n
    return float(np.max(np.abs(np.linalg.eigvals(flux_jacobian(u, b, axis)))))


def rusanov_interface_flux(W_L, W_R, b_L, b_R, axis):
    """Single-interface flux F = (f_L + f_R)/2 - D (W_R - W_L)/2."""
    nL, qL = W_L
    nR, qR = W_R
    fL = cell_flux(nL, qL, b_L, axis)
    fR = cell_flux(nR, qR, b_R, axis)
    D = max(jacobian_spectral_radius(nL, qL, b_L, axis),
            jacobian_spectral_radius(nR, qR, b_R, axis))
    dW = np.concatenate(([nR - nL], np.asarray(qR) - np.asarray(qL)))
    return 0.5 * (fL + fR) - 0.5 * D * dW


def test_flux_zero_momentum():
    f = cell_flux(1.0, np.zeros(3), EZ, axis=0)
    assert np.all(f == 0.0)


def test_flux_hand_value():
    f = cell_flux(1.0, [1.0, 0.0, 0.0], EZ, axis=0)
    assert np.allclose(f, [1.0, 1.0, 0.0, 0.0])


def test_flux_parallel_momentum_has_no_mass_flux():
    b = np.array([0.6, 0.8, 0.0])
    q = 2.5 * b
    for axis in range(3):
        f = cell_flux(2.0, q, b, axis)
        assert abs(f[0]) < 1e-15


def test_jacobian_zero_velocity():
    assert jacobian_spectral_radius(1.0, np.zeros(3), EZ, 0) == 0.0


def test_jacobian_b_along_axis():
    # mass row vanishes; eigenvalues come out of the dense solve
    u = np.array([0.7, -0.3, 0.2])
    r = jacobian_spectral_radius(1.0, u, EX, 0)
    lams = np.linalg.eigvals(flux_jacobian(u, EX, 0))
    assert r == pytest.approx(np.max(np.abs(lams)))
    assert r == pytest.approx(2 * abs(u[0]))
    assert np.max(np.abs(flux_jacobian(u, EX, 0)[0])) == 0.0


def test_jacobian_scale_invariance():
    rng = np.random.default_rng(2)
    q = rng.standard_normal(3)
    b = np.array([0.0, 0.6, 0.8])
    r1 = jacobian_spectral_radius(1.0, q, b, 1)
    r2 = jacobian_spectral_radius(7.0, 7.0 * q, b, 1)
    assert r1 == pytest.approx(r2, rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.2, 5.0), st.tuples(*[st.floats(-3, 3)] * 3),
       st.tuples(*[st.floats(-1, 1)] * 3), st.integers(0, 2))
def test_radius_closed_form_matches_eigensolve(n, q, braw, axis):
    # the Jacobian can be defective (repeated eigenvalue, Jordan block),
    # where dense eigenvalues carry O(eps^(1/4)) errors; the closed form
    # is exact, so the comparison tolerance reflects the dense side
    b = np.asarray(braw)
    if np.linalg.norm(b) < 0.1:
        b = EZ.copy()
    b = b / np.linalg.norm(b)
    q = np.asarray(q)
    dense = jacobian_spectral_radius(n, q, b, axis)
    fast = cell_radius(n, q, b, axis)
    assert fast == pytest.approx(dense, rel=5e-4, abs=5e-4)


def test_radius_complex_root_cells_match_eigensolve():
    # kappa = u_a b_a (b . u) < 0 gives a complex root pair; evaluated as
    # one array with real-root cells, and with no square root of a
    # negative in either np.where branch
    rng = np.random.default_rng(11)
    n = rng.uniform(0.2, 5.0, 200)
    q = rng.uniform(-3.0, 3.0, (200, 3))
    b = rng.standard_normal((200, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    for axis in range(3):
        u = q / n[:, None]
        kappa = u[:, axis] * b[:, axis] * np.einsum("ik,ik->i", b, u)
        assert np.any(kappa < 0.0) and np.any(kappa > 0.0)
        with np.errstate(invalid="raise"):
            fast = _radius_field(n, planes(q), planes(b), axis)
        dense = [jacobian_spectral_radius(n[i], q[i], b[i], axis)
                 for i in range(n.size)]
        assert fast == pytest.approx(dense, rel=5e-4, abs=5e-4)


def test_rusanov_consistency():
    b = np.array([0.0, 0.6, 0.8])
    W = (1.3, np.array([0.2, -0.4, 1.0]))
    F = rusanov_interface_flux(W, W, b, b, axis=1)
    f = cell_flux(W[0], W[1], b, 1)
    assert np.allclose(F, f, atol=1e-15)


def test_rusanov_viscosity_dominates_both_sides():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        nL, nR = rng.uniform(0.5, 2, 2)
        qL, qR = rng.standard_normal(3), rng.standard_normal(3)
        FL = cell_flux(nL, qL, b, 0)
        FR = cell_flux(nR, qR, b, 0)
        F = rusanov_interface_flux((nL, qL), (nR, qR), b, b, 0)
        D2 = (0.5 * (FL + FR) - F)  # = D/2 (W_R - W_L)
        rad = max(jacobian_spectral_radius(nL, qL, b, 0),
                  jacobian_spectral_radius(nR, qR, b, 0))
        dW = np.concatenate(([nR - nL], qR - qL))
        assert np.allclose(D2, 0.5 * rad * dW, atol=1e-12)


def test_divergence_of_uniform_state_vanishes():
    g = Grid((1, 1), (2, 2), (6, 6))
    f = MagneticField.uniform(g, (np.sin(2.0), -np.cos(2.0), 0.0))
    n = np.full(g.shape_cells, 1.0)
    q = np.broadcast_to(f.b_cells[0, 0], g.shape_cells + (3,)).copy()
    div = vector_divergence(n, q, f, g)
    assert np.max(np.abs(div)) == 0.0


def test_divergence_1d_step_hand_computed():
    # 4x2 grid, jump in q_x along x, b = e_z so the mass flux is full q_x
    g = Grid((0, 0), (4, 2), (4, 2))
    f = MagneticField.uniform(g, (0.0, 0.0, 1.0))
    n = np.ones(g.shape_cells)
    q = np.zeros(g.shape_cells + (3,))
    q[:2, :, 0] = 1.0  # left half moves, right half at rest
    div = vector_divergence(n, q, f, g)

    # at the jump: fL = (1,1,0,0), fR = 0; with b normal to the axis the
    # Jacobian eigenvalues are all u_x, so D = max(|u_x|_L, |u_x|_R) = 1
    W_jump = np.array([0.0, -1.0, 0.0, 0.0])
    F_jump = 0.5 * np.array([1, 1, 0, 0.0]) - 0.5 * 1.0 * W_jump
    # all other x-interfaces carry the uniform-side flux
    F_left = np.array([1, 1, 0, 0.0])
    dx = 1.0
    expect_cell1 = (F_jump - F_left) / dx
    assert np.allclose(div[1, 0], expect_cell1, atol=1e-14)
    expect_cell2 = (np.zeros(4) - F_jump) / dx
    assert np.allclose(div[2, 0], expect_cell2, atol=1e-14)
    assert np.allclose(div[0, :], 0.0, atol=1e-14)
    assert np.allclose(div[3, :], 0.0, atol=1e-14)


def test_conservation_telescoping():
    rng = np.random.default_rng(9)
    g = Grid((0, 0), (1, 1), (8, 7))
    f = MagneticField.uniform(g, (0.6, 0.0, 0.8))
    n = 1.0 + 0.3 * rng.random(g.shape_cells)
    q = rng.standard_normal(g.shape_cells + (3,))
    div = vector_divergence(n, q, f, g)
    total = div.sum(axis=(0, 1)) * g.cell_volume

    # with copy ghosts the boundary interface flux equals the boundary
    # cell flux, so the telescoped total is the net boundary flux
    boundary = np.zeros(4)
    for axis, d in ((0, g.spacing[0]), (1, g.spacing[1])):
        lo = [slice(None)] * 2
        hi = [slice(None)] * 2
        lo[axis], hi[axis] = 0, -1
        area = g.cell_volume / d
        for sl, sign in ((tuple(hi), 1.0), (tuple(lo), -1.0)):
            F = explicit_flux_vector(n[sl], planes(q[sl]),
                                     planes(f.b_cells[sl]), axis)
            boundary += sign * area * F.sum(axis=1)
    assert np.allclose(total, boundary, atol=1e-12)


def test_divergence_flags_invalid_state():
    g = Grid((0, 0), (1, 1), (4, 4))
    f = MagneticField.uniform(g, (1.0, 0.0, 0.0))
    n = np.ones(g.shape_cells)
    n[2, 2] = -1.0
    with pytest.raises(FloatingPointError):
        vector_divergence(n, np.zeros(g.shape_cells + (3,)), f, g)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_flux_vector_rejects_nonpositive_density(bad):
    # fv_divergence checks the state first, so only a direct call reaches
    # the flux's own guard
    n = np.ones((4, 4))
    n[1, 2] = bad
    q = np.zeros((3, 4, 4))
    b = np.zeros((3, 4, 4))
    b[0] = 1.0
    with pytest.raises(FloatingPointError, match="non-positive density"):
        explicit_flux_vector(n, q, b, 0)


def test_pressure_flux_and_bound_options():
    # a number c2 selects the classical full flux: mass flux q_a, pressure
    # c2 * n on the axis momentum row and speed |u_a| + sqrt(c2); the AP
    # split flux (c2 None) keeps only the perpendicular mass flux
    n = 2.0
    q = [1.0, 0.5, -1.0]
    b = [0.6, 0.0, 0.8]
    assert np.allclose(cell_flux(n, q, b, 0, c2=9.0),
                       [1.0, 18.5, 0.25, -0.5], rtol=0, atol=1e-15)
    assert np.allclose(cell_flux(n, q, b, 1, c2=9.0),
                       [0.5, 0.25, 18.125, -0.25], rtol=0, atol=1e-15)
    assert np.allclose(cell_flux(n, q, b, 0),
                       [1.12, 0.5, 0.25, -0.5], rtol=0, atol=1e-15)
    assert cell_radius(n, q, b, 0, c2=9.0) == 3.5
    assert cell_radius(n, q, b, 1, c2=9.0) == 3.25

    # the 1D step of test_divergence_1d_step_hand_computed with c2 = 4:
    # left flux (1, 1 + 4, 0, 0), right flux (0, 4, 0, 0), D = 1 + 2
    g = Grid((0, 0), (4, 2), (4, 2))
    f = MagneticField.uniform(g, (0.0, 0.0, 1.0))
    nc = np.ones(g.shape_cells)
    qc = np.zeros(g.shape_cells + (3,))
    qc[:2, :, 0] = 1.0
    div = vector_divergence(nc, qc, f, g, c2=4.0)
    F_jump = 0.5 * np.array([1.0, 9.0, 0, 0]) \
        - 0.5 * 3.0 * np.array([0.0, -1.0, 0, 0])
    assert np.allclose(div[1, 0], F_jump - [1.0, 5.0, 0, 0], atol=1e-14)
    assert np.allclose(div[2, 0], [0.0, 4.0, 0, 0] - F_jump, atol=1e-14)
    assert np.allclose(div[0, :], 0.0, atol=1e-14)
    assert np.allclose(div[3, :], 0.0, atol=1e-14)


def random_state(grid, rng):
    n = rng.uniform(0.5, 2.0, grid.shape_cells)
    q = rng.uniform(-1.5, 1.5, grid.shape_cells + (3,))
    return n, q


@pytest.mark.parametrize("c2", [None, 9.0])
def test_divergence_matches_ghost_oracle_on_curved_field(c2):
    # b with a z component: the three-term dot products may round
    # differently from the oracle's einsum, within a few ulps
    g = Grid((1.0, 1.0), (2.0, 2.0), (13, 11))
    f = MagneticField.from_function(
        g, lambda x, y: (np.sin(3 * y), 1.0 + 0.5 * np.cos(2 * x), 0.3 + x * y))
    assert np.min(np.abs(f.b_cells[..., 2])) > 0.05
    rng = np.random.default_rng(17)
    for _ in range(5):
        n, q = random_state(g, rng)
        oracle = ghost_fv_divergence(n, q, f, g, c2)
        div = vector_divergence(n, q, f, g, c2)
        assert div.shape == oracle.shape == g.shape_cells + (4,)
        assert np.max(np.abs(div - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("c2", [None, 9.0])
def test_divergence_bitwise_ghost_oracle_on_reference_field(c2):
    # the reference field is uniform and planar (b_z = 0): no dot product
    # can reassociate, so the two layouts agree to the last bit
    g, f, _ = make_two_fluid_setup(RunConfig(nx=12, ny=9))
    assert np.all(f.b_cells[..., 2] == 0.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, q = random_state(g, rng)
        assert np.array_equal(vector_divergence(n, q, f, g, c2),
                              ghost_fv_divergence(n, q, f, g, c2))
