import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit.grid import Grid, GridSpec, grid_2d
from driftlimit.harness import fit_slope
from driftlimit.stencil import MagneticField, apply_dh, apply_dhstar, \
    apply_grad_star, assemble_dhstar, get_operator_set
from oracles import assemble_operator


def circular_field(grid):
    return MagneticField.from_function(
        grid, lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y),
                            np.zeros_like(x)))


@pytest.fixture
def small_grid():
    return grid_2d((1, 1), (2, 2), 7, 5)


def test_field_requires_unit_vectors(small_grid):
    g = small_grid
    b = np.zeros(g.shape_nodes + (3,))
    b[..., 0] = 1.1
    with pytest.raises(ValueError):
        MagneticField(b, np.ones(g.shape_nodes),
                      np.zeros(g.shape_cells + (3,)), np.ones(g.shape_cells))


def test_field_requires_positive_magnitude(small_grid):
    with pytest.raises(ValueError):
        MagneticField.from_function(
            small_grid, lambda x, y: (x - x, y - y, np.zeros_like(x)))


def test_dh_annihilates_constants(small_grid):
    f = MagneticField.uniform(small_grid, (0.6, 0.8, 0.0))
    out = apply_dh(np.full(small_grid.shape_cells, 4.2), f, small_grid)
    assert np.all(out == 0.0)


def test_dh_affine_along_b(small_grid):
    g = small_grid
    x, y = g.cell_coords()
    fx = MagneticField.uniform(g, (1.0, 0.0, 0.0))
    inner = g.interior_node_mask
    assert np.max(np.abs(apply_dh(x.copy(), fx, g)[inner] - 1.0)) < 1e-13
    fy = MagneticField.uniform(g, (0.0, 1.0, 0.0))
    assert np.max(np.abs(apply_dh(x + 2 * y, fy, g)[inner] - 2.0)) < 1e-13


def test_dhstar_zero_and_affine(small_grid):
    g = small_grid
    f = MagneticField.uniform(g, (1.0, 0.0, 0.0))
    assert np.all(apply_dhstar(np.zeros(g.shape_nodes), f, g) == 0.0)
    xn, _ = g.node_coords()
    out = apply_dhstar(xn, f, g)
    assert np.max(np.abs(out[1:-1, :] - 1.0)) < 1e-13


def test_grad_star_constant_affine_and_z(small_grid):
    g = small_grid
    assert np.all(apply_grad_star(np.full(g.shape_cells, 1.5), g) == 0.0)
    x, _ = g.cell_coords()
    gs = apply_grad_star(x.copy(), g)
    inner = g.interior_node_mask
    assert np.max(np.abs(gs[..., 0][inner] - 1.0)) < 1e-13
    assert np.all(gs[..., 2] == 0.0)


def test_b_dot_grad_star_equals_dh(small_grid):
    rng = np.random.default_rng(3)
    g = small_grid
    f = circular_field(g)
    p = rng.standard_normal(g.shape_cells)
    gs = apply_grad_star(p, g)
    lhs = np.einsum("...k,...k->...", f.b_nodes, gs)
    assert np.array_equal(lhs, apply_dh(p, f, g))


def test_summation_by_parts(small_grid):
    rng = np.random.default_rng(11)
    g = small_grid
    f = circular_field(g)
    for _ in range(5):
        p = rng.standard_normal(g.shape_cells)
        w = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
        lhs = np.sum(apply_dhstar(w, f, g) * p)
        rhs = -np.sum(w * apply_dh(p, f, g))
        bound = 1e-12 * np.linalg.norm(w) * np.linalg.norm(p)
        assert abs(lhs - rhs) <= bound


def test_assembled_matches_matrix_free(small_grid):
    # only dhstar is assembled; its interior block DE stands in for dh too,
    # whose interior rows are exactly -DE^T
    rng = np.random.default_rng(5)
    g = small_grid
    f = circular_field(g)
    D = assemble_dhstar(f, g)
    ops = get_operator_set(f, g)
    for _ in range(100):
        p = rng.standard_normal(g.shape_cells)
        w = rng.standard_normal(g.shape_nodes)
        mf = apply_dh(p, f, g).ravel()[ops.interior]
        assert np.linalg.norm(-(ops.DEt @ p.ravel()) - mf) \
            <= 1e-13 * (1 + np.linalg.norm(mf))
        mfd = apply_dhstar(w, f, g).ravel()
        assert np.linalg.norm(D @ w.ravel() - mfd) <= 1e-13 * (1 + np.linalg.norm(mfd))


def test_cell_operator_kernel_and_symmetry(small_grid):
    g = small_grid
    f = circular_field(g)
    xn, yn = g.node_coords()
    A = assemble_operator(f, 1.0 + 0.5 * np.sin(xn) ** 2 * np.sin(yn) ** 2, g)
    const = np.full(g.num_cells, 2.0)
    assert np.max(np.abs(A @ const)) < 1e-12
    dense = A.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() >= -1e-10 * eigs.max()


def test_operator_rejects_nonpositive_coeff(small_grid):
    g = small_grid
    f = circular_field(g)
    with pytest.raises(ValueError):
        assemble_operator(f, np.zeros(g.shape_nodes), g)


def test_interior_normal_operator_is_spd(small_grid):
    g = small_grid
    f = circular_field(g)
    ops = get_operator_set(f, g)
    dense = ops.N1.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.linalg.eigvalsh(dense).min() >= -1e-14


def test_second_order_consistency():
    errs, hs = [], []
    for n in (16, 32, 64):
        g = grid_2d((1, 1), (2, 2), n, n)
        f = circular_field(g)
        x, y = g.cell_coords()
        p = np.sin(2 * x) * np.cos(y)
        xn, yn = g.node_coords()
        bx, by = yn / np.hypot(xn, yn), -xn / np.hypot(xn, yn)
        exact = bx * 2 * np.cos(2 * xn) * np.cos(yn) - by * np.sin(2 * xn) * np.sin(yn)
        err = (apply_dh(p, f, g) - exact)[g.interior_node_mask]
        errs.append(np.max(np.abs(err)))
        hs.append(1.0 / n)
    assert fit_slope(hs, errs) >= 1.9


def test_3d_operators_constants_and_affine():
    g = Grid(GridSpec(lo=(0, 0, 0), hi=(1, 2, 1), cells=(4, 5, 3)))
    f = MagneticField.uniform(g, (1.0, 0.0, 0.0))
    assert np.all(apply_dh(np.full(g.shape_cells, 3.0), f, g) == 0.0)
    x, _, _ = g.cell_coords()
    inner = g.interior_node_mask
    assert np.max(np.abs(apply_dh(x.copy(), f, g)[inner] - 1.0)) < 1e-13
    fz = MagneticField.uniform(g, (0.0, 0.0, 1.0))
    _, _, z = g.cell_coords()
    assert np.max(np.abs(apply_dh(2 * z, fz, g)[inner] - 2.0)) < 1e-13
    rng = np.random.default_rng(0)
    w = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
    p = rng.standard_normal(g.shape_cells)
    lhs = np.sum(apply_dhstar(w, fz, g) * p)
    rhs = -np.sum(w * apply_dh(p, fz, g))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(p)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.floats(0.1, 6.0))
def test_sbp_property_random_fields(nx, ny, angle):
    g = grid_2d((0, 0), (1, 1), nx, ny)
    f = MagneticField.uniform(g, (np.cos(angle), np.sin(angle), 0.3))
    rng = np.random.default_rng(nx * 100 + ny)
    p = rng.standard_normal(g.shape_cells)
    w = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
    lhs = np.sum(apply_dhstar(w, f, g) * p)
    rhs = -np.sum(w * apply_dh(p, f, g))
    assert abs(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(w) * np.linalg.norm(p))
