import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit.diffusion import node_operator
from driftlimit.grid import Grid
from driftlimit.harness import fit_slope
from driftlimit.stencil import MagneticField, apply_dh, apply_dhstar, \
    apply_grad_star, get_operator_set
from oracles import assemble_dhstar, assemble_operator, dia_from_csr


def circular_field(grid):
    return MagneticField.from_function(
        grid, lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y),
                            np.zeros_like(x)))


@pytest.fixture
def small_grid():
    return Grid((1, 1), (2, 2), (7, 5))


def test_field_requires_unit_vectors(small_grid):
    g = small_grid
    b_cells = np.zeros((3,) + g.shape_cells)
    b_cells[0] = 1.0
    for bad in (1.1, np.nan):
        b = np.zeros((3,) + g.shape_nodes)
        b[0] = bad
        with pytest.raises(ValueError, match="b must be unit"):
            MagneticField(b, np.ones(g.shape_nodes), b_cells,
                          np.ones(g.shape_cells))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("k", [0, 2])
def test_field_rejects_nonfinite_component(small_grid, bad, k):
    def B(x, y):
        comps = [np.ones_like(x), np.zeros_like(x), np.zeros_like(x)]
        comps[k] = np.where(x > 1.5, bad, comps[k])
        return comps

    with pytest.raises(ValueError, match="finite and positive"):
        MagneticField.from_function(small_grid, B)


def test_field_stores_contiguous_planes(small_grid):
    g = small_grid
    f = circular_field(g)
    for planes, shape in ((f.b_node_planes, g.shape_nodes),
                          (f.b_cell_planes, g.shape_cells)):
        assert planes.shape == (3,) + shape and planes.flags.c_contiguous
    assert f.b_cells.shape == g.shape_cells + (3,)
    assert np.shares_memory(f.b_cells, f.b_cell_planes)
    # strided planes in are stored contiguous
    again = MagneticField(np.asfortranarray(f.b_node_planes), f.bmag_nodes,
                          np.asfortranarray(f.b_cell_planes), f.bmag_cells)
    assert again.b_node_planes.flags.c_contiguous
    assert again.b_cell_planes.flags.c_contiguous
    assert np.array_equal(again.b_node_planes, f.b_node_planes)
    assert np.array_equal(again.b_cell_planes, f.b_cell_planes)


def test_field_planes_match_vector_sampling(small_grid):
    """Planes normalised plane by plane carry the bits of B stacked into
    (..., 3) vectors and normalised by their summed squares."""
    g = small_grid

    def B(x, y):
        return (y / np.hypot(x, y), -x / np.hypot(x, y), 0.3 * np.sin(x * y))

    f = MagneticField.from_function(g, B)
    for coords, planes, bmag in ((g.node_coords(), f.b_node_planes,
                                  f.bmag_nodes),
                                 (g.cell_coords(), f.b_cell_planes,
                                  f.bmag_cells)):
        V = np.stack(B(*coords), axis=-1)
        mag = np.sqrt((V * V).sum(axis=-1))
        assert np.array_equal(bmag, mag)
        assert np.array_equal(np.moveaxis(planes, 0, -1), V / mag[..., None])


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
    assert np.all(np.array(apply_grad_star(np.full(g.shape_cells, 1.5), g))
                  == 0.0)
    x, _ = g.cell_coords()
    gs = apply_grad_star(x.copy(), g)
    inner = g.interior_node_mask
    assert len(gs) == 2  # (gx, gy): the mesh is 2D, no z plane
    assert np.max(np.abs(gs[0][inner] - 1.0)) < 1e-13
    assert np.all(gs[1] == 0.0)


def test_b_dot_grad_star_equals_dh(small_grid):
    rng = np.random.default_rng(3)
    g = small_grid
    f = circular_field(g)
    p = rng.standard_normal(g.shape_cells)
    gx, gy = apply_grad_star(p, g)
    b_n = np.moveaxis(f.b_node_planes, 0, -1)
    lhs = b_n[..., 0] * gx + b_n[..., 1] * gy
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
    # the oracle assembles all of dhstar; the package assembles its interior
    # block DE, which stands in for dh too, whose interior rows are -DE^T
    rng = np.random.default_rng(5)
    g = small_grid
    f = circular_field(g)
    D = assemble_dhstar(f, g)
    ops = get_operator_set(f, g)
    for _ in range(100):
        p = rng.standard_normal(g.shape_cells)
        w = rng.standard_normal(g.shape_nodes)
        mf = apply_dh(p, f, g).ravel()[ops.interior]
        assert np.linalg.norm(-(ops.DE.T @ p.ravel()) - mf) \
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
        g = Grid((1, 1), (2, 2), (n, n))
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


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.integers(3, 8), st.floats(0.1, 6.0))
def test_sbp_property_random_fields(nx, ny, angle):
    g = Grid((0, 0), (1, 1), (nx, ny))
    f = MagneticField.uniform(g, (np.cos(angle), np.sin(angle), 0.3))
    rng = np.random.default_rng(nx * 100 + ny)
    p = rng.standard_normal(g.shape_cells)
    w = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
    lhs = np.sum(apply_dhstar(w, f, g) * p)
    rhs = -np.sum(w * apply_dh(p, f, g))
    assert abs(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(w) * np.linalg.norm(p))


def assert_operator_set_is_the_oracle_bit_for_bit(f, g):
    # DE and N1 are built from the corner weights; the Kronecker-product
    # assembly, its CSR product and its diagonal storage are the reference
    ops = get_operator_set(f, g)
    DE = assemble_dhstar(f, g)[:, ops.interior].tocsr()
    N1 = dia_from_csr((DE.T @ DE).tocsr())
    assert ops.DE.shape == DE.shape and ops.DE.has_canonical_format
    assert ops.DE.indices.dtype == ops.DE.indptr.dtype == np.int32
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ops.DE, name), getattr(DE, name)), name
    assert np.array_equal(ops.N1.offsets, N1.offsets)
    assert np.array_equal(ops.N1.data, N1.data)


@pytest.mark.parametrize("cells", [(12, 9), (2, 2), (3, 3), (2, 9), (9, 3)])
def test_diagonal_operators_equal_their_csr_products(cells):
    # both square operators are stored on at most nine diagonals: N1 bit
    # for bit the CSR product it comes from, and the micro node operator,
    # N1 shifted on its main diagonal, entry for entry
    # DE^T DE + diag(shift / H); while the interior is at most 2 nodes
    # wide, stencil offsets of distinct neighbours collide (+-1 and
    # +-(ny - 1) on 2 x 2 cells)
    g = Grid((1, 1), (2, 2), cells)
    f = circular_field(g)
    ops = get_operator_set(f, g)
    xn, yn = g.node_coords()
    coeff = 1.0 + 0.5 * np.sin(3 * xn) ** 2 * np.cos(yn) ** 2
    shift = 0.37
    A = node_operator(f, g, coeff, shift)
    A_ref = (ops.DE.T @ ops.DE
             + sp.diags(shift / coeff.ravel()[ops.interior])).toarray()
    for dia in (A, ops.N1):
        assert isinstance(dia, sp.dia_matrix) and len(dia.offsets) <= 9
    assert np.array_equal(ops.N1.toarray(), (ops.DE.T @ ops.DE).toarray())
    assert np.allclose(A.toarray(), A_ref, rtol=0.0,
                       atol=1e-14 * np.abs(A_ref).max())
    assert_operator_set_is_the_oracle_bit_for_bit(f, g)


RECTANGLE = Grid((0, 0), (3, 1), (12, 7))     # dx = 0.25, dy = 1/7
DX, DY = RECTANGLE.spacing


@pytest.mark.parametrize("B", [
    (np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3), 0.0),
    (np.cos(np.pi / 2), np.sin(np.pi / 2), 0.0),
    # axis-aligned: the y factor's products vanish and are dropped
    (1.0, 0.0, 0.0),
    # along a cell diagonal, bx/dx = +-by/dy: two corner weights of each
    # cell are exactly 0 and dropped, and N1 keeps 3 of its 9 diagonals
    (DX, DY, 0.0),
    (DX, -DY, 0.0),
    (0.3, -0.5, 0.8),
], ids=["2pi/3", "pi/2", "axis", "diagonal", "antidiagonal", "bz"])
def test_uniform_field_operator_set_is_the_oracle_bit_for_bit(B):
    assert_operator_set_is_the_oracle_bit_for_bit(
        MagneticField.uniform(RECTANGLE, B), RECTANGLE)


@pytest.mark.parametrize("hi, cells", [((2, 2), (25, 25)),
                                       ((2, 3), (11, 17))],
                         ids=["25x25", "11x17"])
def test_circular_field_operator_set_is_the_oracle_bit_for_bit(hi, cells):
    g = Grid((1, 1), hi, cells)     # 11x17 on [1,2]x[1,3]: dx != dy
    assert_operator_set_is_the_oracle_bit_for_bit(circular_field(g), g)
