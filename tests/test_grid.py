import numpy as np
import pytest

import oracles
from driftlimit.grid import Grid, cell_from_nodes, components, \
    discrete_norms, node_average, write_field_csv


def test_smallest_grid_counts():
    g = Grid((1, 1), (2, 2), (2, 2))
    assert g.num_cells == 4
    assert g.num_nodes == 9
    assert g.interior_node_mask.sum() == 1


def test_reference_grid_counts():
    g = Grid((1, 1), (2, 2), (100, 100))
    assert g.spacing == (0.01, 0.01)
    assert g.num_cells == 10000


@pytest.mark.parametrize("bad", [
    dict(lo=(0, 0), hi=(1, 1), cells=(1, 4)),
    dict(lo=(0, 0), hi=(0, 1), cells=(4, 4)),
    dict(lo=(0, 0), hi=(1, 1), cells=(4,)),
    dict(lo=(0,), hi=(1,), cells=(4,)),
    dict(lo=(0, 0, 0), hi=(1, 1, 1), cells=(4, 4, 4)),
    dict(lo=(0, 0, 0), hi=(1, 1), cells=(4, 4)),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


def test_node_average_constant_and_mean():
    g = Grid((1, 1), (2, 2), (2, 2))
    const = node_average(np.full((2, 2), 3.7), g)
    assert np.all(const == 3.7)
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert node_average(u, g)[1, 1] == pytest.approx(2.5)


def test_node_average_affine_exact():
    g = Grid((1, 1), (2, 2), (8, 6))
    x, _ = g.cell_coords()
    xn, _ = g.node_coords()
    w = node_average(x, g)
    inner = g.interior_node_mask
    assert np.max(np.abs(w[inner] - xn[inner])) < 1e-14


def test_cell_from_nodes_constant_affine_and_hat():
    g = Grid((1, 1), (2, 2), (4, 4))
    assert np.all(cell_from_nodes(np.full(g.shape_nodes, 2.0), g) == 2.0)
    xn, _ = g.node_coords()
    x, _ = g.cell_coords()
    assert np.max(np.abs(cell_from_nodes(xn, g) - x)) < 1e-14
    hat = np.zeros(g.shape_nodes)
    hat[2, 2] = 1.0
    v = cell_from_nodes(hat, g)
    assert v[1, 1] == v[1, 2] == v[2, 1] == v[2, 2] == pytest.approx(0.25)
    assert v.sum() == pytest.approx(1.0)


def test_composition_is_smoothing():
    rng = np.random.default_rng(7)
    g = Grid((0, 0), (1, 1), (9, 5))
    u = rng.standard_normal(g.shape_cells)
    v = cell_from_nodes(node_average(u, g), g)
    assert v.max() <= u.max() + 1e-14
    assert v.min() >= u.min() - 1e-14


def test_discrete_norms_unit_measure():
    g = Grid((1, 1), (2, 2), (10, 10))
    l1, l2, linf = discrete_norms(np.ones(g.shape_cells), g)
    assert (l1, l2, linf) == pytest.approx((1.0, 1.0, 1.0), rel=1e-14)
    assert discrete_norms(np.zeros(g.shape_cells), g) == (0.0, 0.0, 0.0)


def test_discrete_norms_indicator():
    g = Grid((1, 1), (2, 2), (100, 100))
    u = np.zeros(g.shape_cells)
    u[3, 7] = 2.5
    l1, l2, linf = discrete_norms(u, g)
    assert l1 == pytest.approx(2.5e-4)
    assert linf == 2.5


def test_csv_dump_format(tmp_path):
    g = Grid((1, 1), (2, 2), (2, 3))
    path = tmp_path / "field.csv"
    u = np.arange(6.0).reshape(2, 3)
    write_field_csv(path, u, g)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 7
    # row-major: x varies slowest
    first = [float(v) for v in lines[1].split(",")]
    assert first == [1.25, 1 + 1 / 6, 0.0]

    vpath = tmp_path / "vec.csv"
    write_field_csv(vpath, np.ones(g.shape_cells + (3,)), g)
    vlines = vpath.read_text().split("\n")
    assert vlines[0] == "x,y,vx,vy,vz"
    assert vlines[1] == lines[1].rsplit(",", 1)[0] + ",1,1,1"
    assert len(vlines) == 8 and vlines[-1] == ""


def test_csv_full_precision(tmp_path):
    g = Grid((1, 1), (2, 2), (2, 2))
    u = np.full(g.shape_cells, 1.0 / 3.0)
    path = tmp_path / "prec.csv"
    write_field_csv(path, u, g)
    val = path.read_text().strip().split("\n")[1].split(",")[2]
    assert float(val) == 1.0 / 3.0


# the first four fit in the scalar field of a 2x2 grid
_SPECIAL = np.array([np.nan, np.inf, -0.0, 1e-300, -np.inf, -1e-300,
                     1.0 / 3.0, -2.5e17])


def _field(grid, width, seed):
    """Random values with the special floats spread over the cells."""
    shape = grid.shape_cells + ((3,) if width == 3 else ())
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = u.reshape(-1)
    k = min(flat.size, _SPECIAL.size)
    flat[rng.permutation(flat.size)[:k]] = _SPECIAL[:k]
    return u


def _dump_bytes(writer, u, grid, path):
    writer(path, u, grid)
    return path.read_bytes()


@pytest.mark.parametrize("grid", [
    Grid((1, 1), (2, 2), (2, 2)),
    Grid((-1.5, 1e-5), (2.25, 3), (37, 53)),
    Grid((1, 1), (2, 2), (100, 100))], ids=["2x2", "37x53", "100x100"])
def test_csv_dump_matches_oracle_bytes(grid, tmp_path):
    """Scalar and vector dumps, two fields of each on one grid and each
    written twice, write the bytes of the writer that formats every
    coordinate in every call.  Two more vector fields come as a state
    hands its momenta to the writer: strided (nx, ny, 3) views of
    contiguous (3, nx, ny) planes."""
    fields = [_field(grid, width, seed)
              for seed, width in enumerate((1, 3, 1, 3))]
    fields += [np.moveaxis(components(_field(grid, 3, seed)), 0, -1)
               for seed in (4, 5)]
    assert not fields[-1].flags.c_contiguous
    for seed, u in enumerate(fields):
        want = _dump_bytes(oracles.write_field_csv, u, grid,
                           tmp_path / "want.csv")
        for path in ("got.csv", "again.csv"):
            assert _dump_bytes(write_field_csv, u, grid,
                               tmp_path / path) == want, (seed, u.ndim, path)


def test_csv_dump_coordinates_follow_the_domain(tmp_path):
    """Two grids of one shape on different domains keep their own rows."""
    a = Grid((1, 1), (2, 2), (6, 4))
    b = Grid((-3, 0.5), (-1, 0.75), (6, 4))
    u = _field(a, 1, 3)
    got = [_dump_bytes(write_field_csv, u, g, tmp_path / "got.csv")
           for g in (a, b)]
    assert got[0] != got[1]
    assert got == [_dump_bytes(oracles.write_field_csv, u, g,
                               tmp_path / "want.csv") for g in (a, b)]
