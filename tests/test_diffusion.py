from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from driftlimit import diffusion, harness
from driftlimit.diffusion import AnisoDiffusionProblem, SolverError, \
    macro_potential, solve_micro_macro
from driftlimit.grid import Grid
from driftlimit.harness import ManufacturedDiffusion
from driftlimit.stencil import MagneticField, apply_dh, apply_dhstar, \
    get_operator_set
from oracles import direct_macro_potential, manufactured_problem, \
    scaled_micro_solve, scipy_cg_solve, solve_direct


def circular_field(grid):
    return MagneticField.from_function(
        grid, lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y),
                            np.zeros_like(x)))


def solve_factored(prob, grid):
    """solve_micro_macro with the complete macro factor of the problem's
    field and grid, as an owner of the problem passes it."""
    return solve_micro_macro(
        prob, grid, macro_lu=diffusion.node_factor(prob.field, grid, 0.0))


def stiffness_matrix_free(v, field, coeff, grid):
    """A_H v = -dhstar(coeff * dh(v)) on the stencils, the flux zeroed on
    boundary nodes; independent of the assembled DE the solver uses."""
    masked = np.where(grid.interior_node_mask, coeff, 0.0)
    return -apply_dhstar(masked * apply_dh(v, field, grid), field, grid)


def reconstruction_residual(sol, prob, grid) -> float:
    """L2 residual of the original cell equation, the ground-truth check."""
    r = stiffness_matrix_free(sol.p, prob.field, prob.coeff, grid) \
        + prob.tau * prob.lam * sol.p - prob.tau * prob.rhs
    return float(np.linalg.norm(r))


def ap_limit_residual(sol, field, grid) -> float:
    """||dh p||_2 over the interior nodes (the flux condition zeroes the
    boundary node layer); compared across tau, it shows the O(tau) decay
    of the aligned derivative."""
    r = apply_dh(sol.p, field, grid)[grid.interior_node_mask]
    return float(np.linalg.norm(r))


def test_problem_validation():
    g = Grid((1, 1), (2, 2), (4, 4))
    f = circular_field(g)
    ones = np.ones(g.shape_nodes)
    rhs = np.ones(g.shape_cells)
    with pytest.raises(ValueError):
        AnisoDiffusionProblem(field=f, coeff=ones, lam=0.0, tau=1.0, rhs=rhs)
    for tau in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            AnisoDiffusionProblem(field=f, coeff=ones, lam=1.0, tau=tau,
                                  rhs=rhs)
    with pytest.raises(ValueError):
        AnisoDiffusionProblem(field=f, coeff=0 * ones, lam=1.0, tau=1.0, rhs=rhs)


@pytest.mark.parametrize("tau", [1e-9, 1e-2, 1.0])
def test_constant_solution(tau):
    g = Grid((1, 1), (2, 2), (9, 7))
    f = circular_field(g)
    xn, _ = g.node_coords()
    prob = AnisoDiffusionProblem(field=f, coeff=1.0 + 0.4 * np.cos(xn),
                                 lam=2.0, tau=tau,
                                 rhs=np.full(g.shape_cells, 2.0 * 5.0))
    sol = solve_factored(prob, g)
    assert np.max(np.abs(sol.p - 5.0)) < 1e-12
    assert np.max(np.abs(sol.q)) < 1e-12


def test_direct_rejects_tau_zero():
    g = Grid((1, 1), (2, 2), (5, 5))
    with pytest.raises(ValueError, match="tau must be positive"):
        solve_direct(manufactured_problem(ManufacturedDiffusion(g), 0.0), g)


def test_micro_macro_matches_direct_oracle():
    g = Grid((1, 1), (2, 2), (24, 24))
    m = ManufacturedDiffusion(g)
    for tau in (1e-1, 1e-2, 1e-3):
        prob = manufactured_problem(m, tau)
        mm = solve_factored(prob, g)
        direct = solve_direct(prob, g)
        rel = np.linalg.norm(mm.p - direct) / np.linalg.norm(direct + 2.0)
        assert rel <= 1e-8


def test_random_rhs_cross_method():
    rng = np.random.default_rng(12)
    g = Grid((1, 1), (2, 2), (16, 16))
    f = circular_field(g)
    prob = AnisoDiffusionProblem(field=f, coeff=np.ones(g.shape_nodes),
                                 lam=1.0, tau=1e-2,
                                 rhs=rng.standard_normal(g.shape_cells))
    mm = solve_factored(prob, g)
    direct = solve_direct(prob, g)
    assert np.linalg.norm(mm.p - direct) / np.linalg.norm(direct) <= 1e-8


@pytest.mark.parametrize("tau", [1e-2, 1e-6, 1e-9])
def test_reconstruction_residual_invariant(tau):
    # full form, constant background included: the residual bound is
    # stated against the total data and solution magnitudes
    g = Grid((1, 1), (2, 2), (24, 24))
    dev = manufactured_problem(ManufacturedDiffusion(g), tau)
    prob = AnisoDiffusionProblem(field=dev.field, coeff=dev.coeff, lam=dev.lam,
                                 tau=tau, rhs=dev.lam * 2.0 + dev.rhs)
    sol = solve_factored(prob, g)
    rr = reconstruction_residual(sol, prob, g)
    assert rr <= 1e-8 * (tau * np.linalg.norm(prob.rhs) + np.linalg.norm(sol.p))


@pytest.mark.parametrize("tau", [1e-2, 1e-9])
def test_deviation_form_residual_is_solver_quality(tau):
    g = Grid((1, 1), (2, 2), (24, 24))
    prob = manufactured_problem(ManufacturedDiffusion(g), tau)
    sol = solve_factored(prob, g)
    rr = reconstruction_residual(sol, prob, g)
    # dust left by the Krylov solves on the tau-independent data part
    assert rr <= 1e-9 * np.linalg.norm(prob.rhs)


def test_micro_macro_decomposition_structure():
    g = Grid((1, 1), (2, 2), (20, 20))
    prob = manufactured_problem(ManufacturedDiffusion(g), 1e-3)
    sol = solve_factored(prob, g)
    assert np.array_equal(sol.p, sol.pi + sol.q)
    # the micro part lies in K_perp: its projection onto the kernel vanishes
    h_q = macro_potential(sol.q, prob.field, g,
                          diffusion.node_factor(prob.field, g, 0.0))[0]
    q_kernel = sol.q + apply_dhstar(h_q, prob.field, g)
    assert np.linalg.norm(q_kernel) <= 1e-9 * (1 + np.linalg.norm(sol.q))
    # kernel membership of the macro part
    inner = g.interior_node_mask
    dh_pi = apply_dh(sol.pi, prob.field, g)[inner]
    assert np.max(np.abs(dh_pi)) <= 1e-8 * np.max(np.abs(sol.pi)) + 1e-12


def test_macro_part_is_the_limit_solution():
    # pi is formed before tau enters: every solve below regime 1 returns
    # the same limit solution, in the kernel of dh
    g = Grid((1, 1), (2, 2), (24, 24))
    m = ManufacturedDiffusion(g)
    rhs = np.random.default_rng(3).standard_normal(g.shape_cells)
    sols = [solve_factored(AnisoDiffusionProblem(
        field=m.field, coeff=m.H_nodes, lam=m.lam, tau=tau, rhs=rhs), g)
        for tau in (1e-9, 1e-3, 1.0)]
    assert sols[-1].regime < 1.0
    for sol in sols[1:]:
        assert np.array_equal(sol.pi, sols[0].pi)
    pi = sols[0].pi
    dh_pi = apply_dh(pi, m.field, g)[g.interior_node_mask]
    assert np.max(np.abs(dh_pi)) <= 1e-8 * np.max(np.abs(pi)) + 1e-12


def test_ap_limit_residual_scaling():
    g = Grid((1, 1), (2, 2), (24, 24))
    m = ManufacturedDiffusion(g)
    res = {}
    for tau in (1e-3, 1e-4):
        sol = solve_factored(manufactured_problem(m, tau), g)
        res[tau] = ap_limit_residual(sol, m.field, g)
    ratio = res[1e-3] / res[1e-4]
    assert 5.0 <= ratio <= 20.0


def node_field(values, grid):
    """Node field holding values on the interior nodes and 0 on the
    boundary layer."""
    v = np.zeros(grid.num_nodes)
    v[grid.interior_node_mask.ravel()] = values
    return v.reshape(grid.shape_nodes)


def test_micro_operator_matches_matrix_free():
    # the micro node operator N1 + shift/H, mapped to cells by DE H,
    # against the stencil realisation -dhstar(masked * dh(.)) + shift of
    # the cell system it stands for: DE H (N1 + shift/H) z
    # = (A_H + shift) DE z, for a curved coefficient and for 1
    g = Grid((1, 1), (2, 2), (12, 9))
    f = circular_field(g)
    xn, yn = g.node_coords()
    shift = 0.37
    rng = np.random.default_rng(3)
    for coeff in (1.0 + 0.5 * np.sin(3 * xn) ** 2 * np.cos(yn) ** 2,
                  np.ones(g.shape_nodes)):
        H = coeff[g.interior_node_mask]
        A = diffusion.node_operator(f, g, coeff, shift)
        for _ in range(20):
            z = rng.standard_normal(H.size)
            w = apply_dhstar(node_field(z, g), f, g)
            ref = stiffness_matrix_free(w, f, coeff, g) + shift * w
            got = apply_dhstar(node_field(H * A.dot(z), g), f, g)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def micro_problem(n=16, regime=0.05):
    """A micro problem on n x n cells whose coefficient is far from 1, at
    the given regime, with a node potential h that is 0 on the boundary
    layer, as the decomposition hands it over."""
    g = Grid((1, 1), (2, 2), (n, n))
    f = circular_field(g)
    xn, yn = g.node_coords()
    coeff = 1.0 + 0.5 * np.sin(3 * xn + 2 * yn)
    shift = regime * diffusion.operator_scale(g)
    rng = np.random.default_rng(12)
    h = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
    return g, f, coeff, shift, h


def node_system(h, field, grid, coeff, shift):
    """The micro node system's operator and right-hand side, its
    coefficient H on the interior nodes, and the map z -> w = DE z back
    to cells."""
    ops = get_operator_set(field, grid)
    H = coeff.ravel()[ops.interior]
    return (diffusion.node_operator(field, grid, coeff, shift),
            -h.ravel()[ops.interior] / H, H,
            lambda z: (ops.DE @ z).reshape(grid.shape_cells))


def test_preconditioned_micro_matches_cg():
    # a factor of the unit-coefficient operator N1 + shift preconditions a
    # micro solve whose coefficient is far from 1; the answer is the CG
    # answer without a factor
    g, f, coeff, shift, h = micro_problem()
    lu = diffusion.node_factor(f, g, shift)
    w_cg, it_cg, _ = diffusion.solve_micro(h, f, g, coeff, shift)
    w_pcg, it_pcg, _ = diffusion.solve_micro(h, f, g, coeff, shift, lu=lu)
    assert it_pcg <= 30 < it_cg
    assert np.linalg.norm(w_pcg - w_cg) <= 1e-10 * np.linalg.norm(w_cg)
    # the in-place PCG iterates are scipy's, bit for bit
    A, rhs, _, to_cells = node_system(h, f, g, coeff, shift)
    z_ref, it_ref = scipy_cg_solve(
        A, rhs, M=spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float))
    assert np.array_equal(w_pcg, to_cells(z_ref)) and it_pcg == it_ref


@pytest.mark.parametrize("tau", [1e-2, 1e-9])
def test_micro_cg_iterates_are_scipy_cg(tau):
    # the in-place CG keeps scipy's arithmetic order: same solution bits,
    # same iteration count, on the manufactured sweep's micro solve,
    # preconditioned by its coefficient when no factor is passed
    g = Grid((1, 1), (2, 2), (20, 20))
    m = ManufacturedDiffusion(g)
    h = m.lam * tau * m.h_p + m.h_g
    A, rhs, H, to_cells = node_system(h, m.field, g, m.H_nodes, tau * m.lam)
    w, iters, resid = diffusion.solve_micro(h, m.field, g, m.H_nodes,
                                            tau * m.lam)
    z_ref, iters_ref = scipy_cg_solve(
        A, rhs, M=spla.LinearOperator(A.shape, matvec=lambda r: H * r,
                                      dtype=float))
    assert np.array_equal(w, to_cells(z_ref)) and iters == iters_ref > 0
    assert 0.0 < resid < diffusion.SOLVER_RTOL


ORACLE_CASES = ["micro_problem-factor", "manufactured-complete",
                "manufactured-incomplete",
                *(f"regime{regime:g}-{n}" for n in (16, 64)
                  for regime in (1.0, 10.0, 1e3))]


def oracle_case_solves(case, monkeypatch):
    """The ``solve_micro`` arguments of an oracle case: micro_problem with
    its factor; the 20^2 manufactured sweep's micro solves with its
    complete or (no grid factored) incomplete N1 factor; or micro_problem
    at regime 1, 10 or 1e3 on 16^2 or 64^2 without a factor."""
    if case == "micro_problem-factor":
        g, f, coeff, shift, h = micro_problem()
        return [(h, f, g, coeff, shift, diffusion.node_factor(f, g, shift))]
    if case.startswith("manufactured"):
        incomplete = case == "manufactured-incomplete"
        if incomplete:
            monkeypatch.setattr(harness, "MAX_FACTORED_NODES", 0)
        g = Grid((1, 1), (2, 2), (20, 20))
        m = ManufacturedDiffusion(g, lam=1.5)
        assert isinstance(m.macro_lu, diffusion._SymmetricILU) == incomplete
        return [(m.lam * tau * m.h_p + m.h_g, m.field, g, m.H_nodes,
                 tau * m.lam, m.macro_lu) for tau in (1e-2, 1e-5, 1e-9)]
    regime, n = case.removeprefix("regime").split("-")
    g, f, coeff, shift, h = micro_problem(int(n), float(regime))
    return [(h, f, g, coeff, shift, None)]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_micro_solve_matches_scaled_oracle(case, monkeypatch):
    # solving for the node potential z with preconditioner F^-1, or
    # diag(H) without a factor, is PCG on the scaled system
    # (D N1 D + shift) y = -h / D, D = diag(sqrt(H)), with preconditioner
    # D^-1 F^-1 D^-1, or none, rewritten in z = D y: the same iteration
    # count, and the same solution up to the changed stopping norm
    for h, f, g, coeff, shift, lu in oracle_case_solves(case, monkeypatch):
        w, iters, _ = diffusion.solve_micro(h, f, g, coeff, shift, lu=lu)
        w_ref, iters_ref = scaled_micro_solve(h, f, g, coeff, shift, lu=lu)
        assert iters == iters_ref > 0
        assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)


@pytest.mark.parametrize("n", [16, 64])
def test_shift_dominated_micro_solve_is_preconditioned_by_its_coefficient(n):
    # at regime 1 a coefficient in [0.5, 1.5] takes 12-13 iterations with
    # the diag(H) preconditioner, and 19-22 without it
    g, f, coeff, shift, h = micro_problem(n, 1.0)
    assert diffusion.shift_dominated(g, shift)
    _, iters, _ = diffusion.solve_micro(h, f, g, coeff, shift)
    assert 0 < iters <= 15


FACTORS = {"complete": lambda f, g: diffusion.node_factor(f, g, 0.0),
           "incomplete": diffusion.incomplete_macro_factor}


@pytest.mark.parametrize("kind", FACTORS)
def test_macro_cg_iterates_are_scipy_cg(kind):
    # a macro solve is PCG on N1 preconditioned by either kind of factor
    g = Grid((1, 1), (2, 2), (20, 20))
    f = circular_field(g)
    gfield = np.random.default_rng(4).standard_normal(g.shape_cells)
    lu = FACTORS[kind](f, g)
    h, iters, _ = macro_potential(gfield, f, g, lu)
    ops = get_operator_set(f, g)
    rhs = apply_dh(gfield, f, g).ravel()[ops.interior]
    h_ref, iters_ref = scipy_cg_solve(
        ops.N1, rhs, M=spla.LinearOperator(ops.N1.shape, matvec=lu.solve,
                                           dtype=float))
    assert np.array_equal(h.ravel()[ops.interior], h_ref)
    assert iters == iters_ref > 0


def test_cg_without_convergence_names_its_solve(monkeypatch):
    # a tolerance no iterate can meet: the solve runs its maxiter, 200 for
    # 9 interior nodes, and says which solve stalled after how many
    # iterations.  CG ends on 9 unknowns well before that, and once its
    # recursive residual is exactly 0 the step length is 0/0
    g = Grid((1, 1), (2, 2), (4, 4))
    f = circular_field(g)
    h = np.random.default_rng(5).standard_normal(
        g.shape_nodes) * g.interior_node_mask
    monkeypatch.setattr(diffusion, "SOLVER_RTOL", 0.0)
    with pytest.raises(SolverError,
                       match="^micro part: no convergence after 200 "
                             "iterations"), np.errstate(invalid="ignore"):
        diffusion.solve_micro(h, f, g, np.ones(g.shape_nodes), 0.1)


@pytest.mark.parametrize("negated", ["preconditioner", "operator"])
def test_cg_stops_at_once_on_a_non_positive_product(negated, monkeypatch):
    # an indefinite preconditioner or operator would otherwise run CG to
    # its maxiter; r.z < 0 or p.Ap < 0 ends the solve where it shows
    g, f, coeff, shift, h = micro_problem()
    lu = None
    if negated == "preconditioner":
        factor = diffusion.node_factor(f, g, shift)
        lu = SimpleNamespace(solve=lambda r: -factor.solve(r))
    else:
        node_operator = diffusion.node_operator
        monkeypatch.setattr(diffusion, "node_operator",
                            lambda *args: -node_operator(*args))
    with pytest.raises(SolverError, match=f"^micro part: {negated} not "
                                          "positive at iteration 0$"):
        diffusion.solve_micro(h, f, g, coeff, shift, lu=lu)


class CountingFactor:
    """A factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


def test_preconditioned_micro_solve_is_one_factor_solve_per_iteration():
    # no probe solve: each PCG iteration applies the factor once
    g, f, coeff, shift, h = micro_problem()
    lu = CountingFactor(diffusion.node_factor(f, g, shift))
    _, iters, _ = diffusion.solve_micro(h, f, g, coeff, shift, lu=lu)
    assert iters > 0 and lu.calls == iters


@pytest.mark.parametrize("factored", [True, False],
                         ids=["factored", "incomplete"])
def test_manufactured_deviation_matches_matrix_free_solve(factored,
                                                          monkeypatch):
    # the sweep solves for the node potential of the micro part,
    # preconditioned by the complete or the incomplete N1 factor; the
    # cell-form superposition, solved by scipy's CG on the matrix-free
    # stencil operator, agrees
    if not factored:
        monkeypatch.setattr(harness, "MAX_FACTORED_NODES", 0)
    g = Grid((1, 1), (2, 2), (20, 20))
    m = ManufacturedDiffusion(g, lam=1.5)
    assert isinstance(m.macro_lu, diffusion._SymmetricILU) != factored
    for tau in (1e-2, 1e-5, 1e-9):
        rhs = -apply_dhstar(m.lam * tau * m.h_p + m.h_g, m.field, g)
        A = spla.LinearOperator(
            (g.num_cells, g.num_cells), dtype=float,
            matvec=lambda v: (stiffness_matrix_free(
                v.reshape(g.shape_cells), m.field, m.H_nodes, g)
                + tau * m.lam * v.reshape(g.shape_cells)).ravel())
        w = scipy_cg_solve(A, rhs.ravel())[0].reshape(g.shape_cells)
        ref = tau * m.p1_kernel + tau * w
        dev = m.solve_deviation(tau)
        assert np.linalg.norm(dev - ref) <= 1e-10 * np.linalg.norm(ref), tau


@pytest.mark.parametrize("tau", [1e-2, 1e-9])
def test_factored_manufactured_solve_is_a_few_factor_solves(tau,
                                                            monkeypatch):
    # tau*lam is tiny against the node operator's spectrum, so the N1
    # factor is an almost exact preconditioner: each PCG iteration
    # applies it once, and a few iterations reach the tolerance
    g = Grid((1, 1), (2, 2), (20, 20))
    m = ManufacturedDiffusion(g)
    m.macro_lu = lu = CountingFactor(m.macro_lu)
    solves = []

    def recording_solve_micro(*args, **kwargs):
        result = diffusion.solve_micro(*args, **kwargs)
        solves.append(result[1])
        return result

    monkeypatch.setattr(harness, "solve_micro", recording_solve_micro)
    m.solve_deviation(tau)
    assert len(solves) == 1 and 0 < solves[0] <= 3 and lu.calls == solves[0]


def test_incomplete_macro_factor_is_symmetric_and_positive():
    # CG needs a symmetric positive preconditioner; the incomplete factor
    # alone is neither, its symmetric part is applied
    g = Grid((1, 1), (2, 2), (20, 20))
    ilu = diffusion.incomplete_macro_factor(circular_field(g), g)
    rng = np.random.default_rng(10)
    n = get_operator_set(circular_field(g), g).N1.shape[0]
    for _ in range(20):
        x, y = rng.standard_normal((2, n))
        y_Px = y @ ilu.solve(x)
        assert abs(y_Px - x @ ilu.solve(y)) <= 1e-12 * abs(y_Px)
        assert x @ ilu.solve(x) > 0.0


def incomplete_manufactured_iterations(n, monkeypatch) -> list:
    """PCG iteration counts of both potentials and the micro solves at
    taus 1e-2, 1e-5 and 1e-9 of an n^2 manufactured problem, with no grid
    factored, so that every PCG runs on the incomplete N1 factor."""
    monkeypatch.setattr(harness, "MAX_FACTORED_NODES", 0)
    iterations = []

    def recording(solve):
        def wrapper(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result[1])
            return result
        return wrapper

    monkeypatch.setattr(harness, "macro_potential",
                        recording(diffusion.macro_potential))
    monkeypatch.setattr(harness, "solve_micro",
                        recording(diffusion.solve_micro))
    m = ManufacturedDiffusion(Grid((1, 1), (2, 2), (n, n)), lam=1.5)
    assert isinstance(m.macro_lu, diffusion._SymmetricILU)
    for tau in (1e-2, 1e-5, 1e-9):
        m.solve_deviation(tau)
    assert len(iterations) == 5
    # the problem keeps the same counts for its output record
    assert [pcg["iterations"] for pcg in m.record["pcgs"]] == iterations
    return iterations


def test_incomplete_manufactured_solves_take_a_few_iterations(monkeypatch):
    # measured: 3-4 iterations each
    iterations = incomplete_manufactured_iterations(20, monkeypatch)
    assert all(0 < it <= 5 for it in iterations), iterations


def test_incomplete_factor_keeps_its_quality_on_a_finer_grid(monkeypatch):
    # measured: 3-4 iterations each
    iterations = incomplete_manufactured_iterations(40, monkeypatch)
    assert all(0 < it <= 4 for it in iterations), iterations


def test_macro_part_insensitive_to_solver_path():
    # downstream quantities depend on h only through dhstar(h); any node
    # potential reaching the same projection gives the same macro part.
    # On 2D grids the interior-node count (n-1)^2 is below the cell count
    # n^2, so dhstar restricted there is injective and the potential is
    # unique anyway.
    g = Grid((1, 1), (2, 2), (6, 6))
    f = circular_field(g)
    D = get_operator_set(f, g).DE.toarray()
    assert np.linalg.svd(D, compute_uv=False).min() > 1e-8


@pytest.mark.parametrize("kind", FACTORS)
def test_macro_potential_matches_direct_solve(kind, monkeypatch):
    g = Grid((1, 1), (2, 2), (40, 40))
    f = circular_field(g)
    rng = np.random.default_rng(6)
    gfield = rng.standard_normal(g.shape_cells)
    h, iters, resid = macro_potential(gfield, f, g, FACTORS[kind](f, g))
    assert (iters == 1) == (kind == "complete")
    assert resid < diffusion.SOLVER_RTOL
    ref = apply_dhstar(direct_macro_potential(gfield, f, g), f, g)
    gap = np.linalg.norm(apply_dhstar(h, f, g) - ref)
    assert gap <= 1e-10 * np.linalg.norm(ref)
    # a tolerance no iterate meets: the PCG runs its maxiter, 200 for the
    # 9 interior nodes of a 4x4 grid, and names the macro solve
    g = Grid((1, 1), (2, 2), (4, 4))
    f = circular_field(g)
    monkeypatch.setattr(diffusion, "SOLVER_RTOL", 0.0)
    with pytest.raises(SolverError, match="^macro potential: no convergence "
                                          "after 200 iterations"), \
            np.errstate(invalid="ignore"):
        macro_potential(rng.standard_normal(g.shape_cells), f, g,
                        FACTORS[kind](f, g))


def test_factored_macro_solve_is_one_factor_solve():
    g = Grid((1, 1), (2, 2), (20, 20))
    f = circular_field(g)
    gfield = np.random.default_rng(9).standard_normal(g.shape_cells)
    lu = CountingFactor(diffusion.node_factor(f, g, 0.0))
    _, iters, _ = macro_potential(gfield, f, g, lu=lu)
    assert lu.calls == 1 and iters == 1


def test_macro_potential_projects_onto_complement():
    g = Grid((1, 1), (2, 2), (10, 10))
    f = circular_field(g)
    rng = np.random.default_rng(8)
    gfield = rng.standard_normal(g.shape_cells)
    h = macro_potential(gfield, f, g, diffusion.node_factor(f, g, 0.0))[0]
    kernel_part = gfield + apply_dhstar(h, f, g)
    # the projection onto K is orthogonal to every dhstar image
    w = rng.standard_normal(g.shape_nodes) * g.interior_node_mask
    ip = np.sum(kernel_part * apply_dhstar(w, f, g))
    assert abs(ip) <= 1e-8 * np.linalg.norm(kernel_part) * np.linalg.norm(w)


def test_regime_flags_shift_dominated_problem():
    g = Grid((1, 1), (2, 2), (8, 8))
    f = circular_field(g)
    prob = AnisoDiffusionProblem(field=f, coeff=np.ones(g.shape_nodes),
                                 lam=1.0, tau=1e9,
                                 rhs=np.ones(g.shape_cells))
    sol = solve_micro_macro(prob, g)
    assert sol.regime > 1.0 and sol.iterations["macro"] == 0
    # the branch test is the regime at unit coefficient, and regime 1
    # itself is shift-dominated
    scale = diffusion.operator_scale(g)
    assert diffusion.shift_dominated(g, scale)
    assert not diffusion.shift_dominated(g, np.nextafter(scale, 0.0))
    prob.tau = 1e-3
    prob.rhs = np.cos(np.arange(g.num_cells)).reshape(g.shape_cells)
    sol = solve_factored(prob, g)
    assert sol.regime < 1.0 and sol.iterations["macro"] == 1


def test_solve_below_regime_one_requires_macro_factor():
    # the solve builds no factor: a caller in a time loop would pay one
    # sparse LU per solve
    g = Grid((1, 1), (2, 2), (8, 8))
    prob = AnisoDiffusionProblem(field=circular_field(g),
                                 coeff=np.ones(g.shape_nodes), lam=1.0,
                                 tau=1e-3, rhs=np.ones(g.shape_cells))
    assert not diffusion.shift_dominated(g, prob.tau * prob.lam)
    with pytest.raises(ValueError, match="needs macro_lu"):
        solve_micro_macro(prob, g)


@pytest.mark.parametrize("regime", [1.0, 10.0, 1e3])
def test_shift_dominated_solve_matches_direct(regime):
    # at and above regime 1 the solve is one micro solve for p - f/lam,
    # with no macro part: on a curved field with a curved coefficient it
    # matches the direct solve of the assembled cell system, which also
    # ties the matrix-free dh(f) of its data to the assembled DE of its
    # operator, as the kernel check does below regime 1
    g = Grid((1, 1), (2, 2), (24, 20))
    f = circular_field(g)
    xn, yn = g.node_coords()
    coeff = 1.0 + 0.5 * np.sin(3 * xn) ** 2 * np.cos(yn) ** 2
    rng = np.random.default_rng(5)
    lam = 3.0
    prob = AnisoDiffusionProblem(
        field=f, coeff=coeff, lam=lam,
        tau=regime * diffusion.operator_scale(g) / lam,
        rhs=2.0 + rng.standard_normal(g.shape_cells))
    assert diffusion.shift_dominated(g, prob.tau * lam)
    sol = solve_micro_macro(prob, g)
    direct = solve_direct(prob, g)
    assert np.linalg.norm(sol.p - direct) <= 1e-12 * np.linalg.norm(direct)
    assert sol.iterations["macro"] == 0 and sol.iterations["micro"] > 0
    assert sol.residuals["macro"] == 0.0 and sol.kernel_residual == 0.0
    assert np.array_equal(sol.pi, prob.rhs / lam)
    assert np.array_equal(sol.p, sol.pi + sol.q)
