import dataclasses
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlimit import ap_stepper, harness
from driftlimit.ap_stepper import APStepper
from driftlimit.classical import stable_dt, step_classical
from driftlimit.diffusion import SolverError
from driftlimit.grid import Grid
from driftlimit.harness import ConvergenceTable, ManufacturedDiffusion, \
    RunConfig, boundary_band_mask, config_hash, div_aligned_flux, \
    fit_slope, make_two_fluid_setup, parse_config, run_c_study, \
    run_diffusion_validation, run_two_fluid, write_meta
from driftlimit.cli import main as cli_main


def test_defaults_match_reference_preset():
    cfg = parse_config()
    assert (cfg.nx, cfg.ny) == (100, 100)
    grid = cfg.build_grid()
    assert (grid.lo, grid.hi) == ((1.0, 1.0), (2.0, 2.0))
    assert cfg.tau == 1e-8
    assert cfg.eps == 1.0
    assert cfg.T_e == 3.0
    assert cfg.C == 1e-2
    assert cfg.alpha == pytest.approx(2 * math.pi / 3)
    assert cfg.eta == 80.0
    assert (cfg.x0, cfg.y0) == (1.5, 1.5)
    assert cfg.dt == 5e-9
    assert cfg.t_end == 6e-6


def test_config_rejects_unknown_keys(tmp_path):
    doc = tmp_path / "cfg.json"
    for key, value in (("tua", 1e-3), ("phi0", 0.0), ("band_frac", 0.08),
                       ("domain", [[1.0, 2.0], [1.0, 2.0]]), ("n0", 1.0)):
        doc.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            parse_config(doc)
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            parse_config(overrides=[f"{key}={value}"])


def test_config_rejects_invalid_values(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"tau": -1.0}))
    with pytest.raises(ValueError):
        parse_config(doc)
    doc.write_text(json.dumps({"T_e": 0.0}))
    with pytest.raises(ValueError, match="T_e must be positive"):
        parse_config(doc)


def test_overrides_parse_json_values():
    cfg = parse_config(overrides=["tau=1e-4", "nx=32", "scheme=ap"])
    assert cfg.tau == 1e-4
    assert cfg.nx == 32
    assert cfg.scheme == "ap"
    with pytest.raises(ValueError, match="key=value"):
        parse_config(overrides=["tau"])


def test_scale_shrinks_grid():
    cfg = parse_config(overrides=["scale=0.5"])
    assert cfg.build_grid().shape_cells == (50, 50)


def test_config_hash_stable_and_sensitive():
    a = parse_config()
    b = parse_config()
    assert config_hash(a) == config_hash(b)
    c = parse_config(overrides=["tau=1e-7"])
    assert config_hash(a) != config_hash(c)


def test_config_hash_ignores_output_directory(tmp_path):
    metas = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        write_meta(parse_config(out_dir=str(out)), out)
        metas.append(json.loads((out / "meta.json").read_text()))
    assert metas[0]["config_sha256"] == metas[1]["config_sha256"]
    assert metas[0]["config"]["out_dir"] == str(tmp_path / "a")


def test_meta_records_environment_outside_the_hash(tmp_path, monkeypatch):
    cfg = parse_config()
    metas = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        write_meta(cfg, tmp_path)
        metas.append(json.loads((tmp_path / "meta.json").read_text()))
    for meta in metas:
        env = meta["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == f"{blas['name']} {blas['version']}"
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert meta["config_sha256"] == config_hash(cfg)
    assert [m["environment"]["threads"]["OPENBLAS_NUM_THREADS"]
            for m in metas] == ["1", "2"]


@pytest.mark.parametrize("override", [
    "nx=abc", "nx=1", "ny=true", "domain=[1,2]", "domain=[[2,1],[1,2]]",
    "sigma=2", "classical_dt=fast", "classical_dt=-1e-9",
    "c_values=[1e-2,1e-3,1e-4,1e-5]", "out_dir=5", "grids=[8,16]",
    "tau_sweep=[1e-2,1e-4]", "h_sweep_taus=[]", "h_sweep_taus=[1e-2,-1e-9]",
    "tau_sweep=[1e-2,0,1e-4]", "dt_values=[]", "dt_values=[1e-6,0,1e-8]",
    "c_values=[1e-2,-1e-3,1e-4]", "c_horizons=[6e-6,-4e-6,2e-6]", "n0=0",
    "n0=-1", "tau=0", "c_values=[1e-2,1e-2,1e-4]", "dt_values=[1e-6,1e-6,1e-7]",
    "t_end=1e-12", "classical_dt=1e-5", "c_horizons=[6e-6,4e-6,5e-7]",
    "lam=0", "lam=-1", "output_interval=-1", "band_frac=-1", "band_frac=0",
    "band_frac=0.5", "h_sweep_taus=[1e-2,1e-2]", "h_sweep_taus=[1e-2,1.2e-2]",
    "grids=[25,50,50,100]", "tau_sweep=[1e-2,1e-3,1e-3]", "grids=[0,50,100]",
    "grids=[1,50,100]", "tau_sweep_grid=1", "scale=0.01", "scale=1e308",
    "nx=1" + "0" * 400, "nx=1000000000000", "ny=1000000000000",
    "tau_sweep_grid=20000", "grids=[25,50,100000]",
    "dt=1e300 t_end=1e300", "dt=1e-300 t_end=1e-300", "C=1e300",
    "dt_values=[1e-200,1e-7,1e-8]", "eps=1e-320", "tau=1e-320",
    "eps=1e-309 tau=1e10 C=100",
    "c_values=[1e300,1e-3,1e-4] dt_values=[1e-7,1e-8] "
    "c_horizons=[1e-7,1e-7,1e-7]"])
def test_cli_rejects_bad_config_at_parse_time(override, capsys):
    # a case may hold several space-separated overrides; the first names
    # the rejected key
    argv = ["simulate"]
    for item in override.split():
        argv += ["--override", item]
    assert cli_main(argv) == 2
    assert override.partition("=")[0] in capsys.readouterr().err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
    _json_values.map(json.dumps) | st.text(max_size=8)), max_size=4))
def test_parse_config_fuzz_returns_or_raises_value_error(items):
    try:
        parse_config(overrides=[f"{key}={raw}" for key, raw in items])
    except ValueError:
        pass


def test_two_fluid_setup_initial_state():
    cfg = parse_config(overrides=["nx=20", "ny=20"])
    grid, field, state = make_two_fluid_setup(cfg)
    B = np.array([math.sin(cfg.alpha), -math.cos(cfg.alpha), 0.0])
    assert np.allclose(state.q_i, B)
    assert np.allclose(state.q_e, B)
    assert np.all(state.phi == 0.0)
    x, y = grid.cell_coords()
    center = np.unravel_index(np.argmax(state.n), state.n.shape)
    assert abs(x[center] - 1.5) < 0.06 and abs(y[center] - 1.5) < 0.06
    assert state.n.max() == pytest.approx(1.0 + cfg.tau, rel=1e-6)
    # bump is compactly supported: boundary cells sit at the background
    assert np.all(state.n[0, :] == 1.0)


def test_slope_fit_recovers_synthetic_order():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [3.0 * h**2 for h in hs]
    assert fit_slope(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_convergence_table_csv(tmp_path):
    t = ConvergenceTable(parameter="h")
    for h in (0.1, 0.05, 0.025):
        t.add(h, (h**2, 2 * h**2, 3 * h**2))
    path = tmp_path / "conv.csv"
    t.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "h,L1,L2,Linf"
    assert lines[-1].startswith("slope,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        ConvergenceTable(parameter="h").slopes()


def test_manufactured_source_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", positive=True)
    p1 = ((x - 1) * (2 - x) * (y - 1) * (2 - y)) ** 3
    H = 1 + sympy.sin(x) ** 2 * sympy.sin(y) ** 2
    r = sympy.sqrt(x**2 + y**2)
    bx, by = y / r, -x / r
    flux = H * (bx * sympy.diff(p1, x) + by * sympy.diff(p1, y))
    div = sympy.diff(bx * flux, x) + sympy.diff(by * flux, y)
    f = sympy.lambdify((x, y), div, "numpy")
    xs = np.linspace(1.05, 1.95, 7)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    fd = div_aligned_flux(X, Y)
    assert np.max(np.abs(fd - f(X, Y))) <= 1e-9


def test_diffusion_validation_desk_scale(tmp_path):
    cfg = RunConfig(experiment="diffusion-validate", grids=(12, 24, 48),
                    h_sweep_taus=(1e-2, 1e-9),
                    tau_sweep=(1e-2, 1e-4, 1e-6, 1e-8),
                    tau_sweep_grid=24, out_dir=str(tmp_path))
    out = run_diffusion_validation(cfg)
    for tau, table in out["h_sweep"].items():
        for name, slope in table.slopes().items():
            assert 1.7 <= slope <= 2.3, (tau, name, slope)
    for name, slope in out["tau_sweep"].slopes().items():
        assert 0.9 <= slope <= 1.1, (name, slope)
    assert (tmp_path / "convergence_tau.csv").exists()
    assert (tmp_path / "convergence_h_tau1e-02.csv").exists()
    assert (tmp_path / "meta.json").exists()


def test_diffusion_validation_builds_each_grid_once(monkeypatch):
    built, alive = [], []
    init = ManufacturedDiffusion.__init__

    def counting_init(self, grid, *args, **kwargs):
        # each grid's problem is gone before the next one is built
        assert all(ref() is None for ref in alive)
        built.append(grid.shape_cells[0])
        alive.append(weakref.ref(self))
        init(self, grid, *args, **kwargs)

    monkeypatch.setattr(ManufacturedDiffusion, "__init__", counting_init)
    run_diffusion_validation(RunConfig(experiment="diffusion-validate",
                                       scale=0.1))
    # the tau sweep's grid (100 cells, scaled) is the ladder's own
    assert built == [4, 5, 10, 20]
    # a tau sweep grid off the ladder is built after it
    built.clear()
    out = run_diffusion_validation(RunConfig(
        experiment="diffusion-validate", scale=0.1, tau_sweep_grid=150))
    assert built == [4, 5, 10, 20, 15]
    assert [row[0] for row in out["h_sweep"][1e-2].rows] == \
        [1.0 / n for n in (4, 5, 10, 20)]
    assert len(out["tau_sweep"].rows) == len(RunConfig.tau_sweep)


def test_two_fluid_run_outputs_and_determinism(tmp_path):
    base = ["nx=12", "ny=12", "eta=0", "dt=1e-6", "t_end=4e-6",
            "output_interval=2"]
    cfg1 = parse_config(overrides=base, out_dir=str(tmp_path / "a"))
    out1 = run_two_fluid(cfg1)
    cfg2 = parse_config(overrides=base, out_dir=str(tmp_path / "b"))
    run_two_fluid(cfg2)

    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert meta["config"]["tau"] == 1e-8
    assert meta["config_sha256"] == config_hash(cfg1)
    assert meta["diverged_step"] == {"ap": -1, "classical": -1}
    diag = (tmp_path / "a" / "diagnostics.csv").read_text()
    assert diag.splitlines()[0].startswith("scheme,step,time,continuity_i")
    assert len(diag.splitlines()) == 1 + 4 + 4
    # intermediate + final dumps for both schemes
    assert (tmp_path / "a" / "fields_ap_t2.000000000e-06_n.csv").exists()

    # identical physics config -> bit-identical CSVs (meta echoes out_dir)
    names = sorted(p.name for p in (tmp_path / "a").iterdir()
                   if p.suffix == ".csv")
    assert len(names) > 3
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    # stationary preset preserved by both schemes
    for res in out1["results"].values():
        assert res.diverged_step == -1
        final = res.final_state
        assert np.max(np.abs(final.n - out1["initial"].n)) <= 1e-9


def test_step_values_are_the_diagnostics_columns(tmp_path):
    # every value a step reports has a diagnostics.csv column, and every
    # column past scheme, step, time and diverged is one the AP step fills
    cfg = parse_config(overrides=["nx=8", "ny=8", "dt=1e-6", "t_end=1e-6"],
                       out_dir=str(tmp_path))
    grid, field, s0 = make_two_fluid_setup(cfg)
    p = cfg.phys_params()
    _, diag = APStepper(p, grid, field).step(s0)
    assert not diag.diverged
    reported = set(harness.DIAGNOSTICS_COLUMNS) - {"scheme", "step", "time",
                                                   "diverged"}
    assert set(diag.values) == reported
    _, diag = step_classical(s0, field, p, grid)
    assert not diag.diverged and diag.values == {}
    run_two_fluid(cfg)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("scheme,step,time,continuity_i,continuity_e,"
                      "continuity_floor_i,continuity_floor_e,momentum_i,"
                      "momentum_e,ap_node_i,ap_node_e,iters_n_macro,"
                      "iters_n_micro,iters_phi_macro,iters_phi_micro,"
                      "resid_n_macro,resid_n_micro,resid_phi_macro,"
                      "resid_phi_micro,regime_n,regime_phi,kernel_n,"
                      "kernel_phi,diverged")


@pytest.mark.parametrize("dt", [5e-9, 1e-6])
def test_diagnostics_report_achieved_solver_residuals(dt, tmp_path):
    # each AP row holds the relative residual every Krylov or factored
    # solve of its step reached: in [0, SOLVER_RTOL]
    cfg = parse_config(overrides=["nx=16", "ny=16", f"dt={dt}",
                                  f"t_end={4 * dt}", "scheme=ap"],
                       out_dir=str(tmp_path))
    run_two_fluid(cfg)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        for slot in ("n", "phi"):
            for part in ("macro", "micro"):
                value = float(row[f"resid_{slot}_{part}"])
                assert 0.0 <= value <= 1e-12, (slot, part, value)


@pytest.mark.parametrize("classical_dt, dt, t_end, steps", [
    ("stable", 1e-5, 2e-5, 6)])
def test_classical_dt_sets_only_the_classical_step(classical_dt, dt, t_end,
                                                   steps):
    cfg = RunConfig(nx=8, ny=8, eta=0.0, dt=dt, t_end=t_end,
                    classical_dt=classical_dt).validate()
    out = run_two_fluid(cfg)
    ap, cl = out["results"]["ap"], out["results"]["classical"]
    assert (ap.dt, ap.steps, ap.diverged_step) == (dt, 2, -1)
    expected = stable_dt(out["initial"], cfg.phys_params(), out["grid"],
                         cfg.sigma)
    assert (cl.dt, cl.steps, cl.diverged_step) == (expected, steps, -1)
    assert cl.final_state.t == steps * expected


def test_final_state_dumped_once(tmp_path, monkeypatch):
    written = []
    write = harness.write_field_csv

    def counting(path, *args):
        written.append(path)
        write(path, *args)

    monkeypatch.setattr(harness, "write_field_csv", counting)
    cfg = parse_config(overrides=["nx=8", "ny=8", "t_end=1e-7",
                                  "output_interval=10"],
                       out_dir=str(tmp_path))
    run_two_fluid(cfg)
    # 20 steps per scheme: dumps after steps 10 and 20, the last of which
    # is the final state; 4 fields each
    assert len(written) == len(set(written)) == 2 * 2 * 4
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    header = rows[0].split(",")
    ap_row = dict(zip(header, rows[1].split(",")))
    assert ap_row["scheme"] == "ap"
    # the reference parameters put both AP solves in the shift-dominated
    # regime, where each is one micro solve: no macro part, so 0 macro
    # iterations and a kernel residual of 0 on every AP step
    assert float(ap_row["regime_n"]) > 1.0 and float(ap_row["regime_phi"]) > 1.0
    ap_rows = [dict(zip(header, line.split(","))) for line in rows[1:]]
    ap_rows = [row for row in ap_rows if row["scheme"] == "ap"]
    assert len(ap_rows) == 20
    for row in ap_rows:
        for slot in ("n", "phi"):
            assert int(row[f"iters_{slot}_macro"]) == 0
            assert float(row[f"resid_{slot}_macro"]) == 0.0
            assert float(row[f"kernel_{slot}"]) == 0.0
            assert int(row[f"iters_{slot}_micro"]) > 0


def test_underresolved_run_keeps_the_macro_parts_in_the_kernel(tmp_path):
    # at dt = 1e-6 on 32^2 both AP solves sit below regime 1, where each
    # is split into a macro and a micro part: one macro PCG iteration on
    # the stepper's complete factor, and the macro part in the discrete
    # kernel below the absolute floor 1e-12 of the solver's kernel
    # tolerance, on every AP step
    cfg = parse_config(overrides=["nx=32", "ny=32", "dt=1e-6", "t_end=3e-6",
                                  "scheme=ap"], out_dir=str(tmp_path))
    run_two_fluid(cfg)
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    header = rows[0].split(",")
    ap_rows = [dict(zip(header, line.split(","))) for line in rows[1:]]
    assert len(ap_rows) == 3
    for row in ap_rows:
        assert row["scheme"] == "ap" and row["diverged"] == "0"
        for slot in ("n", "phi"):
            assert float(row[f"regime_{slot}"]) < 1.0
            assert int(row[f"iters_{slot}_macro"]) == 1
            assert 0.0 <= float(row[f"kernel_{slot}"]) < 1e-12


def test_failed_step_keeps_the_time_of_its_state(tmp_path, monkeypatch):
    # the third step's density solve stalls: the step hands back its input
    # state, which holds step 2 and keeps that time in the run's final
    # state and in the name of its dump
    calls = []
    solve = ap_stepper.solve_micro_macro

    def stall_third_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:     # two solves per step
            raise SolverError("micro part: no convergence")
        return solve(*args, **kwargs)

    monkeypatch.setattr(ap_stepper, "solve_micro_macro", stall_third_step)
    cfg = parse_config(overrides=["nx=8", "ny=8", "dt=1e-6", "t_end=4e-6",
                                  "scheme=ap"], out_dir=str(tmp_path))
    out = run_two_fluid(cfg)
    res = out["results"]["ap"]
    assert (res.steps, res.diverged_step) == (3, 3)
    assert res.final_state.t == 2e-6
    assert out["initial"].t == 0.0
    dumped = np.loadtxt(tmp_path / "fields_ap_t2.000000000e-06_n.csv",
                        delimiter=",", skiprows=1)[:, 2]
    assert np.array_equal(dumped, res.final_state.n.ravel())
    assert not list(tmp_path.glob("*t3.000000000e-06*"))
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    last = dict(zip(rows[0].split(","), rows[-1].split(",")))
    assert (last["step"], float(last["time"]), last["diverged"]) == \
        ("3", 3 * 1e-6, "1")


def test_boundary_band_mask_width():
    g = Grid((1, 1), (2, 2), (25, 25))
    band = boundary_band_mask(g)
    assert band[0, 0] and band[0, 12] and band[12, 0]
    assert not band[12, 12]
    assert band[:, 0].all() and band[:, -1].all()


def test_classifier_reads_no_artifacts_without_a_reference_deviation():
    # a reference run that left q_i,x at its initial value gives no scale,
    # so even a run that differs inside the band is not flagged
    cfg = RunConfig(nx=12, ny=12)
    grid, _, initial = make_two_fluid_setup(cfg)
    state = initial.copy()
    state.q("i")[0][boundary_band_mask(grid)] += 1.0
    assert not harness.classify_boundary_artifacts(state, initial.copy(),
                                                   initial, grid)


def test_cli_simulate_and_errors(tmp_path, capsys):
    rc = cli_main(["simulate", "--override", "nx=8", "--override", "ny=8",
                   "--override", "eta=0", "--override", "dt=1e-6",
                   "--override", "t_end=2e-6", "--override", "scheme=ap",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "ap: 2 steps" in captured.out
    assert (tmp_path / "run" / "meta.json").exists()

    rc = cli_main(["simulate", "--override", "tau=-1"])
    assert rc == 2
    assert "tau" in capsys.readouterr().err


def test_cli_rejects_a_config_document_that_is_not_an_object(tmp_path,
                                                             capsys):
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps([["tau", 1e-4]]))
    assert cli_main(["simulate", "--config", str(doc)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_cli_stable_classical_run_ignores_dt(capsys):
    # a classical-only run at classical_dt = "stable" never takes dt, so a
    # t_end below dt passes parse time, and the run takes one CFL step
    argv = ["simulate"]
    for item in ("nx=8", "ny=8", "scheme=classical", "classical_dt=stable",
                 "t_end=1e-9"):
        argv += ["--override", item]
    assert cli_main(argv) == 0
    assert "classical: 1 steps (dt=3.608e-06), completed" in \
        capsys.readouterr().out


@pytest.mark.parametrize("T_e", ["0", "-1"])
def test_cli_rejects_nonpositive_te(T_e, capsys):
    assert cli_main(["simulate", "--override", f"T_e={T_e}"]) == 2
    assert "T_e must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("T_e", [1.0, 0.5])
@pytest.mark.parametrize("dt", [5e-9, 1e-6])
def test_ap_run_at_low_te_meets_residual_bounds(T_e, dt):
    # criterion 9's bounds on every step: T_e = 1 and T_e < 1 are in the
    # model's domain
    cfg = RunConfig(nx=40, ny=40, tau=1e-8, T_e=T_e, dt=dt,
                    t_end=8 * dt).validate()
    grid, field, state0 = make_two_fluid_setup(cfg)
    res = harness.run_simulation("ap", cfg, grid, field, state0)
    assert res.steps == 8 and res.diverged_step == -1
    assert res.final_state.is_finite()
    for row in res.diag_rows:
        for a in ("i", "e"):
            assert row[f"momentum_{a}"] <= 1e-6
            assert row[f"continuity_{a}"] <= max(
                1e-6, 8.0 * row[f"continuity_floor_{a}"])


def test_cli_diffusion_validate(tmp_path, capsys):
    rc = cli_main(["diffusion-validate", "--out", str(tmp_path),
                   "--override", "grids=[8,16,32]",
                   "--override", "tau_sweep=[1e-2,1e-5,1e-8]",
                   "--override", "tau_sweep_grid=16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "h-sweep" in out and "tau-sweep" in out


def test_cli_c_study_minimal(tmp_path, capsys):
    rc = cli_main(["c-study", "--out", str(tmp_path),
                   "--override", "nx=12", "--override", "ny=12",
                   "--override", "c_values=[1e-2]",
                   "--override", "dt_values=[1e-6,1e-7]",
                   "--override", "c_horizons=[2e-6]"])
    assert rc == 0
    assert "stable" in capsys.readouterr().out
    lines = (tmp_path / "stability_map.csv").read_text().strip().split("\n")
    assert lines[0] == "C,dt,verdict"
    assert len(lines) == 3


def test_c_study_writes_boundary_artifacts(tmp_path):
    cfg = RunConfig(nx=32, ny=32, c_values=(1e-4, 1e-5),
                    dt_values=(1e-5, 1e-6, 1e-7), c_horizons=(6e-5, 2e-5),
                    out_dir=str(tmp_path)).validate()
    out = run_c_study(cfg)
    runs = out["runs"]
    grid, _, initial = make_two_fluid_setup(cfg)
    band = boundary_band_mask(grid)

    def over_threshold(C, dt):
        """The classifier's band deviation over its threshold."""
        ref = runs[(C, min(cfg.dt_values))].final_state.q("i")[0]
        dev = runs[(C, dt)].final_state.q("i")[0] - ref
        return float(np.linalg.norm(dev[band])
                     / (0.5 * np.linalg.norm(ref - initial.q("i")[0])))

    # (1e-5, 1e-5) and (1e-5, 1e-6) read stable only because their
    # reference run diverged, so nothing was compared: not pinned
    expected = {(1e-4, 1e-5): "boundary-artifacts",
                (1e-4, 1e-6): "boundary-artifacts",
                (1e-4, 1e-7): "stable", (1e-5, 1e-7): "diverged"}
    for cell, verdict in expected.items():
        assert out["verdicts"][cell] == verdict, cell
    assert over_threshold(1e-4, 1e-5) == pytest.approx(1.73, abs=0.01)
    assert over_threshold(1e-4, 1e-6) == pytest.approx(1.28, abs=0.01)
    blown = runs[(1e-5, 1e-7)]
    assert (blown.diverged_step, blown.note) == (95, "blow-up detector")
    lines = (tmp_path / "stability_map.csv").read_text().splitlines()
    assert lines[0] == "C,dt,verdict" and len(lines) == 7
    written = {(float(C), float(dt)): verdict for C, dt, verdict in
               (line.split(",") for line in lines[1:])}
    assert {cell: written[cell] for cell in expected} == expected
