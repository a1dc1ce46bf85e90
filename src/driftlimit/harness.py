"""Experiment library: diffusion validation, two-fluid runs, C study.

All experiments are driven by a flat ``RunConfig``; the CLI maps JSON
configs and ``key=value`` overrides onto it.  Outputs are plain CSV plus a
``meta.json`` with the fully resolved parameter set and a content hash, so
a run can be reproduced from its output directory alone.  No randomness
anywhere: identical configs give bit-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .ap_stepper import APStepper, PhysParams, PlasmaState
from .classical import BlowupDetector, stable_dt, step_classical
from .diffusion import AnisoDiffusionProblem, macro_potential, solve_micro
from .grid import Grid, GridSpec, discrete_norms, write_field_csv
from .stencil import MagneticField, apply_dhstar

P0 = 2.0


# ---------------------------------------------------------------------------
# Manufactured diffusion problem on [1,2]^2
# ---------------------------------------------------------------------------

def p1_exact(x, y):
    return ((x - 1.0) * (2.0 - x) * (y - 1.0) * (2.0 - y)) ** 3


def grad_p1_exact(x, y):
    u = (x - 1.0) * (2.0 - x)
    v = (y - 1.0) * (2.0 - y)
    du = 3.0 - 2.0 * x
    dv = 3.0 - 2.0 * y
    return 3.0 * u**2 * du * v**3, 3.0 * v**2 * dv * u**3


def coeff_H(x, y):
    return 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2


def unit_b(x, y):
    # (sin(theta), -cos(theta)) with theta = arctan(y/x)
    r = np.hypot(x, y)
    return y / r, -x / r


def aligned_flux(x, y):
    """H * b (b . grad p1), the flux whose divergence enters the source."""
    bx, by = unit_b(x, y)
    px, py = grad_p1_exact(x, y)
    Hbp = coeff_H(x, y) * (bx * px + by * py)
    return bx * Hbp, by * Hbp


def div_aligned_flux(x, y, step: float = 1e-5):
    """Divergence of the aligned flux by 4th-order central differences.

    Truncation at this step size is far below the scheme's O(h^2) error,
    and the formula never touches the discrete operators, so it stays an
    independent oracle.
    """
    def d4(f, h):
        return (-f(2 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2 * h)) / (12.0 * h)

    dV1 = d4(lambda h: aligned_flux(x + h, y)[0], step)
    dV2 = d4(lambda h: aligned_flux(x, y + h)[1], step)
    return dV1 + dV2


class ManufacturedDiffusion:
    """Manufactured validation problem on [1,2]^2 with prepared data.

    Two preparations keep the measured errors meaningful down to
    tau = 1e-9 on a fixed grid:

    - deviation form: the constant background P0 is split off (the scheme
      annihilates constants exactly), so every computed quantity carries
      the tau-scale structure at full floating-point resolution;
    - kernel compatibility: the tau-independent part of the source, the
      analytic aligned-flux divergence, is replaced by its orthogonal
      projection onto the discrete complement K_perp (realised as
      -dhstar(h_g)).  The projection discards an O(h^2) discrete-kernel
      component that the limit equation cannot see; without this
      preparation any exact solver of the discrete system carries a
      tau-independent O(h^2) offset and the O(tau) limit behaviour is
      unmeasurable.  The error reference stays the analytic solution.

    The per-tau sweep solution is assembled by superposing one
    tau-independent potential pair (h_g, h_p, solved once per grid) with a
    single micro solve per tau, so each solve's data is exactly
    tau-proportional.
    """

    def __init__(self, grid: Grid, lam: float = 1.0, rtol: float = 1e-12):
        self.grid = grid
        self.lam = lam
        self.rtol = rtol
        self.field = MagneticField.from_function(
            grid, lambda *c: (*unit_b(c[0], c[1]), np.zeros_like(c[0])))
        xn, yn = grid.node_coords()
        self.H_nodes = coeff_H(xn, yn)
        x, y = grid.cell_coords()
        self.p1 = p1_exact(x, y)
        g = -div_aligned_flux(x, y)
        self.h_g, _ = macro_potential(g, self.field, grid, rtol)
        self.h_p, _ = macro_potential(self.p1, self.field, grid, rtol)
        # K_perp projections of the source parts
        self.g_perp = -apply_dhstar(self.h_g, self.field, grid)
        self.p1_kernel = self.p1 + apply_dhstar(self.h_p, self.field, grid)

    def problem(self, tau: float) -> AnisoDiffusionProblem:
        """Deviation-form problem with the prepared source, for the generic
        solver and the direct oracle."""
        return AnisoDiffusionProblem(field=self.field, coeff=self.H_nodes,
                                     lam=self.lam, tau=tau,
                                     rhs=self.lam * tau * self.p1 + self.g_perp)

    def solve_deviation(self, tau: float) -> np.ndarray:
        """p_app - P0 by superposition; every term scales exactly with tau."""
        lam = self.lam
        pi = tau * self.p1_kernel
        rhs = -apply_dhstar(lam * tau * self.h_p + self.h_g,
                            self.field, self.grid)
        w, _ = solve_micro(self.field, self.H_nodes, tau * lam, rhs,
                           self.grid, self.rtol)
        return pi + tau * w

    def exact_deviation(self, tau: float) -> np.ndarray:
        return tau * self.p1


def fit_slope(values, errors) -> float:
    """Least-squares slope of log10(err) against log10(value)."""
    lx = np.log10(np.asarray(values, dtype=float))
    ly = np.log10(np.asarray(errors, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


@dataclass
class ConvergenceTable:
    parameter: str                      # "h" or "tau"
    rows: list = dataclass_field(default_factory=list)

    def add(self, value: float, norms: tuple[float, float, float]):
        self.rows.append((value, *norms))

    def slopes(self) -> dict:
        if len(self.rows) < 3:
            raise ValueError("need at least 3 rows for a slope fit")
        vals = [r[0] for r in self.rows]
        return {name: fit_slope(vals, [r[k] for r in self.rows])
                for k, name in ((1, "L1"), (2, "L2"), (3, "Linf"))}

    def write_csv(self, path):
        s = self.slopes()
        with open(path, "w") as fh:
            fh.write(f"{self.parameter},L1,L2,Linf\n")
            for row in self.rows:
                fh.write(",".join("%.17g" % v for v in row) + "\n")
            fh.write("slope,%.17g,%.17g,%.17g\n" % (s["L1"], s["L2"], s["Linf"]))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_TWO_PI_THIRDS = 2.0 * math.pi / 3.0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2


def _matches(value, default) -> bool:
    """True when value has the type of a key's default: a finite number for
    a float, an integer for an int, a list of such for a tuple."""
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _matches(v, default[0]) for v in value)
    return True


@dataclass
class RunConfig:
    """Flat configuration; defaults reproduce the reference two-fluid setup
    (perturbed stationary state, resolved time step)."""

    experiment: str = "simulate"
    nx: int = 100
    ny: int = 100
    domain: tuple = ((1.0, 2.0), (1.0, 2.0))
    tau: float = 1e-8
    eps: float = 1.0
    T_e: float = 3.0
    C: float = 1e-2
    dt: float = 5e-9
    t_end: float = 6e-6
    scheme: str = "both"
    alpha: float = _TWO_PI_THIRDS
    eta: float = 80.0
    x0: float = 1.5
    y0: float = 1.5
    n0: float = 1.0
    phi0: float = 0.0
    classical_dt: object = None         # None -> dt, "stable" -> CFL bound
    sigma: float = 0.5
    output_interval: int = 0
    out_dir: object = None
    scale: float = 1.0
    # diffusion validation
    grids: tuple = (25, 50, 100, 200)
    h_sweep_taus: tuple = (1e-2, 1e-9)
    tau_sweep: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
    tau_sweep_grid: int = 100
    lam: float = 1.0
    # C study
    c_values: tuple = (1e-2, 1e-3, 1e-4)
    dt_values: tuple = (1e-6, 1e-7, 1e-8)
    c_horizons: tuple = (6e-6, 4e-6, 2e-6)
    band_frac: float = 0.08

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _matches(value, f.default):
                raise ValueError(f"config key {f.name!r}: expected a value "
                                 f"like {f.default!r}, got {value!r}")
        for key in ("nx", "ny"):
            if getattr(self, key) < 2:
                raise ValueError(f"config key {key!r}: need at least 2 cells")
        if not (_is_pair(self.domain)
                and all(_is_pair(ax) and ax[0] < ax[1] for ax in self.domain)):
            raise ValueError("config key 'domain': expected two increasing "
                             f"pairs [[x0, x1], [y0, y1]], got {self.domain!r}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("config key 'sigma': must lie in (0, 1]")
        if not (self.classical_dt in (None, "stable")
                or (_is_number(self.classical_dt) and self.classical_dt > 0.0)):
            raise ValueError("config key 'classical_dt': expected null, "
                             f"\"stable\" or a positive number, got "
                             f"{self.classical_dt!r}")
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise ValueError("config key 'out_dir': expected a path string "
                             f"or null, got {self.out_dir!r}")
        for key in ("grids", "tau_sweep"):
            if len(getattr(self, key)) < 3:
                raise ValueError(f"config key {key!r}: the slope fit needs "
                                 "at least 3 entries")
        for key in ("h_sweep_taus", "tau_sweep"):
            taus = getattr(self, key)
            if not taus or min(taus) <= 0.0:
                raise ValueError(f"config key {key!r}: expected a nonempty "
                                 "list of positive values")
        if len(self.c_values) != len(self.c_horizons):
            raise ValueError("config keys 'c_values' and 'c_horizons' must "
                             "have the same length")
        if self.experiment not in ("simulate", "diffusion-validate", "c-study"):
            raise ValueError(f"config key 'experiment': unknown value "
                             f"{self.experiment!r}")
        if self.scheme not in ("ap", "classical", "both"):
            raise ValueError(f"config key 'scheme': unknown value {self.scheme!r}")
        if self.t_end <= 0.0:
            raise ValueError("config key 't_end': must be positive")
        if self.eta < 0.0:
            raise ValueError("config key 'eta': must be nonnegative")
        if not 0.0 < self.scale:
            raise ValueError("config key 'scale': must be positive")
        try:
            self.phys_params()
        except ValueError as exc:
            raise ValueError(f"physical parameters: {exc}") from exc
        return self

    def phys_params(self, dt: float = None) -> PhysParams:
        return PhysParams(tau=self.tau, eps=self.eps, T_e=self.T_e, C=self.C,
                          dt=self.dt if dt is None else dt)

    def build_grid(self) -> Grid:
        def scaled(n):
            return max(4, round(n * self.scale))
        (x0, x1), (y0, y1) = self.domain
        return Grid(GridSpec(lo=(x0, y0), hi=(x1, y1),
                             cells=(scaled(self.nx), scaled(self.ny))))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_config(path=None, overrides=(), **fixed) -> RunConfig:
    """Merge defaults <- JSON document <- overrides <- fixed kwargs."""
    cfg = RunConfig()
    valid = {f.name for f in dataclasses.fields(RunConfig)}

    def assign(key, value, where):
        if key not in valid:
            raise ValueError(f"{where}: unknown config key {key!r}")
        setattr(cfg, key, value)

    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config document must be a JSON object")
        for key, value in doc.items():
            assign(key, value, path)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        assign(key.strip(), value, f"override {key.strip()!r}")
    for key, value in fixed.items():
        if value is not None:
            assign(key, value, "cli")
    return cfg.validate()


def config_hash(cfg: RunConfig) -> str:
    """Hash of the resolved parameters; the output directory is not one."""
    params = cfg.as_dict()
    del params["out_dir"]
    doc = json.dumps(params, sort_keys=True, default=list)
    return hashlib.sha256(doc.encode()).hexdigest()


def write_meta(cfg: RunConfig, out_dir, extra: dict = None):
    meta = {"config": json.loads(json.dumps(cfg.as_dict(), default=list)),
            "config_sha256": config_hash(cfg)}
    if extra:
        meta.update(extra)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Two-fluid runs
# ---------------------------------------------------------------------------

def make_two_fluid_setup(cfg: RunConfig):
    """Grid, field and perturbed stationary initial state of the test case."""
    grid = cfg.build_grid()
    B = (math.sin(cfg.alpha), -math.cos(cfg.alpha), 0.0)
    field = MagneticField.uniform(grid, B)
    x, y = grid.cell_coords()
    bump = np.maximum(0.0, 1.0 - cfg.eta * (x - cfg.x0) ** 2
                      - cfg.eta * (y - cfg.y0) ** 2)
    n = cfg.n0 + cfg.tau * bump
    qvec = np.broadcast_to(np.asarray(B), grid.shape_cells + (3,)).copy()
    state = PlasmaState(n=n, q_i=qvec, q_e=qvec.copy(),
                        phi=np.full(grid.shape_cells, cfg.phi0), t=0.0)
    return grid, field, state


@dataclass
class SimulationResult:
    scheme: str
    dt: float
    final_state: PlasmaState
    steps: int
    diverged_step: int = -1             # -1: completed
    note: str = ""
    diag_rows: list = dataclass_field(default_factory=list)


def _num_steps(t_end: float, dt: float) -> int:
    steps = round(t_end / dt)
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        steps = math.ceil(t_end / dt - 1e-12)
    return max(steps, 1)


def run_simulation(scheme: str, cfg: RunConfig, grid: Grid,
                   field: MagneticField, state0: PlasmaState,
                   dt: float = None, t_end: float = None,
                   max_steps: int = None, dump_dir=None) -> SimulationResult:
    """Advance one scheme, recording per-step diagnostics and divergence."""
    dt = cfg.dt if dt is None else dt
    t_end = cfg.t_end if t_end is None else t_end
    params = cfg.phys_params(dt=dt)
    steps = _num_steps(t_end, dt)
    if max_steps is not None:
        steps = min(steps, max_steps)

    state = state0.copy()
    detector = BlowupDetector(state0)
    result = SimulationResult(scheme=scheme, dt=dt, final_state=state, steps=0)
    stepper = APStepper(params, grid, field) if scheme == "ap" else None

    for m in range(1, steps + 1):
        if scheme == "ap":
            state, diag = stepper.step(state)
        else:
            state, diag = step_classical(state, field, params, grid)
        state.t = m * dt
        if dump_dir and cfg.output_interval and m % cfg.output_interval == 0:
            _dump_state(dump_dir, f"{scheme}_t{state.t:.9e}", state, grid)
        row = {"step": m, "time": state.t, "diverged": diag.diverged}
        for key in ("continuity", "momentum", "ap_node", "continuity_floor",
                    "regime", "kernel"):
            for a, v in getattr(diag, key).items():
                row[f"{key}_{a}"] = v
        for slot, its in diag.iterations.items():
            for part, k in its.items():
                row[f"iters_{slot}_{part}"] = k
        result.diag_rows.append(row)
        result.steps = m
        if diag.diverged or detector(state):
            result.diverged_step = m
            result.note = diag.note or "blow-up detector"
            break

    result.final_state = state
    return result


def _dump_state(out_dir, tag: str, state: PlasmaState, grid: Grid):
    for name, data in (("n", state.n), ("phi", state.phi),
                       ("qi", state.q_i), ("qe", state.q_e)):
        write_field_csv(os.path.join(out_dir, f"fields_{tag}_{name}.csv"),
                        data, grid)


def _write_diagnostics(out_dir, results: list):
    keys = ["scheme", "step", "time", "continuity_i", "continuity_e",
            "continuity_floor_i", "continuity_floor_e",
            "momentum_i", "momentum_e", "ap_node_i", "ap_node_e",
            "iters_n_macro", "iters_n_micro", "iters_phi_macro",
            "iters_phi_micro", "regime_n", "regime_phi", "kernel_n",
            "kernel_phi", "diverged"]
    with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
        fh.write(",".join(keys) + "\n")
        for res in results:
            for row in res.diag_rows:
                vals = [res.scheme]
                for k in keys[1:]:
                    v = row.get(k, "")
                    if isinstance(v, bool):
                        v = int(v)
                    vals.append("%.17g" % v if isinstance(v, float) else str(v))
                fh.write(",".join(vals) + "\n")


def run_two_fluid(cfg: RunConfig) -> dict:
    grid, field, state0 = make_two_fluid_setup(cfg)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    results = {}
    for scheme in (("ap", "classical") if cfg.scheme == "both" else (cfg.scheme,)):
        dt = cfg.dt
        if scheme == "classical":
            if cfg.classical_dt == "stable":
                dt = stable_dt(state0, cfg.phys_params(), grid, cfg.sigma)
            elif cfg.classical_dt is not None:
                dt = float(cfg.classical_dt)
        results[scheme] = run_simulation(scheme, cfg, grid, field, state0,
                                         dt=dt, dump_dir=cfg.out_dir)

    if cfg.out_dir:
        write_meta(cfg, cfg.out_dir, extra={
            "diverged_step": {s: r.diverged_step for s, r in results.items()}})
        _write_diagnostics(cfg.out_dir, list(results.values()))
        for scheme, res in results.items():
            # the last step's interval dump already holds the final state
            if not (cfg.output_interval
                    and res.steps % cfg.output_interval == 0):
                _dump_state(cfg.out_dir, f"{scheme}_t{res.final_state.t:.9e}",
                            res.final_state, grid)
    return {"grid": grid, "field": field, "initial": state0, "results": results}


# ---------------------------------------------------------------------------
# Diffusion validation (h sweep at two tau, tau sweep at fixed grid)
# ---------------------------------------------------------------------------

def run_diffusion_validation(cfg: RunConfig) -> dict:
    lam = cfg.lam
    problems = {}                       # cells per side -> (grid, problem)

    def make(ncells):
        n = max(4, round(ncells * cfg.scale))
        if n not in problems:
            grid = Grid(GridSpec(lo=(1.0, 1.0), hi=(2.0, 2.0), cells=(n, n)))
            problems[n] = grid, ManufacturedDiffusion(grid, lam)
        return problems[n]

    h_tables = {}
    ladder = [make(nc) for nc in cfg.grids]
    for tau in cfg.h_sweep_taus:
        table = ConvergenceTable(parameter="h")
        for grid, m in ladder:
            dev = m.solve_deviation(tau)
            table.add(max(grid.spacing),
                      discrete_norms(dev - m.exact_deviation(tau), grid))
        h_tables[tau] = table

    grid, m = make(cfg.tau_sweep_grid)
    tau_table = ConvergenceTable(parameter="tau")
    for tau in cfg.tau_sweep:
        # deviation-form solution is exactly p_app - p0
        tau_table.add(tau, discrete_norms(m.solve_deviation(tau), grid))

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_meta(cfg, cfg.out_dir)
        for tau, table in h_tables.items():
            table.write_csv(os.path.join(cfg.out_dir,
                                         f"convergence_h_tau{tau:.0e}.csv"))
        tau_table.write_csv(os.path.join(cfg.out_dir, "convergence_tau.csv"))
    return {"h_sweep": h_tables, "tau_sweep": tau_table}


# ---------------------------------------------------------------------------
# C study
# ---------------------------------------------------------------------------

def boundary_band_mask(grid: Grid, frac: float) -> np.ndarray:
    """Cells whose center lies within frac * extent of the domain boundary."""
    x, y = grid.cell_coords()
    (x0, x1), (y0, y1) = ((grid.spec.lo[0], grid.spec.hi[0]),
                          (grid.spec.lo[1], grid.spec.hi[1]))
    w = frac * min(x1 - x0, y1 - y0)
    return ((x - x0 < w) | (x1 - x < w) | (y - y0 < w) | (y1 - y < w))


def classify_boundary_artifacts(state: PlasmaState, reference: PlasmaState,
                                background: float, grid: Grid,
                                band_frac: float, threshold: float = 0.5) -> bool:
    """True when the near-boundary q_i,x deviation from the reference run
    exceeds `threshold` times the global perturbation scale."""
    band = boundary_band_mask(grid, band_frac)
    dev = state.q_i[..., 0] - reference.q_i[..., 0]
    pert = reference.q_i[..., 0] - background
    scale = float(np.linalg.norm(pert))
    if scale == 0.0:
        return False
    return float(np.linalg.norm(dev[band])) > threshold * scale


def run_c_study(cfg: RunConfig) -> dict:
    grid, field, state0 = make_two_fluid_setup(cfg)
    background = math.sin(cfg.alpha)    # uniform part of q_i,x
    verdicts = {}
    runs = {}
    for C, horizon in zip(cfg.c_values, cfg.c_horizons, strict=True):
        ref_dt = min(cfg.dt_values)
        for dt in sorted(cfg.dt_values):   # reference (smallest dt) first
            sub = dataclasses.replace(cfg, C=C, dt=dt, t_end=horizon)
            runs[(C, dt)] = run_simulation("ap", sub, grid, field, state0)
        for dt in cfg.dt_values:
            res = runs[(C, dt)]
            if res.diverged_step >= 0:
                verdicts[(C, dt)] = "diverged"
            elif dt != ref_dt and runs[(C, ref_dt)].diverged_step < 0 and \
                classify_boundary_artifacts(res.final_state,
                                            runs[(C, ref_dt)].final_state,
                                            background, grid, cfg.band_frac):
                verdicts[(C, dt)] = "boundary-artifacts"
            else:
                verdicts[(C, dt)] = "stable"

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_meta(cfg, cfg.out_dir)
        with open(os.path.join(cfg.out_dir, "stability_map.csv"), "w") as fh:
            fh.write("C,dt,verdict\n")
            for (C, dt), verdict in sorted(verdicts.items(), reverse=True):
                fh.write("%.17g,%.17g,%s\n" % (C, dt, verdict))
    return {"verdicts": verdicts, "runs": runs}
