"""Experiment library: diffusion validation, two-fluid runs, C study.

All experiments are driven by a flat ``RunConfig``; the CLI maps JSON
configs and ``key=value`` overrides onto it.  A run takes its step and
horizon from its config alone; a run at another step gets a copy of the
config with that step.  Outputs are plain CSV plus a ``meta.json`` with
the fully resolved parameter set, a content hash and the environment
(versions and BLAS thread settings), so a run can be reproduced from its
output directory alone.  No randomness anywhere:
identical configs give bit-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy

from .ap_stepper import SPECIES, APStepper, PhysParams
from .classical import stable_dt, step_classical
from .diffusion import incomplete_macro_factor, macro_potential, \
    node_factor, solve_micro
from .grid import Grid, PlasmaState, discrete_norms, write_field_csv
from .stencil import MagneticField, apply_dhstar

MOMENTUM_GROWTH_LIMIT = 1e6     # max |q| over max(|q0|, |B|) ends a run
# SuperLU takes int32 indices, and a micro or macro operator holds up to 9
# nonzeros per row (a cell or node couples to its 3x3 neighbourhood)
MAX_CELLS = (2**31 - 1) // 9
# A manufactured problem factors N1 on grids of at most this many nodes.
# Measured fill of its curved-field factor: 0.76M nonzeros and +11 MB peak
# RSS at 100^2 cells (101^2 nodes); 4.27M nonzeros and +53 MB at 200^2,
# which would raise the sweep's peak RSS by about 55%, so larger grids
# build an incomplete factor (1.82M nonzeros at 200^2).  Below the bound
# the complete factor is also the faster preconditioner: at 100^2 it
# builds in 32-49 ms and a micro solve takes 2.1-4.2 ms on it, against
# 58-59 ms and 5.4-8.4 ms (4 iterations) for the incomplete one.
MAX_FACTORED_NODES = 101 ** 2
# Every run lives on the square [1,2]^2: the manufactured solution vanishes
# on its boundary, and the two-fluid test case is posed on it too
DOMAIN_LO, DOMAIN_HI = (1.0, 1.0), (2.0, 2.0)


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

    - deviation form: the constant background p0 = 2 is split off (the scheme
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

    The problem builds one factor of N1, ``macro_lu``: complete on grids
    of at most MAX_FACTORED_NODES nodes, incomplete on larger ones.  It
    preconditions the PCGs of both potentials (one iteration each on a
    complete factor, 4 at 200^2 on the incomplete one) and every micro
    solve (``diffusion.solve_micro``, for the node potential of the micro
    part), which then converges in a few iterations because tau*lam is
    tiny against the spectrum of the micro node operator.  ``record``
    keeps the factor's kind and stored nonzeros and each PCG's iteration
    count and achieved residual; the sweep writes it to ``meta.json``.
    """

    def __init__(self, grid: Grid, lam: float = 1.0):
        self.grid = grid
        self.lam = lam
        self.field = MagneticField.from_function(
            grid, lambda *c: (*unit_b(c[0], c[1]), np.zeros_like(c[0])))
        xn, yn = grid.node_coords()
        self.H_nodes = coeff_H(xn, yn)
        if grid.num_nodes <= MAX_FACTORED_NODES:
            kind = "complete"
            self.macro_lu = node_factor(self.field, grid, 0.0)
        else:
            kind = "incomplete"
            self.macro_lu = incomplete_macro_factor(self.field, grid)
        # how the grid was solved, with one entry per PCG in the order they
        # ran; the factor's nnz is SuperLU's own count, where L.nnz + U.nnz
        # would copy both triangles
        self.record = {"cells": grid.shape_cells[0], "factor": kind,
                       "factor_nnz": self.macro_lu.nnz, "pcgs": []}
        x, y = grid.cell_coords()
        self.p1 = p1_exact(x, y)
        g = -div_aligned_flux(x, y)
        self.h_g = self._log_pcg("macro h_g", *macro_potential(
            g, self.field, grid, self.macro_lu))
        self.h_p = self._log_pcg("macro h_p", *macro_potential(
            self.p1, self.field, grid, self.macro_lu))
        # kernel projection of the density part
        self.p1_kernel = self.p1 + apply_dhstar(self.h_p, self.field, grid)

    def _log_pcg(self, solve: str, x: np.ndarray, iterations: int,
                residual: float) -> np.ndarray:
        """Keep a PCG's iteration count and achieved ||r|| / ||b||;
        returns its solution x."""
        self.record["pcgs"].append({"solve": solve, "iterations": iterations,
                                    "residual": residual})
        return x

    def solve_deviation(self, tau: float) -> np.ndarray:
        """p_app - p0 by superposition; every term scales exactly with tau."""
        shift = tau * self.lam
        w = self._log_pcg(f"micro tau={tau:g}", *solve_micro(
            shift * self.h_p + self.h_g, self.field, self.grid,
            self.H_nodes, shift, lu=self.macro_lu))
        return tau * self.p1_kernel + tau * w


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


def _matches(value, default) -> bool:
    """True when value has the type of a key's default: a finite number for
    a float, an integer for an int, a list of such for a tuple."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool) and math.isfinite(value)
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

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _matches(value, f.default):
                raise ValueError(f"config key {f.name!r}: expected a value "
                                 f"like {f.default!r}, got {value!r}")
        for key in ("nx", "ny", "tau_sweep_grid"):
            if getattr(self, key) < 2:
                raise ValueError(f"config key {key!r}: need at least 2 cells")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("config key 'sigma': must lie in (0, 1]")
        if self.classical_dt not in (None, "stable"):
            raise ValueError("config key 'classical_dt': expected null or "
                             f"\"stable\", got {self.classical_dt!r}")
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise ValueError("config key 'out_dir': expected a path string "
                             f"or null, got {self.out_dir!r}")
        for key in ("grids", "tau_sweep"):
            if len(getattr(self, key)) < 3:
                raise ValueError(f"config key {key!r}: the slope fit needs "
                                 "at least 3 entries")
        if min(self.grids) < 2:
            raise ValueError("config key 'grids': need at least 2 cells per "
                             f"entry, got {self.grids!r}")
        for key in ("h_sweep_taus", "tau_sweep", "c_values", "dt_values",
                    "c_horizons"):
            values = getattr(self, key)
            if not values or min(values) <= 0.0:
                raise ValueError(f"config key {key!r}: expected a nonempty "
                                 "list of positive values")
        if len(self.c_values) != len(self.c_horizons):
            raise ValueError("config keys 'c_values' and 'c_horizons' must "
                             "have the same length")
        for key in ("tau_sweep", "c_values", "dt_values"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"config key {key!r}: repeated entries in "
                                 f"{values!r} would overwrite study runs or "
                                 "count twice in a slope fit")
        tags = [f"{tau:.0e}" for tau in self.h_sweep_taus]
        if len(set(tags)) != len(tags):
            raise ValueError("config key 'h_sweep_taus': entries repeat the "
                             f"convergence_h_tau*.csv name tags {tags}")
        if min(self.c_horizons) < max(self.dt_values):
            raise ValueError("config key 'c_horizons': every horizon must "
                             "cover at least one step of the largest dt_values "
                             f"entry {max(self.dt_values)!r}")
        if self.experiment not in ("simulate", "diffusion-validate", "c-study"):
            raise ValueError(f"config key 'experiment': unknown value "
                             f"{self.experiment!r}")
        if self.scheme not in ("ap", "classical", "both"):
            raise ValueError(f"config key 'scheme': unknown value {self.scheme!r}")
        for key in ("t_end", "scale", "lam"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"config key {key!r}: must be positive")

        def scaled(key, n):
            try:
                return self.scaled_cells(n)
            except OverflowError:
                raise ValueError(f"config keys {key!r} and 'scale': a scaled "
                                 "cell count overflows") from None

        nx, ny = scaled("nx", self.nx), scaled("ny", self.ny)
        side = scaled("tau_sweep_grid", self.tau_sweep_grid)
        cells = [scaled("grids", n) for n in self.grids]
        for keys, count in (("keys 'nx' and 'ny'", nx * ny),
                            ("key 'tau_sweep_grid'", side * side),
                            ("key 'grids'", max(cells) ** 2)):
            if count > MAX_CELLS:
                raise ValueError(f"config {keys}: at scale {self.scale!r} a "
                                 f"grid of {count} cells exceeds {MAX_CELLS}, "
                                 "the most whose operators fit the int32 "
                                 "indices of a sparse factor")
        if len(set(cells)) != len(cells):
            raise ValueError(f"config key 'grids': at scale {self.scale!r} "
                             f"the entries {list(self.grids)} give {cells} "
                             "cells, and repeated grids count twice in the "
                             "slope fit")
        for key in ("eta", "output_interval"):
            if getattr(self, key) < 0:
                raise ValueError(f"config key {key!r}: must be nonnegative")
        # a simulate run takes steps of dt, except a classical-only run at
        # classical_dt = "stable", whose CFL step is known only at run time
        takes_dt = self.scheme != "classical" or self.classical_dt is None
        if self.experiment == "simulate" and takes_dt and self.t_end < self.dt:
            raise ValueError(f"config key 't_end': {self.t_end!r} is shorter "
                             f"than one step dt={self.dt!r}")
        try:
            params = self.phys_params()
        except ValueError as exc:
            raise ValueError(f"physical parameters: {exc}") from exc
        # every (C, dt) pair of the C study is a run of its own
        for C in self.c_values:
            for dt in self.dt_values:
                try:
                    dataclasses.replace(params, C=C, dt=dt)
                except ValueError as exc:
                    raise ValueError(f"config keys 'c_values' and "
                                     f"'dt_values': {exc}") from exc
        return self

    def phys_params(self) -> PhysParams:
        return PhysParams(tau=self.tau, eps=self.eps, T_e=self.T_e, C=self.C,
                          dt=self.dt)

    def scaled_cells(self, n: int) -> int:
        return max(4, round(n * self.scale))

    def build_grid(self) -> Grid:
        return Grid(DOMAIN_LO, DOMAIN_HI,
                    (self.scaled_cells(self.nx), self.scaled_cells(self.ny)))

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Versions, the BLAS build and the BLAS thread settings of this
    process; None for an unset variable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def write_meta(cfg: RunConfig, out_dir, extra: dict = None):
    meta = {"config": json.loads(json.dumps(cfg.as_dict(), default=list)),
            "config_sha256": config_hash(cfg),
            "environment": environment()}
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
    n = 1.0 + cfg.tau * bump            # densities in units of the background
    q = np.broadcast_to(np.asarray(B)[:, None, None],
                        (3,) + grid.shape_cells).copy()
    state = PlasmaState(n=n, q_i_planes=q, q_e_planes=q.copy(),
                        phi=np.zeros(grid.shape_cells), t=0.0)
    return grid, field, state


@dataclass
class SimulationResult:
    scheme: str
    dt: float
    final_state: PlasmaState
    steps: int = 0
    diverged_step: int = -1             # -1: completed
    note: str = ""
    diag_rows: list = dataclass_field(default_factory=list)


def _num_steps(t_end: float, dt: float) -> int:
    """Steps to reach t_end, the last one ending at or past it.

    Parse time rejects a t_end shorter than dt, so the floor of one step
    only applies to classical_dt = "stable", whose CFL step
    is known at run time and can exceed t_end; that run then ends one
    step past t_end.
    """
    steps = round(t_end / dt)
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        steps = math.ceil(t_end / dt - 1e-12)
    return max(steps, 1)


def run_simulation(scheme: str, cfg: RunConfig, grid: Grid,
                   field: MagneticField, state0: PlasmaState,
                   dump_dir=None) -> SimulationResult:
    """Advance one scheme by cfg.dt to cfg.t_end, recording per-step
    diagnostics and divergence: a step's own flag, or momentum growth
    beyond MOMENTUM_GROWTH_LIMIT times the larger of max|q0| and max|B|
    (a state at rest starts from q0 = 0).  With a dump_dir, the state is
    dumped every cfg.output_interval steps and after the last step."""
    params = cfg.phys_params()
    steps = _num_steps(cfg.t_end, cfg.dt)
    if scheme == "ap":
        step = APStepper(params, grid, field).step
    else:
        def step(state):
            return step_classical(state, field, params, grid)

    def q_max(s):
        return max(np.abs(s.q(a)).max() for a in SPECIES)

    state = state0.copy()
    q_limit = MOMENTUM_GROWTH_LIMIT * max(q_max(state0),
                                          field.bmag_cells.max())
    result = SimulationResult(scheme=scheme, dt=cfg.dt, final_state=state)
    for m in range(1, steps + 1):
        new, diag = step(state)
        # a step that flags divergence may hand back its input state,
        # which keeps the time of step m - 1
        if new is not state:
            new.t = m * cfg.dt
        state = new
        result.diag_rows.append({"step": m, "time": m * cfg.dt,
                                 "diverged": diag.diverged, **diag.values})
        result.steps = m
        grown = q_max(state) > q_limit
        stop = diag.diverged or grown
        due = cfg.output_interval and m % cfg.output_interval == 0
        if dump_dir and (due or stop or m == steps):
            _dump_state(dump_dir, f"{scheme}_t{state.t:.9e}", state, grid)
        if stop:
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


# The columns of diagnostics.csv in order: a diagnostics row holds step,
# time, diverged and the step's StepDiagnostics.values.
DIAGNOSTICS_COLUMNS = (
    "scheme", "step", "time", "continuity_i", "continuity_e",
    "continuity_floor_i", "continuity_floor_e", "momentum_i", "momentum_e",
    "ap_node_i", "ap_node_e", "iters_n_macro", "iters_n_micro",
    "iters_phi_macro", "iters_phi_micro", "resid_n_macro", "resid_n_micro",
    "resid_phi_macro", "resid_phi_micro", "regime_n", "regime_phi",
    "kernel_n", "kernel_phi", "diverged")


def _write_diagnostics(out_dir, results: list):
    with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
        fh.write(",".join(DIAGNOSTICS_COLUMNS) + "\n")
        for res in results:
            for row in res.diag_rows:
                vals = [res.scheme]
                for k in DIAGNOSTICS_COLUMNS[1:]:
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
        run_cfg = cfg
        if scheme == "classical" and cfg.classical_dt == "stable":
            run_cfg = dataclasses.replace(cfg, dt=stable_dt(
                state0, cfg.phys_params(), grid, cfg.sigma))
        results[scheme] = run_simulation(scheme, run_cfg, grid, field, state0,
                                         dump_dir=cfg.out_dir)

    if cfg.out_dir:
        write_meta(cfg, cfg.out_dir, extra={
            "diverged_step": {s: r.diverged_step for s, r in results.items()}})
        _write_diagnostics(cfg.out_dir, list(results.values()))
    return {"grid": grid, "field": field, "initial": state0, "results": results}


# ---------------------------------------------------------------------------
# Diffusion validation (h sweep at two tau, tau sweep at fixed grid)
# ---------------------------------------------------------------------------

def run_diffusion_validation(cfg: RunConfig) -> dict:
    h_tables = {tau: ConvergenceTable(parameter="h")
                for tau in cfg.h_sweep_taus}
    tau_table = ConvergenceTable(parameter="tau")
    ladder = [cfg.scaled_cells(nc) for nc in cfg.grids]
    tau_grid = cfg.scaled_cells(cfg.tau_sweep_grid)

    records = []

    def solve_on(n):
        """Every solve of the grid with n cells per side; its problem goes
        when this returns, before the next grid is built."""
        grid = Grid(DOMAIN_LO, DOMAIN_HI, (n, n))
        m = ManufacturedDiffusion(grid, cfg.lam)
        if n in ladder:
            for tau, table in h_tables.items():
                dev = m.solve_deviation(tau)
                table.add(max(grid.spacing),
                          discrete_norms(dev - tau * m.p1, grid))
        if n == tau_grid:
            for tau in cfg.tau_sweep:
                # deviation-form solution is exactly p_app - p0
                tau_table.add(tau,
                              discrete_norms(m.solve_deviation(tau), grid))
        records.append(m.record)

    for n in ladder if tau_grid in ladder else ladder + [tau_grid]:
        solve_on(n)

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_meta(cfg, cfg.out_dir, extra={"grids": records})
        for tau, table in h_tables.items():
            table.write_csv(os.path.join(cfg.out_dir,
                                         f"convergence_h_tau{tau:.0e}.csv"))
        tau_table.write_csv(os.path.join(cfg.out_dir, "convergence_tau.csv"))
    return {"h_sweep": h_tables, "tau_sweep": tau_table}


# ---------------------------------------------------------------------------
# C study
# ---------------------------------------------------------------------------

# Width of the classifier's boundary band, a fraction of the domain extent
BAND_FRAC = 0.08


def boundary_band_mask(grid: Grid) -> np.ndarray:
    """Cells whose center lies within BAND_FRAC * extent of the domain
    boundary."""
    x, y = grid.cell_coords()
    (x0, y0), (x1, y1) = grid.lo, grid.hi
    w = BAND_FRAC * min(x1 - x0, y1 - y0)
    return ((x - x0 < w) | (x1 - x < w) | (y - y0 < w) | (y1 - y < w))


def classify_boundary_artifacts(state: PlasmaState, reference: PlasmaState,
                                initial: PlasmaState, grid: Grid) -> bool:
    """True when the q_i,x deviation from the reference run in the
    BAND_FRAC boundary band exceeds half the reference run's deviation
    from the initial state."""
    band = boundary_band_mask(grid)
    dev = state.q("i")[0] - reference.q("i")[0]
    pert = reference.q("i")[0] - initial.q("i")[0]
    scale = float(np.linalg.norm(pert))
    if scale == 0.0:
        return False
    return float(np.linalg.norm(dev[band])) > 0.5 * scale


def run_c_study(cfg: RunConfig) -> dict:
    grid, field, state0 = make_two_fluid_setup(cfg)
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
                                            state0, grid):
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
