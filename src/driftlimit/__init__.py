"""Asymptotic-preserving simulation kit for an isothermal two-fluid
plasma under a strong magnetic field at low Mach number."""

from .grid import Grid, cell_from_nodes, discrete_norms, node_average
from .stencil import MagneticField, apply_dh, apply_dhstar, apply_grad_star
from .diffusion import AnisoDiffusionProblem, MicroMacroSolution, SolverError, \
    solve_micro_macro
from .flux import explicit_flux_vector, fv_divergence
from .ap_stepper import APStepper, PhysParams, PlasmaState, StepDiagnostics, \
    assemble_R, assemble_S, step_residuals
from .classical import stable_dt, step_classical
from .harness import RunConfig, parse_config, run_c_study, \
    run_diffusion_validation, run_two_fluid

__version__ = "0.1.0"
