"""Run one workload for a fixed time and turn its records into metrics.

A run repeats the workload's entry point until the next repetition would
end past ``seconds``.  End-to-end metrics come from untraced repetitions.
With tracing on, repetitions alternate untraced and traced, the per-layer
metrics come from the traced ones, and the difference between the two
kinds is the tracing overhead.

The calibration kernel (``calibrate.py``) runs before and after every
repetition and after every operation.  End-to-end times are scaled by the
samples around each interval; per-layer times by the run's median sample.
All are in reference units: the time on a host where the kernel takes
``calibrate.REFERENCE_S``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from driftlimit.diffusion import SolverError

from calibrate import REFERENCE_S, Calibrator
from spans import Tracer, patched
from workloads import DEFAULT_SEED, WORKLOADS, OpLog, check_rep, make_config, \
    op_wrappers, run_entry, seeded_inputs, trace_wrappers

clock = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit; names and units must match BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
SWEEP_GRIDS = (25, 50, 100, 200)
PER_LAYER = {
    "ap_stepper.step_ms": "ms",
    "ap_stepper.fv_ms": "ms",
    "ap_stepper.source_ms": "ms",
    "ap_stepper.residuals_ms": "ms",
    "ap_stepper.update_ms": "ms",
    "diffusion.solve_n_ms": "ms",
    "diffusion.solve_phi_ms": "ms",
    "diffusion.macro_n_ms": "ms",
    "diffusion.macro_phi_ms": "ms",
    "diffusion.micro_n_ms": "ms",
    "diffusion.micro_phi_ms": "ms",
    "diffusion.iters_macro_n": "count",
    "diffusion.iters_micro_n": "count",
    "diffusion.iters_macro_phi": "count",
    "diffusion.iters_micro_phi": "count",
    "diffusion.macro_ms": "ms",
    "diffusion.iters_macro": "count",
    "diffusion.solver_errors": "count",
    **{f"harness.sweep_solve_ms.n{g}": "ms" for g in SWEEP_GRIDS},
    "harness.manufactured_ms": "ms",
    "harness.setup_ms": "ms",
    "harness.output_s": "s",
    "stencil.assembly_ms": "ms",
    "stencil.dh_calls": "count",
    "stencil.dhstar_calls": "count",
    "stencil.apply_ms": "ms",
    "flux.fv_ms": "ms",
    "flux.calls": "count",
    "flux.bytes_computed": "B",
    "classical.step_ms": "ms",
    "classical.update_ms": "ms",
    "grid.csv_ms": "ms",
    "grid.csv_mb": "MB",
    "trace.timed_ops": "count",
    "trace.overhead_frac": "1",
}


@dataclass
class Rep:
    index: int
    traced: bool
    t0: float
    t1: float                  # entry point returned (or raised)
    cost: float = 0.0          # including output checks
    failures: list = field(default_factory=list)


def run_rep(w, inputs, index, traced, tracer, cal, log, tmp_root, scale,
            check_reference) -> Rep:
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        cfg = make_config(w, inputs, out_dir, scale)
        log.rep = index
        first = len(log.ops)
        wrappers = op_wrappers(w, log, tracer if traced else None, clock,
                               after=cal.sample)
        if traced:
            wrappers += trace_wrappers(tracer)
        cal.sample()
        t0 = clock()
        try:
            with patched(wrappers):
                out = run_entry(w, cfg)
        except SolverError as exc:
            return Rep(index, traced, t0, clock(), clock() - t0,
                       [f"SolverError: {exc}"])
        rep = Rep(index, traced, t0, clock())
        cal.sample()
        rep.failures = check_rep(w, cfg, out, log.ops[first:], check_reference)
        rep.cost = clock() - t0
        return rep
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> dict:
    w = WORKLOADS[workload]
    inputs = []
    tracer, cal, log, reps = Tracer(clock), Calibrator(clock), OpLog(), []
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    min_reps = 2 if trace else 1
    start = clock()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            # an untraced run takes medians over several configurations; a
            # traced run keeps one, so its counts repeat exactly whatever the
            # number of repetitions
            if not (trace and inputs):
                inputs.append(seeded_inputs(seed, len(inputs)))
            rep = run_rep(w, inputs[-1], len(reps), traced, tracer, cal, log,
                          tmp_root, scale, seed == DEFAULT_SEED and scale == 1.0)
            reps.append(rep)
            if rep.failures:
                break
            typical = statistics.median(r.cost for r in reps)
            if len(reps) >= min_reps and clock() - start + typical > seconds:
                break
    finally:
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    failures = [f for r in reps for f in r.failures]
    counted = [op for op in log.ops if op.kind != "setup"]
    attempted = len(counted)
    failed = sum(op.failed for op in counted)
    if failures and not failed:
        failed = 1                 # a failure outside any operation
    attempted = max(attempted, failed, 1)
    if trace:
        metrics = per_layer(w, tracer, cal, log, reps)
        units = PER_LAYER
    else:
        metrics = end_to_end(w, cal, log, reps, attempted, failed)
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failures": failures,
        "reps": len(reps),
        "timed_ops": len(timed_ops(w, log, [r for r in reps if r.traced == trace])),
        "inputs": inputs,
        "calibration": {"samples": len(cal), "median_ms": 1e3 * cal.median_s(),
                        "reference_ms": 1e3 * REFERENCE_S},
        "unscaled": unscaled(w, cal, log, reps, trace),
    }


def timed_ops(w, log, reps) -> list:
    """Operations whose time counts: every solve, every step but the first
    of its repetition (the first step is part of set-up)."""
    chosen = {r.index for r in reps}
    ops = [op for op in log.ops if op.rep in chosen and op.kind != "setup"]
    if w.stepping:
        firsts = {}
        for op in ops:
            firsts.setdefault(op.rep, op)
        ops = [op for op in ops if firsts[op.rep] is not op]
    return ops


def rep_setup_s(w, log, rep, interval) -> float:
    ops = [op for op in log.ops if op.rep == rep.index]
    if w.stepping:
        return interval(rep.t0, ops[0].t1) if ops else float("nan")
    return sum(interval(op.t0, op.t1) for op in ops if op.kind == "setup")


def end_to_end(w, cal, log, reps, attempted, failed) -> dict:
    reps = [r for r in reps if not r.traced]
    ops = timed_ops(w, log, reps)
    lat = (np.array([cal.scaled(op.t0, op.t1) for op in ops]) if ops
           else np.array([np.nan]))
    return {
        "wall_s": statistics.median(cal.scaled(r.t0, r.t1) for r in reps),
        "setup_s": statistics.median(rep_setup_s(w, log, r, cal.scaled)
                                     for r in reps),
        "ops_per_s": len(ops) / float(lat.sum()) if ops else 0.0,
        "op_ms_p50": 1e3 * float(np.percentile(lat, 50)),
        "op_ms_p75": 1e3 * float(np.percentile(lat, 75)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def unscaled(w, cal, log, reps, trace) -> dict:
    """Median wall, set-up and operation times in measured seconds."""
    reps = [r for r in reps if r.traced == trace]
    if not reps:               # a traced run that failed in its first repetition
        return {}
    ops = timed_ops(w, log, reps)
    return {
        "wall_s": statistics.median(cal.busy(r.t0, r.t1) for r in reps),
        "setup_s": statistics.median(rep_setup_s(w, log, r, cal.busy)
                                     for r in reps),
        "op_ms_p50": 1e3 * statistics.median(op.t1 - op.t0 for op in ops)
        if ops else float("nan"),
    }


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def per_layer(w, tracer, cal, log, reps) -> dict:
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    index = {id(op): i for i, op in enumerate(log.ops)}
    timed = {index[id(op)] for op in timed_ops(w, log, traced)}
    n = max(len(timed), 1)

    def per_op_ms(seconds):
        return 1e3 * seconds / n

    # the two solves of an AP step are the density (n) and potential (phi)
    # problems, in that order
    slot, seen = {}, {}
    for s in tracer.spans:
        if s.name == "diffusion.solve":
            k = seen[id(s.parent)] = seen.get(id(s.parent), 0) + 1
            slot[id(s)] = "n" if k == 1 else "phi"

    def solve_in(name):
        return lambda s: slot.get(id(s)) == name

    def macro_in(name):
        return lambda s: slot.get(id(s.parent)) == name

    solves = tracer.select("diffusion.solve", timed)
    setup_ops = {i for i, op in enumerate(log.ops) if op.kind == "setup"}
    macro_setup = tracer.select("diffusion.macro", setup_ops)
    dh_calls, dh_s = tracer.counter_total("stencil.dh", timed)
    dhs_calls, dhs_s = tracer.counter_total("stencil.dhstar", timed)
    asm_calls, asm_s = tracer.counter_total("stencil.assembly")
    flux = tracer.select("flux.fv", timed)
    csv = tracer.select("grid.csv")
    m = {
        "ap_stepper.step_ms": per_op_ms(tracer.total("ap_stepper.step", timed)),
        "ap_stepper.fv_ms": per_op_ms(tracer.total("ap_stepper.fv", timed)),
        "ap_stepper.source_ms": per_op_ms(tracer.total("ap_stepper.source", timed)),
        "ap_stepper.residuals_ms":
            per_op_ms(tracer.total("ap_stepper.residuals", timed)),
        "ap_stepper.update_ms":
            per_op_ms(tracer.total("ap_stepper.step", timed, self_time=True)),
        "diffusion.macro_ms": 1e3 * _mean(s.duration for s in macro_setup),
        "diffusion.iters_macro": _mean(s.info["iters"] for s in macro_setup),
        "diffusion.solver_errors": tracer.errors.get("SolverError", 0),
        "harness.manufactured_ms":
            1e3 * _mean(s.duration for s in tracer.select("harness.manufactured")),
        "harness.setup_ms":
            1e3 * _mean(s.duration for s in tracer.select("harness.setup")),
        "harness.output_s": _mean(
            cal.busy(max(op.t1 for op in log.ops if op.rep == r.index), r.t1)
            for r in traced if any(op.rep == r.index for op in log.ops)),
        "stencil.assembly_ms": 1e3 * asm_s / asm_calls if asm_calls else 0.0,
        "stencil.dh_calls": dh_calls / n,
        "stencil.dhstar_calls": dhs_calls / n,
        "stencil.apply_ms": per_op_ms(dh_s + dhs_s),
        "flux.fv_ms": per_op_ms(sum(s.duration for s in flux)),
        "flux.calls": len(flux) / n,
        "flux.bytes_computed": sum(s.info["bytes"] for s in flux) / n,
        "classical.step_ms": per_op_ms(tracer.total("classical.step", timed)),
        "classical.update_ms":
            per_op_ms(tracer.total("classical.step", timed, self_time=True)),
        "grid.csv_ms": 1e3 * _mean(s.duration for s in csv),
        "grid.csv_mb": _mean(s.info["bytes"] for s in csv) / 1e6,
        "trace.timed_ops": len(timed),
        "trace.overhead_frac":
            statistics.median(cal.scaled(r.t0, r.t1) for r in traced)
            / statistics.median(cal.scaled(r.t0, r.t1) for r in untraced) - 1.0
            if traced and untraced else 0.0,
    }
    for name in ("n", "phi"):
        mine = [s for s in solves if slot[id(s)] == name]
        m[f"diffusion.solve_{name}_ms"] = per_op_ms(
            tracer.total("diffusion.solve", timed, where=solve_in(name)))
        m[f"diffusion.macro_{name}_ms"] = per_op_ms(
            tracer.total("diffusion.macro", timed, where=macro_in(name)))
        m[f"diffusion.micro_{name}_ms"] = per_op_ms(tracer.total(
            "diffusion.solve", timed, self_time=True, where=solve_in(name)))
        m[f"diffusion.iters_macro_{name}"] = _mean(s.info["macro"] for s in mine)
        m[f"diffusion.iters_micro_{name}"] = _mean(s.info["micro"] for s in mine)
    for g in SWEEP_GRIDS:
        m[f"harness.sweep_solve_ms.n{g}"] = 1e3 * _mean(
            s.duration for s in tracer.select("harness.solve_deviation")
            if log.ops[s.op].grid == g)
    factor = cal.run_factor()
    for name, unit in PER_LAYER.items():
        if unit in ("ms", "s"):
            m[name] *= factor
    return m


def step_partition(m: dict) -> float:
    """AP step time minus the sum of its parts (zero up to rounding)."""
    parts = ("ap_stepper.update_ms", "ap_stepper.fv_ms", "ap_stepper.source_ms",
             "diffusion.solve_n_ms", "diffusion.solve_phi_ms",
             "ap_stepper.residuals_ms")
    return m["ap_stepper.step_ms"] - sum(m[p] for p in parts)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "git_commit": commit,
    }


def report(workload: str, seed: int, seconds: float, trace: bool,
           scale: float = 1.0, stream=sys.stdout) -> int:
    """Run, print the human-readable record and the result line; return
    the exit code (nonzero when a correctness check failed)."""
    result = run_benchmark(workload, seed, seconds, trace, scale)
    print("env " + json.dumps(environment(seed), sort_keys=True), file=stream)
    print(f"workload {workload} seed {seed} inputs per repetition "
          f"{json.dumps(result['inputs'], sort_keys=True)}: "
          f"{result['reps']} repetitions, {result['timed_ops']} timed "
          f"operations{' (traced repetitions)' if trace else ''}", file=stream)
    cal = result["calibration"]
    print(f"times in reference units: calibration kernel median "
          f"{cal['median_ms']:.4g} ms over {cal['samples']} samples, reference "
          f"{cal['reference_ms']:.4g} ms; unscaled medians "
          + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items()),
          file=stream)
    for name, mv in result["metrics"].items():
        print(f"  {name:28s} {mv['value']:.6g} {mv['unit']}", file=stream)
    if trace and WORKLOADS[workload].scheme == "ap":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"  step partition residual {step_partition(values):.3g} ms",
              file=stream)
    for f in result["failures"]:
        print(f"FAILED: {f}", file=stream)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), file=stream)
    return 0 if result["correct"] else 1
