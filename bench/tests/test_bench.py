"""Tests of the benchmark's own code (run with ``pytest bench/tests``)."""

import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import runner
import workloads
from calibrate import Calibrator
from spans import Tracer
from conftest import BENCH, ROOT

TINY = {"ap_resolved": 0.1, "ap_underresolved": 0.1,
        "classical_output": 0.1, "diffusion_validate": 0.25}


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_names_match_benchmark_json():
    doc = load_benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == runner.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert doc["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(name, trace):
    result = runner.run_benchmark(name, seed=3, seconds=0.0, trace=trace,
                                  scale=TINY[name])
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = runner.PER_LAYER if trace else runner.END_TO_END
    assert list(result["metrics"]) == list(units)
    assert len(result["inputs"]) == (1 if trace else result["reps"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        assert values["ok_frac"] == 1.0
    elif workloads.WORKLOADS[name].scheme == "ap":
        assert values["ap_stepper.step_ms"] > 0
        assert abs(runner.step_partition(values)) <= 1e-9 * values["ap_stepper.step_ms"]
        assert values["diffusion.solve_n_ms"] == pytest.approx(
            values["diffusion.macro_n_ms"] + values["diffusion.micro_n_ms"])
    elif name == "classical_output":
        assert values["classical.step_ms"] == pytest.approx(
            values["classical.update_ms"] + values["flux.fv_ms"])
    else:
        assert values["diffusion.iters_macro"] > 0


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_minus_direct_children():
    # clock reads, in call order: outer open, a open, a1 open, a1 close,
    # counter start, counter end, a close, b open, b close, outer close
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 3.5, 3.75, 4, 5, 6, 10]))
    leaf = tracer.counter_wrapper("leaf", lambda: None)
    a1 = tracer.span_wrapper("a1", lambda: None)

    def a():
        a1()
        leaf()

    a_w = tracer.span_wrapper("a", a)
    b_w = tracer.span_wrapper("b", lambda: None)

    def outer():
        a_w()
        b_w()

    tracer.span_wrapper("outer", outer)()
    spans = {s.name: s for s in tracer.spans}
    assert spans["outer"].duration == 10
    assert spans["outer"].self_s == 10 - 3 - 1
    assert spans["a"].self_s == 3 - 1       # the counter is not a child span
    assert spans["a1"].self_s == 1
    assert tracer.counter_total("leaf") == (1, 0.25)
    assert tracer.total("outer", self_time=True) + sum(
        spans[n].duration for n in ("a", "b")) == spans["outer"].duration


def test_calibration_scales_by_the_samples_around_an_interval():
    # kernel samples [0, 1], [3, 5], [8, 9]; clock reads: t0, t1 per sample
    cal = Calibrator(clock=fake_clock([0, 1, 3, 5, 8, 9]))
    for _ in range(3):
        cal.sample()
    ref = calibrate.REFERENCE_S
    # [1, 3]: nothing inside, neighbours of 1 s and 2 s
    assert cal.busy(1, 3) == 2
    assert cal.scaled(1, 3) == pytest.approx(2 * ref / 1.5)
    # [1, 8]: the 2 s sample inside is taken out and joins the mean
    assert cal.busy(1, 8) == 5
    assert cal.scaled(1, 8) == pytest.approx(5 * ref / (4 / 3))
    # past the last sample only the one before counts
    assert cal.scaled(9, 10) == pytest.approx(ref)
    assert cal.run_factor() == pytest.approx(ref / 1)


def test_error_counted_once_through_nested_spans():
    tracer = Tracer()

    def fail():
        raise RuntimeError("boom")

    inner = tracer.span_wrapper("inner", fail)
    outer = tracer.span_wrapper("outer", inner)
    with pytest.raises(RuntimeError):
        outer()
    assert tracer.errors == {"RuntimeError": 1}
    assert all(s.t1 >= s.t0 for s in tracer.spans)


def test_failing_check_raises_failed_frac_and_exit_code(monkeypatch):
    monkeypatch.setattr(workloads, "MOMENTUM_BOUND", 0.0)
    result = runner.run_benchmark("ap_resolved", seed=0, seconds=0.0,
                                  trace=False, scale=TINY["ap_resolved"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0

    out = io.StringIO()
    code = runner.report("ap_resolved", 0, 0.0, False,
                         scale=TINY["ap_resolved"], stream=out)
    line = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] > 0


def test_fingerprint_comparison_flags_a_perturbation():
    ref = workloads.load_reference()
    fp = ref["fingerprint"]
    assert workloads.compare_fingerprint(fp, fp, ref["rtol"]) == []
    shifted = {k: list(v) for k, v in fp.items()}
    shifted["n"][1] *= 1.0 + 5 * ref["rtol"]
    assert workloads.compare_fingerprint(shifted, fp, ref["rtol"])


def test_seeded_inputs():
    assert workloads.seeded_inputs(0)["alpha"] == pytest.approx(2 * math.pi / 3)
    assert workloads.seeded_inputs(0, 3) == workloads.seeded_inputs(0)
    assert workloads.seeded_inputs(7, 2) == workloads.seeded_inputs(7, 2)
    assert workloads.seeded_inputs(7, 1) != workloads.seeded_inputs(7, 2)
    for seed in range(1, 50):
        inp = workloads.seeded_inputs(seed, seed % 7)
        assert workloads.ALPHA_RANGE[0] <= inp["alpha"] <= workloads.ALPHA_RANGE[1]
        assert 0.5 <= inp["lam"] <= 2.0


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ap_resolved",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
