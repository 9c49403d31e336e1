"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads
from tracing import Span, Tracer, self_times

sys.path.insert(0, run.SRC)
import quadcheck  # noqa: E402
import quadcheck.cli  # noqa: E402
import quadcheck.expr  # noqa: E402


# --- generators -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7, per_kind=3) == workloads.generate(workload, 7, per_kind=3)
    assert workloads.generate(workload, 7, per_kind=3) != workloads.generate(workload, 8, per_kind=3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_lists_leave_ten_samples_beyond_p90(workload):
    n = len(workloads.generate(workload, 1))
    assert run.samples_beyond(n, 0.9) >= 10


def test_latin_hypercube_hits_every_stratum_once():
    draws = workloads._draw(5, "t", (("u", 0.0, 1.0, "lin"), ("v", 1.0, 100.0, "log")), 20)
    u_cells = sorted(int(dict(d)["u"] * 20) for d in draws)
    v_cells = sorted(int(math.log10(dict(d)["v"]) / 2 * 20) for d in draws)
    assert u_cells == list(range(20))
    assert v_cells == list(range(20))


def test_integer_draws_cover_the_range():
    draws = workloads._draw(3, "n", (("n", 0, 4, "int"),), 10)
    assert sorted(dict(d)["n"] for d in draws) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


# --- statistics -------------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 0.5) == 50.0
    assert run.percentile(samples, 0.9) == 90.0
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    assert run.percentile([3.0], 0.9) == 3.0


def test_host_scale_reads_the_reference_loops_5th_percentile():
    speed = run.HostSpeed()
    speed.samples = [1e-3 * (1 + i / 100) for i in range(100)][::-1]
    assert speed.scale() == pytest.approx(1 / 1.05)


def test_rounds_depend_on_the_arguments_only():
    assert workloads.rounds_for("cli", 40) == 3
    assert workloads.rounds_for("catalog", 40) == 4
    assert workloads.rounds_for("catalog", 0.5) == 1


# --- tracing ----------------------------------------------------------------

def _span(start, end, parent):
    s = Span("x", start, parent, "op")
    s.end = end
    return s


def test_self_time_subtracts_direct_children():
    spans = [
        _span(0.0, 10.0, -1),
        _span(1.0, 3.0, 0),
        _span(4.0, 7.0, 0),
        _span(5.0, 5.5, 2),  # grandchild: counts against its parent only
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 0.5])


def test_tracer_patches_every_binding_and_restores_them():
    originals = (quadcheck.cli.run_case, quadcheck.run_case,
                 quadcheck.expr.FUNCTIONS["zeta"], quadcheck.kernel.kernel_weight)
    tracer = Tracer()
    tracer.install()
    try:
        assert quadcheck.cli.run_case is not originals[0]
        assert quadcheck.run_case is not originals[1]
        assert quadcheck.expr.FUNCTIONS["zeta"] is not originals[2]
        report = quadcheck.run_case("rational")
        names = [s.name for s in tracer.spans]
        assert names == ["catalog.run_case", "quadrature.integrate_half_line"]
        assert tracer.spans[1].parent == 0
        assert tracer.spans[1].evals == report.diagnostics.evaluations
        assert tracer.counters["kernel.kernel_weight"][0] == report.diagnostics.evaluations
    finally:
        tracer.uninstall()
    assert (quadcheck.cli.run_case, quadcheck.run_case,
            quadcheck.expr.FUNCTIONS["zeta"], quadcheck.kernel.kernel_weight) == originals


def test_recursive_evaluate_counts_top_level_calls():
    ast = quadcheck.parse("exp(-k)/(k+1)")
    tracer = Tracer()
    tracer.install()
    try:
        quadcheck.evaluate(ast, {"k": 1.0})
        quadcheck.evaluate(ast, {"k": 2.0})
    finally:
        tracer.uninstall()
    assert tracer.counters["expr.evaluate"][0] == 2


# --- oracles and checks -----------------------------------------------------

def test_zeta_oracle_matches_known_values():
    assert oracles.zeta_real(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert oracles.zeta_real(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-14)
    assert oracles.zeta_real(0.5) == pytest.approx(-1.4603545088095868, rel=1e-13)


@pytest.mark.parametrize("case", ["rational", "bessel", "gaussian", "cosine", "gamma", "zeta"])
def test_oracle_agrees_with_catalog_defaults(case):
    rec = workloads.report_record(quadcheck.run_case(case))
    assert rec["pass"]
    assert workloads.check_record(rec, quadcheck.DEFAULT_TOLERANCE) == []


def test_check_record_flags_a_false_pass():
    rec = workloads.report_record(quadcheck.run_case("rational"))
    rec["lhs"] = {"re": rec["lhs"]["re"] * 1.01, "im": 0.0}
    assert workloads.check_record(rec, 1e-8)


def test_cli_check_requires_exit_code_to_match_pass_flags():
    ok = json.dumps([workloads.report_record(quadcheck.run_case("rational"))])
    assert workloads.check_cli(0, ok, "", 1e-8).problems == []
    assert workloads.check_cli(1, ok, "", 1e-8).problems
    assert workloads.check_cli(3, ok, "boom", 1e-8).problems
    assert workloads.check_cli(3, "", "quadcheck: numerical failure", 1e-8).problems == []
    assert workloads.check_cli(0, "", "", 1e-8).problems


# --- smoke runs -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_repeatable(workload):
    ops = workloads.generate(workload, 11, per_kind=1)
    executor = workloads.Executor(workload, run.SRC)
    first = run.Pass(ops).run(executor)
    second = run.Pass(ops).run(executor)
    assert first.correct, first.problems
    assert first.digest() == second.digest()
    metrics = run.end_to_end(workload, first, [0.05])
    assert set(metrics) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
                            "pass_ratio", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_setup_is_the_fastest_of_each_group_of_tries():
    sampler = run.SetupSampler("cli", workloads.child_env(run.SRC))
    sampler()
    assert len(sampler.imports) == 1
    sampler()  # within the interval: no new interpreter
    assert len(sampler.imports) == 1
    sampler.finish()
    k = sampler.tries
    assert len(sampler.imports) == sampler.minimum * k
    assert sampler.samples == [min(sampler.imports[i:i + k]) for i in range(0, 3 * k, k)]
    assert all(0 < s < 5 for s in sampler.samples)


def test_repeats_are_checked_against_the_first_pass():
    ops = workloads.generate("catalog", 2, per_kind=1)
    executor = workloads.Executor("catalog", run.SRC)
    p = run.Pass(ops).run(executor, rounds=2)
    assert p.rounds == 2 and len(p.best) == len(ops)
    assert p.correct and not p.mismatches


def test_tiny_traced_run_reports_layers():
    ops = workloads.generate("custom", 4, per_kind=1)
    layers, p, spans = run.traced_run("custom", ops, 0.0, workloads.child_env(run.SRC))
    assert p.correct
    assert layers["expr.evaluate.calls"] > 0
    assert layers["quadrature.evals"] == layers["quadrature.evals.custom"] > 0
    assert layers["catalog.run_case.calls"] == 0
    assert {s.name for s in spans} >= {"expr.parse", "kernel.verify_master"}
    assert set(layers) == set(run.LAYER_UNITS)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == {"cli", "catalog"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
