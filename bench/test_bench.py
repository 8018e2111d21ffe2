"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import proxqn.optimizers as optimizers  # noqa: E402
from proxqn import quadratic_problem, synthesize_quadratic  # noqa: E402
from proxqn.harness import build_config  # noqa: E402
from proxqn.optimizers import ALGORITHMS  # noqa: E402

import calibrate  # noqa: E402
import proxy  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, MOVED, PER_LAYER  # noqa: E402

# The metrics named when the benchmark was specified.
SPECIFIED = [
    "setup_s", "solve_s", "iterations", "failed_share", "peak_rss_mb",
    *(f"solve_s.{d}" for d in ("pga", "apga", "pqna-lbfgs", "pqna-fh",
                               "apqna-lbfgs", "apqna-fh", "apqna-lbfgs-strict")),
    "dataset.read_libsvm.busy_s", "dataset.synthesize_quadratic.busy_s",
    "dataset.bytes_read",
    *(f"problem.{f}.{k}" for f in ("f_value", "f_grad", "value_and_grad")
      for k in ("calls", "busy_s")),
    "problem.x_passes", "problem.bytes_computed", "problem.logistic_problem.busy_s",
    *(f"hessian.{f}.{k}" for f in ("compile_compact", "enforce_domination",
                                   "model_value") for k in ("calls", "busy_s")),
    *(f"subsolver.cd_minimize.{k}" for k in ("calls", "busy_s", "steps",
                                             "ns_per_step", "steps_per_call",
                                             "budget_use")),
    *(f"subsolver.exact_solve_oracle.{k}" for k in ("calls", "busy_s", "steps",
                                                    "ns_per_step")),
    "subsolver.solve_scaled_identity.calls",
    "optimizers.self_s", "optimizers.backtracks", "optimizers.accept_ratio",
    "harness.emit_trace_csv.busy_s", "harness.emit_trace_csv.bytes",
    "trace_overhead_s",
]

ROADMAP_ITERATIONS = {"pga": 1076, "apga": 757, "pqna-lbfgs": 216,
                      "pqna-fh": 1172, "apqna-lbfgs": 612, "apqna-fh": 872}


def test_proxy_file_repeats_byte_for_byte(tmp_path):
    paths = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        paths.append(workloads.LogisticProxy(seed, tmp_path / name).path)
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other
    assert sorted(first.splitlines()) == sorted(other.splitlines())


def test_generator_repeats_for_a_seed():
    first, again, other = (proxy.a9a_proxy(seed) for seed in (5, 5, 6))
    assert (first.matrix != again.matrix).nnz == 0
    assert (first.labels == again.labels).all()
    assert (first.matrix != other.matrix).nnz > 0


def test_seed_zero_reproduces_the_roadmap_baseline(tmp_path):
    [inst] = workloads.LogisticProxy(0, tmp_path).setup()
    for name, iterations in ROADMAP_ITERATIONS.items():
        trace = ALGORITHMS[name](inst.problem, build_config({}))
        assert trace.status == "converged", name
        assert trace.iterations == iterations, name
        assert f"{trace.final().fval:.6e}" == "5.379757e-01", name


@pytest.mark.parametrize("algorithm, overrides, caught", [
    ("pga", {}, "problem.f_value"),
    ("apga", {}, "problem.value_and_grad"),
    ("pqna-lbfgs", {}, "subsolver.cd_minimize"),
    ("pqna-fh", {}, "hessian.compile_compact"),
    ("apqna-lbfgs", {}, "hessian.compile_compact"),
    ("apqna-fh", {}, "hessian.model_value"),
    ("apqna-lbfgs", {"domination": "strict"}, "hessian.enforce_domination"),
    ("pqna-lbfgs", workloads.EXACT, "subsolver.exact_solve_oracle"),
])
def test_tracing_leaves_the_trace_unchanged(algorithm, overrides, caught):
    problem = quadratic_problem(synthesize_quadratic(30, 0.1, 10.0, 5), 0.01)
    cfg = build_config(overrides)
    plain = ALGORITHMS[algorithm](problem, cfg)
    originals = {name: getattr(optimizers, name) for name in spans.PATCHED}
    tracer = spans.Tracer()
    with tracer.solve(algorithm):
        traced = ALGORITHMS[algorithm](
            tracer.problem(problem, workloads.QUADRATIC_PASSES, 1), cfg)
    assert plain.status == "converged"
    assert workloads._records(traced) == workloads._records(plain)
    assert {name: getattr(optimizers, name) for name in spans.PATCHED} == originals
    _, calls = tracer.busy()
    assert calls[spans.ROOT] == 1
    assert calls[caught] > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("optimizers.solve"):
        tracer.call("problem.f_value", time.sleep, 0.02)
        tracer.call("problem.f_value", time.sleep, 0.02)
    root, first, second = tracer.self_times()
    durations = [end - start for *_, start, end in tracer.spans]
    assert root == pytest.approx(durations[0] - durations[1] - durations[2])
    assert (first, second) == (durations[1], durations[2])
    assert [span[2] for span in tracer.spans] == [None, 0, 0]


def _tiny(solves):
    return workloads.Quadratics(7, 20, 2, solves)


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_reports_every_metric(tmp_path, traced):
    solves = [workloads.Solve(name, name, i % 2)
              for i, name in enumerate(ALGORITHMS)]
    solves.append(workloads.Solve("exact", "pqna-lbfgs", 0, workloads.EXACT))
    outcome = workloads.Runner(_tiny(solves), traced, tmp_path).run(0.0)
    assert outcome.errors == []
    assert outcome.attempted == len(solves) * workloads.MIN_ROUNDS
    specs = PER_LAYER if traced else END_TO_END
    values = outcome.metrics(traced)
    assert set(values) == {m.name for m in specs}
    for m in specs:
        if m.unit in ("s", "ns"):
            assert values[m.name] > 0, m.name


def test_a_repeat_that_differs_fails_the_check(tmp_path):
    solves = [workloads.Solve("pga", "pga", 0)]
    runner = workloads.Runner(_tiny(solves), False, tmp_path)
    runner.seen["pga"] = []
    runner.run(0.0)
    assert runner.out.failed == workloads.MIN_ROUNDS
    assert runner.out.errors[0] == "pga: repeated solve gave another trace"


def test_a_failed_solve_is_counted_and_the_run_goes_on(tmp_path):
    solves = [workloads.Solve("short", "pga", 0, {"max_iters": "2"}),
              workloads.Solve("apga", "apga", 0)]
    outcome = workloads.Runner(_tiny(solves), False, tmp_path).run(0.0)
    assert outcome.attempted == 2 * workloads.MIN_ROUNDS
    assert outcome.failed == workloads.MIN_ROUNDS
    assert outcome.errors[0].startswith("short: status max_iter")
    assert outcome.errors[1].startswith("short: F = ")
    assert len(outcome.errors) == 2 * workloads.MIN_ROUNDS


def test_each_time_is_scaled_by_the_kernel_runs_around_it():
    kernel = calibrate.CoordinateKernel()
    ref = kernel.reference_s
    runs = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref),
            (4.0, 4 * ref), (5.0, 4 * ref)]
    # the two runs before and the two after; fewer at either end
    assert calibrate.scaled(kernel, runs, [(2.5, 4.5), (0.5, 4.0), (9.0, 6.0)]) \
        == pytest.approx([2.0, 3.0, 1.5])
    outcome = workloads.Outcome(
        setup_s=[(0.5, 1.0), (0.6, 3.0), (0.7, 2.0)],
        solve_s={"a": [(0.8, 1.0), (0.9, 5.0), (5.5, 8.0)], "b": [(0.9, 4.0)]},
        probe_s=[(0.0, ref / 2), (1.0, ref / 2), (5.0, ref)], kernel=kernel)
    values = outcome.metrics(False)
    # set-ups and the first two repeats at 1.5x, the last repeat at 4/3 x
    assert values["setup_s"] == pytest.approx(3.0)
    assert values["solve_s"] == pytest.approx(7.5 + 6.0)
    assert outcome.solve_seconds() == {"a": 5.0, "b": 4.0}


def test_pinned_logistic_fstar_matches_an_independent_solve():
    data = proxy.a9a_proxy(0)
    fstar = reference.logistic_fstar(data.matrix, data.labels, 1e-3)
    assert fstar == pytest.approx(reference.LOGISTIC_FSTAR, rel=1e-12)


def test_quadratic_fstar_agrees_with_a_tight_package_solve():
    quad = synthesize_quadratic(30, 0.1, 10.0, 5)
    fstar = reference.quadratic_fstar(quad.basis, quad.eigenvalues, quad.b, 0.01)
    trace = ALGORITHMS["pqna-lbfgs"](quadratic_problem(quad, 0.01),
                                     build_config({"tol": "1e-9"}))
    assert trace.final().fval == pytest.approx(fstar, rel=1e-12)


def test_span_cost_is_positive_and_small():
    assert 0 < spans.span_cost(2000) < 1e-4


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_specified_metric_is_reported_or_accounted_for():
    reported = {m.name for m in END_TO_END + PER_LAYER}
    missing = [name for name in SPECIFIED
               if name not in reported and name not in MOVED]
    assert missing == []
    for name, (moved_to, reason) in MOVED.items():
        assert moved_to is None or moved_to in reported, name
        assert reason, name
