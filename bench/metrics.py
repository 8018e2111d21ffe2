"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json at the repository root repeats END_TO_END and PER_LAYER;
the tests check that the two agree.  Every metric is printed on every
workload, so a per-layer time is kept only where it is nonzero on all
three workloads; the rest of each layer is reported as counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    # The end-to-end metrics, on named workloads, that this layer
    # metric should move.
    moves: str = ""


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("solve_s", "s", "lower", 0.25),
    Metric("iterations", "count", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
]

_ORACLE = "solve_s on logistic-proxy (all drivers); no effect on the quadratics"
_CD = ("solve_s on quadratic-cd (mostly apqna-fh and pqna-fh) and about 15% "
       "of logistic-proxy; nothing on pga or apga")

PER_LAYER = [
    Metric("dataset.busy_s", "s", "lower",
           moves="setup_s: read_libsvm on logistic-proxy, "
                 "synthesize_quadratic on the quadratics"),
    Metric("dataset.bytes_read", "B", "lower",
           moves="setup_s on logistic-proxy; 0 on the quadratics"),
    Metric("problem.build.busy_s", "s", "lower",
           moves="setup_s: logistic_problem (its svds) on logistic-proxy, "
                 "quadratic_problem on the quadratics"),
    Metric("problem.f_value.calls", "count", "lower", moves=_ORACLE),
    Metric("problem.f_value.busy_s", "s", "lower", moves=_ORACLE),
    Metric("problem.f_grad.calls", "count", "lower", moves=_ORACLE),
    Metric("problem.f_grad.busy_s", "s", "lower", moves=_ORACLE),
    Metric("problem.value_and_grad.calls", "count", "lower", moves=_ORACLE),
    Metric("problem.value_and_grad.busy_s", "s", "lower", moves=_ORACLE),
    Metric("problem.x_passes", "count", "lower", moves=_ORACLE),
    Metric("problem.bytes_computed", "B", "lower", moves=_ORACLE),
    Metric("hessian.busy_s", "s", "lower",
           moves="solve_s on quadratic-cd, where enforce_domination for "
                 "apqna-lbfgs-strict is most of it"),
    Metric("hessian.compile_compact.calls", "count", "lower",
           moves="solve_s on quadratic-cd (pqna-lbfgs, apqna-lbfgs)"),
    Metric("hessian.compile_compact.busy_s", "s", "lower",
           moves="solve_s on quadratic-cd (pqna-lbfgs, apqna-lbfgs)"),
    Metric("hessian.enforce_domination.calls", "count", "lower",
           moves="solve_s on quadratic-cd (apqna-lbfgs-strict); 0 elsewhere"),
    Metric("hessian.model_value.calls", "count", "lower", moves="solve_s"),
    Metric("hessian.model_value.busy_s", "s", "lower", moves="solve_s"),
    Metric("subsolver.busy_s", "s", "lower", moves=_CD),
    Metric("subsolver.steps", "count", "lower", moves=_CD),
    Metric("subsolver.ns_per_step", "ns", "lower",
           moves="solve_s on quadratic-cd (randomized cd_minimize) and on "
                 "quadratic-exact (cyclic exact_solve_oracle)"),
    Metric("subsolver.cd_minimize.calls", "count", "lower", moves=_CD),
    Metric("subsolver.cd_minimize.steps", "count", "lower", moves=_CD),
    Metric("subsolver.cd_minimize.steps_per_call", "count", "lower", moves=_CD),
    Metric("subsolver.cd_minimize.budget_use", "fraction", "lower", moves=_CD),
    Metric("subsolver.exact_solve_oracle.calls", "count", "lower",
           moves="solve_s on quadratic-exact only"),
    Metric("subsolver.exact_solve_oracle.steps", "count", "lower",
           moves="solve_s on quadratic-exact only"),
    Metric("subsolver.solve_scaled_identity.calls", "count", "lower",
           moves="solve_s (first iteration of the quasi-Newton drivers)"),
    Metric("optimizers.self_s", "s", "lower",
           moves="solve_s on quadratic-cd, where pga and apga spend most of "
                 "their time in driver bookkeeping"),
    Metric("optimizers.backtracks", "count", "lower", moves="solve_s"),
    Metric("optimizers.accept_ratio", "fraction", "higher", moves="solve_s"),
    Metric("harness.emit_trace_csv.busy_s", "s", "lower",
           moves="nothing timed: the cost --trace-out adds, outside solve_s"),
    Metric("harness.emit_trace_csv.bytes", "B", "lower",
           moves="nothing timed: the size of the trace CSVs"),
    Metric("trace_overhead_s", "s", "lower",
           moves="nothing: spans in a traced round times the measured cost "
                 "of one span"),
]

# Metrics asked for when the benchmark was specified that are reported
# under another name, or not at all, and why.
MOVED = {
    "failed_share": (None, "it is 0 on every correct run, and a metric must "
                     "never be 0; the result line's 'failed' and 'attempted' "
                     "give failed solves over attempted solves"),
    **{f"solve_s.{d}": (None, "not every workload runs every driver, and "
                        "every metric is printed on every workload; the time "
                        "of each solve is printed above the result line, and "
                        "its root span is in the span file")
       for d in ("pga", "apga", "pqna-lbfgs", "pqna-fh", "apqna-lbfgs",
                 "apqna-fh", "apqna-lbfgs-strict")},
    "dataset.read_libsvm.busy_s": ("dataset.busy_s", "a time that is 0 on "
                                   "some workload is not kept"),
    "dataset.synthesize_quadratic.busy_s": ("dataset.busy_s", "as above"),
    "problem.logistic_problem.busy_s": ("problem.build.busy_s", "as above"),
    "hessian.enforce_domination.busy_s": ("hessian.busy_s", "as above; on "
                                          "quadratic-cd it is hessian.busy_s "
                                          "less compile_compact and model_value"),
    "subsolver.cd_minimize.busy_s": ("subsolver.busy_s", "as above"),
    "subsolver.cd_minimize.ns_per_step": ("subsolver.ns_per_step", "as above; "
                                          "quadratic-cd runs only cd_minimize"),
    "subsolver.exact_solve_oracle.busy_s": ("subsolver.busy_s", "as above"),
    "subsolver.exact_solve_oracle.ns_per_step": ("subsolver.ns_per_step",
                                                 "as above; quadratic-exact "
                                                 "runs only exact_solve_oracle"),
}
