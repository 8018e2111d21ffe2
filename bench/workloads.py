"""The benchmark's workloads and the loop that times and checks them.

Every solve goes through the public driver table
``proxqn.optimizers.ALGORITHMS`` with a configuration from
``proxqn.harness.build_config``, from the zero start, as ``proxqn run``
does.  Each workload is a list of solves over problems that its set-up
builds from inputs made from the seed.

A run repeats the list in rounds and takes each solve's time as the
median of its repeats.  Between solves it times a calibration kernel
(calibrate.py), and reports times scaled by the kernel's reference time
over its median time in the run, so that a slow spell of the host,
which stretches solves and kernel alike, drops out.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

import calibrate
from proxqn import (
    CompositeProblem,
    SyntheticQuadratic,
    logistic_problem,
    quadratic_problem,
    read_libsvm,
    synthesize_quadratic,
    write_libsvm,
)
from proxqn.harness import build_config, emit_trace_csv, read_trace_csv
from proxqn.optimizers import ALGORITHMS, CONVERGED, Trace

import proxy
import reference
from spans import Tracer, setup_metrics, solve_metrics, span_cost

# A solve fails its check when its final F is further than this, relative,
# from F* of the reference solve in reference.py.
F_RTOL = 1e-6

# Set-up runs SETUP_FIRST times before timing, then after each round
# for SETUP_SHARE of the round's time (once at least), so that its
# repeats span the run as the solves and the kernel do; its median is
# reported.
SETUP_FIRST = 5
SETUP_SHARE = 0.05

# Every run makes at least this many rounds, so each solve has a repeat
# (and, with --trace 1, a traced repeat to compare with the untraced one).
MIN_ROUNDS = 2

# The calibration kernel runs PROBE_FIRST times between the set-ups and
# the first round, then after each solve that brings the solve time
# since its last run to PROBE_EVERY_S, which keeps its share of a run
# near a fifth.
PROBE_FIRST = 3
PROBE_EVERY_S = 0.5

# Matrix passes each oracle makes.  The logistic value needs X@w and the
# gradient adds X'c; a quadratic oracle makes one product with A, which
# is held as V diag(eig) V' and so streams V twice.
LOGISTIC_PASSES = {"f_value": 1, "f_grad": 2, "value_and_grad": 2}
QUADRATIC_PASSES = {"f_value": 2, "f_grad": 2, "value_and_grad": 2}


@dataclass(frozen=True)
class Solve:
    label: str
    algorithm: str
    instance: int
    overrides: dict = field(default_factory=dict)


@dataclass
class Instance:
    problem: CompositeProblem
    pass_bytes: int
    inputs: object


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class LogisticProxy:
    """a9a-shaped l1-logistic problem, its rows in an order drawn from the
    seed, read back from a LIBSVM file: the path ``proxqn run --dataset``
    takes.  Solved to tol 1e-4, which takes about three quarters of the
    iterations of the protocol's 1e-5, so that every solve gets a
    repeat within a run."""

    lam = 1e-3
    passes = LOGISTIC_PASSES
    solves = [Solve(name, name, 0, {"tol": "1e-4"}) for name in ALGORITHMS]

    def __init__(self, seed: int, workdir: Path):
        data = proxy.a9a_proxy(0)
        self.path = workdir / "a9a-proxy.svm"
        write_libsvm(proxy.shuffle_rows(data, seed), str(self.path))
        self.bytes_read = self.path.stat().st_size
        self.kernel = calibrate.MixedKernel(
            calibrate.LogisticKernel(data.matrix, data.labels),
            calibrate.CoordinateKernel(steps=8000))

    def setup(self, call=_plain_call) -> list[Instance]:
        data = call("dataset.read_libsvm", read_libsvm, str(self.path),
                    n_features=proxy.FEATURES)
        x = data.matrix
        return [Instance(call("problem.build", logistic_problem, data, self.lam),
                         x.data.nbytes + x.indices.nbytes + x.indptr.nbytes,
                         data)]

    def fstar(self, inst: Instance) -> float:
        return reference.LOGISTIC_FSTAR


class Quadratics:
    """``copies`` of the quadratic f = x'Ax/2 - b'x made by
    ``synthesize_quadratic(n, 0.1, 10, 0)``, lambda = 0.01, each with its
    coordinates in an order drawn from the seed and the copy's index.

    As with the logistic proxy, the seed reorders the problem rather than
    drawing another one: the time to solve differs by up to a quarter from
    one drawn instance to the next, while a reordering leaves the exact
    solver's work within 1% and changes only the path of the randomized
    CD, which the copies average over."""

    lam = 0.01
    passes = QUADRATIC_PASSES
    bytes_read = 0

    def __init__(self, seed: int, n: int, copies: int, solves: list[Solve]):
        self.orders = [np.random.default_rng([seed, i]).permutation(n)
                       for i in range(copies)]
        self.n = n
        self.solves = solves
        self.kernel = calibrate.CoordinateKernel()

    def setup(self, call=_plain_call) -> list[Instance]:
        quad = call("dataset.synthesize_quadratic", synthesize_quadratic,
                    self.n, 0.1, 10.0, 0)
        out = []
        for order in self.orders:
            copy = SyntheticQuadratic(quad.eigenvalues, quad.basis[order],
                                      quad.b[order])
            out.append(Instance(call("problem.build", quadratic_problem,
                                     copy, self.lam), copy.basis.nbytes, copy))
        return out

    def fstar(self, inst: Instance) -> float:
        quad = inst.inputs
        return reference.quadratic_fstar(quad.basis, quad.eigenvalues, quad.b,
                                         self.lam)


EXACT = {"eta": "1", "subsolver": "exact", "exact_tol": "1e-10", "tol": "1e-5"}

WORKLOADS = {
    "logistic-proxy": lambda seed, workdir: LogisticProxy(seed, workdir),
    "quadratic-cd": lambda seed, workdir: Quadratics(
        seed, 30, 2,
        [Solve(f"{name}.{i}", name, i) for i in range(2) for name in ALGORITHMS]
        + [Solve(f"apqna-lbfgs-strict.{i}", "apqna-lbfgs", i,
                 {"domination": "strict"}) for i in range(2)]),
    "quadratic-exact": lambda seed, workdir: Quadratics(
        seed, 25, 1,
        [Solve("pqna-lbfgs-exact", "pqna-lbfgs", 0, EXACT)]),
}


def _records(trace: Trace) -> list:
    """Trace rows without the wall-clock column, which is the only one
    allowed to differ between runs."""
    return [replace(r, elapsed_sec=0.0) for r in trace.records]


@dataclass
class Outcome:
    """What one run measured and which checks failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # (start, wall seconds) of each set-up, of each solve's untraced
    # repeats and of each run of the calibration kernel
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    solve_s: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    probe_s: list[tuple[float, float]] = field(default_factory=list)
    kernel: calibrate.Kernel | None = None
    # label -> (status, iterations, final F) of the solve's first repeat
    finals: dict[str, tuple] = field(default_factory=dict)
    iterations: int = 0
    setup_layers: list[dict] = field(default_factory=list)
    round_layers: list[dict] = field(default_factory=list)
    # spans of the first set-up and the first traced round, written out
    tracers: list[Tracer] = field(default_factory=list)

    def solve_seconds(self, scaled: bool = False) -> dict[str, float]:
        """Time of each solve, the median of its untraced repeats: wall
        time, or scaled to the reference host."""
        return {label: median(self._scaled(t) if scaled else [s for _, s in t])
                for label, t in self.solve_s.items()}

    def _scaled(self, times: list[tuple[float, float]]) -> list[float]:
        return calibrate.scaled(self.kernel, self.probe_s, times)

    def metrics(self, traced: bool) -> dict[str, float]:
        """The per-layer metrics of a traced run, else the end-to-end ones.
        End-to-end times are medians of times scaled to the reference
        host; per-layer numbers are medians over set-ups and over traced
        rounds, as measured."""
        if not traced:
            return {
                "setup_s": median(self._scaled(self.setup_s)),
                "solve_s": sum(self.solve_seconds(scaled=True).values()),
                "iterations": self.iterations,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        values = {}
        for runs in (self.setup_layers, self.round_layers):
            values.update({name: median(run[name] for run in runs)
                           for name in runs[0]})
        return values


class Runner:
    """Sets a workload up, then times and checks rounds over its solves.
    With tracing, the first round is untraced and the others traced."""

    def __init__(self, workload, traced: bool, workdir: Path):
        self.workload = workload
        self.traced = traced
        self.workdir = workdir
        self.out = Outcome(kernel=workload.kernel)
        self.seen: dict[str, list] = {}
        self.unprobed_s = 0.0
        self.span_cost = span_cost() if traced else 0.0

    def run(self, seconds: float) -> Outcome:
        for _ in range(SETUP_FIRST):
            instances = self._set_up()
        for _ in range(PROBE_FIRST):
            self._probe()
        fstar = [self.workload.fstar(inst) for inst in instances]
        start = time.perf_counter()
        rounds = 0
        while True:
            t0 = time.perf_counter()
            self._round(instances, fstar, self.traced and rounds > 0)
            until = time.perf_counter() + SETUP_SHARE * (time.perf_counter() - t0)
            self._set_up()
            while time.perf_counter() < until:
                self._set_up()
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
                return self.out

    def _probe(self) -> None:
        self.out.probe_s.append((time.perf_counter(), self.workload.kernel.time()))
        self.unprobed_s = 0.0

    def _set_up(self) -> list[Instance]:
        tracer = Tracer() if self.traced else None
        t0 = time.perf_counter()
        instances = self.workload.setup(tracer.call if tracer else _plain_call)
        self.out.setup_s.append((t0, time.perf_counter() - t0))
        if tracer:
            layers = setup_metrics(tracer)
            layers["dataset.bytes_read"] = self.workload.bytes_read
            self.out.setup_layers.append(layers)
            if len(self.out.setup_layers) == 1:
                self.out.tracers.append(tracer)
        return instances

    def _round(self, instances: list[Instance], fstar: list[float],
               traced: bool) -> None:
        tracer = Tracer() if traced else None
        iterations = backtracks = 0
        for solve in self.workload.solves:
            inst = instances[solve.instance]
            cfg = build_config(solve.overrides)
            problem = inst.problem
            if tracer is None:
                trace, timed = self._solve(solve, problem, cfg)
            else:
                problem = tracer.problem(problem, self.workload.passes,
                                         inst.pass_bytes)
                with tracer.solve(solve.label):
                    trace, timed = self._solve(solve, problem, cfg)
            if trace is None:
                continue
            self._check(solve, trace, fstar[solve.instance], tracer)
            self.out.finals.setdefault(solve.label, (
                trace.status, trace.iterations, trace.final().fval))
            iterations += trace.iterations
            backtracks += sum(r.backtracks for r in trace.records)
            self.unprobed_s += timed[1]
            if self.unprobed_s >= PROBE_EVERY_S:
                self._probe()
            if tracer is None:
                self.out.solve_s.setdefault(solve.label, []).append(timed)
        self.out.iterations = iterations
        if tracer is not None:
            layers = solve_metrics(tracer)
            layers["optimizers.backtracks"] = backtracks
            layers["optimizers.accept_ratio"] = (
                iterations / max(iterations + backtracks, 1))
            spans = sum(1 for span in tracer.spans if span[0] is not None)
            layers["trace_overhead_s"] = spans * self.span_cost
            self.out.round_layers.append(layers)
            if len(self.out.round_layers) == 1:
                self.out.tracers.append(tracer)

    def _solve(self, solve: Solve, problem: CompositeProblem, cfg):
        """One driver call and its (start, wall seconds); a raise counts
        as a failed solve."""
        self.out.attempted += 1
        t0 = time.perf_counter()
        try:
            trace = ALGORITHMS[solve.algorithm](problem, cfg)
        except Exception as exc:  # e.g. SigmaUnderflowError: record, go on
            traceback.print_exc(file=sys.stderr)
            self._fail(solve, [f"raised {exc!r}"])
            return None, None
        return trace, (t0, time.perf_counter() - t0)

    def _fail(self, solve: Solve, reasons: list[str]) -> None:
        self.out.failed += 1
        self.out.errors.extend(f"{solve.label}: {reason}" for reason in reasons)

    def _check(self, solve: Solve, trace: Trace, fstar: float,
               tracer: Tracer | None) -> None:
        reasons = []
        if trace.status != CONVERGED:
            reasons.append(f"status {trace.status}")
        final = trace.final().fval
        if abs(final - fstar) > F_RTOL * abs(fstar):
            reasons.append(f"F = {final!r}, reference {fstar!r}")
        rows = _records(trace)
        first = self.seen.setdefault(solve.label, rows)
        if first is not rows and first != rows:
            reasons.append("repeated solve gave another trace"
                           + (" (traced)" if tracer else ""))
        # A repeat equal to the first trace would read back as the first
        # did, so the CSV round trip is made on first traces and on every
        # traced one, where it is timed.
        if first is rows or tracer is not None:
            csv = self.workdir / "trace.csv"
            if tracer is None:
                emit_trace_csv(trace, str(csv))
            else:
                tracer.call("harness.emit_trace_csv", emit_trace_csv, trace,
                            str(csv))
                tracer.counters["harness.emit_trace_csv.bytes"] += (
                    csv.stat().st_size)
            if read_trace_csv(str(csv)).records != trace.records:
                reasons.append("trace CSV does not read back exactly")
        if reasons:
            self._fail(solve, reasons)
