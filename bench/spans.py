"""In-memory spans around the calls into each proxqn layer.

The benchmark traces from its own files: it wraps the problem oracles
with ``dataclasses.replace`` and, for the length of one solve, rebinds
the names that ``proxqn.optimizers`` resolves at call time.  Nothing in
the package changes.  Every span records its solve, its parent and its
start and end; self time is computed when the spans are written out.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace

import proxqn.optimizers as optimizers
from proxqn import CompositeProblem

# Names that proxqn.optimizers looks up in its module globals on every
# call, so rebinding them catches each call, including the default
# model factory inside run_apqna.
PATCHED = {
    "compile_compact": "hessian",
    "enforce_domination": "hessian",
    "model_value": "hessian",
    "cd_minimize": "subsolver",
    "exact_solve_oracle": "subsolver",
    "solve_scaled_identity": "subsolver",
}
ORACLES = ("f_value", "f_grad", "value_and_grad")
ROOT = "optimizers.solve"


class Tracer:
    """Spans and counters of one set-up, or of one round over a workload's
    solves."""

    def __init__(self):
        self.spans: list[tuple] = []   # (solve, span, parent, name, start, end)
        self.labels: dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._solve: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (``layer.function``)."""
        span, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, parent, name, start)

    @contextmanager
    def span(self, name: str):
        span, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span, parent, name, start)

    def _open(self) -> tuple[int, int | None]:
        span = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span)
        return span, parent

    def _close(self, span: int, parent: int | None, name: str, start: float):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span] = (self._solve, span, parent, name, start, end)

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as ``name``; ``count(args, kwargs, result)`` may
        add to the counters after each call."""
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def problem(self, problem: CompositeProblem, passes: dict[str, int],
                pass_bytes: int) -> CompositeProblem:
        """``problem`` with traced oracles; each call also adds the matrix
        passes it makes and the bytes those passes stream (computed)."""
        def counter(oracle):
            def count(args, kwargs, result):
                self.counters["problem.x_passes"] += passes[oracle]
                self.counters["problem.bytes_computed"] += passes[oracle] * pass_bytes
            return count
        return replace(problem, **{
            oracle: self.wrap(f"problem.{oracle}", getattr(problem, oracle),
                              counter(oracle))
            for oracle in ORACLES
        })

    def _count_cd(self, args, kwargs, result):
        self.counters["subsolver.cd_minimize.steps"] += result[1]
        self.counters["subsolver.cd_minimize.granted"] += (
            args[4] if len(args) > 4 else kwargs["r"])

    def _count_exact(self, args, kwargs, result):
        self.counters["subsolver.exact_solve_oracle.steps"] += result[1]

    @contextmanager
    def solve(self, label: str):
        """Root span of one solve, with the layer functions rebound."""
        counts = {"cd_minimize": self._count_cd,
                  "exact_solve_oracle": self._count_exact}
        originals = {name: getattr(optimizers, name) for name in PATCHED}
        self._solve = len(self.labels)
        self.labels[self._solve] = label
        try:
            for name, layer in PATCHED.items():
                setattr(optimizers, name, self.wrap(
                    f"{layer}.{name}", originals[name], counts.get(name)))
            with self.span(ROOT):
                yield
        finally:
            for name, fn in originals.items():
                setattr(optimizers, name, fn)
            self._solve = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children run on the caller's thread, one after another, so the
        part they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[span]
                for _, span, _, _, start, end in self.spans]

    def busy(self) -> tuple[dict[str, float], Counter]:
        """Time inside, and number of, the spans of each name."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, _, _, name, start, end in self.spans:
            busy[name] += end - start
            calls[name] += 1
        return busy, calls

    def write(self, fh, offset: float, first_id: int) -> int:
        """Append the spans as JSON lines, times relative to ``offset`` and
        span ids counted from ``first_id``; returns the next free id."""
        for (solve, span, parent, name, start, end), own in zip(
                self.spans, self.self_times()):
            fh.write(json.dumps({
                "solve": self.labels.get(solve), "span": first_id + span,
                "parent": None if parent is None else first_id + parent,
                "name": name, "start_s": start - offset, "end_s": end - offset,
                "self_s": own,
            }) + "\n")
        return first_id + len(self.spans)


def span_cost(calls: int = 20000) -> float:
    """Seconds that one span adds to a call: a traced no-op less a plain
    one, each the fastest of five batches of ``calls``."""
    def noop():
        return None

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    traced = min(per_call(Tracer().wrap("noop", noop)) for _ in range(5))
    return traced - min(per_call(noop) for _ in range(5))


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one set-up."""
    busy, _ = tracer.busy()
    return {
        "dataset.busy_s": sum(t for name, t in busy.items()
                              if name.startswith("dataset.")),
        "problem.build.busy_s": busy["problem.build"],
    }


def solve_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced round over a workload's solves."""
    busy, calls = tracer.busy()
    n = tracer.counters
    m: dict[str, float] = {}
    for oracle in ORACLES:
        m[f"problem.{oracle}.calls"] = calls[f"problem.{oracle}"]
        m[f"problem.{oracle}.busy_s"] = busy[f"problem.{oracle}"]
    m["problem.x_passes"] = n["problem.x_passes"]
    m["problem.bytes_computed"] = n["problem.bytes_computed"]

    m["hessian.busy_s"] = sum(busy[f"hessian.{f}"] for f, layer in PATCHED.items()
                              if layer == "hessian")
    for f in ("compile_compact", "model_value"):
        m[f"hessian.{f}.calls"] = calls[f"hessian.{f}"]
        m[f"hessian.{f}.busy_s"] = busy[f"hessian.{f}"]
    m["hessian.enforce_domination.calls"] = calls["hessian.enforce_domination"]

    cd_steps = n["subsolver.cd_minimize.steps"]
    exact_steps = n["subsolver.exact_solve_oracle.steps"]
    steps = cd_steps + exact_steps
    m["subsolver.busy_s"] = sum(busy[f"subsolver.{f}"] for f, layer in PATCHED.items()
                                if layer == "subsolver")
    m["subsolver.steps"] = steps
    m["subsolver.ns_per_step"] = 1e9 * (
        busy["subsolver.cd_minimize"] + busy["subsolver.exact_solve_oracle"]
    ) / max(steps, 1)
    cd_calls = calls["subsolver.cd_minimize"]
    m["subsolver.cd_minimize.calls"] = cd_calls
    m["subsolver.cd_minimize.steps"] = cd_steps
    m["subsolver.cd_minimize.steps_per_call"] = cd_steps / max(cd_calls, 1)
    m["subsolver.cd_minimize.budget_use"] = (
        cd_steps / max(n["subsolver.cd_minimize.granted"], 1))
    m["subsolver.exact_solve_oracle.calls"] = calls["subsolver.exact_solve_oracle"]
    m["subsolver.exact_solve_oracle.steps"] = exact_steps
    m["subsolver.solve_scaled_identity.calls"] = calls["subsolver.solve_scaled_identity"]

    own = tracer.self_times()
    m["optimizers.self_s"] = sum(own[span] for _, span, _, name, _, _ in tracer.spans
                                 if name == ROOT)
    m["harness.emit_trace_csv.busy_s"] = busy["harness.emit_trace_csv"]
    m["harness.emit_trace_csv.bytes"] = n["harness.emit_trace_csv.bytes"]
    return m
