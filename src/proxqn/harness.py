"""Experiment runner and verification suites behind the CLI.

Reproduces the benchmark protocol (start at zero, lambda = 1e-3,
relative subgradient termination), writes per-iteration traces as CSV,
assembles comparison tables, and executes the cross-module invariant
checks.  CSV is the machine contract; reports are regenerable
byte-identically from stored trace files.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import time
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from . import _cdkernel, _oracles
from .dataset import read_libsvm, synthesize_quadratic
from .hessian import (
    CorrectionPairs,
    HessianModel,
    SingularCompactForm,
    compile_compact,
    enforce_domination,
    extreme_eigenvalues,
    model_value,
)
from .optimizers import (
    ALGORITHMS,
    BACKTRACK_FAILURE,
    NON_FINITE,
    OptimizerConfig,
    Trace,
    TraceRecord,
    run_apga,
    run_apqna_fh,
    run_pga,
    run_pqna,
    theoretical_linear_rate,
)
from .problem import (
    CompositeProblem,
    Memo,
    forward_reference,
    gradient_reference,
    l1_value,
    logistic_gradient,
    logistic_problem,
    logistic_value,
    logistic_value_and_gradient,
    min_norm_subgradient,
    prox_l1_scaled_identity,
    quadratic_problem,
)
from .subsolver import (
    CdWorkspace,
    cd_minimize,
    exact_loop,
    exact_solve_oracle,
    phi_constant,
    random_loop,
)

TRACE_HEADER = "k,fval,subgrad_inf,backtracks,inner_iters,step_scalar,t_k,elapsed_sec"


def emit_trace_csv(trace: Trace, path: str) -> None:
    """Write one row per iteration; floats carry 17 significant digits
    so a read back recovers them bit-exactly."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace.records:
            fh.write(
                f"{r.k},{r.fval:.17g},{r.subgrad_inf:.17g},{r.backtracks},"
                f"{r.inner_iters},{r.step_scalar:.17g},{r.t_k:.17g},"
                f"{r.elapsed_sec:.17g}\n"
            )


def read_trace_csv(path: str) -> Trace:
    """Read a trace written by ``emit_trace_csv``; the algorithm name is
    the file name up to its first dot."""
    trace = Trace(algorithm=os.path.basename(path).split(".")[0])
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 8:
                    raise ValueError(f"{len(parts)} fields, expected 8")
                trace.records.append(TraceRecord(
                    k=int(parts[0]), fval=float(parts[1]),
                    subgrad_inf=float(parts[2]), backtracks=int(parts[3]),
                    inner_iters=int(parts[4]), step_scalar=float(parts[5]),
                    t_k=float(parts[6]), elapsed_sec=float(parts[7]),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not trace.records:
        raise ValueError(f"{path}: empty trace")
    return trace


# ---------------------------------------------------------------------------
# Experiment specification


# Every setting a spec file or a ``proxqn run`` flag can change: the
# key, which is the ``OptimizerConfig`` field (the flag is --key with "-"
# for "_"), -> its type.
SETTINGS = {name: typ for name, typ in get_type_hints(OptimizerConfig).items()
            if name != "diagnostics"}


def _typed(key: str, raw: str, typ: type):
    """``typ(raw)``, refused with a message that names the key."""
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"{key} = {raw!r} is not {typ.__name__}") from None


def build_config(overrides: dict[str, str],
                 base: OptimizerConfig | None = None) -> OptimizerConfig:
    """Apply flat key=value overrides (CLI/spec-file names) to a config."""
    kwargs = {}
    for key, raw in overrides.items():
        key = key.replace("-", "_")
        if key not in SETTINGS:
            raise ValueError(f"unknown configuration key {key!r}")
        kwargs[key] = _typed(key, raw, SETTINGS[key])
    return replace(base or OptimizerConfig(), **kwargs)


@dataclass(frozen=True)
class SyntheticSpec:
    """Arguments of ``synthesize_quadratic`` for a seeded quadratic."""

    n: int = 50
    gamma: float = 0.1
    l_target: float = 10.0
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> SyntheticSpec:
        """``n=.., gamma=.., L=.., seed=..`` (commas or spaces); ``L`` and
        ``lmax`` name ``l_target``, keys left out keep the defaults, and
        a key set twice, under either name, is refused."""
        types, out = get_type_hints(cls), {}
        for item in text.replace(",", " ").split():
            key, _, raw = item.partition("=")
            key = {"l": "l_target", "lmax": "l_target"}.get(key.lower(), key.lower())
            if key not in types:
                raise ValueError(f"unknown synthetic parameter {key!r}")
            if key in out:
                raise ValueError(f"{key} is set twice")
            out[key] = _typed(key, raw, types[key])
        return cls(**out)

    def __post_init__(self) -> None:
        if not self.n >= 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.l_target < math.inf:
            raise ValueError(f"l_target must lie in (0, inf), got {self.l_target}")
        if not 0 < self.gamma <= self.l_target:
            raise ValueError(f"gamma must lie in (0, l_target = {self.l_target}], "
                             f"got {self.gamma}")
        if self.n == 1 and self.gamma != self.l_target:
            raise ValueError(f"n = 1 needs gamma = l_target, got {self.gamma} "
                             f"and {self.l_target}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: a problem source and each algorithm's config,
    in run order.  Every check runs once, when the record is built."""

    configs: dict[str, OptimizerConfig]
    lam: float = 1e-3
    dataset_path: str | None = None
    positive_class: str | None = None
    n_features: int | None = None
    synthetic: SyntheticSpec | None = None
    output_dir: str = "."
    checkpoints: list[int] | None = None

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("at least one algorithm is required")
        unknown = [a for a in self.configs if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must lie in [0, inf), got {self.lam}")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset/synthetic must be given")
        for key in ("positive_class", "n_features"):
            if self.synthetic is not None and getattr(self, key) is not None:
                raise ValueError(f"{key} applies to a dataset, not to synthetic")
        if self.checkpoints is not None:
            if any(c < 0 for c in self.checkpoints):
                raise ValueError(f"checkpoints must be nonnegative: {self.checkpoints}")
            if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
                raise ValueError("checkpoints must be strictly increasing")


# The keys of an [experiment] section besides ``algorithms`` and the
# settings: key -> (``ExperimentSpec`` field, reader of the value).
# ``run``'s source flags and ``compare``'s --output-dir and --checkpoints
# are read by the same table.
_EXPERIMENT_KEYS = {
    "lambda": ("lam", float),
    "dataset": ("dataset_path", str),
    "positive_class": ("positive_class", str),
    "n_features": ("n_features", int),
    "synthetic": ("synthetic", SyntheticSpec.parse),
    "output_dir": ("output_dir", str),
    "checkpoints": ("checkpoints", lambda raw: [int(c) for c in raw.split(",")]),
}


def experiment_fields(raw: dict[str, str | None]) -> dict[str, object]:
    """The ``ExperimentSpec`` fields that experiment keys set, each value
    read by its key's reader; a key whose value is None sets nothing."""
    out = {}
    for key, value in raw.items():
        if value is None:
            continue
        name, reader = _EXPERIMENT_KEYS[key]
        try:
            out[name] = reader(value)
        except ValueError as exc:
            raise ValueError(f"{key} = {value!r}: {exc}") from None
    return out


def parse_experiment_spec(path: str) -> ExperimentSpec:
    """Flat key = value sections: [experiment] plus one optional section
    per algorithm with config overrides, applied over the experiment's."""
    # Values are taken as written: no %-interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read experiment spec {path!r}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    exp = sections.pop("experiment", None)
    if exp is None:
        raise ValueError(f"{path}: missing [experiment] section")
    for section in sections:
        if section not in ALGORITHMS:
            raise ValueError(f"{path}: unknown algorithm section [{section}]")
    algorithms = [a.strip() for a in exp.pop("algorithms", "").split(",") if a.strip()]
    for alg in algorithms:
        if algorithms.count(alg) > 1:
            raise ValueError(f"algorithms lists {alg} more than once")
    fields = experiment_fields({key: exp.pop(key) for key in list(exp)
                                if key in _EXPERIMENT_KEYS})
    common = build_config(exp)
    configs = {}
    for alg in dict.fromkeys([*algorithms, *sections]):
        try:
            configs[alg] = build_config(sections.get(alg, {}), common)
        except ValueError as exc:
            raise ValueError(f"[{alg}] {exc}") from None
    return ExperimentSpec({alg: configs[alg] for alg in algorithms}, **fields)


def build_problem(spec: ExperimentSpec) -> CompositeProblem:
    if spec.dataset_path is not None:
        ds = read_libsvm(spec.dataset_path, spec.positive_class, spec.n_features)
        return logistic_problem(ds, spec.lam)
    syn = spec.synthetic
    quad = synthesize_quadratic(syn.n, syn.gamma, syn.l_target, syn.seed)
    return quadratic_problem(quad, spec.lam)


# ---------------------------------------------------------------------------
# Comparison report


@dataclass
class ReportRow:
    algorithm: str
    values: list[tuple[int, float]]
    final_iter: int
    final_fval: float
    elapsed_sec: float


@dataclass
class ComparisonReport:
    checkpoints: list[int]
    rows: list[ReportRow]

    def to_text(self) -> str:
        heads = ["algorithm"]
        for c in self.checkpoints:
            heads += ["iter", f"Fval@{c}"]
        heads += ["iter", "Fval(final)", "time(s)"]
        lines = ["  ".join(f"{h:>14s}" for h in heads)]
        for row in self.rows:
            cells = [f"{row.algorithm:>14s}"]
            for it, fv in row.values:
                cells += [f"{it:>14d}", f"{fv:>14.6e}"]
            cells += [f"{row.final_iter:>14d}", f"{row.final_fval:>14.6e}",
                      f"{row.elapsed_sec:>14.3e}"]
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("algorithm,kind,iter,fval,elapsed_sec\n")
        for row in self.rows:
            for it, fv in row.values:
                out.write(f"{row.algorithm},checkpoint,{it},{fv:.17g},\n")
            out.write(
                f"{row.algorithm},final,{row.final_iter},"
                f"{row.final_fval:.17g},{row.elapsed_sec:.17g}\n"
            )
        return out.getvalue()


def assemble_report(traces: list[Trace],
                    checkpoints: list[int] | None = None) -> ComparisonReport:
    """Pure function of traces; default checkpoints are the thirds of the
    slowest run, mirroring the three-column benchmark tables."""
    if not traces:
        raise ValueError("no traces to report on")
    if checkpoints is None:
        slowest = max(t.iterations for t in traces)
        checkpoints = sorted({max(1, math.ceil(slowest / 3)),
                              max(1, math.ceil(2 * slowest / 3)),
                              max(1, slowest)})
    rows = []
    for t in traces:
        vals = [(min(c, t.iterations), t.value_at(c)) for c in checkpoints]
        rows.append(ReportRow(
            algorithm=t.algorithm,
            values=vals,
            final_iter=t.iterations,
            final_fval=t.final().fval,
            elapsed_sec=t.final().elapsed_sec,
        ))
    return ComparisonReport(checkpoints=list(checkpoints), rows=rows)


def run_experiment(spec: ExperimentSpec) -> tuple[ComparisonReport, dict[str, Trace]]:
    """Run every algorithm in the spec from the zero start and write
    trace CSVs plus the text/CSV report into the output directory."""
    problem = build_problem(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    traces: dict[str, Trace] = {}
    for alg, config in spec.configs.items():
        try:
            trace = ALGORITHMS[alg](problem, config)
        except Exception as exc:
            raise RuntimeError(f"{alg}: {exc}") from exc
        if trace.status == BACKTRACK_FAILURE:
            raise RuntimeError(f"{alg}: backtracking failed (broken oracle?)")
        if trace.status == NON_FINITE:
            raise RuntimeError(f"{alg}: {NON_FINITE}: NaN objective or "
                               f"non-finite gradient after "
                               f"{trace.iterations} iteration(s)")
        traces[alg] = trace
        emit_trace_csv(trace, os.path.join(spec.output_dir, f"{alg}.trace.csv"))
    report = assemble_report(list(traces.values()), spec.checkpoints)
    with open(os.path.join(spec.output_dir, "report.txt"), "w") as fh:
        fh.write(report.to_text())
    with open(os.path.join(spec.output_dir, "report.csv"), "w") as fh:
        fh.write(report.to_csv_text())
    return report, traces


# ---------------------------------------------------------------------------
# Rate diagnostics


def tolerance_induced_gap(trace: Trace, gamma: float, n: int) -> float:
    """Upper bound on F(x_final) - F* implied by the stopping rule.

    Strong convexity gives F(x) - F* <= ||xi||_2^2 / (2 gamma) for any
    subgradient xi; the trace stores the inf-norm, bounded by sqrt(n)
    times the 2-norm the inequality needs.
    """
    if gamma <= 0:
        raise ValueError("needs a positive strong-convexity estimate")
    return n * trace.final().subgrad_inf ** 2 / (2.0 * gamma)


@dataclass
class RateDiagnostics:
    fitted_ratio: float
    thm1_violations: list[int] | None = None
    thm6_violations: list[int] | None = None
    envelope_violations: list[int] | None = None


def rate_diagnostics(trace: Trace, reference_fstar: float,
                     rho: float | None = None,
                     dist0_sq: float | None = None,
                     skip: int = 0) -> RateDiagnostics:
    """Fit the tail geometric ratio of F(x_k) - F* and check the linear
    and accelerated envelopes when their constants are supplied.

    ``rho`` enables the strongly convex check gap_k <= rho^k gap_0;
    ``dist0_sq`` = ||x_0 - x*||^2 enables both the fixed-Hessian bound
    dist0_sq / (2 sigma_k t_k^2) (sigma, t read from the trace) and the
    1/k^2 envelope 2 dist0_sq / (mu_k (k+1)^2).  ``skip`` ignores the
    first rows (e.g. a warmup phase).  A non-finite F*, a constant
    outside its domain, or a skip that leaves no row is refused, since
    a bound checked against NaN gaps or on no row would read as held.
    """
    if not math.isfinite(reference_fstar):
        raise ValueError(f"reference_fstar must be finite, got {reference_fstar}")
    if rho is not None and not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if dist0_sq is not None and not 0.0 <= dist0_sq < math.inf:
        raise ValueError(f"dist0_sq must lie in [0, inf), got {dist0_sq}")
    records = trace.records
    if len(records) < 10:
        raise ValueError("trace too short for rate fitting (need >= 10 rows)")
    if not 0 <= skip < records[-1].k:
        raise ValueError(f"skip must lie in [0, {records[-1].k}), below the "
                         f"trace's last k, got {skip}")
    if reference_fstar > min(r.fval for r in records) + 1e-12:
        raise ValueError("reference F* exceeds the best trace value")
    gaps = np.array([r.fval - reference_fstar for r in records])
    ks = np.array([r.k for r in records])

    tail = slice(len(records) // 2, None)
    pos = gaps[tail] > 0
    if np.sum(pos) >= 2:
        slope = np.polyfit(ks[tail][pos], np.log(gaps[tail][pos]), 1)[0]
        fitted = float(np.exp(slope))
    else:
        fitted = 0.0

    diag = RateDiagnostics(fitted_ratio=fitted)
    if rho is not None:
        gap0 = gaps[0]
        diag.thm1_violations = [
            int(r.k) for r, g in zip(records, gaps)
            if r.k > skip and g > rho ** r.k * gap0
        ]
    if dist0_sq is not None:
        thm6 = []
        env = []
        for r, g in zip(records, gaps):
            if r.k <= skip or r.k == 0:
                continue
            kk = r.k - skip
            if g > dist0_sq / (2.0 * r.step_scalar * r.t_k * r.t_k):
                thm6.append(int(r.k))
            if g > 2.0 * dist0_sq / (r.step_scalar * (kk + 1) ** 2):
                env.append(int(r.k))
        diag.thm6_violations = thm6
        diag.envelope_violations = env
    return diag


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class VerifyReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark}  {r.name:<38s} ({r.seconds:6.2f}s)  {r.detail}")
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(r.passed for r in self.results)}/{len(self.results)} checks")
        return "\n".join(lines) + "\n"


def _random_sparse_dataset(rng, m=40, n=12, density=0.5, binary=False):
    """Values from N(0, 1), or 1.0 everywhere when ``binary``."""
    from scipy.sparse import random as sprandom
    from .dataset import Dataset
    mat = sprandom(m, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)), format="csr")
    mat.data = np.ones(mat.nnz) if binary else rng.standard_normal(mat.nnz)
    labels = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
    return Dataset(mat, labels)


def _random_compact_model(rng, n, n_pairs, memory=10):
    quad = synthesize_quadratic(n, 0.5, 5.0, int(rng.integers(2**31)))
    pairs = CorrectionPairs(n, memory=memory)
    x = rng.standard_normal(n)
    for _ in range(n_pairs):
        s = rng.standard_normal(n) * 0.3
        y = quad.matvec(s)
        pairs.update(s, y)
        x = x + s
    return compile_compact(pairs), pairs


def _check_gradient_fd(level, rng):
    worst = 0.0
    ds = _random_sparse_dataset(rng)
    prob_log = logistic_problem(ds, 1e-3)
    quad = synthesize_quadratic(15, 0.2, 8.0, 3)
    prob_quad = quadratic_problem(quad, 1e-3)
    for prob in (prob_log, prob_quad):
        for _ in range(5):
            w = rng.standard_normal(prob.n)
            g = prob.f_grad(w)
            for _ in range(20):
                d = rng.standard_normal(prob.n)
                d /= np.linalg.norm(d)
                fd = _oracles.directional_derivative(prob.f_value, w, d)
                denom = max(1.0, abs(fd))
                worst = max(worst, abs(fd - g @ d) / denom)
    return worst <= 1e-6, f"max relative gradient error {worst:.2e}"


def _check_oracle_memo(level, rng):
    cases = 100 if level == "full" else 20
    problems = (logistic_problem(_random_sparse_dataset(rng), 1e-3),
                quadratic_problem(synthesize_quadratic(15, 0.2, 8.0, 3), 1e-3))
    for prob in problems:
        for _ in range(cases):
            w = rng.standard_normal(prob.n) * (rng.random(prob.n) < 0.7)
            memo = Memo()
            prob.f_value(w, memo)
            if memo.recall(w) is None:
                return False, f"{prob.name}: f_value left nothing to reuse"
            if prob.f_grad(w, memo).tobytes() != prob.f_grad(w).tobytes():
                return False, f"{prob.name}: f_grad differs with the memo"
    return True, (f"{cases} points on a logistic and a quadratic problem: "
                  f"f_grad bit-identical with and without the memo")


def _check_soft_threshold_golden(level, rng):
    cases = 1000 if level == "full" else 400
    worst = 0.0
    for _ in range(cases):
        v = float(rng.standard_normal() * 3)
        tau = float(abs(rng.standard_normal()))
        closed = float(prox_l1_scaled_identity(np.array([v]), 1.0, tau)[0])
        worst = max(worst, abs(closed - _oracles.prox_scalar_reference(v, tau)))
    return worst <= 1e-8, f"max |closed form - golden section| = {worst:.2e}"


def _check_coordinate_step_golden(level, rng):
    cases = 1000 if level == "full" else 400
    worst = 0.0
    for _ in range(cases):
        a = float(abs(rng.standard_normal()) + 0.1)
        b = float(rng.standard_normal() * 2)
        u_j = float(rng.standard_normal())
        lam = float(abs(rng.standard_normal()))
        ws = CdWorkspace(HessianModel(1.0, 1, scale=a), np.array([b]),
                         np.array([u_j]), lam)
        z_closed = ws.step(0)
        z_ref = _oracles.coordinate_step_reference(a, b, u_j, lam)
        worst = max(worst, abs(z_closed - z_ref))
    return worst <= 1e-8, f"max coordinate-step deviation {worst:.2e}"


def _check_prox_optimality(level, rng):
    trials = 60 if level == "full" else 25
    for _ in range(trials):
        n = 8
        v = rng.standard_normal(n) * 2
        mu = float(abs(rng.standard_normal()) + 0.1)
        lam = float(abs(rng.standard_normal()))
        u = prox_l1_scaled_identity(v, mu, lam)

        def obj(w):
            return l1_value(w, lam) + float((w - v) @ (w - v)) / (2 * mu)

        base = obj(u)
        for j in range(n):
            for eps in (1e-4, -1e-4):
                w = u.copy()
                w[j] += eps
                if obj(w) < base - 1e-15:
                    return False, f"perturbation at coordinate {j} improved prox"
    return True, "prox stationary under +-1e-4 perturbations"


def _polish_minimizer(problem, iterations=30000):
    """High-accuracy minimizer by fixed-step proximal gradient."""
    mu = 1.0 / (problem.lipschitz or 1.0)
    x = np.zeros(problem.n)
    for _ in range(iterations):
        x = prox_l1_scaled_identity(x - mu * problem.f_grad(x), mu, problem.lam)
    return x


def _check_minnorm_fixed_point(level, rng):
    quad = synthesize_quadratic(12, 0.3, 4.0, 11)
    prob = quadratic_problem(quad, 0.05)
    xstar = _polish_minimizer(prob, 5000)
    for x, should_be_zero in ((xstar, True),
                              (xstar + 0.01 * rng.standard_normal(12), False)):
        g = prob.f_grad(x)
        norm = float(np.max(np.abs(min_norm_subgradient(g, x, prob.lam))))
        resid = float(np.linalg.norm(
            x - prox_l1_scaled_identity(x - g, 1.0, prob.lam)))
        if should_be_zero and not (norm <= 1e-9 and resid <= 1e-9):
            return False, f"optimal point: norm={norm:.1e} resid={resid:.1e}"
        if not should_be_zero and (norm <= 1e-10) != (resid <= 1e-10):
            return False, "min-norm zero and prox fixed point disagree"
    return True, "min-norm subgradient zero iff prox fixed point"


def _check_compact_vs_dense(level, rng):
    cases = 100 if level == "full" else 30
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(5, 51))
        memory = int(rng.integers(1, 11))
        n_pairs = int(rng.integers(1, memory + 4))
        model, pairs = _random_compact_model(rng, n, n_pairs, memory)
        s_mat, y_mat = pairs.pairs()
        dense = _oracles.dense_bfgs_matrix(s_mat, y_mat, model.delta)
        for _ in range(5):
            v = rng.standard_normal(n)
            ref = dense @ v
            err = np.linalg.norm(model.apply(v) - ref) / max(1.0, np.linalg.norm(ref))
            worst = max(worst, err)
        for _ in range(50):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            ray = float(v @ model.apply(v))
            if ray < 1e-12:
                return False, f"compiled model lost positive definiteness ({ray:.1e})"
        j = int(rng.integers(n))
        e = np.zeros(n)
        e[j] = 1.0
        diag = CdWorkspace(model, np.zeros(n), np.zeros(n), 0.0).diag
        if abs(diag[j] - float(e @ model.apply(e))) > 1e-10:
            return False, "subsolver diagonal inconsistent with apply"
    return worst <= 1e-8, f"max matvec relative error {worst:.2e}"


def _check_cd_monotone(level, rng):
    n = 15
    model, _ = _random_compact_model(rng, n, 5)
    for seed in range(5 if level == "fast" else 20):
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = 0.3
        ws = CdWorkspace(model, grad_v, v, lam)
        local_rng = np.random.default_rng(seed)

        def qval(u):
            return model_value(model, u, v, 0.0, grad_v, l1_value(u, lam))

        prev = qval(ws.u)
        for j in local_rng.integers(0, n, size=300):
            ws.step(int(j))
            cur = qval(ws.u)
            if cur > prev + 1e-12:
                return False, f"Q increased by {cur - prev:.2e}"
            prev = cur
        if ws.cache_error() > 1e-10:
            return False, f"cache drifted {ws.cache_error():.2e}"
    return True, "Q_H nonincreasing along coordinate steps; cache exact"


def _check_cd_vs_exact(level, rng):
    n = 20
    worst = 0.0
    for seed in range(3 if level == "fast" else 8):
        model, _ = _random_compact_model(rng, n, 6)
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = 0.2
        ustar, _ = exact_solve_oracle(model, grad_v, v, lam, 1e-12)
        qstar = model_value(model, ustar, v, 0.0, grad_v, l1_value(ustar, lam))
        u, _ = cd_minimize(model, grad_v, v, lam, 5000, seed=seed)
        q = model_value(model, u, v, 0.0, grad_v, l1_value(u, lam))
        worst = max(worst, q - qstar)
    return worst <= 1e-6, f"max Q gap after 5000 steps {worst:.2e}"


def _check_cd_kernel(level, rng):
    kernel = _cdkernel.KERNEL
    if kernel is None:
        return True, f"backend {_cdkernel.backend()}: no kernel to compare"
    cases = 200 if level == "full" else 50
    widest = 0
    for _ in range(cases):
        n = int(rng.integers(2, 41))
        base, _ = _random_compact_model(rng, n, int(rng.integers(0, 13)))
        model = base.rescaled(1.0 / float(rng.uniform(0.2, 5.0)))
        widest = max(widest, model.p)
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n) * (rng.random(n) < 0.7)
        lam = float(rng.uniform(0.0, 0.5))
        indices = rng.integers(0, n, size=500)
        results = []
        for random_steps, sweeps in (
                (lambda ws: kernel.random(ws, indices), kernel.exact),
                (lambda ws: random_loop(ws, indices), exact_loop)):
            a = CdWorkspace(model, grad_v, v, lam)
            b = CdWorkspace(model, grad_v, v, lam)
            random_steps(a)
            results.append((sweeps(b, 1e-10, 10**6),
                            *(x.tobytes() for ws in (a, b)
                              for x in (ws.u, ws.d, ws.qcache))))
        if results[0] != results[1]:
            return False, f"n={n}, p={model.p}: kernel and Python step differ"
    return True, (f"{cases} instances (n <= 40, p <= {widest}): iterates, "
                  f"caches and exact-solve step counts bit-identical")


def _check_logistic_kernel(level, rng):
    kernel = _cdkernel.KERNEL
    if kernel is None:
        return True, f"backend {_cdkernel.backend()}: no kernel to compare"
    cases = 12 if level == "full" else 4
    largest = 0
    for case in range(cases):
        # Every other dataset has enough nonzeros (about 40000 to 95000)
        # for the passes to split over threads, and half of each kind
        # store only 1.0, which the passes read without their values.
        if case % 2:
            m, n, density = int(rng.integers(1, 200)), int(rng.integers(1, 40)), 0.3
        else:
            m, n, density = int(rng.integers(2000, 3000)), int(rng.integers(25, 40)), 0.8
        ds = _random_sparse_dataset(rng, m=m, n=n, density=density,
                                    binary=case % 4 >= 2)
        largest = max(largest, ds.nnz)
        bound = kernel.bind(ds)
        for scale in (1e-3, 1.0, 10.0, 800.0):
            w = rng.standard_normal(ds.n_features) * scale
            where = f"m={m}, nnz={ds.nnz}, binary={ds.binary}"
            z, e, t = forward_reference(ds, w)
            _, _, *passes = bound.parts(kernel.value(bound, w)[1])
            for name, got, want in zip(("margins", "exp(-|z|)", "loss terms"),
                                       passes, (z, e, t)):
                if got.tobytes() != want.tobytes():
                    return False, f"{where}: {name} differ"
            value, grad = float(np.mean(t)), gradient_reference(ds, z, e)
            memo = Memo()
            pair = logistic_value_and_gradient(ds, w)
            for name, got, want in (
                    ("f_value", logistic_value(ds, w, memo), value),
                    ("f_grad", logistic_gradient(ds, w, memo), grad),
                    ("f_grad without the memo", logistic_gradient(ds, w), grad),
                    ("value_and_grad's value", pair[0], value),
                    ("value_and_grad's gradient", pair[1], grad)):
                if np.asarray(got).tobytes() != np.asarray(want).tobytes():
                    return False, f"{where}: {name} differs"
    return True, (f"{cases} datasets, half of them binary (nnz <= {largest}): "
                  f"forward passes, f_value, f_grad and value_and_grad "
                  f"bit-identical")


def _compact_outcome(pairs: CorrectionPairs) -> tuple:
    """compile_compact's model as bytes and layout, or "singular", with
    the number of pairs the buffer kept."""
    try:
        model = compile_compact(pairs)
    except SingularCompactForm:
        return "singular", len(pairs)
    parts = [float(model.delta).hex(), model.n]
    for array in (model.q, model.w, model.qw, model.low_rank_diag):
        parts += [array.shape, array.strides, array.tobytes()]
    return parts, len(pairs)


def _check_compact_kernel(level, rng):
    kernel = _cdkernel.KERNEL
    if kernel is None:
        return True, f"backend {_cdkernel.backend()}: no kernel to compare"
    streams = 24 if level == "full" else 6
    builds = dropped = singular = 0
    for _ in range(streams):
        n = int(rng.choice([1, 2, 3, 7, 30, 123]))
        memory = int(rng.integers(1, 11))
        a = rng.standard_normal((n, n))
        spd = a @ a.T / n + 0.1 * np.eye(n)
        stream = []
        s = rng.standard_normal(n)
        for kind in rng.integers(0, 4, size=30):
            # New directions, near-repeats that make the middle matrix
            # ill-conditioned (the oldest pairs are dropped), exact
            # repeats, and nearly orthogonal y (a single such pair is
            # singular).
            if kind == 0:
                s = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 2))
            elif kind == 1:
                s = s + 10.0 ** -float(rng.integers(5, 13)) * rng.standard_normal(n)
            y = spd @ s
            if kind == 3 and n > 1:
                y = rng.standard_normal(n)
                y -= (y @ s) / (s @ s) * s
                y = y / np.linalg.norm(y) + 10.0 ** -7.5 * s / np.linalg.norm(s)
            stream.append((s, y))
        # y times a power of two scales the middle matrix exactly, out to
        # where its squared norms underflow or overflow.
        for power in (-500, -480, -300, 0, 300, 480, 500):
            compiled, python = (CorrectionPairs(n, memory),
                                CorrectionPairs(n, memory))
            for s, y in stream:
                y = np.ldexp(y, power)
                compiled.update(s, y)
                if not python.update(s, y):
                    continue
                before = len(python)
                got = _compact_outcome(compiled)
                _cdkernel.KERNEL = None
                try:
                    want = _compact_outcome(python)
                finally:
                    _cdkernel.KERNEL = kernel
                if got != want:
                    return False, (f"n={n}, memory={memory}, y scaled by "
                                   f"2^{power}, {before} pairs: the compiled "
                                   f"and Python builds differ")
                builds += 1
                dropped += before - want[1]
                singular += want[0] == "singular"
    return True, (f"{builds} builds over {streams} pair streams (n <= 123, y "
                  f"scaled by 2^-500 to 2^500, {dropped} pairs dropped, "
                  f"{singular} singular): models bit-identical")


def _check_cd_rate(level, rng):
    n = 20
    if level == "full":
        instances, n_seeds, rs = 100, 200, (100,)
    else:
        instances, n_seeds, rs = 2, 60, (20, 100)
    for _ in range(instances):
        model, _ = _random_compact_model(rng, n, 6)
        alpha_n = 1.0 - (1.0 - phi_constant(*extreme_eigenvalues(model))) / n
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = 0.2
        ustar, _ = exact_solve_oracle(model, grad_v, v, lam, 1e-12)
        qstar = model_value(model, ustar, v, 0.0, grad_v, l1_value(ustar, lam))
        q0 = model_value(model, v, v, 0.0, grad_v, l1_value(v, lam))
        for r in rs:
            ratios = []
            for seed in range(n_seeds):
                u, _ = cd_minimize(model, grad_v, v, lam, r, seed=seed)
                q = model_value(model, u, v, 0.0, grad_v, l1_value(u, lam))
                ratios.append((q - qstar) / (q0 - qstar))
            mean = float(np.mean(ratios))
            bound = 1.10 * alpha_n ** r
            if mean > bound:
                return False, f"r={r}: mean ratio {mean:.3e} > bound {bound:.3e}"
    return True, (f"mean contraction within 1.10 of the alpha_n^r rate "
                  f"({instances} instances x {n_seeds} seeds)")


def _check_extreme_eigenvalues(level, rng):
    import scipy.linalg
    worst = 0.0
    for trial in range(4 if level == "fast" else 8):
        # Odd trials draw n <= 12, where 6 pairs give p >= n and the
        # span's basis is the identity.
        n = int(rng.integers(4, 13) if trial % 2 else rng.integers(20, 201))
        model, _ = _random_compact_model(rng, n, 6)
        lo, hi = extreme_eigenvalues(model)
        eigs = scipy.linalg.eigvalsh(model.dense())
        err = max(abs(lo - eigs[0]), abs(hi - eigs[-1])) / eigs[-1]
        if err > 1e-12:
            return False, (f"n={n}, p={model.p}: ({lo:.17g}, {hi:.17g}) vs "
                           f"dense ({eigs[0]:.17g}, {eigs[-1]:.17g})")
        worst = max(worst, err)
    return True, (f"extreme eigenvalues match the dense spectrum to "
                  f"{worst:.1e} of lambda_max")


def _check_domination(level, rng):
    import scipy.linalg
    base, _ = _random_compact_model(rng, 10, 4)
    h_prev = base
    h_new = base.rescaled(1.0 / 1.7)
    got = enforce_domination(h_new, 1.0, h_prev)
    if abs(got - 1.7) > 1e-9:
        return False, f"shared-base domination returned {got}, wanted 1.7"
    h_double = base.rescaled(2.0)
    got = enforce_domination(h_double, 1.0, h_prev)
    if abs(got - 0.5) > 1e-9:
        return False, f"doubled model returned {got}, wanted 0.5"
    # p_prev + p_new < n: the span of the columns and its complement.
    h_prev = _random_compact_model(rng, 30, 4)[0]
    h_new = _random_compact_model(rng, 30, 5)[0]
    got = enforce_domination(h_new, 0.8, h_prev)
    eigs = scipy.linalg.eigh(h_prev.dense(), h_new.dense(), eigvals_only=True)
    if abs(got - 0.8 * eigs[0]) > 1e-12 * 0.8 * eigs[-1]:
        return False, (f"n=30, p={h_prev.p}+{h_new.p}: {got:.17g} vs dense "
                       f"{0.8 * eigs[0]:.17g}")
    # Alternating axis-aligned models collapse sigma geometrically.
    steps = 250 if level == "full" else 40
    models = [HessianModel(1.0, 2, np.array([[1.0], [0.0]]), np.array([[9.0]])),
              HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]]))]
    sigma = 1.0
    for k in range(1, steps + 1):
        sigma = enforce_domination(models[k % 2], sigma, models[(k + 1) % 2])
        if abs(sigma - 10.0 ** -k) > 1e-12 * 10.0 ** -k:
            return False, f"k={k}: sigma={sigma:.17g} vs 1e-{k}"
    return True, (f"span pencil matches the dense one; sigma_k = 10^-k "
                  f"over {steps} alternations")


def _check_reduction_pqna_pga(level, rng):
    quad = synthesize_quadratic(20, 0.3, 6.0, 5)
    prob = quadratic_problem(quad, 0.02)
    # pqna-zero's effective step is 2 mu: pga runs at twice the mu.
    cfg_qn = OptimizerConfig(beta=0.5, eta=1.0, tol=1e-8, max_iters=60,
                             mu_init=0.05, mu_cap=1e12, seed=3)
    cfg_pga = replace(cfg_qn, mu_init=0.10, mu_cap=2e12)
    return _same_values(run_pqna(prob, cfg_qn, "zero"), run_pga(prob, cfg_pga))


def _check_reduction_apqna_apga(level, rng):
    quad = synthesize_quadratic(20, 0.3, 6.0, 9)
    prob = quadratic_problem(quad, 0.02)
    mu = 0.9 / quad.lmax
    cfg_fh = OptimizerConfig(sigma_init=mu, sigma_growth=1.0, warmup=0,
                             tol=1e-8, max_iters=80, seed=2)
    cfg_ap = OptimizerConfig(mu_init=mu, tol=1e-8, max_iters=80, seed=2)
    return _same_values(run_apqna_fh(prob, cfg_fh, base=HessianModel(1.0, prob.n)),
                        run_apga(prob, cfg_ap))


def _same_shape(a: Trace, b: Trace) -> str:
    """Empty when both runs end in the same status after as many rows."""
    if (a.status, len(a.records)) == (b.status, len(b.records)):
        return ""
    return (f"{a.algorithm}: {a.status} after {len(a.records)} rows, "
            f"{b.algorithm}: {b.status} after {len(b.records)}")


def _same_values(a: Trace, b: Trace) -> tuple[bool, str]:
    """Equal status and length, and every F within 1e-12 of the other's."""
    if mismatch := _same_shape(a, b):
        return False, mismatch
    worst = max(abs(ra.fval - rb.fval) for ra, rb in zip(a.records, b.records))
    return worst <= 1e-12, f"max per-iterate F gap {worst:.2e}"


def _check_fh_trajectory_bounds(level, rng):
    quad = synthesize_quadratic(30, 0.2, 8.0, 21)
    prob = quadratic_problem(quad, 0.0)
    xstar = np.linalg.solve(quad.dense(), quad.b)
    fstar = prob.f_value(xstar)
    dist0 = float(xstar @ xstar)
    cfg = OptimizerConfig(sigma_init=1.0, warmup=0, tol=1e-10,
                          max_iters=300, seed=4, diagnostics=True)
    trace = run_apqna_fh(prob, cfg, base=HessianModel(1.0, prob.n))
    lemma5_bad = [k for k, margin in trace.diagnostics.lemma5
                  if margin < -1e-10 * max(1.0, abs(margin))]
    if lemma5_bad:
        return False, f"lemma-5 inequality failed at k={lemma5_bad[:3]}"
    diag = rate_diagnostics(trace, fstar, dist0_sq=dist0)
    if diag.thm6_violations:
        return False, f"fixed-Hessian bound violated at k={diag.thm6_violations[:3]}"
    return True, "sigma_k t_k^2 growth and accelerated bound hold"


def _check_apga_envelope(level, rng):
    quad = synthesize_quadratic(30, 0.2, 8.0, 22)
    prob = quadratic_problem(quad, 0.0)
    xstar = np.linalg.solve(quad.dense(), quad.b)
    fstar = prob.f_value(xstar)
    dist0 = float(xstar @ xstar)
    mu = 0.9 / quad.lmax
    iters = 500 if level == "full" else 200
    cfg = OptimizerConfig(mu_init=mu, tol=1e-14, max_iters=iters, seed=4)
    trace = run_apga(prob, cfg)
    diag = rate_diagnostics(trace, fstar, dist0_sq=dist0)
    if diag.envelope_violations:
        return False, f"1/k^2 envelope violated at k={diag.envelope_violations[:3]}"
    return True, f"2||x0-x*||^2/(mu (k+1)^2) envelope holds over {iters} iterations"


def _check_thm1_linear(level, rng):
    n_seeds = 3 if level == "full" else 1
    for seed in range(n_seeds):
        quad = synthesize_quadratic(50, 0.1, 10.0, 100 + seed)
        prob = quadratic_problem(quad, 0.01)
        cfg = OptimizerConfig(eta=1.0, tol=1e-6, max_iters=4000,
                              subsolver="exact", exact_tol=1e-11,
                              seed=seed, diagnostics=True)
        trace = run_pqna(prob, cfg, "lbfgs")
        ref_cfg = OptimizerConfig(eta=1.0, tol=1e-12, max_iters=20000,
                                  subsolver="exact", exact_tol=1e-13, seed=seed)
        ref = run_pqna(prob, ref_cfg, "lbfgs")
        fstar = ref.final().fval
        big_m = max(m for _, _, m in trace.diagnostics.eig_bounds)
        rho = theoretical_linear_rate(prob.gamma, big_m, 1.0)
        diag = rate_diagnostics(trace, fstar, rho=rho)
        if diag.thm1_violations:
            return False, f"seed {seed}: rho^k bound violated at {diag.thm1_violations[:3]}"
    return True, f"linear-rate envelope held on {n_seeds} seed(s)"


def _check_trace_determinism(level, rng):
    quad = synthesize_quadratic(25, 0.2, 5.0, 8)
    prob = quadratic_problem(quad, 0.01)
    cfg = OptimizerConfig(tol=1e-7, max_iters=200, seed=42, diagnostics=True)
    a = run_pqna(prob, cfg, "lbfgs")
    b = run_pqna(prob, cfg, "lbfgs")
    if mismatch := _same_shape(a, b):
        return False, mismatch
    for ra, rb in zip(a.records, b.records):
        if replace(ra, elapsed_sec=0.0) != replace(rb, elapsed_sec=0.0):
            return False, f"records diverge at k={ra.k}"
    if a.diagnostics != b.diagnostics:
        return False, "diagnostics differ"
    return True, "identical seeds give identical traces and diagnostics"


_CHECKS = [
    ("gradient_vs_finite_difference", _check_gradient_fd, ("fast", "full")),
    ("oracle_memo_vs_direct", _check_oracle_memo, ("fast", "full")),
    ("soft_threshold_vs_golden_section", _check_soft_threshold_golden, ("fast", "full")),
    ("coordinate_step_vs_golden_section", _check_coordinate_step_golden, ("fast", "full")),
    ("prox_perturbation_optimality", _check_prox_optimality, ("fast", "full")),
    ("minnorm_zero_iff_prox_fixed_point", _check_minnorm_fixed_point, ("fast", "full")),
    ("compact_lbfgs_vs_dense_bfgs", _check_compact_vs_dense, ("fast", "full")),
    ("cd_model_decrease_and_cache", _check_cd_monotone, ("fast", "full")),
    ("cd_vs_exact_subproblem_oracle", _check_cd_vs_exact, ("fast", "full")),
    ("cd_kernel_vs_python_step", _check_cd_kernel, ("fast", "full")),
    ("logistic_kernel_vs_python", _check_logistic_kernel, ("fast", "full")),
    ("compact_kernel_vs_python", _check_compact_kernel, ("fast", "full")),
    ("cd_contraction_vs_phi_rate", _check_cd_rate, ("fast", "full")),
    ("extreme_eigenvalues_vs_dense", _check_extreme_eigenvalues, ("fast", "full")),
    ("domination_scaling_and_pathology", _check_domination, ("fast", "full")),
    ("reduction_pqna_to_pga", _check_reduction_pqna_pga, ("fast", "full")),
    ("reduction_apqna_to_apga", _check_reduction_apqna_apga, ("fast", "full")),
    ("fixed_hessian_trajectory_bounds", _check_fh_trajectory_bounds, ("fast", "full")),
    ("fista_inverse_square_envelope", _check_apga_envelope, ("fast", "full")),
    ("strongly_convex_linear_rate", _check_thm1_linear, ("full",)),
    ("trace_determinism", _check_trace_determinism, ("fast", "full")),
]


def verify_suite(level: str = "fast") -> VerifyReport:
    """Run the cross-module invariant checks; ``full`` uses the larger
    case counts from the acceptance suite."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    import zlib
    results = []
    for name, fn, levels in _CHECKS:
        if level not in levels:
            continue
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        start = time.perf_counter()
        try:
            passed, detail = fn(level, rng)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail,
                                   time.perf_counter() - start))
    return VerifyReport(results)
