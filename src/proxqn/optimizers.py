"""Drivers for the proximal gradient and proximal quasi-Newton methods.

Six algorithms, the entries of ``ALGORITHMS``, share the same trace
format and termination rule (relative inf-norm of the min-norm
subgradient):

* ``pga``          basic proximal gradient with backtracking over mu
* ``apga``         FISTA with a nonincreasing step size
* ``pqna-lbfgs``   inexact proximal quasi-Newton, H = G + I/(2 mu),
                   relaxed sufficient decrease, coordinate-descent inner
                   solver with an iteration-count budget
* ``pqna-fh``      the same with G frozen after a warm-up
* ``apqna-lbfgs``  accelerated variant with variable L-BFGS Hessians,
                   either enforcing sigma_k H_k <= sigma_{k-1} H_{k-1}
                   (strict) or setting theta = 1 and skipping it (relaxed)
* ``apqna-fh``     accelerated variant with a frozen base matrix,
                   H_k = (1/sigma_k) H, where the domination condition
                   holds automatically

All six run on one loop, ``_iterate``, each driven by a step rule.
The loop backtracks around the rule's trial step, evaluates the
gradient at the accepted point, appends its row and tests for
convergence; for a rule with momentum it also keeps the FISTA clock
t_k, theta_k and the momentum point y_k.  A rule without momentum
takes its step at x_k and never increases F: pga's prox step (H = I/mu,
judged by Q_mu with eta = 1) and the pqna drivers' model step (H = G_k
+ I/(2 mu), eta from the config), both backtracking over mu and
regrowing it after each row.  A rule with momentum takes its step at
y_k and its iterates need not decrease F: apga's prox steps with a
nonincreasing mu, apqna-lbfgs's variable models or apqna-fh's fixed
base.  apqna-fh runs the pqna-lbfgs rule for its warm-up, then hands
the warm iterate to its own rule.

All randomness flows through one seeded PCG64 generator per run, held
with the run's coordinate-descent workspace in one ``CdRun``, so traces
are reproducible bit-for-bit apart from the elapsed-time column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import _cdkernel
from .hessian import (
    CorrectionPairs,
    HessianModel,
    compile_compact,
    enforce_domination,
    extreme_eigenvalues,
    model_value,
)
from .problem import (
    CompositeProblem,
    Memo,
    l1_value,
    min_norm_subgradient,
    prox_l1_scaled_identity,
)
from .subsolver import (
    CdRun,
    cd_minimize,
    exact_solve_oracle,
    solve_scaled_identity,
)

CONVERGED = "converged"
MAX_ITER = "max_iter"
BACKTRACK_FAILURE = "backtrack_failure"
# A NaN F at a trial point or at the point it is judged against, or a
# gradient with an infinite or NaN entry at an accepted point (the start
# point included): no step size cures either.
NON_FINITE = "non_finite"

SIGMA_UNDERFLOW = 1e-300

# Acceptance slack for the backtracking tests.  Near convergence
# F(p) and Q(p, .) agree to rounding error and the strict comparison
# becomes a coin flip whose rejections keep shrinking the step scalar;
# below this slack a violation is not measurable in double precision
# (dataset-scale sums carry ~1e-13 relative error).  The monotone
# drivers additionally require a measured descent, so their traces
# stay exactly nonincreasing and the step scalar recovers
# deterministically once steps round to zero.
ACCEPT_SLACK = 1e-12

# The descent guard tolerates a few ulps of summation wobble: candidate
# values at a regrown step can measure one ulp above F(x) even when the
# step is below rounding resolution, and rejecting those deadlocks the
# step-size recovery.
MONOTONE_SLACK = 8 * np.finfo(float).eps


def _accepts(f_new: float, f_old: float, q_val: float, eta: float,
             monotone: bool = False) -> bool:
    # Against an infinite model value any trial value would pass.
    if not (math.isfinite(f_new) and math.isfinite(q_val)):
        return False
    scale = max(1.0, abs(f_old))
    if monotone and f_new > f_old + MONOTONE_SLACK * scale:
        return False
    return f_new - f_old <= eta * (q_val - f_old) + ACCEPT_SLACK * scale


class SigmaUnderflowError(RuntimeError):
    """sigma collapsed below 1e-300: the alternating-Hessian pathology."""


def _setting(default, domain: str):
    """A settable field of :class:`OptimizerConfig` and the values it
    takes: an interval such as ``(0, 1]`` or ``[1, inf)``, or choices
    such as ``{cd, exact}``."""
    return field(default=default, metadata={"domain": domain})


def _within(value, domain: str) -> bool:
    """Whether ``value`` lies in ``domain``.  Each test is the condition a
    good value meets, so nan lies in no interval, and inf in none open
    at inf."""
    if domain.startswith("{"):
        return value in domain[1:-1].split(", ")
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return ((lo < value if domain[0] == "(" else lo <= value)
            and (value < hi if domain[-1] == ")" else value <= hi))


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all drivers; defaults follow the benchmark protocol
    (lambda enters through the problem, not here).  Each field but
    ``diagnostics`` is also the ``proxqn run`` flag (``--`` and ``-`` for
    ``_``) and the spec-file key of the same name, and declares its
    domain; every float must be finite.  The k-th subproblem's
    coordinate-descent solve takes r(k) = max(inner_floor,
    ceil(min(inner_cap, k/inner_divisor))) steps."""

    beta: float = _setting(0.5, "(0, 1)")
    eta: float = _setting(0.5, "(0, 1]")
    tol: float = _setting(1e-5, "[0, 1)")
    max_iters: int = _setting(20000, "[1, inf)")
    sigma_growth: float = _setting(1.015, "[1, inf)")
    sigma_init: float = _setting(1.0, "(0, inf)")
    mu_init: float = _setting(1.0, "(0, inf)")
    mu_cap: float = _setting(1e6, "(0, inf)")
    warmup: int = _setting(8, "[0, inf)")
    backtrack_cap: int = _setting(60, "[0, inf)")
    memory: int = _setting(10, "[1, inf)")
    curvature_eps: float = _setting(1e-8, "[0, inf)")
    seed: int = _setting(0, "[0, inf)")
    domination: str = _setting("relaxed", "{relaxed, strict}")
    subsolver: str = _setting("cd", "{cd, exact}")
    exact_tol: float = _setting(1e-10, "(0, inf)")
    inner_cap: int = _setting(1000, "[1, inf)")
    inner_divisor: float = _setting(3.0, "(0, inf)")
    inner_floor: int = _setting(5, "[1, inf)")
    diagnostics: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if "domain" in f.metadata and not _within(value, f.metadata["domain"]):
                raise ValueError(f"{f.name} must lie in {f.metadata['domain']}, "
                                 f"got {value!r}")
        if not self.inner_cap >= self.inner_floor:
            raise ValueError(f"inner_cap must be at least inner_floor "
                             f"({self.inner_floor}), got {self.inner_cap}")


def budget_for_iteration(k: int, config: OptimizerConfig) -> int:
    """Coordinate steps granted to the k-th outer iteration, r(k)."""
    if k < 1:
        raise ValueError("outer iteration index starts at 1")
    return max(config.inner_floor,
               math.ceil(min(config.inner_cap, k / config.inner_divisor)))


@dataclass(frozen=True)
class TraceRecord:
    k: int
    fval: float
    subgrad_inf: float
    backtracks: int
    inner_iters: int
    step_scalar: float
    t_k: float
    elapsed_sec: float


@dataclass
class Diagnostics:
    """The paper's invariants as a run records them.  A list stays empty
    and a scalar None where the driver records nothing: ``eig_bounds``
    (k, lambda_min, lambda_max) of each accepted pqna model with
    ``config.diagnostics``; ``warmup_end`` and the Lemma 6 margins
    (k, sigma_k - beta m/L) of apqna-fh, the latter with
    ``config.diagnostics``; ``initial_model`` (sigma_1, policy kind,
    delta, p), the Lemma 5 margins (k, margin) and the AS1 rows
    (k, lhs, rhs, premise) of both apqna drivers."""

    eig_bounds: list[tuple[int, float, float]] = field(default_factory=list)
    warmup_end: int | None = None
    initial_model: tuple[float, str, float, int] | None = None
    lemma5: list[tuple[int, float]] = field(default_factory=list)
    lemma6: list[tuple[int, float]] = field(default_factory=list)
    as1: list[tuple[int, float, float, bool]] = field(default_factory=list)


@dataclass
class Trace:
    """Per-iteration log of one run; row k holds the iterate after k
    accepted outer iterations (row 0 is the starting point)."""

    algorithm: str
    records: list[TraceRecord] = field(default_factory=list)
    status: str = MAX_ITER
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def iterations(self) -> int:
        return self.records[-1].k

    def fvals(self) -> np.ndarray:
        return np.array([r.fval for r in self.records])

    def value_at(self, k: int) -> float:
        """F at iteration k, clamped to the final iterate for k past the end."""
        return self.records[min(k, len(self.records) - 1)].fval

    def final(self) -> TraceRecord:
        return self.records[-1]


def t_next(t_k: float, theta_k: float) -> float:
    """Momentum parameter update t_{k+1} = (1 + sqrt(1 + 4 theta t_k^2))/2."""
    if t_k < 0:
        raise ValueError("t_k must be nonnegative")
    if theta_k <= 0:
        raise ValueError("theta_k must be positive")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta_k * t_k * t_k))


def momentum_point(x_k: np.ndarray, x_km1: np.ndarray, t_k: float,
                   t_kp1: float) -> np.ndarray:
    """Extrapolation y = x_k + ((t_k - 1)/t_{k+1}) (x_k - x_{k-1})."""
    if t_kp1 <= 0:
        raise ValueError("t_{k+1} must be positive")
    if x_k.shape != x_km1.shape:
        raise ValueError("iterate dimension mismatch")
    return x_k + ((t_k - 1.0) / t_kp1) * (x_k - x_km1)


def theoretical_linear_rate(gamma: float, big_m: float, eta: float) -> float:
    """rho = 1 - eta*gamma/(gamma + M), the strongly convex contraction."""
    if gamma <= 0 or big_m <= 0:
        raise ValueError("gamma and M must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    return 1.0 - eta * gamma / (gamma + big_m)


def _start_point(problem: CompositeProblem, x0: np.ndarray | None) -> np.ndarray:
    if x0 is None:
        return np.zeros(problem.n)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (problem.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.n},)")
    return x0.copy()


def _subgrad_inf(grad: np.ndarray, x: np.ndarray, lam: float) -> float:
    """The stop test's max |min_norm_subgradient(grad, x, lam)|, in one
    compiled pass when the kernel is loaded."""
    kernel = _cdkernel.KERNEL
    if kernel is None:
        return float(np.abs(min_norm_subgradient(grad, x, lam)).max())
    return kernel.subgrad_inf(grad, x, lam)


def _model_trial(model: HessianModel, k, v, f_v, g, lam, config, cd):
    """Trial step of a quadratic model at v: a scaled identity has the
    soft threshold as its exact minimizer; coupled models go through
    coordinate descent, or the cyclic oracle when so configured."""
    if model.p == 0:
        u, steps = solve_scaled_identity(model, g, v, lam), 0
    elif config.subsolver == "exact":
        u, steps = exact_solve_oracle(model, g, v, lam, config.exact_tol,
                                      run=cd)
    else:
        u, steps = cd_minimize(model, g, v, lam,
                               budget_for_iteration(k, config), cd)
    u_l1 = l1_value(u, lam)
    return u, u_l1, model_value(model, u, v, f_v, g, u_l1), steps


@dataclass
class _QnState:
    """One run from its start point: the trace, its clock start and the
    initial subgradient norm, and the last accepted point, advanced in
    place by the loop and handed from apqna-fh's warm-up to its
    acceleration."""

    trace: Trace
    t0: float
    norm0: float
    x: np.ndarray
    fsm: float
    fval: float
    grad: np.ndarray
    last_k: int = 0


def _first_row(problem: CompositeProblem, algorithm: str, step_scalar: float,
               x0: np.ndarray | None) -> _QnState:
    """The state at x0, its trace holding row 0: already converged if x0
    is stationary, ended ``non_finite`` if its gradient is not finite,
    and ``max_iter`` until the loop runs."""
    t0 = time.perf_counter()
    x = _start_point(problem, x0)
    fsm, grad = problem.value_and_grad(x)
    fval = fsm + l1_value(x, problem.lam)
    norm0 = _subgrad_inf(grad, x, problem.lam)
    trace = Trace(algorithm=algorithm)
    trace.records.append(TraceRecord(0, fval, norm0, 0, 0, step_scalar, 1.0,
                                     time.perf_counter() - t0))
    if norm0 == 0.0:
        trace.status = CONVERGED
    elif not math.isfinite(norm0):
        trace.status = NON_FINITE
    return _QnState(trace, t0, norm0, x, fsm, fval, grad)


def _checked_sigma(sigma: float, k: int) -> float:
    if sigma < SIGMA_UNDERFLOW:
        raise SigmaUnderflowError(f"sigma={sigma:.3e} at iteration {k}")
    return sigma


class _StepRule:
    """A step rule of :func:`_iterate`, and the defaults of its hooks.

    ``trial(k, step, v, f(v), grad f(v)) -> (u, lam ||u||_1, Q(u), inner
    steps)`` forms the trial step at v, which is x_k, or the momentum
    point y_k when the rule has ``momentum``; u is accepted on an
    ``eta`` fraction of the model decrease, and without momentum also
    on no rise in F.  ``backtrack(step, step_prev)`` gives the step
    scalar after a rejection and whether theta, t_k and y_k follow it.
    ``after_row(state, x_old, grad_old, theta_k)`` sees each accepted
    row before the stop test and ``advance(state, step, x_old,
    grad_old)`` gives (step_{k+1}, theta_k) after it.  The defaults
    make the monotone rule: a backtrack shrinks mu by beta, and mu
    regrows by 1/beta, capped at ``mu_cap``, after each row.
    """

    eta = 1.0
    momentum = False

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 cd: CdRun | None = None):
        self.lam, self.n, self.config, self.cd = problem.lam, problem.n, config, cd

    def backtrack(self, step: float, step_prev: float) -> tuple[float, bool]:
        return step * self.config.beta, False

    def after_row(self, state: _QnState, x_old: np.ndarray,
                  grad_old: np.ndarray, theta: float) -> None:
        pass

    def advance(self, state: _QnState, step: float, x_old: np.ndarray,
                grad_old: np.ndarray) -> tuple[float, float]:
        return min(step / self.config.beta, self.config.mu_cap), 1.0


def _iterate(problem: CompositeProblem, config: OptimizerConfig,
             policy: _StepRule, state: _QnState, step: float,
             max_iters: int) -> None:
    """The outer loop of all six drivers, from ``state`` with step scalar
    ``step`` up to iteration ``max_iters``: backtracking around the
    policy's trial step and, for a policy with momentum, the FISTA clock
    (t_k, theta_k, y_k and x_{k-1}).  Advances ``state`` to each
    accepted point and appends its row to ``state.trace``.  The last
    row, converged or at ``max_iters``, ends the loop before the policy
    advances, so no model or momentum point is formed for a step that
    is never taken.  A NaN F, at the trial point or at the point v it
    is judged against, or an accepted row whose gradient is not finite,
    ends the loop at once with status ``non_finite``; a trial F of +inf
    stays a rejection, which a shorter step can cure."""
    lam, trace, momentum = problem.lam, state.trace, policy.momentum
    # Accelerated clock: t_0 = 0 and x_{-1} = x_0 make the generic
    # recomputation formulas produce t_1 = 1 and y_1 = x_0.
    t_km1, t_k, theta = 0.0, 1.0, 1.0
    x_km2, step_prev = state.x, step
    v, f_v, g_v, fval_v = state.x, state.fsm, state.grad, state.fval
    memo = Memo()
    for k in range(state.last_k + 1, max_iters + 1):
        backtracks = inner = 0
        while True:
            u, u_l1, qval, steps = policy.trial(k, step, v, f_v, g_v)
            inner += steps
            u_f = problem.f_value(u, memo)
            u_fval = u_f + u_l1
            if _accepts(u_fval, fval_v, qval, policy.eta, not momentum):
                break
            # Rejected, as every trial is against a NaN F(v).
            if math.isnan(u_fval) or math.isnan(fval_v):
                trace.status = NON_FINITE
                return
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return
            step, y_moves = policy.backtrack(step, step_prev)
            if not y_moves:
                continue
            step = _checked_sigma(step, k)
            theta = step_prev / step
            t_k = t_next(t_km1, theta)
            y = momentum_point(state.x, x_km2, t_km1, t_k)
            # sigma only shrinks here, so y_k can only repeat the last y.
            # Bytewise, so that -0.0 and 0.0 count as different points.
            if y.tobytes() != v.tobytes():
                v = y
                f_v, g_v = problem.value_and_grad(v)
                fval_v = f_v + l1_value(v, lam)
        x_old, grad_old = state.x, state.grad
        state.x, state.fsm, state.fval = u, u_f, u_fval
        state.grad = problem.f_grad(u, memo)
        state.last_k = k
        norm = _subgrad_inf(state.grad, u, lam)
        trace.records.append(TraceRecord(k, u_fval, norm, backtracks, inner,
                                         step, t_k,
                                         time.perf_counter() - state.t0))
        if not math.isfinite(norm):
            trace.status = NON_FINITE
            return
        policy.after_row(state, x_old, grad_old, theta)
        if norm <= config.tol * state.norm0:
            trace.status = CONVERGED
            return
        if k == max_iters:
            return
        step_prev = step
        step, theta = policy.advance(state, step, x_old, grad_old)
        if not momentum:
            v, f_v, g_v, fval_v = u, u_f, state.grad, u_fval
            continue
        t_new = t_next(t_k, theta)
        v = momentum_point(u, x_old, t_k, t_new)
        f_v, g_v = problem.value_and_grad(v)
        fval_v = f_v + l1_value(v, lam)
        x_km2, t_km1, t_k = x_old, t_k, t_new


def _run(problem: CompositeProblem, config: OptimizerConfig, algorithm: str,
         policy: _StepRule, x0: np.ndarray | None) -> Trace:
    """Row 0 at x0, then the loop from mu_init unless row 0 ended the run
    (x0 stationary, or its gradient not finite)."""
    state = _first_row(problem, algorithm, config.mu_init, x0)
    if state.trace.status == MAX_ITER:
        _iterate(problem, config, policy, state, config.mu_init,
                 config.max_iters)
    return state.trace


class _ProxSteps(_StepRule):
    """Trial rule of pga and apga: u = prox(v - mu g), judged by
    Q_mu(u) = f(v) + g'(u - v) + ||u - v||^2/(2 mu) + lam ||u||_1."""

    def trial(self, k, mu, v, f_v, g):
        u = prox_l1_scaled_identity(v - mu * g, mu, self.lam)
        u_l1 = l1_value(u, self.lam)
        d = u - v
        return u, u_l1, f_v + float(g @ d) + float(d @ d) / (2.0 * mu) + u_l1, 0


class _FistaSteps(_ProxSteps):
    """Step rule of apga: prox steps at the momentum point.  A backtrack
    shrinks mu by beta and keeps the momentum point; mu never regrows
    and theta stays 1."""

    momentum = True

    def advance(self, state, mu, x_old, grad_old) -> tuple[float, float]:
        return mu, 1.0


def run_pga(problem: CompositeProblem, config: OptimizerConfig,
            x0: np.ndarray | None = None) -> Trace:
    """Proximal gradient: the monotone rule with H = I/mu and eta = 1;
    the step may grow again after each iteration (mu_{k+1}^0 =
    min(mu_k/beta, mu_cap))."""
    return _run(problem, config, "pga", _ProxSteps(problem, config), x0)


def run_apga(problem: CompositeProblem, config: OptimizerConfig,
             x0: np.ndarray | None = None) -> Trace:
    """FISTA: prox steps at the momentum point and a nonincreasing mu."""
    return _run(problem, config, "apga", _FistaSteps(problem, config), x0)


class _ModelRule(_StepRule):
    """Monotone rule of the pqna drivers, H = G_k + I/(2 mu), judged
    with ``config.eta``: G_k is compact L-BFGS ("lbfgs"), the same
    frozen after ``warmup`` steps ("fixed") or zero ("zero"), compiled
    once per k while its pairs change.  ``after_row`` adds the accepted
    step's pair and, with ``config.diagnostics``, the accepted model's
    extreme eigenvalues."""

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 hessian_mode: str, cd: CdRun):
        super().__init__(problem, config, cd)
        self.eta = config.eta
        self.pairs = CorrectionPairs(problem.n, config.memory, config.curvature_eps)
        # The last iteration whose step enters the pairs.
        self.learn_until = {"lbfgs": math.inf, "fixed": config.warmup,
                            "zero": -1}[hessian_mode]
        self.k = 0
        self.compact = self.model = None

    def trial(self, k, mu, v, f_v, g):
        if k != self.k:
            self.k = k
            if k <= self.learn_until + 1:
                self.compact = compile_compact(self.pairs)
        shift = 1.0 / (2.0 * mu)
        self.model = (HessianModel(1.0, self.n, scale=shift)
                      if self.compact is None
                      else self.compact.shifted(shift))
        return _model_trial(self.model, k, v, f_v, g, self.lam, self.config,
                            self.cd)

    def after_row(self, state, x_old, grad_old, theta) -> None:
        k = state.last_k
        if k <= self.learn_until:
            self.pairs.update(state.x - x_old, state.grad - grad_old)
        if self.config.diagnostics:
            bounds = extreme_eigenvalues(self.model)
            state.trace.diagnostics.eig_bounds.append((k, *bounds))


def run_pqna(problem: CompositeProblem, config: OptimizerConfig,
             hessian_mode: str = "lbfgs",
             x0: np.ndarray | None = None) -> Trace:
    """Inexact proximal quasi-Newton: H_k = G_k + I/(2 mu_k) with
    backtracking over mu under the relaxed sufficient decrease test.

    hessian_mode selects G_k: compact L-BFGS throughout ("lbfgs"),
    frozen after the first ``warmup`` iterations ("fixed"), or the
    zero matrix ("zero", in which case the driver reduces to run_pga
    with an effective step of 2 mu).  The inner solver starts at x_k,
    so accepted steps always decrease F.
    """
    if hessian_mode not in ("lbfgs", "fixed", "zero"):
        raise ValueError(f"unknown hessian_mode {hessian_mode!r}")
    name = {"lbfgs": "pqna-lbfgs", "fixed": "pqna-fh", "zero": "pqna-zero"}
    rule = _ModelRule(problem, config, hessian_mode,
                      CdRun(config.seed, problem.n))
    return _run(problem, config, name[hessian_mode], rule, x0)


def _lbfgs_model(k: int, pairs: CorrectionPairs) -> HessianModel:
    return compile_compact(pairs)


class _ModelSteps(_StepRule):
    """Step rule of the apqna drivers: the composite model
    ``model(sigma)`` solved at the momentum point.  ``kind`` names the
    policy in the ``initial_model`` diagnostic.  ``after_row`` records,
    from each row and its theta_k, the Lemma 5 margin sigma_k t_k^2 -
    (sum_i sqrt(sigma_i)/2)^2, the Lemma 6 margin sigma_k - beta m/L
    (when the policy has that bound), and AS1's sigma_{k-1} t_{k-1}^2
    against sigma_k t_k (t_k - 1) with its premise theta_k <=
    sigma_{k-1}/sigma_k."""

    momentum = True
    lemma6_bound = None

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 cd: CdRun):
        super().__init__(problem, config, cd)
        self.sum_sqrt_sigma, self.prev = 0.0, None

    def trial(self, k, sigma, y, fy, gy):
        return _model_trial(self.model(sigma), k, y, fy, gy, self.lam,
                            self.config, self.cd)

    def after_row(self, state, x_old, grad_old, theta) -> None:
        diag, row, prev = state.trace.diagnostics, state.trace.records[-1], self.prev
        sigma, t_k = row.step_scalar, row.t_k
        self.sum_sqrt_sigma += math.sqrt(sigma)
        # A product: x ** 2 raises OverflowError where x * x gives inf.
        half = self.sum_sqrt_sigma / 2.0
        diag.lemma5.append((row.k, sigma * t_k * t_k - half * half))
        if self.lemma6_bound is not None:
            diag.lemma6.append((row.k, sigma - self.lemma6_bound))
        if prev is not None:
            diag.as1.append((
                row.k, prev.step_scalar * prev.t_k * prev.t_k,
                sigma * t_k * (t_k - 1.0),
                theta <= prev.step_scalar / sigma * (1.0 + 1e-12)))
        self.prev = row


class _VariableModels(_ModelSteps):
    """sigma/model policy of apqna-lbfgs.

    H_k comes from ``model_factory(k, pairs)`` each iteration and a
    backtrack multiplies it by 1/beta.  Strict mode then caps sigma_k
    so that sigma_k H_k <= sigma_{k-1} H_{k-1} (``enforce_domination``,
    an eigenproblem on the span of the two models' low-rank columns);
    relaxed mode keeps theta = 1 and the momentum point.
    """

    kind = "lbfgs_compact"

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 cd: CdRun, model_factory):
        super().__init__(problem, config, cd)
        self.strict = config.domination == "strict"
        self.pairs = CorrectionPairs(problem.n, config.memory, config.curvature_eps)
        self.factory = model_factory
        self.current = self._factory_model(1)
        self.accepted = self.current

    def _factory_model(self, k: int) -> HessianModel:
        model = self.factory(k, self.pairs)
        if model.n != self.pairs.n:
            raise ValueError(f"model_factory returned a model of dimension "
                             f"{model.n} at iteration {k}, expected {self.pairs.n}")
        return model

    def model(self, sigma: float) -> HessianModel:
        return self.current

    def backtrack(self, sigma: float, sigma_prev: float) -> tuple[float, bool]:
        self.current = self.current.rescaled(1.0 / self.config.beta)
        if not self.strict:
            return sigma, False
        feasible = enforce_domination(self.current, sigma_prev, self.accepted)
        return min(sigma, feasible), True

    def advance(self, state, sigma, x_old, grad_old) -> tuple[float, float]:
        k = state.last_k
        self.pairs.update(state.x - x_old, state.grad - grad_old)
        self.accepted = self.current
        self.current = self._factory_model(k + 1)
        sigma_next = self.config.sigma_growth * sigma
        if not self.strict:
            return sigma_next, 1.0
        feasible = enforce_domination(self.current, sigma, self.accepted)
        sigma_next = _checked_sigma(min(sigma_next, feasible), k + 1)
        return sigma_next, sigma / sigma_next


class _FixedBase(_ModelSteps):
    """sigma/model policy of apqna-fh: H_k = (1/sigma_k) base, so
    sigma_k H_k = base for every k and the domination condition holds
    with equality; a backtrack multiplies sigma by beta."""

    kind = "scaled_fixed"

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 cd: CdRun, base: HessianModel,
                 lemma6_bound: float | None):
        super().__init__(problem, config, cd)
        self.base = base
        self.lemma6_bound = lemma6_bound

    def model(self, sigma: float) -> HessianModel:
        return self.base.rescaled(1.0 / sigma)

    def backtrack(self, sigma: float, sigma_prev: float) -> tuple[float, bool]:
        return sigma * self.config.beta, True

    def advance(self, state, sigma, x_old, grad_old) -> tuple[float, float]:
        sigma_next = self.config.sigma_growth * sigma
        return sigma_next, sigma / sigma_next


def _accelerate_models(problem, config, policy: _ModelSteps,
                       state: _QnState) -> Trace:
    """The loop of the apqna drivers from sigma_init, with the first
    model recorded."""
    model = policy.model(config.sigma_init)
    state.trace.diagnostics.initial_model = (config.sigma_init, policy.kind,
                                             model.delta, model.p)
    _iterate(problem, config, policy, state, config.sigma_init,
             config.max_iters)
    return state.trace


def run_apqna(problem: CompositeProblem, config: OptimizerConfig,
              x0: np.ndarray | None = None,
              model_factory=None) -> Trace:
    """Accelerated proximal quasi-Newton with per-iteration L-BFGS models.

    Backtracking multiplies H_k by 1/beta.  With ``config.domination``
    strict, sigma_k is then shrunk to the largest value keeping
    sigma_k H_k dominated by sigma_{k-1} H_{k-1} (an eigenproblem on
    the span of the two models' low-rank columns, at any n) and the
    momentum bookkeeping (theta, t_k, y_k) is recomputed, which
    re-evaluates the gradient at the new y_k.
    Relaxed mode fixes theta = 1 and skips the domination entirely.

    ``model_factory(k, pairs)`` returns the iteration-k
    :class:`HessianModel` in place of ``compile_compact(pairs)`` (used
    to study adversarial Hessian sequences such as alternating axis
    scalings).
    """
    state = _first_row(problem, "apqna-lbfgs", config.sigma_init, x0)
    if state.trace.status != MAX_ITER:
        return state.trace
    policy = _VariableModels(problem, config,
                             CdRun(config.seed, problem.n),
                             model_factory or _lbfgs_model)
    return _accelerate_models(problem, config, policy, state)


def run_apqna_fh(problem: CompositeProblem, config: OptimizerConfig,
                 x0: np.ndarray | None = None,
                 base: HessianModel | None = None) -> Trace:
    """Accelerated proximal quasi-Newton with a frozen base matrix.

    Without an explicit ``base`` the first ``warmup`` iterations run
    the pqna-lbfgs rule to collect correction pairs; the compact matrix
    built from them is then frozen and the accelerated phase continues
    from the warm iterate with H_k = (1/sigma_k) base.
    sigma backtracks by beta (recomputing theta, t_k, y_k) and regrows
    by sigma_growth after each acceptance; sigma_k H_k = base for all k,
    so the domination condition holds with equality.

    Passing ``base``, a :class:`HessianModel` (e.g. the identity for the
    sigma_1 = 1, H_1 = I setting of the accelerated-rate guarantee),
    skips the warmup.
    """
    if base is not None and base.n != problem.n:
        raise ValueError(f"base has dimension {base.n}, expected {problem.n}")
    state = _first_row(problem, "apqna-fh", config.sigma_init, x0)
    trace = state.trace
    if trace.status != MAX_ITER:
        return trace
    cd = CdRun(config.seed, problem.n)
    if base is None:
        warmup = _ModelRule(problem, config, "lbfgs", cd)
        if config.warmup > 0:
            _iterate(problem, config, warmup, state, config.mu_init,
                     min(config.warmup, config.max_iters))
            if trace.status != MAX_ITER:
                return trace
        base = compile_compact(warmup.pairs)
    trace.diagnostics.warmup_end = state.last_k

    lemma6_bound = None
    if config.diagnostics and problem.lipschitz:
        m_min, _ = extreme_eigenvalues(base)
        lemma6_bound = config.beta * m_min / problem.lipschitz
    policy = _FixedBase(problem, config, cd, base, lemma6_bound)
    return _accelerate_models(problem, config, policy, state)


ALGORITHMS: dict[str, Callable] = {
    "pga": run_pga,
    "apga": run_apga,
    "pqna-lbfgs": lambda p, c, x0=None: run_pqna(p, c, "lbfgs", x0),
    "pqna-fh": lambda p, c, x0=None: run_pqna(p, c, "fixed", x0),
    "apqna-lbfgs": run_apqna,
    "apqna-fh": run_apqna_fh,
}
