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

The drivers run on two loops, each driven by a small step rule.
``_pqna_engine`` is the monotone loop: it backtracks over mu, regrows
mu after each accepted step and never increases F.  pga gives it the
prox rule (H = I/mu, judged by Q_mu with eta = 1) and the pqna drivers
the model rule (H = G_k + I/(2 mu), eta from the config).
``_accelerate`` is the FISTA loop: the clock t_k, the momentum point
y_k and backtracking.  Its policy forms the trial step and moves the
step scalar: apga's prox steps with a nonincreasing mu, apqna-lbfgs's
variable models or apqna-fh's fixed base.  Its iterates need not
decrease F.

All randomness flows through one seeded PCG64 generator per run, so
traces are reproducible bit-for-bit apart from the elapsed-time column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

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
    cd_minimize,
    exact_solve_oracle,
    solve_scaled_identity,
)

CONVERGED = "converged"
MAX_ITER = "max_iter"
BACKTRACK_FAILURE = "backtrack_failure"

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
    return float(np.abs(min_norm_subgradient(grad, x, lam)).max())


def _prox_rule(lam: float):
    """Trial rule of pga and apga: u = prox(v - mu g), judged by
    Q_mu(u) = f(v) + g'(u - v) + ||u - v||^2/(2 mu) + lam ||u||_1."""
    def trial(k, mu, v, f_v, g):
        u = prox_l1_scaled_identity(v - mu * g, mu, lam)
        u_l1 = l1_value(u, lam)
        d = u - v
        return u, u_l1, f_v + float(g @ d) + float(d @ d) / (2.0 * mu) + u_l1, 0
    return trial


def _model_trial(model: HessianModel, k, v, f_v, g, lam, config, rng):
    """Trial step of a quadratic model at v: a scaled identity has the
    soft threshold as its exact minimizer; coupled models go through
    coordinate descent, or the cyclic oracle when so configured."""
    if model.p == 0:
        u, steps = solve_scaled_identity(model, g, v, lam), 0
    elif config.subsolver == "exact":
        u, steps = exact_solve_oracle(model, g, v, lam, config.exact_tol)
    else:
        u, steps = cd_minimize(model, g, v, lam,
                               budget_for_iteration(k, config), rng)
    u_l1 = l1_value(u, lam)
    return u, u_l1, model_value(model, u, v, f_v, g, u_l1), steps


@dataclass
class _QnState:
    """One run from its start point: the trace, its clock start and the
    initial subgradient norm, and the current point, advanced in place by
    the monotone loop and handed from apqna-fh's warm-up to its
    acceleration."""

    trace: Trace
    t0: float
    norm0: float
    x: np.ndarray
    fsm: float
    fval: float
    grad: np.ndarray
    mu: float
    last_k: int = 0


def _first_row(problem: CompositeProblem, config: OptimizerConfig,
               algorithm: str, step_scalar: float,
               x0: np.ndarray | None) -> _QnState:
    """The state at x0, its trace holding row 0 (already converged if x0
    is stationary)."""
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
    return _QnState(trace, t0, norm0, x, fsm, fval, grad, config.mu_init)


def _pqna_engine(problem, config, trial, eta, state: _QnState, max_iters,
                 after_row=None) -> None:
    """The monotone loop of pga and the pqna drivers, up to ``max_iters``.

    ``trial(k, mu, x, f(x), grad) -> (u, lam ||u||_1, Q(u), inner steps)``;
    u is accepted on an ``eta`` fraction of the model decrease and no
    rise in F, else mu shrinks by beta.  mu regrows by 1/beta (capped)
    after each accepted row, which ``after_row(state, x_old, grad_old)``
    sees first.  Mutates ``state`` and its trace in place.
    """
    trace = state.trace
    memo = Memo()
    for k in range(state.last_k + 1, max_iters + 1):
        backtracks = inner = 0
        while True:
            u, u_l1, qval, steps = trial(k, state.mu, state.x, state.fsm, state.grad)
            inner += steps
            u_f = problem.f_value(u, memo)
            u_fval = u_f + u_l1
            if _accepts(u_fval, state.fval, qval, eta, monotone=True):
                break
            state.mu *= config.beta
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return
        x_old, grad_old = state.x, state.grad
        state.x, state.fsm, state.fval = u, u_f, u_fval
        state.grad = problem.f_grad(u, memo)
        state.last_k = k
        norm = _subgrad_inf(state.grad, u, problem.lam)
        trace.records.append(TraceRecord(k, u_fval, norm, backtracks, inner,
                                         state.mu, 1.0,
                                         time.perf_counter() - state.t0))
        if after_row is not None:
            after_row(state, x_old, grad_old)
        if norm <= config.tol * state.norm0:
            trace.status = CONVERGED
            return
        state.mu = min(state.mu / config.beta, config.mu_cap)


def _run_monotone(problem, config, algorithm, trial, eta, x0,
                  after_row=None) -> Trace:
    state = _first_row(problem, config, algorithm, config.mu_init, x0)
    if state.trace.status != CONVERGED:
        _pqna_engine(problem, config, trial, eta, state, config.max_iters,
                     after_row)
    return state.trace


def run_pga(problem: CompositeProblem, config: OptimizerConfig,
            x0: np.ndarray | None = None) -> Trace:
    """Proximal gradient: the monotone loop with H = I/mu and eta = 1;
    the step may grow again after each iteration (mu_{k+1}^0 =
    min(mu_k/beta, mu_cap))."""
    return _run_monotone(problem, config, "pga", _prox_rule(problem.lam),
                         1.0, x0)


class _ModelRule:
    """Trial rule of the pqna drivers, H = G_k + I/(2 mu): G_k is
    compact L-BFGS ("lbfgs"), the same frozen after ``warmup`` steps
    ("fixed") or zero ("zero"), compiled once per k while its pairs
    change.  ``after_row`` adds the accepted step's pair and, with
    ``config.diagnostics``, the accepted model's extreme eigenvalues."""

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 hessian_mode: str, rng: np.random.Generator):
        self.lam, self.n, self.config, self.rng = problem.lam, problem.n, config, rng
        self.pairs = CorrectionPairs(problem.n, config.memory, config.curvature_eps)
        # The last iteration whose step enters the pairs.
        self.learn_until = {"lbfgs": math.inf, "fixed": config.warmup,
                            "zero": -1}[hessian_mode]
        self.k = 0
        self.compact = self.model = None

    def __call__(self, k, mu, v, f_v, g):
        if k != self.k:
            self.k = k
            if k <= self.learn_until + 1:
                self.compact = compile_compact(self.pairs)
        shift = 1.0 / (2.0 * mu)
        self.model = (HessianModel(1.0, self.n, scale=shift)
                      if self.compact is None
                      else self.compact.shifted(shift))
        return _model_trial(self.model, k, v, f_v, g, self.lam, self.config,
                            self.rng)

    def after_row(self, state: _QnState, x_old: np.ndarray,
                  grad_old: np.ndarray) -> None:
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
                      np.random.default_rng(config.seed))
    return _run_monotone(problem, config, name[hessian_mode], rule,
                         config.eta, x0, rule.after_row)


def _checked_sigma(sigma: float, k: int) -> float:
    if sigma < SIGMA_UNDERFLOW:
        raise SigmaUnderflowError(f"sigma={sigma:.3e} at iteration {k}")
    return sigma


def _lbfgs_model(k: int, pairs: CorrectionPairs) -> HessianModel:
    return compile_compact(pairs)


class _ProxSteps:
    """Step rule of apga: prox steps with mu = sigma.  A backtrack
    shrinks mu by beta and keeps the momentum point; mu never regrows
    and theta stays 1."""

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig):
        self.trial = _prox_rule(problem.lam)
        self.beta = config.beta

    def backtrack(self, sigma: float, sigma_prev: float) -> tuple[float, bool]:
        return sigma * self.beta, False

    def advance(self, k, sigma, x, x_prev, grad_x) -> tuple[float, float]:
        return sigma, 1.0


class _ModelSteps:
    """Trial step of the apqna drivers: the composite model
    ``model(sigma)`` solved at the momentum point.  ``kind`` names the
    policy in the ``initial_model`` diagnostic."""

    lemma6_bound = None

    def __init__(self, problem: CompositeProblem, config: OptimizerConfig,
                 rng: np.random.Generator):
        self.lam, self.config, self.rng = problem.lam, config, rng

    def trial(self, k, sigma, y, fy, gy):
        return _model_trial(self.model(sigma), k, y, fy, gy, self.lam,
                            self.config, self.rng)


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
                 rng: np.random.Generator, grad: np.ndarray, model_factory):
        super().__init__(problem, config, rng)
        self.strict = config.domination == "strict"
        self.pairs = CorrectionPairs(problem.n, config.memory, config.curvature_eps)
        self.factory = model_factory
        self.current = self._factory_model(1)
        self.accepted = self.current
        self.grad_prev = grad

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

    def advance(self, k, sigma, x, x_prev, grad_x) -> tuple[float, float]:
        self.pairs.update(x - x_prev, grad_x - self.grad_prev)
        self.grad_prev = grad_x
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
                 rng: np.random.Generator, base: HessianModel,
                 lemma6_bound: float | None):
        super().__init__(problem, config, rng)
        self.base = base
        self.lemma6_bound = lemma6_bound

    def model(self, sigma: float) -> HessianModel:
        return self.base.rescaled(1.0 / sigma)

    def backtrack(self, sigma: float, sigma_prev: float) -> tuple[float, bool]:
        return sigma * self.config.beta, True

    def advance(self, k, sigma, x, x_prev, grad_x) -> tuple[float, float]:
        sigma_next = self.config.sigma_growth * sigma
        return sigma_next, sigma / sigma_next


def _accelerate(problem: CompositeProblem, config: OptimizerConfig, policy,
                state: _QnState, sigma: float) -> list[float]:
    """The accelerated loop from ``state`` with step scalar ``sigma``:
    the FISTA clock (t_k, y_k, x_{k-1}, x_{k-2}) and backtracking.

    ``policy.trial(k, sigma, y, f(y), grad)`` forms the trial step as a
    monotone rule does; ``backtrack`` gives sigma after a rejection and
    whether theta, t_k and y_k follow it; ``advance`` gives (sigma_{k+1},
    theta_k).  Appends to ``state.trace`` and leaves the rest of
    ``state`` at the start point; returns the theta_k of each row.
    """
    lam, trace = problem.lam, state.trace
    # Accelerated clock: t_0 = 0 and x_{-1} = x_0 make the generic
    # recomputation formulas produce t_1 = 1 and y_1 = x_0.
    t_km1, t_k = 0.0, 1.0
    x_km2 = state.x.copy()
    x_km1 = state.x.copy()
    sigma_prev = sigma
    theta = 1.0
    thetas: list[float] = []
    y = state.x.copy()
    fy, gy = state.fsm, state.grad
    y_fval = fy + l1_value(y, lam)
    memo = Memo()
    for k in range(state.last_k + 1, config.max_iters + 1):
        backtracks = inner = 0
        while True:
            u, u_l1, qval, steps = policy.trial(k, sigma, y, fy, gy)
            inner += steps
            u_fval = problem.f_value(u, memo) + u_l1
            if _accepts(u_fval, y_fval, qval, 1.0):
                break
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return thetas
            sigma, y_moves = policy.backtrack(sigma, sigma_prev)
            if not y_moves:
                continue
            sigma = _checked_sigma(sigma, k)
            theta = sigma_prev / sigma
            t_k = t_next(t_km1, theta)
            y_new = momentum_point(x_km1, x_km2, t_km1, t_k)
            # sigma only shrinks here, so y_k can only repeat the last y.
            # Bytewise, so that -0.0 and 0.0 count as different points.
            if y_new.tobytes() != y.tobytes():
                y = y_new
                fy, gy = problem.value_and_grad(y)
                y_fval = fy + l1_value(y, lam)
        x = u
        grad_x = problem.f_grad(x, memo)
        norm = _subgrad_inf(grad_x, x, lam)
        trace.records.append(TraceRecord(k, u_fval, norm, backtracks, inner,
                                         sigma, t_k,
                                         time.perf_counter() - state.t0))
        thetas.append(theta)
        if norm <= config.tol * state.norm0:
            trace.status = CONVERGED
            return thetas
        sigma_prev = sigma
        sigma, theta = policy.advance(k, sigma, x, x_km1, grad_x)
        t_new = t_next(t_k, theta)
        y = momentum_point(x, x_km1, t_k, t_new)
        fy, gy = problem.value_and_grad(y)
        y_fval = fy + l1_value(y, lam)
        x_km2, x_km1 = x_km1, x
        t_km1, t_k = t_k, t_new
    return thetas


def run_apga(problem: CompositeProblem, config: OptimizerConfig,
             x0: np.ndarray | None = None) -> Trace:
    """FISTA: the accelerated loop with prox steps at the momentum
    point and a nonincreasing mu."""
    state = _first_row(problem, config, "apga", config.mu_init, x0)
    if state.trace.status != CONVERGED:
        _accelerate(problem, config, _ProxSteps(problem, config), state,
                    config.mu_init)
    return state.trace


def _accelerate_models(problem, config, policy: _ModelSteps,
                       state: _QnState) -> Trace:
    """The accelerated loop of the apqna drivers, with the first model
    and, from the accelerated rows and their theta_k: the Lemma 5 margin
    sigma_k t_k^2 - (sum_i sqrt(sigma_i)/2)^2, the Lemma 6 margin
    sigma_k - beta m/L (when the policy has that bound), and AS1's
    sigma_{k-1} t_{k-1}^2 against sigma_k t_k (t_k - 1) with its premise
    theta_k <= sigma_{k-1}/sigma_k."""
    trace, diag = state.trace, state.trace.diagnostics
    model = policy.model(config.sigma_init)
    diag.initial_model = (config.sigma_init, policy.kind, model.delta, model.p)
    thetas = _accelerate(problem, config, policy, state, config.sigma_init)
    rows = trace.records[len(trace.records) - len(thetas):]
    sum_sqrt_sigma, prev = 0.0, None
    for row, theta in zip(rows, thetas):
        sigma, t_k = row.step_scalar, row.t_k
        sum_sqrt_sigma += math.sqrt(sigma)
        # A product: x ** 2 raises OverflowError where x * x gives inf.
        half = sum_sqrt_sigma / 2.0
        diag.lemma5.append((row.k, sigma * t_k * t_k - half * half))
        if policy.lemma6_bound is not None:
            diag.lemma6.append((row.k, sigma - policy.lemma6_bound))
        if prev is not None:
            diag.as1.append((
                row.k, prev.step_scalar * prev.t_k * prev.t_k,
                sigma * t_k * (t_k - 1.0),
                theta <= prev.step_scalar / sigma * (1.0 + 1e-12)))
        prev = row
    return trace


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
    state = _first_row(problem, config, "apqna-lbfgs", config.sigma_init, x0)
    if state.trace.status == CONVERGED:
        return state.trace
    policy = _VariableModels(problem, config,
                             np.random.default_rng(config.seed), state.grad,
                             model_factory or _lbfgs_model)
    return _accelerate_models(problem, config, policy, state)


def run_apqna_fh(problem: CompositeProblem, config: OptimizerConfig,
                 x0: np.ndarray | None = None,
                 base: HessianModel | None = None) -> Trace:
    """Accelerated proximal quasi-Newton with a frozen base matrix.

    Without an explicit ``base`` the first ``warmup`` iterations run
    the L-BFGS quasi-Newton loop to collect correction pairs; the
    compact matrix built from them is then frozen and the accelerated
    phase continues from the warm iterate with H_k = (1/sigma_k) base.
    sigma backtracks by beta (recomputing theta, t_k, y_k) and regrows
    by sigma_growth after each acceptance; sigma_k H_k = base for all k,
    so the domination condition holds with equality.

    Passing ``base``, a :class:`HessianModel` (e.g. the identity for the
    sigma_1 = 1, H_1 = I setting of the accelerated-rate guarantee),
    skips the warmup.
    """
    if base is not None and base.n != problem.n:
        raise ValueError(f"base has dimension {base.n}, expected {problem.n}")
    state = _first_row(problem, config, "apqna-fh", config.sigma_init, x0)
    trace = state.trace
    if trace.status == CONVERGED:
        return trace
    rng = np.random.default_rng(config.seed)
    if base is None:
        warmup = _ModelRule(problem, config, "lbfgs", rng)
        if config.warmup > 0:
            _pqna_engine(problem, config, warmup, config.eta, state,
                         min(config.warmup, config.max_iters),
                         warmup.after_row)
            if trace.status != MAX_ITER:
                return trace
        base = compile_compact(warmup.pairs)
    trace.diagnostics.warmup_end = state.last_k

    lemma6_bound = None
    if config.diagnostics and problem.lipschitz:
        m_min, _ = extreme_eigenvalues(base)
        lemma6_bound = config.beta * m_min / problem.lipschitz
    policy = _FixedBase(problem, config, rng, base, lemma6_bound)
    return _accelerate_models(problem, config, policy, state)


ALGORITHMS: dict[str, Callable] = {
    "pga": run_pga,
    "apga": run_apga,
    "pqna-lbfgs": lambda p, c, x0=None: run_pqna(p, c, "lbfgs", x0),
    "pqna-fh": lambda p, c, x0=None: run_pqna(p, c, "fixed", x0),
    "apqna-lbfgs": run_apqna,
    "apqna-fh": run_apqna_fh,
}
