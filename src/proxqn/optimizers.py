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

The two accelerated drivers run one FISTA loop and differ only in the
policy that picks sigma_k H_k: variable models or a fixed base.

The monotone drivers (pga, pqna) never increase F; the accelerated ones
need not be monotone.  All randomness flows through one seeded PCG64
generator per run, so traces are reproducible bit-for-bit apart from
the elapsed-time column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hessian import (
    CorrectionPairs,
    DiagLowRank,
    HessianModel,
    compile_compact,
    enforce_domination,
    estimate_extreme_eigenvalues,
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
    SubproblemBudget,
    budget_for_iteration,
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
    scale = max(1.0, abs(f_old))
    if monotone and f_new > f_old + MONOTONE_SLACK * scale:
        return False
    return f_new - f_old <= eta * (q_val - f_old) + ACCEPT_SLACK * scale


class SigmaUnderflowError(RuntimeError):
    """sigma collapsed below 1e-300: the alternating-Hessian pathology."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all drivers; defaults follow the benchmark protocol
    (lambda enters through the problem, not here)."""

    beta: float = 0.5
    eta: float = 0.5
    tol_rel: float = 1e-5
    max_outer: int = 20000
    sigma_growth: float = 1.015
    sigma_init: float = 1.0
    mu_init: float = 1.0
    mu_cap: float = 1e6
    warmup_kbar: int = 8
    backtrack_cap: int = 60
    memory: int = 10
    curvature_eps: float = 1e-8
    budget: SubproblemBudget = SubproblemBudget()
    seed: int = 0
    domination: str = "relaxed"
    dense_limit: int = 500
    subsolver: str = "cd"
    exact_tol: float = 1e-10
    diagnostics: bool = False
    eig_iterations: int = 400

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.sigma_growth < 1.0:
            raise ValueError("sigma_growth must be at least 1")
        if self.mu_init <= 0 or self.sigma_init <= 0:
            raise ValueError("initial step scalars must be positive")
        if self.domination not in ("strict", "relaxed"):
            raise ValueError("domination must be 'strict' or 'relaxed'")
        if self.subsolver not in ("cd", "exact"):
            raise ValueError("subsolver must be 'cd' or 'exact'")
        if self.warmup_kbar < 0 or self.max_outer < 1:
            raise ValueError("iteration counts must be positive")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.tol_rel < 0 or self.curvature_eps < 0 or self.backtrack_cap < 0:
            raise ValueError("tol, curvature_eps and backtrack_cap must be nonnegative")
        if self.mu_cap <= 0 or self.exact_tol <= 0:
            raise ValueError("mu_cap and exact_tol must be positive")


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
class Trace:
    """Per-iteration log of one run; row k holds the iterate after k
    accepted outer iterations (row 0 is the starting point)."""

    algorithm: str
    records: list[TraceRecord] = field(default_factory=list)
    status: str = MAX_ITER
    diagnostics: dict = field(default_factory=dict)

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


def _q_mu(f_v: float, grad_v: np.ndarray, u: np.ndarray, v: np.ndarray,
          mu: float, lam: float) -> float:
    d = u - v
    return f_v + float(grad_v @ d) + float(d @ d) / (2.0 * mu) + l1_value(u, lam)


def _subsolve(model: HessianModel, grad_v: np.ndarray, v: np.ndarray,
              lam: float, r: int, config: OptimizerConfig,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Inner solve of the composite quadratic model at v.

    A model with no low-rank part is a scaled identity, whose exact
    minimizer is the componentwise soft threshold; only genuinely
    coupled models go through coordinate descent (or the cyclic oracle
    when configured for exact subproblem solutions).
    """
    if model.p == 0:
        return solve_scaled_identity(model, grad_v, v, lam), 0
    if config.subsolver == "exact":
        return exact_solve_oracle(model, grad_v, v, lam, config.exact_tol)
    return cd_minimize(model, grad_v, v, lam, r, rng,
                       step_eps=config.budget.step_eps)


def run_pga(problem: CompositeProblem, config: OptimizerConfig,
            x0: np.ndarray | None = None) -> Trace:
    """Proximal gradient with backtracking; the step may grow again
    after each iteration (mu_{k+1}^0 = min(mu_k/beta, mu_cap))."""
    t0 = time.perf_counter()
    lam = problem.lam
    x = _start_point(problem, x0)
    fsm, grad = problem.value_and_grad(x)
    fval = fsm + l1_value(x, lam)
    norm0 = _subgrad_inf(grad, x, lam)
    mu = config.mu_init
    trace = Trace(algorithm="pga")
    trace.records.append(TraceRecord(0, fval, norm0, 0, 0, mu, 1.0,
                                     time.perf_counter() - t0))
    if norm0 == 0.0:
        trace.status = CONVERGED
        return trace
    memo = Memo()
    for k in range(1, config.max_outer + 1):
        backtracks = 0
        while True:
            cand = prox_l1_scaled_identity(x - mu * grad, mu, lam)
            cand_f = problem.f_value(cand, memo)
            cand_fval = cand_f + l1_value(cand, lam)
            if _accepts(cand_fval, fval, _q_mu(fsm, grad, cand, x, mu, lam),
                        1.0, monotone=True):
                break
            mu *= config.beta
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return trace
        x, fsm, fval = cand, cand_f, cand_fval
        grad = problem.f_grad(x, memo)
        norm = _subgrad_inf(grad, x, lam)
        trace.records.append(TraceRecord(k, fval, norm, backtracks, 0, mu, 1.0,
                                         time.perf_counter() - t0))
        if norm <= config.tol_rel * norm0:
            trace.status = CONVERGED
            return trace
        mu = min(mu / config.beta, config.mu_cap)
    return trace


def run_apga(problem: CompositeProblem, config: OptimizerConfig,
             x0: np.ndarray | None = None) -> Trace:
    """FISTA: model built at the momentum point; nonincreasing mu."""
    t0 = time.perf_counter()
    lam = problem.lam
    x_prev = _start_point(problem, x0)
    y = x_prev.copy()
    fy, gy = problem.value_and_grad(y)
    y_fval = fy + l1_value(y, lam)
    norm0 = _subgrad_inf(gy, y, lam)
    mu = config.mu_init
    t_k = 1.0
    trace = Trace(algorithm="apga")
    trace.records.append(TraceRecord(0, y_fval, norm0, 0, 0, mu, t_k,
                                     time.perf_counter() - t0))
    if norm0 == 0.0:
        trace.status = CONVERGED
        return trace
    memo = Memo()
    for k in range(1, config.max_outer + 1):
        backtracks = 0
        while True:
            cand = prox_l1_scaled_identity(y - mu * gy, mu, lam)
            cand_f = problem.f_value(cand, memo)
            cand_fval = cand_f + l1_value(cand, lam)
            if _accepts(cand_fval, y_fval, _q_mu(fy, gy, cand, y, mu, lam), 1.0):
                break
            mu *= config.beta
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return trace
        x = cand
        grad_x = problem.f_grad(x, memo)
        norm = _subgrad_inf(grad_x, x, lam)
        trace.records.append(TraceRecord(k, cand_fval, norm, backtracks, 0, mu,
                                         t_k, time.perf_counter() - t0))
        if norm <= config.tol_rel * norm0:
            trace.status = CONVERGED
            return trace
        t_new = t_next(t_k, 1.0)
        y = momentum_point(x, x_prev, t_k, t_new)
        fy, gy = problem.value_and_grad(y)
        y_fval = fy + l1_value(y, lam)
        x_prev = x
        t_k = t_new
    return trace


def _shifted_model(core: DiagLowRank | None, shift: float, n: int) -> HessianModel:
    """H = G + shift*I; G = None stands for the zero matrix."""
    if core is None:
        return HessianModel.scaled_identity(shift, n)
    return HessianModel.lbfgs(core, diag_shift=shift)


@dataclass
class _QnState:
    """Iterate of the quasi-Newton loop: the start point of every
    quasi-Newton driver, advanced in place by ``_pqna_engine`` and handed
    from apqna-fh's warm-up to its accelerated phase."""

    x: np.ndarray
    fsm: float
    fval: float
    grad: np.ndarray
    pairs: CorrectionPairs
    mu: float
    last_k: int = 0
    frozen: DiagLowRank | None = None


def _first_row(problem: CompositeProblem, config: OptimizerConfig,
               algorithm: str, step_scalar: float,
               x0: np.ndarray | None) -> tuple[Trace, float, float, _QnState]:
    """Trace holding row 0 (already converged if x0 is stationary), the
    clock start, the initial subgradient norm and the state at x0."""
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
    pairs = CorrectionPairs(problem.n, config.memory, config.curvature_eps)
    return trace, t0, norm0, _QnState(x, fsm, fval, grad, pairs, config.mu_init)


def _pqna_engine(problem, config, hessian_mode, trace, t0, norm0, rng,
                 state: _QnState, max_outer):
    """Iterations of the inexact proximal quasi-Newton loop.

    Mutates ``trace`` and ``state`` in place; returns a final status or
    None if ``max_outer`` was reached without convergence or failure.
    """
    lam = problem.lam
    memo = Memo()
    for k in range(state.last_k + 1, max_outer + 1):
        if hessian_mode == "zero":
            core = None
        elif hessian_mode == "fixed" and k > config.warmup_kbar:
            if state.frozen is None:
                state.frozen = compile_compact(state.pairs)
            core = state.frozen
        else:
            core = compile_compact(state.pairs)
        r = budget_for_iteration(k, config.budget)
        backtracks = 0
        inner = 0
        while True:
            model = _shifted_model(core, 1.0 / (2.0 * state.mu), problem.n)
            u, steps = _subsolve(model, state.grad, state.x, lam, r, config, rng)
            inner += steps
            u_l1 = l1_value(u, lam)
            qval = model_value(model, u, state.x, state.fsm, state.grad, u_l1)
            u_f = problem.f_value(u, memo)
            u_fval = u_f + u_l1
            if _accepts(u_fval, state.fval, qval, config.eta, monotone=True):
                break
            state.mu *= config.beta
            backtracks += 1
            if backtracks > config.backtrack_cap:
                return BACKTRACK_FAILURE
        new_grad = problem.f_grad(u, memo)
        if hessian_mode == "lbfgs" or (hessian_mode == "fixed"
                                       and k <= config.warmup_kbar):
            state.pairs.update(u - state.x, new_grad - state.grad)
        state.x, state.fsm, state.fval, state.grad = u, u_f, u_fval, new_grad
        state.last_k = k
        norm = _subgrad_inf(new_grad, u, lam)
        trace.records.append(TraceRecord(k, u_fval, norm, backtracks, inner,
                                         state.mu, 1.0, time.perf_counter() - t0))
        if config.diagnostics:
            m_est, big_m_est = estimate_extreme_eigenvalues(
                model, iterations=config.eig_iterations, seed=config.seed + k)
            trace.diagnostics.setdefault("eig_bounds", []).append(
                (k, m_est, big_m_est))
        if norm <= config.tol_rel * norm0:
            return CONVERGED
        state.mu = min(state.mu / config.beta, config.mu_cap)
    return None


def run_pqna(problem: CompositeProblem, config: OptimizerConfig,
             hessian_mode: str = "lbfgs",
             x0: np.ndarray | None = None) -> Trace:
    """Inexact proximal quasi-Newton: H_k = G_k + I/(2 mu_k) with
    backtracking over mu under the relaxed sufficient decrease test.

    hessian_mode selects G_k: compact L-BFGS throughout ("lbfgs"),
    frozen after the first warmup_kbar iterations ("fixed"), or the
    zero matrix ("zero", in which case the driver reduces to run_pga
    with an effective step of 2 mu).  The inner solver starts at x_k,
    so accepted steps always decrease F.
    """
    if hessian_mode not in ("lbfgs", "fixed", "zero"):
        raise ValueError(f"unknown hessian_mode {hessian_mode!r}")
    name = {"lbfgs": "pqna-lbfgs", "fixed": "pqna-fh", "zero": "pqna-zero"}
    trace, t0, norm0, state = _first_row(problem, config, name[hessian_mode],
                                         config.mu_init, x0)
    if trace.status == CONVERGED:
        return trace
    rng = np.random.default_rng(config.seed)
    status = _pqna_engine(problem, config, hessian_mode, trace, t0, norm0,
                          rng, state, config.max_outer)
    trace.status = status if status is not None else MAX_ITER
    return trace


def _checked_sigma(sigma: float, k: int) -> float:
    if sigma < SIGMA_UNDERFLOW:
        raise SigmaUnderflowError(f"sigma={sigma:.3e} at iteration {k}")
    return sigma


def _lbfgs_model(k: int, pairs: CorrectionPairs) -> HessianModel:
    return HessianModel.lbfgs(compile_compact(pairs))


class _VariableModels:
    """sigma/model policy of apqna-lbfgs.

    H_k comes from ``model_factory(k, pairs)`` each iteration and a
    backtrack multiplies it by 1/beta.  Strict mode then caps sigma_k
    so that sigma_k H_k <= sigma_{k-1} H_{k-1} (dense generalized
    eigensolve); relaxed mode keeps theta = 1 and the momentum point.
    """

    lemma6_bound = None

    def __init__(self, config: OptimizerConfig, pairs: CorrectionPairs,
                 grad: np.ndarray, model_factory):
        self.config = config
        self.strict = config.domination == "strict"
        self.pairs = pairs
        self.factory = model_factory
        self.current = model_factory(1, pairs)
        self.accepted = self.current
        self.grad_prev = grad

    def model(self, sigma: float) -> HessianModel:
        return self.current

    def backtrack(self, sigma: float, sigma_prev: float) -> float | None:
        self.current = self.current.rescaled(1.0 / self.config.beta)
        if not self.strict:
            return None
        feasible = enforce_domination(self.current, sigma_prev, self.accepted,
                                      self.config.dense_limit)
        return min(sigma, feasible)

    def advance(self, k: int, sigma: float, x: np.ndarray, x_prev: np.ndarray,
                grad_x: np.ndarray) -> tuple[float, float]:
        self.pairs.update(x - x_prev, grad_x - self.grad_prev)
        self.grad_prev = grad_x
        self.accepted = self.current
        self.current = self.factory(k + 1, self.pairs)
        sigma_next = self.config.sigma_growth * sigma
        if not self.strict:
            return sigma_next, 1.0
        feasible = enforce_domination(self.current, sigma, self.accepted,
                                      self.config.dense_limit)
        sigma_next = _checked_sigma(min(sigma_next, feasible), k + 1)
        return sigma_next, sigma / sigma_next


class _FixedBase:
    """sigma/model policy of apqna-fh: H_k = (1/sigma_k) base, so
    sigma_k H_k = base for every k and the domination condition holds
    with equality; a backtrack multiplies sigma by beta."""

    def __init__(self, config: OptimizerConfig, base: DiagLowRank,
                 lemma6_bound: float | None):
        self.config = config
        self.base = base
        self.lemma6_bound = lemma6_bound

    def model(self, sigma: float) -> HessianModel:
        return HessianModel.scaled_fixed(sigma, self.base)

    def backtrack(self, sigma: float, sigma_prev: float) -> float:
        return sigma * self.config.beta

    def advance(self, k: int, sigma: float, x: np.ndarray, x_prev: np.ndarray,
                grad_x: np.ndarray) -> tuple[float, float]:
        sigma_next = self.config.sigma_growth * sigma
        return sigma_next, sigma / sigma_next


def _accelerate(problem: CompositeProblem, config: OptimizerConfig, policy,
                trace: Trace, t0: float, norm0: float,
                rng: np.random.Generator, state: _QnState) -> Trace:
    """The accelerated proximal quasi-Newton loop, from ``state``.

    Owns the FISTA clock (t_k, y_k, x_{k-1}, x_{k-2}), backtracking and
    the Lemma 5, Lemma 6 and AS1 diagnostics; ``policy`` decides the
    model for the current sigma (``model``), sigma after a rejected
    step, or None to keep the momentum point (``backtrack``), and
    (sigma_{k+1}, theta_k) after an accepted one (``advance``).  A
    changed sigma recomputes theta, t_k and y_k, re-evaluating the
    gradient at y_k unless it did not move.
    """
    lam = problem.lam
    # Accelerated clock: t_0 = 0 and x_{-1} = x_0 make the generic
    # recomputation formulas produce t_1 = 1 and y_1 = x_0.
    t_km1, t_k = 0.0, 1.0
    x_km2 = state.x.copy()
    x_km1 = state.x.copy()
    sigma = sigma_prev = config.sigma_init
    theta_used = 1.0
    y = state.x.copy()
    fy, gy = state.fsm, state.grad
    y_fval = fy + l1_value(y, lam)
    sum_sqrt_sigma = 0.0
    prev_sigma_t2 = None
    memo = Memo()
    model = policy.model(sigma)
    trace.diagnostics["initial_model"] = (sigma, model.variant, model.core.delta,
                                          model.p)
    for k in range(state.last_k + 1, config.max_outer + 1):
        r = budget_for_iteration(k, config.budget)
        backtracks = 0
        inner = 0
        while True:
            model = policy.model(sigma)
            u, steps = _subsolve(model, gy, y, lam, r, config, rng)
            inner += steps
            u_l1 = l1_value(u, lam)
            qval = model_value(model, u, y, fy, gy, u_l1)
            u_fval = problem.f_value(u, memo) + u_l1
            if _accepts(u_fval, y_fval, qval, 1.0):
                break
            backtracks += 1
            if backtracks > config.backtrack_cap:
                trace.status = BACKTRACK_FAILURE
                return trace
            shrunk = policy.backtrack(sigma, sigma_prev)
            if shrunk is None:
                continue
            sigma = _checked_sigma(shrunk, k)
            theta_used = sigma_prev / sigma
            t_k = t_next(t_km1, theta_used)
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
                                         sigma, t_k, time.perf_counter() - t0))
        sum_sqrt_sigma += math.sqrt(sigma)
        sigma_t2 = sigma * t_k * t_k
        trace.diagnostics.setdefault("lemma5", []).append(
            (k, sigma_t2 - (sum_sqrt_sigma / 2.0) ** 2))
        if policy.lemma6_bound is not None:
            trace.diagnostics.setdefault("lemma6", []).append(
                (k, sigma - policy.lemma6_bound))
        if prev_sigma_t2 is not None:
            premise = theta_used <= sigma_prev / sigma * (1.0 + 1e-12)
            trace.diagnostics.setdefault("as1", []).append(
                (k, prev_sigma_t2, sigma * t_k * (t_k - 1.0), premise))
        if norm <= config.tol_rel * norm0:
            trace.status = CONVERGED
            return trace
        sigma_prev = sigma
        prev_sigma_t2 = sigma_t2
        sigma, theta_used = policy.advance(k, sigma, x, x_km1, grad_x)
        t_new = t_next(t_k, theta_used)
        y = momentum_point(x, x_km1, t_k, t_new)
        fy, gy = problem.value_and_grad(y)
        y_fval = fy + l1_value(y, lam)
        x_km2, x_km1 = x_km1, x
        t_km1, t_k = t_k, t_new
    return trace


def run_apqna(problem: CompositeProblem, config: OptimizerConfig,
              x0: np.ndarray | None = None,
              model_factory=None) -> Trace:
    """Accelerated proximal quasi-Newton with per-iteration L-BFGS models.

    Backtracking multiplies H_k by 1/beta.  With ``config.domination``
    strict, sigma_k is then shrunk to the largest value keeping
    sigma_k H_k dominated by sigma_{k-1} H_{k-1} (dense generalized
    eigensolve, small n only) and the momentum bookkeeping (theta, t_k,
    y_k) is recomputed, which re-evaluates the gradient at the new y_k.
    Relaxed mode fixes theta = 1 and skips the domination entirely.

    ``model_factory(k, pairs) -> HessianModel`` overrides the compact
    L-BFGS construction of the iteration-k model (used to study
    adversarial Hessian sequences such as alternating axis scalings).
    """
    trace, t0, norm0, state = _first_row(problem, config, "apqna-lbfgs",
                                         config.sigma_init, x0)
    if trace.status == CONVERGED:
        return trace
    rng = np.random.default_rng(config.seed)
    policy = _VariableModels(config, state.pairs, state.grad,
                             model_factory or _lbfgs_model)
    return _accelerate(problem, config, policy, trace, t0, norm0, rng, state)


def run_apqna_fh(problem: CompositeProblem, config: OptimizerConfig,
                 x0: np.ndarray | None = None,
                 base: DiagLowRank | None = None) -> Trace:
    """Accelerated proximal quasi-Newton with a frozen base matrix.

    Without an explicit ``base`` the first warmup_kbar iterations run
    the L-BFGS quasi-Newton loop to collect correction pairs; the
    compact matrix built from them is then frozen and the accelerated
    phase continues from the warm iterate with H_k = (1/sigma_k) base.
    sigma backtracks by beta (recomputing theta, t_k, y_k) and regrows
    by sigma_growth after each acceptance; sigma_k H_k = base for all k,
    so the domination condition holds with equality.

    Passing ``base`` (e.g. the identity for the sigma_1 = 1, H_1 = I
    setting of the accelerated-rate guarantee) skips the warmup.
    """
    trace, t0, norm0, state = _first_row(problem, config, "apqna-fh",
                                         config.sigma_init, x0)
    if trace.status == CONVERGED:
        return trace
    rng = np.random.default_rng(config.seed)
    if base is None:
        if config.warmup_kbar > 0:
            status = _pqna_engine(problem, config, "lbfgs", trace, t0, norm0,
                                  rng, state,
                                  min(config.warmup_kbar, config.max_outer))
            if status is not None:
                trace.status = status
                return trace
        base = compile_compact(state.pairs)
    trace.diagnostics["warmup_end"] = state.last_k

    lemma6_bound = None
    if config.diagnostics and problem.lipschitz:
        m_est, _ = estimate_extreme_eigenvalues(
            HessianModel.lbfgs(base), iterations=config.eig_iterations,
            seed=config.seed)
        lemma6_bound = config.beta * m_est / problem.lipschitz
    return _accelerate(problem, config, _FixedBase(config, base, lemma6_bound),
                       trace, t0, norm0, rng, state)


ALGORITHMS: dict[str, Callable] = {
    "pga": run_pga,
    "apga": run_apga,
    "pqna-lbfgs": lambda p, c, x0=None: run_pqna(p, c, "lbfgs", x0),
    "pqna-fh": lambda p, c, x0=None: run_pqna(p, c, "fixed", x0),
    "apqna-lbfgs": run_apqna,
    "apqna-fh": run_apqna_fh,
}
