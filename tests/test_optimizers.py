import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import proxqn.optimizers as optimizers
from proxqn.dataset import Dataset, synthesize_quadratic
from proxqn.harness import tolerance_induced_gap
from proxqn.hessian import HessianModel
from proxqn.optimizers import (
    ALGORITHMS,
    BACKTRACK_FAILURE,
    CONVERGED,
    MAX_ITER,
    OptimizerConfig,
    SigmaUnderflowError,
    _accepts,
    _subgrad_inf,
    momentum_point,
    run_apga,
    run_apqna,
    run_apqna_fh,
    run_pga,
    run_pqna,
    t_next,
    theoretical_linear_rate,
)
from proxqn.problem import (
    CompositeProblem,
    l1_value,
    logistic_problem,
    quadratic_problem,
)

from conftest import identity_quadratic

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def quad_problem(n=20, gamma=0.3, lmax=6.0, seed=5, lam=0.02):
    return quadratic_problem(synthesize_quadratic(n, gamma, lmax, seed), lam)


def assert_monotone(trace):
    """F nonincreasing up to the documented few-ulp descent slack."""
    fvals = trace.fvals()
    tol = 32 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(fvals))))
    assert np.all(np.diff(fvals) <= tol)


def broken_problem():
    """Objective that is finite only at the origin: no step is ever
    acceptable, so backtracking must hit its cap."""

    def value(w, memo=None):
        return 0.0 if not np.any(w) else float("inf")

    return CompositeProblem(
        n=3, lam=0.0,
        f_value=value,
        f_grad=lambda w, memo=None: np.ones(3),
        value_and_grad=lambda w: (value(w), np.ones(3)),
    )


def reference_min(problem, tol=1e-12):
    cfg = OptimizerConfig(eta=1.0, tol=tol, max_iters=100000,
                          subsolver="exact", exact_tol=1e-13, seed=0)
    trace = run_pqna(problem, cfg, "lbfgs")
    assert trace.status == CONVERGED
    return trace.final().fval


class TestScalarOps:
    def test_sufficient_decrease_equality_boundary(self):
        assert _accepts(0.8, 1.0, 0.8, 1.0)

    def test_sufficient_decrease_exact_fraction(self):
        assert _accepts(0.9, 1.0, 0.8, 0.5)

    def test_sufficient_decrease_fails_below_fraction(self):
        assert not _accepts(0.95, 1.0, 0.8, 0.5)

    def test_infinite_trial_value_is_rejected(self):
        # inf <= inf: an overflowed model value would pass an overflowed F.
        assert not _accepts(math.inf, 0.0, math.inf, 1.0)

    def test_infinite_model_value_is_rejected(self):
        # F - F_old <= eta (inf - F_old) holds for every finite F.
        assert not _accepts(6e307, 0.0, math.inf, 1.0)

    def test_t_next_golden_ratio(self):
        assert t_next(1.0, 1.0) == pytest.approx(GOLDEN, abs=1e-12)

    def test_t_next_chain(self):
        assert t_next(GOLDEN, 1.0) == pytest.approx(2.193527085331054, abs=1e-12)

    def test_t_next_with_theta_half(self):
        assert t_next(1.0, 0.5) == pytest.approx((1 + math.sqrt(3)) / 2, abs=1e-14)

    def test_t_next_domain(self):
        with pytest.raises(ValueError):
            t_next(-1.0, 1.0)
        with pytest.raises(ValueError):
            t_next(1.0, 0.0)

    def test_t_sequence_lower_bound(self):
        t = 1.0
        for k in range(1, 10_000):
            assert t >= (k + 1) / 2.0
            t = t_next(t, 1.0)

    def test_momentum_zero_coefficient(self):
        y = momentum_point(np.array([2.0]), np.array([7.0]), 1.0, 2.5)
        assert y[0] == pytest.approx(2.0)

    def test_momentum_stationary_history(self):
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(momentum_point(x, x, 3.0, 2.0), x)

    def test_momentum_direct_evaluation(self):
        y = momentum_point(np.array([2.0]), np.array([0.0]), 2.0, 2.5)
        assert y[0] == pytest.approx(2.8)

    def test_linear_rate_values(self):
        assert theoretical_linear_rate(1.0, 9.0, 1.0) == pytest.approx(0.9)
        assert theoretical_linear_rate(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert theoretical_linear_rate(2.0, 3.0, 0.5) == pytest.approx(0.8)

    def test_linear_rate_domain(self):
        with pytest.raises(ValueError):
            theoretical_linear_rate(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_linear_rate(1.0, 1.0, 1.5)


class TestTermination:
    """The drivers stop once _subgrad_inf(grad, x, lam) <= tol * norm0."""

    def test_exact_minimizer(self):
        quad = synthesize_quadratic(10, 0.5, 4.0, 1)
        prob = quadratic_problem(quad, 0.0)
        xstar = np.linalg.solve(quad.dense(), quad.b)
        assert _subgrad_inf(prob.f_grad(xstar), xstar, prob.lam) <= 1e-5

    def test_start_point_not_converged(self):
        prob = quad_problem()
        x0 = np.zeros(prob.n)
        norm0 = _subgrad_inf(prob.f_grad(x0), x0, prob.lam)
        assert norm0 > 0.0

    def test_tiny_perturbation_converges(self):
        quad = synthesize_quadratic(10, 0.5, 4.0, 2)
        prob = quadratic_problem(quad, 0.0)
        xstar = np.linalg.solve(quad.dense(), quad.b)
        norm0 = _subgrad_inf(prob.f_grad(np.zeros(10)), np.zeros(10), prob.lam)
        x = xstar.copy()
        x[0] += 1e-9
        assert _subgrad_inf(prob.f_grad(x), x, prob.lam) <= 1e-5 * norm0


class TestPga:
    def test_one_exact_step_on_identity(self):
        prob = quadratic_problem(identity_quadratic(3), 0.0)
        x0 = np.array([1.0, 0.0, 0.0])
        trace = run_pga(prob, OptimizerConfig(mu_init=1.0, tol=1e-8), x0=x0)
        assert trace.status == CONVERGED
        assert trace.records[1].fval == pytest.approx(0.0, abs=1e-30)
        assert trace.records[1].backtracks == 0

    def test_monotone_decrease(self):
        prob = quad_problem(seed=6)
        trace = run_pga(prob, OptimizerConfig(tol=1e-7, max_iters=3000))
        assert_monotone(trace)
        assert trace.status == CONVERGED

    def test_linear_rate_on_strongly_convex(self):
        prob = quad_problem(n=50, gamma=0.1, lmax=10.0, seed=7)
        fstar = reference_min(prob)
        trace = run_pga(prob, OptimizerConfig(tol=1e-8, max_iters=20000))
        gaps = trace.fvals() - fstar
        # fit over the linear-decay decades, clear of both the initial
        # transient and the rounding floor
        keep = (gaps > 1e-9 * gaps[0]) & (gaps < 1e-2 * gaps[0])
        ks = np.arange(len(gaps))[keep]
        ratio = np.exp(np.polyfit(ks, np.log(gaps[keep]), 1)[0])
        assert 0.0 < ratio < 1.0

    def test_backtrack_failure_on_broken_oracle(self):
        trace = run_pga(broken_problem(), OptimizerConfig(max_iters=10))
        assert trace.status == BACKTRACK_FAILURE

    def test_backtrack_count_bounded_by_lipschitz(self):
        # acceptance needs at most ceil(log_{1/beta}(2 L mu_init)) shrinks
        prob = quad_problem(seed=30)
        lips = prob.lipschitz
        for fn, kind in ((run_pga, None), (run_pqna, "lbfgs")):
            cfg = OptimizerConfig(mu_init=1.0, beta=0.5, tol=1e-7,
                                  max_iters=3000)
            trace = fn(prob, cfg) if kind is None else fn(prob, cfg, kind)
            bound = math.ceil(math.log(2.0 * lips * cfg.mu_init)
                              / math.log(1.0 / cfg.beta)) + 3
            worst = max(r.backtracks for r in trace.records)
            assert worst <= bound, (kind, worst, bound)


class TestApga:
    def test_t_column_tracks_fista_sequence(self):
        prob = quad_problem(seed=8)
        trace = run_apga(prob, OptimizerConfig(tol=1e-6, max_iters=500))
        t = 1.0
        for rec in trace.records[1:]:
            assert rec.t_k == pytest.approx(t, rel=1e-12)
            t = t_next(t, 1.0)

    def test_mu_nonincreasing(self):
        prob = quad_problem(seed=9)
        trace = run_apga(prob, OptimizerConfig(mu_init=10.0, tol=1e-6,
                                               max_iters=2000))
        steps = [r.step_scalar for r in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))
        assert trace.status == CONVERGED

    def test_inverse_square_envelope(self):
        quad = synthesize_quadratic(30, 0.2, 8.0, 10)
        prob = quadratic_problem(quad, 0.0)
        xstar = np.linalg.solve(quad.dense(), quad.b)
        fstar = prob.f_value(xstar)
        dist0_sq = float(xstar @ xstar)
        mu = 0.9 / quad.lmax
        trace = run_apga(prob, OptimizerConfig(mu_init=mu, tol=1e-14,
                                               max_iters=500))
        for rec in trace.records[1:]:
            bound = 2.0 * dist0_sq / (mu * (rec.k + 1) ** 2)
            assert rec.fval - fstar <= bound


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_step_to_an_infinite_value_is_refused(self):
        """mu = 1e160 is finite, but its first prox step overflows F and
        the model value alike, and inf <= inf must not accept it."""
        trace = run_apga(quad_problem(n=5), OptimizerConfig(mu_init=1e160))
        assert np.all(np.isfinite(trace.fvals()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_step_against_an_infinite_model_value_is_refused(self):
        """On this quadratic mu = 1e160 overflows the model value but not
        F (about 6e307): no row may lie above F(x0)."""
        prob = quadratic_problem(synthesize_quadratic(5, 0.1, 10.0, 0), 1e-3)
        trace = run_apga(prob, OptimizerConfig(mu_init=1e160))
        f0 = prob.f_value(np.zeros(5))
        assert all(f <= f0 for f in trace.fvals()), trace.fvals()


class TestPqna:
    def test_monotone_decrease_with_cd(self):
        prob = quad_problem(seed=11)
        trace = run_pqna(prob, OptimizerConfig(tol=1e-7, max_iters=2000,
                                               seed=3), "lbfgs")
        assert trace.status == CONVERGED
        assert_monotone(trace)

    def test_zero_hessian_reduces_to_pga(self):
        # same constant step-size schedule: PQNA's effective step is
        # 2 mu, so PGA runs at twice the mu (caps pin both in place)
        prob = quad_problem(seed=12)
        cfg_qn = OptimizerConfig(eta=1.0, mu_init=0.05, mu_cap=0.05,
                                 tol=1e-9, max_iters=400)
        cfg_pga = OptimizerConfig(mu_init=0.10, mu_cap=0.10,
                                  tol=1e-9, max_iters=400)
        tr_qn = run_pqna(prob, cfg_qn, "zero")
        tr_pga = run_pga(prob, cfg_pga)
        assert tr_qn.status == tr_pga.status
        assert len(tr_qn.records) == len(tr_pga.records)
        assert len(tr_qn.records) > 50
        for a, b in zip(tr_qn.records, tr_pga.records):
            assert a.backtracks == b.backtracks == 0
            assert abs(a.fval - b.fval) <= 1e-12
            assert abs(a.subgrad_inf - b.subgrad_inf) <= 1e-12

    def test_fixed_mode_freezes_after_warmup(self):
        prob = quad_problem(seed=13)
        cfg = OptimizerConfig(tol=1e-8, max_iters=2000, warmup=5,
                              seed=1)
        trace = run_pqna(prob, cfg, "fixed")
        assert trace.status == CONVERGED

    def test_linear_rate_bound_single_seed(self):
        quad = synthesize_quadratic(30, 0.1, 10.0, 200)
        prob = quadratic_problem(quad, 0.01)
        cfg = OptimizerConfig(eta=1.0, tol=1e-6, max_iters=5000,
                              subsolver="exact", exact_tol=1e-11,
                              seed=0, diagnostics=True)
        trace = run_pqna(prob, cfg, "lbfgs")
        assert trace.status == CONVERGED
        fstar = reference_min(prob)
        big_m = max(m for _, _, m in trace.diagnostics.eig_bounds)
        rho = theoretical_linear_rate(prob.gamma, big_m, 1.0)
        gap0 = trace.records[0].fval - fstar
        for rec in trace.records[1:]:
            assert rec.fval - fstar <= rho ** rec.k * gap0


class TestApqna:
    def test_relaxed_mode_converges(self):
        prob = quad_problem(seed=14)
        trace = run_apqna(prob, OptimizerConfig(tol=1e-7, max_iters=3000,
                                                seed=2))
        assert trace.status == CONVERGED
        fstar = reference_min(prob)
        assert trace.final().fval - fstar <= 1e-6

    def test_lemma5_margin_of_a_huge_sigma_is_recorded(self):
        """sigma_1 = 1e308 squares past the float range in the Lemma 5
        margin, where ``** 2`` raises OverflowError and a product gives
        inf."""
        trace = run_apqna(quad_problem(n=5), OptimizerConfig(sigma_init=1e308))
        assert trace.status == CONVERGED
        assert len(trace.diagnostics.lemma5) == trace.iterations

    def test_strict_mode_momentum_identities(self):
        prob = quad_problem(n=8, seed=15, lam=0.05)
        cfg = OptimizerConfig(tol=1e-7, max_iters=600, seed=4,
                              domination="strict")
        trace = run_apqna(prob, cfg)
        assert trace.status == CONVERGED
        for k, lhs, rhs, premise in trace.diagnostics.as1:
            if premise:
                assert lhs - rhs >= -1e-10 * lhs
        for k, margin in trace.diagnostics.lemma5:
            assert margin >= -1e-10

    def test_strict_mode_enforces_domination_on_samples(self):
        prob = quad_problem(n=8, seed=16, lam=0.05)
        cfg = OptimizerConfig(tol=1e-6, max_iters=400, seed=5,
                              domination="strict")
        trace = run_apqna(prob, cfg)
        sigmas = [r.step_scalar for r in trace.records[1:]]
        assert all(s > 0 for s in sigmas)

    def test_alternating_models_collapse_sigma(self):
        # axis-swapping Hessian sequence: strict domination forces
        # sigma_k <= 10^-k, the pathology motivating the fixed base
        quad = synthesize_quadratic(2, 0.2, 0.9, seed=3)
        prob = quadratic_problem(quad, 0.01)
        models = [
            HessianModel(1.0, 2, np.array([[1.0], [0.0]]), np.array([[9.0]])),
            HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]])),
        ]

        def factory(k, pairs):
            return models[k % 2]

        cfg = OptimizerConfig(tol=1e-30, max_iters=250, seed=1,
                              domination="strict")
        trace = run_apqna(prob, cfg, model_factory=factory)
        for rec in trace.records[1:]:
            assert rec.step_scalar <= 10.0 ** -(rec.k - 1) + 1e-12
        assert trace.records[-1].step_scalar <= 1e-240

    def test_factory_model_of_another_dimension_is_refused(self):
        prob = quad_problem(n=5, seed=14)
        calls = []

        def factory(k, pairs):
            calls.append(k)
            return HessianModel(1.0, 9)

        with pytest.raises(ValueError, match=r"model_factory .* dimension 9 "
                                             r"at iteration 1, expected 5"):
            run_apqna(prob, OptimizerConfig(max_iters=50), model_factory=factory)
        assert calls == [1]


class TestApqnaFh:
    def test_identity_base_reduces_to_apga(self):
        quad = synthesize_quadratic(20, 0.3, 6.0, 17)
        prob = quadratic_problem(quad, 0.02)
        mu = 0.9 / quad.lmax
        cfg_fh = OptimizerConfig(sigma_init=mu, sigma_growth=1.0,
                                 warmup=0, tol=1e-9, max_iters=800,
                                 seed=0)
        cfg_ap = OptimizerConfig(mu_init=mu, tol=1e-9, max_iters=800,
                                 seed=0)
        tr_fh = run_apqna_fh(prob, cfg_fh, base=HessianModel(1.0, prob.n))
        tr_ap = run_apga(prob, cfg_ap)
        assert len(tr_fh.records) == len(tr_ap.records)
        for a, b in zip(tr_fh.records, tr_ap.records):
            assert abs(a.fval - b.fval) <= 1e-12
            assert abs(a.t_k - b.t_k) <= 1e-12

    def test_warmup_handoff_bookkeeping(self):
        prob = quad_problem(seed=18)
        cfg = OptimizerConfig(tol=1e-8, max_iters=2000, warmup=4,
                              seed=6)
        trace = run_apqna_fh(prob, cfg)
        assert trace.diagnostics.warmup_end == 4
        sigma1, kind, _, _ = trace.diagnostics.initial_model
        assert sigma1 == cfg.sigma_init and kind == "scaled_fixed"
        ks = [r.k for r in trace.records]
        assert ks == list(range(len(ks)))
        for rec in trace.records[1:5]:
            assert rec.t_k == 1.0
        assert trace.records[6].t_k > 1.0
        assert trace.status == CONVERGED

    def test_theorem6_bound_identity_base(self):
        quad = synthesize_quadratic(30, 0.2, 8.0, 19)
        prob = quadratic_problem(quad, 0.0)
        xstar = np.linalg.solve(quad.dense(), quad.b)
        fstar = prob.f_value(xstar)
        dist0_sq = float(xstar @ xstar)
        cfg = OptimizerConfig(sigma_init=1.0, warmup=0, tol=1e-11,
                              max_iters=600, seed=7)
        trace = run_apqna_fh(prob, cfg, base=HessianModel(1.0, prob.n))
        for rec in trace.records[1:]:
            bound = dist0_sq / (2.0 * rec.step_scalar * rec.t_k ** 2)
            assert rec.fval - fstar <= bound

    def test_lemma5_and_lemma6_margins(self):
        prob = quad_problem(n=25, seed=20, lam=0.01)
        cfg = OptimizerConfig(tol=1e-8, max_iters=2000, warmup=6,
                              seed=8, diagnostics=True)
        trace = run_apqna_fh(prob, cfg)
        assert trace.status == CONVERGED
        assert trace.diagnostics.lemma5, "no accelerated iterations logged"
        for k, margin in trace.diagnostics.lemma5:
            assert margin >= -1e-10
        for k, margin in trace.diagnostics.lemma6:
            assert margin >= -1e-12

    @pytest.mark.parametrize("base", [HessianModel(1.0, 9),
                                      HessianModel(1.0, 9, np.ones((9, 1)),
                                                   np.ones((1, 1)))],
                             ids=["scalar", "rank-one"])
    def test_base_of_another_dimension_is_refused(self, base):
        """Refused before row 0's oracle call: an n = 9 base used to run
        50 iterations on an n = 5 problem, or fail inside the first CD
        solve with the shape of the solver's gradient."""
        prob = quad_problem(n=5, seed=14)
        evaluated = []
        counted = replace(prob, value_and_grad=lambda w: evaluated.append(w)
                          or prob.value_and_grad(w))
        with pytest.raises(ValueError, match=r"base has dimension 9, expected 5"):
            run_apqna_fh(counted, OptimizerConfig(max_iters=50), base=base)
        assert evaluated == []

    def test_sigma_underflow_raises(self):
        cfg = OptimizerConfig(sigma_init=1e-250, backtrack_cap=5000,
                              warmup=0, max_iters=5)
        with pytest.raises(SigmaUnderflowError):
            run_apqna_fh(broken_problem(), cfg, base=HessianModel(1.0, 3))


class TestTraceContracts:
    def test_records_strictly_increasing(self):
        prob = quad_problem(seed=21)
        for fn in (run_pga, run_apga):
            trace = fn(prob, OptimizerConfig(tol=1e-6, max_iters=1000))
            ks = [r.k for r in trace.records]
            assert ks == sorted(set(ks))

    def test_determinism_modulo_elapsed(self):
        prob = quad_problem(seed=22)
        cfg = OptimizerConfig(tol=1e-7, max_iters=1500, seed=33,
                              warmup=4)
        a = run_apqna_fh(prob, cfg)
        b = run_apqna_fh(prob, cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.k, ra.fval, ra.subgrad_inf, ra.backtracks,
                    ra.inner_iters, ra.step_scalar, ra.t_k) == \
                   (rb.k, rb.fval, rb.subgrad_inf, rb.backtracks,
                    rb.inner_iters, rb.step_scalar, rb.t_k)

    def test_all_algorithms_agree_on_minimum(self):
        prob = quad_problem(seed=23)
        fstar = reference_min(prob)
        cfg = OptimizerConfig(tol=1e-6, max_iters=30000, seed=1)
        for name, fn in ALGORITHMS.items():
            trace = fn(prob, cfg)
            assert trace.status == CONVERGED, name
            assert trace.final().fval - fstar <= 1e-4, name


MONOTONE = ("pga", "pqna-lbfgs", "pqna-fh")


@st.composite
def seeded_runs(draw):
    """A small seeded quadratic, a start point and a driver config."""
    n = draw(st.integers(2, 8))
    gamma = draw(st.floats(0.05, 1.0))
    lmax = gamma * draw(st.floats(1.0, 50.0))
    seed = draw(st.integers(0, 2**16))
    lam = draw(st.sampled_from([0.0, 0.01, 0.1]))
    problem = quadratic_problem(synthesize_quadratic(n, gamma, lmax, seed), lam)
    x0 = np.random.default_rng(seed).standard_normal(n) * draw(
        st.sampled_from([0.0, 1.0, 100.0]))
    config = OptimizerConfig(tol=1e-6, max_iters=40, seed=seed,
                             warmup=draw(st.integers(0, 5)),
                             mu_init=draw(st.sampled_from([1e-2, 1.0, 1e3])),
                             diagnostics=draw(st.booleans()))
    return problem, x0, config


def _without_elapsed(trace):
    return [replace(r, elapsed_sec=0.0) for r in trace.records]


class TestDriverProperties:
    """Every driver, on both loops, over generated seeded quadratics."""

    @settings(max_examples=20, deadline=None, database=None)
    @given(seeded_runs())
    def test_status_monotonicity_and_determinism(self, run):
        problem, x0, config = run
        for name, driver in ALGORITHMS.items():
            trace = driver(problem, config, x0)
            assert trace.status in (CONVERGED, MAX_ITER, BACKTRACK_FAILURE), name
            if name in MONOTONE:
                assert_monotone(trace)
            again = driver(problem, config, x0)
            assert again.status == trace.status, name
            assert _without_elapsed(again) == _without_elapsed(trace), name
            assert again.diagnostics == trace.diagnostics, name

    @settings(max_examples=20, deadline=None, database=None)
    @given(seeded_runs())
    def test_recorded_invariants_hold(self, run):
        """apqna-fh and strict apqna-lbfgs: every Lemma 5 margin within
        criterion 6's tolerance, and lhs >= rhs in every AS1 row whose
        premise holds.  Relaxed apqna-lbfgs is left out: its theta = 1
        breaks the premise theta_k <= sigma_{k-1}/sigma_k that both
        rest on."""
        problem, x0, config = run
        strict = replace(config, domination="strict")
        for trace in (run_apqna_fh(problem, config, x0),
                      run_apqna(problem, strict, x0)):
            rows = trace.records
            for k, margin in trace.diagnostics.lemma5:
                scale = max(1.0, rows[k].step_scalar * rows[k].t_k ** 2)
                assert margin >= -1e-10 * scale, (trace.algorithm, k, margin)
            for k, lhs, rhs, premise in trace.diagnostics.as1:
                if premise:
                    assert lhs - rhs >= -1e-10 * max(1.0, abs(lhs)), (
                        trace.algorithm, k, lhs, rhs)


@st.composite
def small_problems(draw):
    """A random small logistic or quadratic problem and the strong-convexity
    bound of f on the segment between two points.  The quadratic's is its
    smallest eigenvalue.  The logistic Hessian (1/m) X' diag(s'(z)) X is at
    least its value with each s'(z_i) = expit(z_i) expit(-z_i) taken at the
    larger |z_i| of the two ends, since s' falls with |z| and z is linear;
    the first n points are multiples of the unit vectors, so X has full
    rank."""
    seed = draw(st.integers(0, 2**16))
    lam = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        gamma = draw(st.floats(0.05, 1.0))
        quad = synthesize_quadratic(n, gamma, gamma * draw(st.floats(1.0, 30.0)),
                                    seed)
        return quadratic_problem(quad, lam), lambda a, b: quad.gamma
    m = draw(st.integers(3 * n, 60))
    binary = draw(st.booleans())
    values = np.ones((m, n)) if binary else rng.uniform(-2.0, 2.0, (m, n))
    dense = np.where(rng.random((m, n)) < 0.5, values, 0.0)
    dense[:n] = np.diag(values[np.arange(n), np.arange(n)])
    labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    ds = Dataset(sp.csr_matrix(dense), labels)

    def gamma(a, b):
        t = np.maximum(np.abs(dense @ a), np.abs(dense @ b))
        hessian = dense.T @ ((expit(t) * expit(-t))[:, None] * dense) / m
        return float(np.linalg.eigvalsh(hessian)[0])
    return logistic_problem(ds, lam), gamma


def _run_to_final_point(driver, problem, config):
    """The trace and its final point, the x of the last row's
    subgradient norm."""
    rows = []
    real = optimizers._subgrad_inf

    def subgrad_inf(grad, x, lam):
        rows.append(x)
        return real(grad, x, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizers, "_subgrad_inf", subgrad_inf)
        trace = driver(problem, config)
    assert len(rows) == len(trace.records)
    return trace, rows[-1]


class TestDriverAgreement:
    """The guard on the last bits: whatever rounding the oracles carry,
    all six drivers stop at the same F up to what their stopping rule
    allows."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(small_problems())
    def test_all_drivers_reach_the_same_final_value(self, case):
        """|F_a - F_b| <= max of the two tolerance-induced gaps, with
        gamma taken on the segment between the final points, plus four
        ulps of rounding in F itself.  The bound holds at any final
        point, so runs that stop at max_iters count too."""
        problem, gamma = case
        config = OptimizerConfig(tol=1e-6, max_iters=5000, seed=3,
                                 warmup=4)
        finals = [_run_to_final_point(driver, problem, config)
                  for driver in ALGORITHMS.values()]
        for (ta, xa), (tb, xb) in combinations(finals, 2):
            assert ta.status in (CONVERGED, MAX_ITER), ta.algorithm
            g = gamma(xa, xb)
            fa, fb = ta.final().fval, tb.final().fval
            gap = max(tolerance_induced_gap(ta, g, problem.n),
                      tolerance_induced_gap(tb, g, problem.n))
            rounding = 4 * np.finfo(float).eps * max(abs(fa), abs(fb))
            assert abs(fa - fb) <= gap + rounding, (ta.algorithm, tb.algorithm)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_oracle_that_ignores_the_memo_gives_the_same_trace(name,
                                                           small_logistic):
    """The memo only spares passes: f_grad reuses the margins and
    exp(-|z|) that f_value formed, which a fresh pass repeats bit for bit."""
    ignoring = replace(small_logistic,
                       f_value=lambda w, memo=None: small_logistic.f_value(w),
                       f_grad=lambda w, memo=None: small_logistic.f_grad(w))
    config = OptimizerConfig(tol=1e-7, max_iters=3000, warmup=4)
    got = ALGORITHMS[name](ignoring, config)
    want = ALGORITHMS[name](small_logistic, config)
    assert got.status == want.status == CONVERGED
    assert _without_elapsed(got) == _without_elapsed(want)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_positional_x0_is_the_start_point(name):
    prob = quad_problem(seed=24)
    x0 = np.linspace(-0.5, 0.5, prob.n)
    trace = ALGORITHMS[name](prob, OptimizerConfig(max_iters=3), x0)
    assert trace.records[0].fval == pytest.approx(
        prob.f_value(x0) + l1_value(x0, prob.lam), rel=1e-14)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_stationary_start_returns_row_zero(name):
    # x0 = 0 is the minimizer once lam >= ||b||_inf: the subgradient is zero.
    quad = synthesize_quadratic(12, 0.3, 6.0, 3)
    prob = quadratic_problem(quad, float(np.max(np.abs(quad.b))))
    trace = ALGORITHMS[name](prob, OptimizerConfig(), np.zeros(prob.n))
    assert trace.status == CONVERGED
    assert [r.k for r in trace.records] == [0]
    assert trace.records[0].subgrad_inf == 0.0


class TestConfigValidation:
    def test_beta_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(beta=1.0)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(eta=0.0)

    def test_growth_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(sigma_growth=0.99)

    def test_domination_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(domination="loose")
