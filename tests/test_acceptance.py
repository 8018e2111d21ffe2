"""Acceptance suite: one test per criterion, each ending in a PASS line.

Criteria 1 and 2 replay the published sparse-logistic benchmarks and
need the a9a / connect-4 / HAPT files in LIBSVM format.  Point
PROXQN_DATA_DIR at the directory holding them (default: ./data at the
repository root); multiclass sets need a ``<name>.posclass`` sidecar
with the raw label to map to +1.  Without the files those two tests
skip -- everything else runs self-contained.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from proxqn.dataset import (
    DatasetFormatError,
    read_libsvm,
    synthesize_quadratic,
)
from proxqn.harness import rate_diagnostics
from proxqn.hessian import (
    HessianModel,
    compile_compact,
    enforce_domination,
    model_value,
)
from proxqn.optimizers import (
    ALGORITHMS,
    CONVERGED,
    OptimizerConfig,
    run_apga,
    run_apqna_fh,
    run_pqna,
    theoretical_linear_rate,
)
from proxqn.problem import l1_value, logistic_problem, quadratic_problem
from proxqn.subsolver import cd_minimize, exact_solve_oracle, phi_constant

from test_hessian import admissible_pairs

DATA_DIR = os.environ.get(
    "PROXQN_DATA_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, "data"),
)

BENCH_CONFIG = dict(tol=1e-5, max_iters=50000, seed=0)


def find_dataset(name):
    for cand in (name, f"{name}.txt", f"{name}.libsvm"):
        path = os.path.join(DATA_DIR, cand)
        if os.path.exists(path):
            return path
    return None


def load_benchmark(name):
    path = find_dataset(name)
    if path is None:
        pytest.skip(
            f"benchmark dataset {name!r} not found under {DATA_DIR} "
            "(no network in this environment; place the LIBSVM file there "
            "or set PROXQN_DATA_DIR)")
    posclass = None
    sidecar = os.path.join(DATA_DIR, f"{name}.posclass")
    if os.path.exists(sidecar):
        posclass = open(sidecar).read().strip()
    try:
        return read_libsvm(path, positive_label=posclass)
    except DatasetFormatError as exc:
        pytest.skip(f"{name}: {exc} (add a {name}.posclass sidecar)")


def test_criterion_1_a9a_reproduction():
    """Every algorithm reaches 3.4703e-01 +- 2e-4 on a9a; APQNA-FH in
    <= 300 iterations, APGA in <= 2000; under two minutes total."""
    ds = load_benchmark("a9a")
    assert ds.n_features == 123
    assert ds.n_points == 32561
    problem = logistic_problem(ds, 1e-3)
    started = time.perf_counter()
    finals = {}
    iters = {}
    for name, fn in ALGORITHMS.items():
        trace = fn(problem, OptimizerConfig(**BENCH_CONFIG))
        assert trace.status == CONVERGED, f"{name} did not converge"
        finals[name] = trace.final().fval
        iters[name] = trace.iterations
    elapsed = time.perf_counter() - started
    for name, fval in finals.items():
        assert abs(fval - 3.4703e-01) <= 2e-4, (name, fval)
    assert iters["apqna-fh"] <= 300, iters
    assert iters["apga"] <= 2000, iters
    assert elapsed < 120.0, f"benchmark took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1 PASS: a9a finals {finals} iters {iters} "
          f"in {elapsed:.0f}s")


def test_criterion_2_iteration_ordering():
    """APQNA-FH terminates in strictly fewer iterations than APGA on
    a9a, connect-4 and HAPT."""
    results = {}
    for name in ("a9a", "connect-4", "HAPT"):
        ds = load_benchmark(name)
        problem = logistic_problem(ds, 1e-3)
        fh = run_apqna_fh(problem, OptimizerConfig(**BENCH_CONFIG))
        ap = run_apga(problem, OptimizerConfig(**BENCH_CONFIG))
        assert fh.status == CONVERGED and ap.status == CONVERGED, name
        assert fh.iterations < ap.iterations, (
            f"{name}: apqna-fh {fh.iterations} vs apga {ap.iterations}")
        results[name] = (fh.iterations, ap.iterations)
    print(f"\nACCEPTANCE 2 PASS: iteration counts (apqna-fh, apga) {results}")


def test_criterion_3_linear_rate_twenty_seeds():
    """Strongly convex quadratic + l1 (gamma=0.1, L=10, n=50): PQNA with
    eta=1 and exact subproblem solves stays under rho^k (F0 - F*) with
    rho = 1 - gamma/(gamma + M_est) at every iteration, for 20 seeds."""
    violations = []
    for seed in range(20):
        quad = synthesize_quadratic(50, 0.1, 10.0, seed)
        problem = quadratic_problem(quad, 0.01)
        cfg = OptimizerConfig(eta=1.0, tol=1e-5, max_iters=5000,
                              subsolver="exact", exact_tol=1e-10,
                              seed=seed, diagnostics=True)
        trace = run_pqna(problem, cfg, "lbfgs")
        assert trace.status == CONVERGED, seed
        ref_cfg = OptimizerConfig(eta=1.0, tol=1e-12, max_iters=100000,
                                  subsolver="exact", exact_tol=1e-13,
                                  seed=seed)
        ref = run_pqna(problem, ref_cfg, "lbfgs")
        assert ref.status == CONVERGED, seed
        fstar = ref.final().fval
        big_m = max(m for _, _, m in trace.diagnostics.eig_bounds)
        rho = theoretical_linear_rate(problem.gamma, big_m, 1.0)
        diag = rate_diagnostics(trace, fstar, rho=rho)
        if diag.thm1_violations:
            violations.append((seed, diag.thm1_violations[:3]))
    assert not violations, violations
    print("\nACCEPTANCE 3 PASS: zero linear-rate violations over 20 seeds")


def test_criterion_4_cd_contraction_rate():
    """Mean subproblem gap ratio over 200 seeds stays within 1.10 of
    (1 - (1 - phi_{m,M})/n)^r at r in {20, 100, 500}."""
    n = 20
    checked = 0
    for instance_seed in range(5):
        rng = np.random.default_rng(1000 + instance_seed)
        model = compile_compact(admissible_pairs(rng, n, 6))
        eigs = scipy.linalg.eigvalsh(model.dense())
        alpha_n = 1.0 - (1.0 - phi_constant(eigs[0], eigs[-1])) / n
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = 0.2
        ustar, _ = exact_solve_oracle(model, grad_v, v, lam, 1e-12)
        qstar = model_value(model, ustar, v, 0.0, grad_v, l1_value(ustar, lam))
        q0 = model_value(model, v, v, 0.0, grad_v, l1_value(v, lam))
        for r in (20, 100, 500):
            total = 0.0
            for cd_seed in range(200):
                u, _ = cd_minimize(model, grad_v, v, lam, r, seed=cd_seed)
                q = model_value(model, u, v, 0.0, grad_v, l1_value(u, lam))
                total += (q - qstar) / (q0 - qstar)
            mean = total / 200.0
            bound = 1.10 * alpha_n**r
            assert mean <= bound, (instance_seed, r, mean, bound)
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} (instance, r) contraction bounds held")


def test_criterion_5_accelerated_envelopes():
    """lambda = 0 quadratic: APGA under 2||x0-x*||^2/(mu (k+1)^2) for
    k <= 500 with a fixed accepted mu; APQNA-FH with sigma_1 = 1 and
    the identity base under ||x0-x*||^2/(2 sigma_k t_k^2).  No
    violations at any iteration."""
    quad = synthesize_quadratic(50, 0.1, 10.0, 77)
    problem = quadratic_problem(quad, 0.0)
    xstar = np.linalg.solve(quad.dense(), quad.b)
    fstar = problem.f_value(xstar)
    dist0_sq = float(xstar @ xstar)

    mu = 0.9 / quad.lmax
    apga = run_apga(problem, OptimizerConfig(mu_init=mu, tol=1e-16,
                                             max_iters=500))
    assert apga.iterations == 500
    assert all(r.backtracks == 0 for r in apga.records), "mu was not fixed"
    diag = rate_diagnostics(apga, fstar, dist0_sq=dist0_sq)
    assert diag.envelope_violations == []

    fh = run_apqna_fh(problem,
                      OptimizerConfig(sigma_init=1.0, warmup=0,
                                      tol=1e-12, max_iters=600, seed=1),
                      base=HessianModel(1.0, problem.n))
    diag_fh = rate_diagnostics(fh, fstar, dist0_sq=dist0_sq)
    assert diag_fh.thm6_violations == []
    print("\nACCEPTANCE 5 PASS: 1/k^2 envelope (500 iters) and fixed-"
          f"Hessian bound ({fh.iterations} iters) held everywhere")


def test_criterion_6_trajectory_invariants():
    """sigma_k t_k^2 >= (sum sqrt(sigma_i)/2)^2 and sigma_k >=
    beta * m_est / L_est at every accelerated fixed-Hessian iteration."""
    cases = []
    quad = synthesize_quadratic(40, 0.2, 8.0, 5)
    cases.append(("synthetic l1", quadratic_problem(quad, 0.01),
                  OptimizerConfig(tol=1e-8, max_iters=5000,
                                  warmup=8, seed=2, diagnostics=True),
                  None))
    quad0 = synthesize_quadratic(40, 0.2, 8.0, 6)
    cases.append(("synthetic smooth", quadratic_problem(quad0, 0.0),
                  OptimizerConfig(tol=1e-9, max_iters=5000,
                                  warmup=0, seed=3, diagnostics=True),
                  HessianModel(1.0, 40)))
    a9a_path = find_dataset("a9a")
    if a9a_path is not None:
        ds = read_libsvm(a9a_path)
        cases.append(("a9a", logistic_problem(ds, 1e-3),
                      OptimizerConfig(tol=1e-5, max_iters=20000,
                                      seed=4, diagnostics=True), None))
    total5 = total6 = 0
    for name, problem, cfg, base in cases:
        trace = run_apqna_fh(problem, cfg, base=base)
        assert trace.status == CONVERGED, name
        by_k = {r.k: r for r in trace.records}
        assert trace.diagnostics.lemma5, name
        for k, margin in trace.diagnostics.lemma5:
            rec = by_k[k]
            scale = max(1.0, rec.step_scalar * rec.t_k**2)
            assert margin >= -1e-10 * scale, (name, k, margin)
            total5 += 1
        for k, margin in trace.diagnostics.lemma6:
            assert margin >= -1e-12, (name, k, margin)
            total6 += 1
        assert total6 > 0, f"{name}: no lower-bound checks recorded"
    print(f"\nACCEPTANCE 6 PASS: {total5} growth and {total6} lower-bound "
          f"checks over {len(cases)} problems")


def test_criterion_7_alternating_domination_collapse():
    """Strict domination on alternating diag(10,1)/diag(1,10) forces
    sigma_k = 10^-k exactly (to 1e-12 relative) for k <= 250."""
    models = [HessianModel(1.0, 2, np.array([[1.0], [0.0]]), np.array([[9.0]])),
              HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]]))]
    sigma = 1.0
    for k in range(1, 251):
        sigma = enforce_domination(models[k % 2], sigma, models[(k + 1) % 2])
        expected = 10.0 ** -k
        assert abs(sigma - expected) <= 1e-12 * expected, (k, sigma)
    print("\nACCEPTANCE 7 PASS: sigma_k = 10^-k to 1e-12 relative, k <= 250")


def test_criterion_8_verify_suite_full(capsys):
    """Oracle suites at their stated tolerances; the full verification
    suite exits 0 through the CLI in under five minutes."""
    from proxqn.cli import main
    started = time.perf_counter()
    code = main(["verify", "--level", "full"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0, f"verify exited {code}:\n{out}"
    assert elapsed < 300.0, f"full verify took {elapsed:.0f}s"
    for expected in ("gradient_vs_finite_difference",
                     "soft_threshold_vs_golden_section",
                     "coordinate_step_vs_golden_section",
                     "compact_lbfgs_vs_dense_bfgs",
                     "reduction_pqna_to_pga",
                     "reduction_apqna_to_apga",
                     "strongly_convex_linear_rate"):
        assert f"PASS  {expected}" in out
    print("\n" + out)
    print(f"ACCEPTANCE 8 PASS: full verify suite exited 0 in {elapsed:.0f}s")
