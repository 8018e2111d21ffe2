import shutil
import subprocess

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxqn import _cdkernel
from proxqn._oracles import coordinate_step_reference
from proxqn.hessian import (
    CorrectionPairs,
    HessianModel,
    compile_compact,
    model_value,
)
from proxqn.optimizers import OptimizerConfig, budget_for_iteration
from proxqn.problem import l1_value, min_norm_subgradient
from proxqn.subsolver import (
    CdWorkspace,
    cd_minimize,
    exact_solve_oracle,
    phi_constant,
    solve_scaled_identity,
)

from test_hessian import admissible_pairs


def compact_model(seed, n=20, n_pairs=6):
    rng = np.random.default_rng(seed)
    return compile_compact(admissible_pairs(rng, n, n_pairs))


def qval(model, u, v, grad_v, lam):
    return model_value(model, u, v, 0.0, grad_v, l1_value(u, lam))


def coordinate_step(a, b, u_j, lam):
    """The move CdWorkspace.step makes on psi(z) = 0.5 a z^2 + b z + lam |u_j + z|."""
    ws = CdWorkspace(HessianModel(1.0, 1, scale=a), np.array([b]),
                     np.array([u_j]), lam)
    return ws.step(0)


class TestBudget:
    def test_floor_binds_early(self):
        assert budget_for_iteration(3, OptimizerConfig()) == 5

    def test_cap_binds_late(self):
        assert budget_for_iteration(3000, OptimizerConfig()) == 1000

    def test_linear_regime(self):
        assert budget_for_iteration(300, OptimizerConfig()) == 100

    def test_requires_positive_iteration(self):
        with pytest.raises(ValueError):
            budget_for_iteration(0, OptimizerConfig())

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            OptimizerConfig(inner_cap=3, inner_floor=5)


class TestPhiConstant:
    def test_equal_bounds(self):
        assert phi_constant(1.0, 1.0) == pytest.approx(0.75)

    def test_boundary_uses_first_branch(self):
        assert phi_constant(2.0, 1.0) == pytest.approx(0.5)

    def test_otherwise_branch(self):
        assert phi_constant(4.0, 1.0) == pytest.approx(0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phi_constant(0.0, 1.0)


class TestCoordinateStep:
    def test_already_optimal(self):
        model = HessianModel(1.0, 2)
        ws = CdWorkspace(model, np.zeros(2), np.zeros(2), 1.0)
        assert ws.step(0) == 0.0
        assert ws.u[0] == 0.0

    def test_derived_step_matches_golden_section(self):
        # a=2, b=-4, u_j=0, lam=1
        ref = coordinate_step_reference(2.0, -4.0, 0.0, 1.0)
        closed = coordinate_step(2.0, -4.0, 0.0, 1.0)
        assert closed == pytest.approx(ref, abs=1e-8)
        assert closed == pytest.approx(1.5, abs=1e-8)

    def test_dead_zone(self):
        assert coordinate_step(1.0, 0.5, 0.0, 1.0) == 0.0

    def test_closed_form_vs_golden_section_sweep(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            a = float(abs(rng.standard_normal()) + 0.1)
            b = float(rng.standard_normal() * 2)
            u_j = float(rng.standard_normal())
            lam = float(abs(rng.standard_normal()))
            closed = coordinate_step(a, b, u_j, lam)
            worst = max(worst, abs(closed - coordinate_step_reference(a, b, u_j, lam)))
        assert worst <= 1e-8

    def test_nonpositive_diagonal_rejected(self):
        model = HessianModel(1.0, 2, np.array([[1.0], [0.0]]),
                             np.array([[-0.999]]))
        ws = CdWorkspace(model, np.zeros(2), np.zeros(2), 0.1)
        ws.diag = np.array([-0.1, 1.0])
        with pytest.raises(ValueError, match="diagonal"):
            ws.step(0)


class TestCdMinimize:
    def test_zero_steps_returns_start(self):
        model = compact_model(0)
        v = np.ones(20)
        u, _ = cd_minimize(model, np.zeros(20), v, 0.1, 0, seed=0)
        np.testing.assert_array_equal(u, v)

    def test_single_newton_step_in_1d(self):
        model = HessianModel(1.0, 1)
        u, _ = cd_minimize(model, np.array([3.0]), np.array([1.0]), 0.0, 1, seed=0)
        assert u[0] == pytest.approx(-2.0)

    def test_model_value_nonincreasing(self):
        model = compact_model(1)
        rng = np.random.default_rng(2)
        grad_v = rng.standard_normal(20)
        v = rng.standard_normal(20)
        for seed in range(5):
            ws = CdWorkspace(model, grad_v, v, 0.3)
            prev = qval(model, ws.u, v, grad_v, 0.3)
            for j in np.random.default_rng(seed).integers(0, 20, size=400):
                ws.step(int(j))
                cur = qval(model, ws.u, v, grad_v, 0.3)
                assert cur <= prev + 1e-12
                prev = cur

    def test_close_to_exact_oracle_after_many_steps(self):
        worst = 0.0
        for seed in range(5):
            model = compact_model(10 + seed)
            rng = np.random.default_rng(seed)
            grad_v = rng.standard_normal(20)
            v = rng.standard_normal(20)
            lam = 0.2
            ustar, _ = exact_solve_oracle(model, grad_v, v, lam, 1e-12)
            qstar = qval(model, ustar, v, grad_v, lam)
            u, _ = cd_minimize(model, grad_v, v, lam, 5000, seed=seed)
            worst = max(worst, qval(model, u, v, grad_v, lam) - qstar)
        assert worst <= 1e-6

    def test_deterministic_given_seed(self):
        model = compact_model(4)
        rng = np.random.default_rng(5)
        grad_v = rng.standard_normal(20)
        v = rng.standard_normal(20)
        a, _ = cd_minimize(model, grad_v, v, 0.1, 500, seed=99)
        b, _ = cd_minimize(model, grad_v, v, 0.1, 500, seed=99)
        np.testing.assert_array_equal(a, b)
        c, _ = cd_minimize(model, grad_v, v, 0.1, 500, seed=100)
        assert not np.array_equal(a, c)

    def test_solve_at_the_minimizer_takes_all_r_steps(self, cd_backend):
        model = compact_model(6)
        v = np.random.default_rng(6).standard_normal(20)
        # grad 0 and lam 0: v is already the minimizer, every move is 0
        u, steps = cd_minimize(model, np.zeros(20), v, 0.0, 10_000, seed=0)
        assert steps == 10_000
        assert u.tobytes() == v.tobytes()

    def test_cache_consistency_over_long_run(self):
        # (model seed, data seed, lam, steps), checked every 100 steps
        for model_seed, data_seed, lam, steps in ((7, 8, 0.15, 10_000),
                                                  (9, 9, 0.1, 2000)):
            model = compact_model(model_seed)
            rng = np.random.default_rng(data_seed)
            grad_v = rng.standard_normal(20)
            v = rng.standard_normal(20)
            ws = CdWorkspace(model, grad_v, v, lam)
            idx = rng.integers(0, 20, size=steps)
            for taken, j in enumerate(idx, 1):
                ws.step(int(j))
                if taken % 100 == 0:
                    assert ws.cache_error() <= 1e-10, (model_seed, taken)


class TestExactSolveOracle:
    def test_lambda_zero_matches_dense_solve(self):
        model = compact_model(20)
        rng = np.random.default_rng(21)
        grad_v = rng.standard_normal(20)
        v = rng.standard_normal(20)
        u, _ = exact_solve_oracle(model, grad_v, v, 0.0, 1e-12)
        ref = v + np.linalg.solve(model.dense(), -grad_v)
        np.testing.assert_allclose(u, ref, atol=1e-9)

    def test_zero_gradient_is_fixed_point(self):
        model = compact_model(22)
        v = np.zeros(20)
        u, _ = exact_solve_oracle(model, np.zeros(20), v, 0.5, 1e-12)
        np.testing.assert_allclose(u, v, atol=1e-12)

    def test_diagonal_closed_form(self):
        model = HessianModel(1.0, 2, np.array([[0.0], [1.0]]),
                             np.array([[1.0]]))  # diag(1, 2)
        u, _ = exact_solve_oracle(model, np.array([1.0, 1.0]), np.zeros(2),
                                  0.5, 1e-13)
        np.testing.assert_allclose(u, [-0.5, -0.25], atol=1e-12)

    def test_subgradient_certificate(self):
        model = compact_model(23)
        rng = np.random.default_rng(23)
        grad_v = rng.standard_normal(20)
        v = rng.standard_normal(20)
        u, _ = exact_solve_oracle(model, grad_v, v, 0.3, 1e-11)
        smooth = grad_v + model.apply(u - v)
        assert np.max(np.abs(min_norm_subgradient(smooth, u, 0.3))) <= 1e-11

    def test_step_cap(self):
        model = compact_model(24)
        rng = np.random.default_rng(24)
        with pytest.raises(RuntimeError, match="exceeded"):
            exact_solve_oracle(model, rng.standard_normal(20),
                               rng.standard_normal(20), 0.1, 1e-30,
                               max_steps=40)


class TestContractionRate:
    def test_mean_gap_contracts_at_phi_rate(self):
        n = 20
        model = compact_model(30, n=n)
        eigs = scipy.linalg.eigvalsh(model.dense())
        alpha_n = 1.0 - (1.0 - phi_constant(eigs[0], eigs[-1])) / n
        rng = np.random.default_rng(31)
        grad_v = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = 0.2
        ustar, _ = exact_solve_oracle(model, grad_v, v, lam, 1e-12)
        qstar = qval(model, ustar, v, grad_v, lam)
        q0 = qval(model, v, v, grad_v, lam)
        for r in (20, 100):
            ratios = [
                (qval(model, cd_minimize(model, grad_v, v, lam, r, seed=s)[0],
                      v, grad_v, lam) - qstar) / (q0 - qstar)
                for s in range(200)
            ]
            assert np.mean(ratios) <= 1.10 * alpha_n**r


class TestScaledIdentityShortcut:
    def test_matches_exact_oracle(self):
        model = HessianModel(1.0, 8, scale=2.5)
        rng = np.random.default_rng(40)
        grad_v = rng.standard_normal(8)
        v = rng.standard_normal(8)
        u = solve_scaled_identity(model, grad_v, v, 0.3)
        ref, _ = exact_solve_oracle(model, grad_v, v, 0.3, 1e-13)
        np.testing.assert_allclose(u, ref, atol=1e-12)

    def test_rejects_low_rank_models(self):
        with pytest.raises(ValueError):
            solve_scaled_identity(compact_model(41), np.zeros(20),
                                  np.zeros(20), 0.1)


@pytest.fixture(params=["c", "python"])
def cd_backend(request, monkeypatch):
    """Runs a test on the compiled kernel and again on the Python code."""
    if request.param == "python":
        monkeypatch.setattr(_cdkernel, "KERNEL", None)
    elif _cdkernel.KERNEL is None:
        pytest.skip(_cdkernel.backend())
    return request.param


def on_python_loops(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled kernel switched off;
    returns the result or the message of the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_cdkernel, "KERNEL", None)
        return outcome(fn, *args, **kwargs)


def outcome(fn, *args, **kwargs):
    """(u bytes, steps) of a subsolver call, or its error as text."""
    try:
        u, steps = fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return u.tobytes(), steps


def random_instance(seed, n, memory, n_pairs):
    """A scaled compact L-BFGS model from n_pairs pairs of a random SPD
    matrix (p = 2 * pairs kept, at most 2 * memory), a gradient of
    random magnitude and a start point with some zero entries."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + 0.1 * np.eye(n)
    pairs = CorrectionPairs(n, memory=memory)
    for _ in range(n_pairs):
        s = rng.standard_normal(n)
        pairs.update(s, a @ s)
    model = compile_compact(pairs).rescaled(1.0 / float(rng.uniform(0.2, 5.0)))
    grad_v = rng.standard_normal(n) * 10.0 ** float(rng.integers(-3, 3))
    v = rng.standard_normal(n) * (rng.random(n) < 0.7)
    return model, grad_v, v


needs_kernel = pytest.mark.skipif(_cdkernel.KERNEL is None,
                                  reason=_cdkernel.backend())
# n up to 60 and memory up to 10 give p up to 20: OpenBLAS ddot
# switches to its unrolled kernel at 16.
SIZES = dict(n=st.integers(1, 60), memory=st.integers(1, 10),
             n_pairs=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
             lam=st.sampled_from([0.0, 0.01, 0.3, 3.0]))


def _buildable() -> bool:
    """Whether load() gets as far as the compiler: cc, numpy's BLAS and
    numpy's float64 exp, log1p and add loops are all there."""
    return not (shutil.which("cc") is None
                or isinstance(_cdkernel._numpy_blas(), str)
                or isinstance(_cdkernel._numpy_loops(), str))


class TestBackends:
    def test_kernel_builds_where_cc_and_numpy_blas_exist(self):
        if not _buildable():
            pytest.skip(_cdkernel.backend())
        assert _cdkernel.KERNEL is not None, _cdkernel.FALLBACK
        assert _cdkernel.backend().startswith("c")

    def test_load_reports_missing_blas_symbol(self, monkeypatch):
        monkeypatch.setattr(_cdkernel, "DDOT", "no_such_ddot")
        kernel, reason = _cdkernel.load()
        assert kernel is None
        assert "no_such_ddot" in reason or "numpy's BLAS" in reason

    def test_load_reports_unbound_numpy_loops(self, monkeypatch):
        """A loop that does not give its ufunc's bytes is not bound, and
        the fallback reason names the loops."""
        sin = _cdkernel._float64_loop(np.sin)
        if isinstance(sin, str):
            pytest.skip(sin)
        monkeypatch.setattr(_cdkernel, "_float64_loop", lambda ufunc: sin)
        kernel, reason = _cdkernel.load()
        assert kernel is None
        assert reason == ("numpy's exp, log1p and add loops not bound: the "
                          "float64 loop of np.exp differs from the ufunc")
        monkeypatch.setattr(_cdkernel, "KERNEL", None)
        monkeypatch.setattr(_cdkernel, "FALLBACK", reason)
        assert _cdkernel.backend() == f"python ({reason})"

    def test_float64_loops_are_read_from_the_ufuncs(self):
        assert _cdkernel._float64_loop(np.isnan) == "np.isnan has no d->d loop"
        for ufunc in _cdkernel.UFUNCS:
            loop = _cdkernel._float64_loop(ufunc)
            if isinstance(loop, str):
                pytest.skip(loop)
            assert loop[0] and _cdkernel._same_bytes(ufunc, *loop)

    def test_load_reports_compile_error(self, monkeypatch, tmp_path):
        if not _buildable():
            pytest.skip(_cdkernel.backend())
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(_cdkernel, "SOURCE", str(bad))
        kernel, reason = _cdkernel.load()
        assert kernel is None and reason.startswith("cc failed")

    def test_load_retries_without_openmp(self, monkeypatch):
        if not _buildable():
            pytest.skip(_cdkernel.backend())
        monkeypatch.setattr(_cdkernel, "OPENMP", "-fno-such-option")
        kernel, reason = _cdkernel.load()
        assert reason == "" and kernel.threads == 0
        assert kernel.serial_reason.startswith("cc -fno-such-option failed")
        monkeypatch.setattr(_cdkernel, "KERNEL", kernel)
        assert _cdkernel.backend().startswith("c, serial (cc -fno-such-option")

    @pytest.mark.parametrize("flags", [[], [_cdkernel.OPENMP]],
                             ids=["serial", "openmp"])
    def test_kernel_compiles_without_warnings(self, flags, tmp_path):
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no C compiler (cc) on PATH")
        built = subprocess.run(
            [cc, *_cdkernel.CFLAGS, *flags, "-Wall", "-Wextra", "-Werror",
             _cdkernel.SOURCE, "-o", str(tmp_path / "kernel.so")],
            capture_output=True, text=True, timeout=120)
        assert built.returncode == 0, built.stderr

    @needs_kernel
    @settings(max_examples=150, deadline=None, database=None)
    @given(r=st.integers(0, 3000), **SIZES)
    @example(n=40, memory=10, n_pairs=12, seed=1, lam=0.01, r=3000)
    def test_kernel_matches_python_cd_minimize(self, n, memory, n_pairs, seed,
                                               lam, r):
        model, grad_v, v = random_instance(seed, n, memory, n_pairs)
        args = (cd_minimize, model, grad_v, v, lam, r, seed)
        assert outcome(*args) == on_python_loops(*args)

    @needs_kernel
    @settings(max_examples=100, deadline=None, database=None)
    @given(tol=st.sampled_from([1e-3, 1e-8, 1e-12]), **SIZES)
    @example(n=40, memory=10, n_pairs=12, seed=1, lam=0.01, tol=1e-12)
    @example(n=1, memory=3, n_pairs=3, seed=2, lam=0.01, tol=1e-12)
    def test_kernel_matches_python_exact_solve(self, n, memory, n_pairs, seed,
                                               lam, tol):
        model, grad_v, v = random_instance(seed, n, memory, n_pairs)
        args = (exact_solve_oracle, model, grad_v, v, lam, tol, 20_000)
        assert outcome(*args) == on_python_loops(*args)

    def test_nonpositive_diagonal_raises(self, cd_backend):
        model = HessianModel(1.0, 3, np.array([[0.0], [2.0], [0.0]]),
                             np.array([[-0.5]]))  # diag (1, -1, 1)
        ones = np.ones(3)
        with pytest.raises(ValueError, match="diagonal at coordinate 1"):
            cd_minimize(model, ones, ones, 0.1, 50, seed=0)
        with pytest.raises(ValueError, match="diagonal at coordinate 1"):
            exact_solve_oracle(model, ones, ones, 0.1, 1e-8)

    def test_returned_iterate_outlives_the_next_solve(self, cd_backend):
        model, grad_v, v = random_instance(3, 12, 5, 8)
        first, _ = cd_minimize(model, grad_v, v, 0.1, 200, seed=1)
        kept = first.tobytes()
        second, _ = cd_minimize(model, -grad_v, v, 0.1, 200, seed=2)
        assert first.tobytes() == kept
        assert second.tobytes() != kept

    def test_exact_solve_returns_the_final_iterate(self, cd_backend):
        model, grad_v, v = random_instance(5, 15, 5, 8)
        u, steps = exact_solve_oracle(model, grad_v, v, 0.1, 1e-8)
        assert steps > 0 and not np.array_equal(u, v)
        smooth = grad_v + model.apply(u - v)
        assert np.abs(min_norm_subgradient(smooth, u, 0.1)).max() <= 1e-8

    def test_step_cap_raises(self, cd_backend):
        model = compact_model(24)
        rng = np.random.default_rng(24)
        with pytest.raises(RuntimeError, match="exceeded 40 coordinate steps"):
            exact_solve_oracle(model, rng.standard_normal(20),
                               rng.standard_normal(20), 0.1, 1e-30,
                               max_steps=40)


class TestWorkspaceInput:
    @pytest.mark.parametrize("grad_v, v", [
        (np.zeros(4), np.zeros(3)),
        (np.zeros(3), np.zeros(4)),
        (np.zeros((3, 1)), np.zeros(3)),
        (np.zeros(3), np.zeros((1, 3))),
        (np.zeros(2), np.zeros(2)),
    ])
    def test_shape_must_be_model_n(self, grad_v, v):
        model = HessianModel(1.0, 3)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            CdWorkspace(model, grad_v, v, 0.1)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            cd_minimize(model, grad_v, v, 0.1, 10)

    def test_stores_contiguous_float64_copies(self):
        model = compact_model(3, n=4)
        grad_v = np.arange(8)[::2]          # int, strided
        v = np.asfortranarray(np.ones(4))
        ws = CdWorkspace(model, grad_v, v, 0.1)
        for name in CdWorkspace.LAYOUT:
            arr = getattr(ws, name)
            assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
            assert np.shares_memory(arr, ws.block), name
        assert ws.qcache.shape == (model.p,) and not ws.qcache.any()
        assert not np.shares_memory(ws.grad_v, grad_v)
        assert not np.shares_memory(ws.v, v)
        np.testing.assert_array_equal(ws.grad_v, [0.0, 2.0, 4.0, 6.0])

    @pytest.mark.parametrize("model", [compact_model(3, n=5),
                                       HessianModel(1.0, 3, scale=2.0)])
    def test_kernel_addresses_are_the_arrays(self, model):
        ws = CdWorkspace(model, np.ones(model.n), np.zeros(model.n), 0.1)
        names = ("q", "qw_scaled", "diag", "grad_v", "u", "d", "qcache")
        assert ws.addresses() == tuple(getattr(ws, name).ctypes.data
                                       for name in names)

    @pytest.mark.parametrize("model", [
        HessianModel(1.0, 5, scale=2.5),                     # p = 0
        compact_model(3, n=20, n_pairs=4),                   # p < n
        compact_model(4, n=5, n_pairs=6),                    # p >= n
        compact_model(5, n=20, n_pairs=4).shifted(0.3),
        compact_model(6, n=5, n_pairs=6).rescaled(1.0 / 1.7),
        compact_model(7, n=20, n_pairs=4).shifted(0.3).rescaled(4.0),
    ], ids=["p0", "p_below_n", "p_at_least_n", "shifted", "rescaled",
            "shifted_rescaled"])
    def test_block_holds_the_scaled_model(self, model):
        ws = CdWorkspace(model, np.ones(model.n), np.zeros(model.n), 0.1)
        assert ws.diag.tobytes() == (
            model.scale * (model.delta + model.low_rank_diag)).tobytes()
        assert ws.qw_scaled.tobytes() == (model.scale * model.qw).tobytes()
        assert ws.q.tobytes() == model.q.tobytes()
        assert ws.eff_delta == model.scale * model.delta
