import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import proxqn.problem
from proxqn import ALGORITHMS, OptimizerConfig, _cdkernel
from proxqn._oracles import (
    directional_derivative,
    prox_scalar_reference,
)
from proxqn.dataset import Dataset, synthesize_quadratic
from proxqn.problem import (
    Memo,
    coefficients,
    exp_neg_abs,
    l1_value,
    logistic_gradient,
    logistic_problem,
    logistic_value,
    logistic_value_and_gradient,
    min_norm_subgradient,
    prox_l1_scaled_identity,
    margins_reference,
    quadratic_problem,
    softplus,
)

from conftest import make_dataset

LOG2 = 0.6931471805599453
# log(1 + e^-1) and log(1 + e^1), evaluated at 30 decimal digits
LOG1P_EXP_NEG1 = 0.31326168751822286
LOG1P_EXP_POS1 = 1.3132616875182228


class TestLogisticValue:
    def test_zero_weights_give_log_two(self):
        ds = make_dataset([[(0, 0.5)], [(1, 2.0)], [(0, -1.0), (1, 3.0)]],
                          [1, -1, 1])
        assert logistic_value(ds, np.zeros(2)) == pytest.approx(LOG2, abs=1e-15)

    def test_single_point_positive_label(self):
        ds = make_dataset([[(0, 1.0)]], [1])
        assert logistic_value(ds, np.array([1.0])) == pytest.approx(
            LOG1P_EXP_NEG1, abs=1e-15)

    def test_single_point_negative_label(self):
        ds = make_dataset([[(0, 1.0)]], [-1])
        assert logistic_value(ds, np.array([1.0])) == pytest.approx(
            LOG1P_EXP_POS1, abs=1e-15)

    def test_stable_for_huge_margins(self):
        ds = make_dataset([[(0, 1.0)]], [-1])
        with np.errstate(over="raise", invalid="raise"):
            val = logistic_value(ds, np.array([5000.0]))
        assert val == pytest.approx(5000.0)

    def test_dimension_mismatch(self):
        ds = make_dataset([[(0, 1.0)]], [1])
        with pytest.raises(ValueError):
            logistic_value(ds, np.zeros(3))


class TestLogisticGradient:
    def test_single_point_at_zero(self):
        ds = make_dataset([[(0, 1.0)]], [1])
        assert logistic_gradient(ds, np.zeros(1)) == pytest.approx([-0.5])

    def test_balanced_labels_cancel(self):
        ds = make_dataset([[(0, 1.0)], [(0, 1.0)]], [1, -1])
        np.testing.assert_allclose(logistic_gradient(ds, np.zeros(1)), [0.0])

    def test_scaled_negative_point(self):
        # -(1/1) * (-1) * sigmoid(0) * 2 = +1
        ds = make_dataset([[(0, 2.0)]], [-1])
        assert logistic_gradient(ds, np.zeros(1)) == pytest.approx([1.0])

    def test_matches_central_differences(self, small_logistic):
        rng = np.random.default_rng(0)
        prob = small_logistic
        worst = 0.0
        for _ in range(5):
            w = rng.standard_normal(prob.n)
            grad = prob.f_grad(w)
            for _ in range(20):
                d = rng.standard_normal(prob.n)
                d /= np.linalg.norm(d)
                fd = directional_derivative(prob.f_value, w, d, h=1e-6)
                worst = max(worst, abs(fd - grad @ d) / max(1.0, abs(fd)))
        assert worst <= 1e-6

    def test_value_and_gradient_consistent(self, small_logistic):
        w = np.linspace(-1, 1, small_logistic.n)
        val, grad = small_logistic.value_and_grad(w)
        assert val == pytest.approx(small_logistic.f_value(w), rel=1e-15)
        np.testing.assert_allclose(grad, small_logistic.f_grad(w), rtol=1e-15)


class TestL1AndProx:
    def test_l1_values(self):
        assert l1_value(np.zeros(3), 1.0) == 0.0
        assert l1_value(np.array([1.0, -2.0]), 0.5) == pytest.approx(1.5)
        assert l1_value(np.array([4.0, -7.0]), 0.0) == 0.0

    def test_soft_threshold_cases(self):
        np.testing.assert_array_equal(
            prox_l1_scaled_identity(np.array([0.0, 3.0, -0.4, -3.0]), 1.0, 1.0),
            [0.0, 2.0, 0.0, -2.0])

    def test_soft_threshold_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            prox_l1_scaled_identity(np.array([1.0]), 1.0, -0.1)

    def test_soft_threshold_matches_golden_section(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            v = float(rng.standard_normal() * 3)
            tau = float(abs(rng.standard_normal()))
            closed = float(prox_l1_scaled_identity(np.array([v]), 1.0, tau)[0])
            worst = max(worst, abs(closed - prox_scalar_reference(v, tau)))
        assert worst <= 1e-8

    def test_prox_identity_when_lambda_zero(self):
        v = np.array([0.3, -2.0, 5.0])
        np.testing.assert_array_equal(prox_l1_scaled_identity(v, 2.0, 0.0), v)

    def test_prox_shrinks_componentwise(self):
        np.testing.assert_allclose(
            prox_l1_scaled_identity(np.array([2.0, -2.0]), 1.0, 1.0),
            [1.0, -1.0])

    def test_prox_dead_zone_via_golden_section(self):
        got = prox_l1_scaled_identity(np.array([0.3]), 2.0, 0.5)[0]
        # reference minimizes 0.5(u-v)^2 + (mu*lam)|u| directly
        ref = prox_scalar_reference(0.3, 2.0 * 0.5)
        assert got == pytest.approx(ref, abs=1e-8)
        assert got == 0.0

    def test_prox_requires_positive_mu(self):
        with pytest.raises(ValueError):
            prox_l1_scaled_identity(np.ones(2), 0.0, 1.0)

    def test_prox_perturbation_never_improves(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = 6
            v = rng.standard_normal(n) * 2
            mu = float(abs(rng.standard_normal()) + 0.1)
            lam = float(abs(rng.standard_normal()))
            u = prox_l1_scaled_identity(v, mu, lam)

            def objective(w):
                return l1_value(w, lam) + float((w - v) @ (w - v)) / (2 * mu)

            base = objective(u)
            for j in range(n):
                for eps in (1e-4, -1e-4):
                    w = u.copy()
                    w[j] += eps
                    assert objective(w) >= base - 1e-15


class TestMinNormSubgradient:
    def test_inside_dead_zone(self):
        out = min_norm_subgradient(np.array([0.3]), np.array([0.0]), 1.0)
        assert out[0] == 0.0

    def test_outside_dead_zone_matches_grid_search(self):
        # minimize |grad + lam*s| over s in [-1, 1]
        grad, lam = 1.5, 1.0
        grid = np.linspace(-1.0, 1.0, 200001)
        ref = float(np.min(np.abs(grad + lam * grid)))
        out = min_norm_subgradient(np.array([grad]), np.array([0.0]), lam)
        assert abs(out[0]) == pytest.approx(ref, abs=1e-5)
        assert out[0] == pytest.approx(0.5)

    def test_unique_subgradient_off_zero(self):
        out = min_norm_subgradient(np.array([0.3]), np.array([2.0]), 1.0)
        assert out[0] == pytest.approx(1.3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            min_norm_subgradient(np.zeros(2), np.zeros(3), 1.0)

    def test_zero_iff_prox_fixed_point(self, small_quadratic):
        prob = small_quadratic
        mu = 1.0
        # polish to high accuracy with a fixed-step proximal gradient
        x = np.zeros(prob.n)
        step = 1.0 / prob.lipschitz
        for _ in range(5000):
            x = prox_l1_scaled_identity(x - step * prob.f_grad(x), step, prob.lam)
        grad = prob.f_grad(x)
        norm = np.max(np.abs(min_norm_subgradient(grad, x, prob.lam)))
        resid = np.linalg.norm(
            x - prox_l1_scaled_identity(x - mu * grad, mu, prob.lam))
        assert norm <= 1e-9 and resid <= 1e-10

        x_bad = x + 0.01
        grad_bad = prob.f_grad(x_bad)
        norm_bad = np.max(np.abs(min_norm_subgradient(grad_bad, x_bad, prob.lam)))
        resid_bad = np.linalg.norm(
            x_bad - prox_l1_scaled_identity(x_bad - mu * grad_bad, mu, prob.lam))
        assert norm_bad > 1e-10 and resid_bad > 1e-10


class TestConvexity:
    def test_midpoint_inequality(self, small_logistic, small_quadratic):
        rng = np.random.default_rng(3)
        for prob in (small_logistic, small_quadratic):
            for _ in range(20):
                x = rng.standard_normal(prob.n)
                y = rng.standard_normal(prob.n)
                mid = prob.f_value(0.5 * x + 0.5 * y)
                assert mid <= 0.5 * prob.f_value(x) + 0.5 * prob.f_value(y) + 1e-12

    def test_gradient_monotonicity(self, small_quadratic):
        rng = np.random.default_rng(4)
        prob = small_quadratic
        for _ in range(10):
            x = rng.standard_normal(prob.n)
            y = rng.standard_normal(prob.n)
            gap = (prob.f_grad(x) - prob.f_grad(y)) @ (x - y)
            assert gap >= prob.gamma * np.linalg.norm(x - y) ** 2 - 1e-10


def _random_problem(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        return quadratic_problem(synthesize_quadratic(n, 0.1, 10.0, seed), 0.01)
    m = int(rng.integers(1, 30))
    mat = sp.random(m, n, density=0.5, format="csr", random_state=seed)
    mat.data = rng.standard_normal(mat.nnz)
    labels = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
    return logistic_problem(Dataset(mat, labels), 0.01)


@st.composite
def problem_and_point(draw):
    """A small logistic or quadratic problem and a point as a float or
    int array or a list."""
    kind = draw(st.sampled_from(["logistic", "quadratic"]))
    n = draw(st.integers(1 if kind == "logistic" else 2, 12))
    prob = _random_problem(kind, n, draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["float", "int", "list"]))
    if form == "int":
        w = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    else:
        w = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
        w = w if form == "list" else np.array(w)
    return prob, w


def _bytes(a):
    return np.asarray(a).tobytes()


class TestOracleMemo:
    """f_grad(w, memo) after f_value(w, memo) reuses the margins (logistic)
    or Aw (quadratic) that f_value formed; the gradient's bits must not
    depend on whether it did."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(problem_and_point())
    def test_grad_after_value_matches_direct(self, case):
        prob, w = case
        memo = Memo()
        prob.f_value(w, memo)
        assert memo.key == _bytes(np.asarray(w, dtype=np.float64))
        assert _bytes(prob.f_grad(w, memo)) == _bytes(prob.f_grad(w))

    @settings(max_examples=100, deadline=None, database=None)
    @given(problem_and_point())
    def test_memo_misses_for_other_points(self, case):
        prob, w = case
        w = np.array(w, dtype=np.float64)
        assert _bytes(prob.f_grad(w, Memo())) == _bytes(prob.f_grad(w))

        memo = Memo()
        prob.f_value(w, memo)
        other = w + 1.0
        assert _bytes(prob.f_grad(other, memo)) == _bytes(prob.f_grad(other))

        memo = Memo()
        prob.f_value(w, memo)
        w += 1.0
        assert _bytes(prob.f_grad(w, memo)) == _bytes(prob.f_grad(w.copy()))

    def test_one_exp_per_point(self, small_logistic):
        """f_grad after f_value at the same w, and value_and_grad, make one
        forward pass, the one that takes exp(-|z|): the gradient's
        coefficients reuse the loss's.  The Python forward pass takes it
        in exp_neg_abs; the kernel's in numpy's exp loop."""
        w = np.linspace(-1.0, 1.0, small_logistic.n)
        for backend in ("active", "python"):
            calls = {"forward": 0, "exp": 0}
            with pytest.MonkeyPatch.context() as mp:
                if backend == "python":
                    mp.setattr(_cdkernel, "KERNEL", None)
                mp.setattr(proxqn.problem, "_forward",
                           _counted(calls, "forward", proxqn.problem._forward))
                mp.setattr(proxqn.problem, "exp_neg_abs",
                           _counted(calls, "exp", proxqn.problem.exp_neg_abs))
                memo = Memo()
                small_logistic.f_value(w, memo)
                small_logistic.f_grad(w, memo)
                assert calls["forward"] == 1, backend
                small_logistic.value_and_grad(w)
                assert calls["forward"] == 2, backend
            python = backend == "python" or _cdkernel.KERNEL is None
            assert calls["exp"] == (2 if python else 0), backend

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_one_forward_pass_per_value_evaluation(self, algorithm,
                                                   small_logistic):
        for backend in ("active", "python"):
            calls = dict.fromkeys(("f_value", "f_grad", "value_and_grad",
                                   "forward"), 0)
            with pytest.MonkeyPatch.context() as mp:
                if backend == "python":
                    mp.setattr(_cdkernel, "KERNEL", None)
                mp.setattr(proxqn.problem, "_forward",
                           _counted(calls, "forward", proxqn.problem._forward))
                prob = replace(small_logistic, **{
                    name: _counted(calls, name, getattr(small_logistic, name))
                    for name in ("f_value", "f_grad", "value_and_grad")})
                trace = ALGORITHMS[algorithm](
                    prob, OptimizerConfig(tol=1e-6, max_iters=300,
                                          warmup=3))
            assert trace.iterations > 3
            assert calls["f_grad"] == trace.iterations, backend
            assert (calls["forward"]
                    == calls["f_value"] + calls["value_and_grad"]), backend


def _counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _logistic_dataset(rng, m, n, density):
    """Labels in {-1, +1} and CSR values of random signs and magnitudes
    from 1e-3 to 1e2, so some rows and columns may be empty."""
    values = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 3, (m, n))
    mat = sp.csr_matrix(np.where(rng.random((m, n)) < density, values, 0.0))
    return Dataset(mat, np.where(rng.random(m) < 0.5, 1.0, -1.0))


def _binary_dataset(rng, m, n, density):
    """Labels in {-1, +1} and a CSR matrix that stores only 1.0, with an
    empty first row, an empty last feature, and features 1 and 2 of the
    same pattern, so of tied lengths."""
    pattern = rng.random((m, n)) < density
    pattern[0] = False
    pattern[:, -1] = False
    if n >= 3:
        pattern[:, 2] = pattern[:, 1]
    ds = Dataset(sp.csr_matrix(pattern.astype(np.float64)),
                 np.where(rng.random(m) < 0.5, 1.0, -1.0))
    assert ds.binary
    return ds


def _logistic_point(rng, ds, scale):
    """A random w; scale "800" sets the largest margin to +-800, where
    exp(-z) and exp(z) overflow."""
    w = rng.standard_normal(ds.n_features)
    if scale != "800":
        return w * scale
    top = np.max(np.abs(ds.matrix @ w), initial=0.0)
    return w * (800.0 / top) if top > 0 else w


def forward_bytes(ds, w):
    """Bytes of the forward pass's margins, exp(-|z|) and loss terms,
    and of f_value, at w."""
    z, e, t = proxqn.problem._forward(ds, w)
    return _bytes(z), _bytes(e), _bytes(t), logistic_value(ds, w).hex()


def logistic_oracle_bytes(ds, w):
    """Bytes of the forward pass, of f_value, of f_grad with and without
    the memo f_value filled, and of value_and_grad at w.  Tests assert
    a comparison of two of these as a bool computed first: pytest's diff
    of two unequal tuples of this size runs for minutes."""
    memo = Memo()
    value = logistic_value(ds, w, memo)
    with_memo = logistic_gradient(ds, w, memo)
    pair = logistic_value_and_gradient(ds, w)
    return (*forward_bytes(ds, w), value.hex(), _bytes(with_memo),
            _bytes(logistic_gradient(ds, w)), pair[0].hex(), _bytes(pair[1]))


def _margin_dataset(z, binary):
    """A Dataset and a w at which its margins -y * (Xw) are z: the
    identity, times 2 when not binary, with alternating labels."""
    labels = np.where(np.arange(z.size) % 2, 1.0, -1.0)
    scale = 1.0 if binary else 2.0
    ds = Dataset(sp.identity(z.size, format="csr") * scale, labels)
    assert ds.binary == binary
    return ds, -labels * z / scale


def _special_margins(rng, m):
    """m margins in [-40, 40], of which about a third are replaced by
    the saturated +-700 to +-760 and +-7000 (where exp(-|z|) is
    subnormal or 0.0), infinities and zeros; and NaNs of alternating
    signs in the eight rows on each side of every multiple of BLOCK and
    in the last nine rows.  There numpy's loops change from their
    vectors to their last few elements, and its add returns the other
    operand's NaN where both are NaN (the loss term's log1p(e) is a NaN
    of the opposite sign to a positive NaN z)."""
    special = np.concatenate([np.linspace(-760.0, -700.0, 61),
                              np.linspace(700.0, 760.0, 61),
                              [-7000.0, 7000.0, np.nan, -np.nan, np.inf,
                               -np.inf, 0.0, -0.0]])
    z = rng.uniform(-40.0, 40.0, m)
    pick = rng.random(m) < 0.3
    z[pick] = rng.choice(special, int(pick.sum()))
    row = np.arange(m)
    edge = (row % BLOCK < 8) | (row % BLOCK >= BLOCK - 8) | (row >= m - 9)
    z[edge] = np.where(row[edge] % 2, np.nan, -np.nan)
    return z


def on_python_code(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_cdkernel, "KERNEL", None)
        return fn(*args)


needs_kernel = pytest.mark.skipif(_cdkernel.KERNEL is None,
                                  reason=_cdkernel.backend())
# Past the kernel's PARALLEL_NNZ, so its passes split over threads.
LARGE = dict(m=3000, n=40, density=0.4)
# Rows per block of the kernel's forward pass (BLOCK in _cdkernel.c).
BLOCK = 1024
# Row counts at the edges of the forward pass's groups of four rows and
# of its blocks, whose last one takes the rows past the last full block.
EDGES = [1, 3, 4, 5, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
         2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 7]


class TestCompiledLogisticOracle:
    """The kernel's forward pass (margins, exp(-|z|) and loss terms),
    coefficients and transpose pass give the bytes of the numpy/scipy
    code, on any thread count."""

    @needs_kernel
    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 12),
           density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           scale=st.sampled_from([1e-3, 1.0, 10.0, "800"]),
           seed=st.integers(0, 2**32 - 1), binary=st.booleans())
    def test_small_datasets_match_python(self, m, n, density, scale, seed,
                                         binary):
        rng = np.random.default_rng(seed)
        make = _binary_dataset if binary else _logistic_dataset
        ds = make(rng, m, n, density)
        w = _logistic_point(rng, ds, scale)
        same = (logistic_oracle_bytes(ds, w)
                == on_python_code(logistic_oracle_bytes, ds, w))
        assert same

    @needs_kernel
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 10.0, "800"])
    def test_threaded_passes_match_python(self, scale):
        rng = np.random.default_rng(11)
        ds = _logistic_dataset(rng, **LARGE)
        assert ds.nnz >= _cdkernel.KERNEL.parallel_nnz
        w = _logistic_point(rng, ds, scale)
        same = (logistic_oracle_bytes(ds, w)
                == on_python_code(logistic_oracle_bytes, ds, w))
        assert same

    @needs_kernel
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 10.0, "800"])
    def test_threaded_binary_passes_match_python(self, scale):
        rng = np.random.default_rng(16)
        ds = _binary_dataset(rng, **LARGE)
        assert ds.nnz >= _cdkernel.KERNEL.parallel_nnz
        w = _logistic_point(rng, ds, scale)
        same = (logistic_oracle_bytes(ds, w)
                == on_python_code(logistic_oracle_bytes, ds, w))
        assert same

    @needs_kernel
    @pytest.mark.parametrize("binary", [True, False])
    def test_saturated_coefficients_match_python(self, binary):
        """Margins on both sides of where exp(-z) overflows to inf and
        underflows to 0.0, out to the +-7000 of wild trial points."""
        z = np.concatenate([np.linspace(-760.0, -700.0, 241),
                            np.linspace(700.0, 760.0, 241),
                            [-710.0, 746.0, np.nextafter(-710.0, 0.0),
                             np.nextafter(746.0, 0.0), -7000.0, 7000.0]])
        ds, w = _margin_dataset(z, binary)
        assert _bytes(proxqn.problem._forward(ds, w)[0]) == _bytes(z)
        assert logistic_value(ds, w) == on_python_code(logistic_value, ds, w)
        same = (logistic_oracle_bytes(ds, w)
                == on_python_code(logistic_oracle_bytes, ds, w))
        assert same

    @needs_kernel
    @pytest.mark.parametrize("m", EDGES)
    @pytest.mark.parametrize("binary", [True, False])
    def test_forward_matches_python_at_block_edges(self, m, binary):
        ds, w = _margin_dataset(_special_margins(np.random.default_rng(m), m),
                                binary)
        same = forward_bytes(ds, w) == on_python_code(forward_bytes, ds, w)
        assert same

    @needs_kernel
    @pytest.mark.parametrize("binary", [True, False])
    def test_threaded_forward_matches_python(self, binary):
        """Forty blocks and one row, past PARALLEL_NNZ, so that the
        blocks split over threads and the last one holds BLOCK + 1 rows."""
        m = 40 * BLOCK + 1
        ds, w = _margin_dataset(_special_margins(np.random.default_rng(17), m),
                                binary)
        assert ds.nnz >= _cdkernel.KERNEL.parallel_nnz
        same = forward_bytes(ds, w) == on_python_code(forward_bytes, ds, w)
        assert same

    @needs_kernel
    def test_one_thread_gives_the_same_bytes(self):
        script = (
            "import numpy as np, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "from test_problem import BLOCK, LARGE, _logistic_dataset, "
            "_logistic_point, _margin_dataset, _special_margins, "
            "forward_bytes, logistic_oracle_bytes\n"
            "from proxqn import _cdkernel\n"
            "rng = np.random.default_rng(12)\n"
            "ds = _logistic_dataset(rng, **LARGE)\n"
            "w = _logistic_point(rng, ds, 10.0)\n"
            "print(_cdkernel.KERNEL.threads)\n"
            "print(repr(logistic_oracle_bytes(ds, w)))\n"
            "z = _special_margins(np.random.default_rng(18), 40 * BLOCK + 1)\n"
            "print(repr(forward_bytes(*_margin_dataset(z, True))))\n"
        )
        src = os.path.dirname(os.path.dirname(proxqn.problem.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script, src, tests],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300).stdout.splitlines()
        assert out[0] == "1"
        rng = np.random.default_rng(12)
        ds = _logistic_dataset(rng, **LARGE)
        w = _logistic_point(rng, ds, 10.0)
        same = out[1] == repr(on_python_code(logistic_oracle_bytes, ds, w))
        assert same
        z = _special_margins(np.random.default_rng(18), 40 * BLOCK + 1)
        same = out[2] == repr(on_python_code(forward_bytes,
                                             *_margin_dataset(z, True)))
        assert same

    @needs_kernel
    def test_forked_child_runs_serially_with_the_same_bytes(self):
        """A child made by fork has none of libgomp's threads; without
        the kernel's fork handler its first parallel pass never ends."""
        rng = np.random.default_rng(15)
        ds = _logistic_dataset(rng, **LARGE)
        w = _logistic_point(rng, ds, 1.0)
        want = logistic_oracle_bytes(ds, w)  # starts the thread team
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)  # a hung child ends itself
            ok = (_cdkernel.KERNEL.threads == 1
                  and logistic_oracle_bytes(ds, w) == want)
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_64_bit_indices_take_the_scipy_code(self):
        rng = np.random.default_rng(13)
        ds = _logistic_dataset(rng, 30, 8, 0.5)
        wide = ds.matrix.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        ds64 = Dataset(wide, ds.labels)
        assert not _cdkernel.Kernel.takes(ds64.matrix)
        w = _logistic_point(rng, ds, 1.0)
        same = logistic_oracle_bytes(ds64, w) == logistic_oracle_bytes(ds, w)
        assert same

    def test_transpose_is_a_lazy_csr_copy(self):
        ds = _logistic_dataset(np.random.default_rng(14), 20, 6, 0.5)
        assert ds._XT is None
        xt = ds.matrix_t
        assert sp.issparse(xt) and xt.format == "csr" and xt.has_sorted_indices
        assert not np.shares_memory(xt.data, ds.matrix.data)
        assert ds.matrix_t is xt
        np.testing.assert_array_equal(xt.toarray(), ds.matrix.toarray().T)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(-1e4, 1e4),
                          st.sampled_from([np.inf, -np.inf, 0.0, -0.0])),
                max_size=100))
def test_softplus_is_the_plain_expression_byte_for_byte(values):
    z = np.array(values, dtype=np.float64)
    plain = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    assert _bytes(softplus(z, exp_neg_abs(z))) == _bytes(plain)


# The largest distance, in units in the last place, between a coefficient
# formed from e = exp(-|z|) and -y * expit(z), where the latter is a normal
# number; 3 was the largest seen over 2e6 margins in [-800, 800].
COEFF_ULPS = 4
TINY = np.finfo(np.float64).tiny


def _ulps(a, b):
    """Units in the last place between float64 arrays of equal signs."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _assert_close_to_expit_based(got, want):
    """Within COEFF_ULPS where ``want`` is normal; both below the
    smallest normal number elsewhere (1/(1 + exp(-z)) returns 0.0 once
    exp(-z) overflows, near z = -709.8, where e/(1 + e) keeps e); NaN
    exactly where ``want`` is NaN."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got, want = got[~nan], want[~nan]
    normal = np.abs(want) >= TINY
    assert np.all(np.sign(got[normal]) == np.sign(want[normal]))
    assert _ulps(got[normal], want[normal]).max() <= COEFF_ULPS
    assert np.all(np.abs(got[~normal]) < TINY)


class TestCoefficients:
    """The gradient's coefficients from the loss's exp(-|z|) against
    scipy's expit, whose 1/(1 + exp(-z)) the kernel used to repeat."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]

    def test_coefficients_match_expit_within_ulps(self):
        rng = np.random.default_rng(21)
        z = np.concatenate([np.linspace(-800.0, 800.0, 400001),
                            rng.uniform(-800.0, 800.0, 100000),
                            rng.uniform(-40.0, 40.0, 100000), self.SPECIAL])
        labels = np.where(rng.random(z.size) < 0.5, 1.0, -1.0)
        got = coefficients(labels, z, exp_neg_abs(z))
        _assert_close_to_expit_based(got, -labels * expit(z))
        signed = -labels[-5:-1] * np.array([0.5, 0.5, 1.0, 0.0])
        assert _bytes(got[-5:-1]) == _bytes(signed) and np.isnan(got[-1])

    @pytest.mark.parametrize("backend", ["active", "python"])
    @pytest.mark.parametrize("binary", [True, False])
    def test_gradient_matches_expit_within_ulps(self, binary, backend,
                                                 monkeypatch):
        """Margins across [-800, 800] and the special values, on an
        identity of 2**16 points: division by m is exact and the passes
        are long enough to split over threads."""
        if backend == "python":
            monkeypatch.setattr(_cdkernel, "KERNEL", None)
        m = 2**16
        z = np.concatenate([np.linspace(-800.0, 800.0, m - 5), self.SPECIAL])
        labels = np.where(np.arange(m) % 3 == 0, 1.0, -1.0)
        scale = 1.0 if binary else 2.0
        ds = Dataset(sp.identity(m, format="csr") * scale, labels)
        assert ds.binary == binary
        w = -labels * z / scale
        z = margins_reference(ds, w)
        want = (ds.matrix_t @ (-labels * expit(z))) / m
        _assert_close_to_expit_based(logistic_gradient(ds, w), want)


class TestQuadraticInput:
    """All three quadratic oracles convert w to float64 and check its shape."""

    def test_value_and_grad_accepts_a_list(self):
        prob = quadratic_problem(synthesize_quadratic(3, 0.1, 10.0, 0), 0.1)
        value, grad = prob.value_and_grad([1, 2, 3])
        ref_value, ref_grad = prob.value_and_grad(np.array([1.0, 2.0, 3.0]))
        assert value == ref_value and _bytes(grad) == _bytes(ref_grad)
        assert value == prob.f_value([1, 2, 3])
        assert _bytes(grad) == _bytes(prob.f_grad([1, 2, 3]))

    @pytest.mark.parametrize("oracle", ["f_value", "f_grad", "value_and_grad"])
    @pytest.mark.parametrize("w", [np.zeros(4), np.zeros(2), np.zeros((3, 1))])
    def test_wrong_shape_is_named(self, oracle, w):
        prob = quadratic_problem(synthesize_quadratic(3, 0.1, 10.0, 0), 0.1)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            getattr(prob, oracle)(w)


@pytest.mark.parametrize("lam", [-1.0, np.inf, -np.inf, np.nan])
def test_lam_must_be_finite_and_nonnegative(lam):
    quad = synthesize_quadratic(3, 0.1, 10.0, 0)
    with pytest.raises(ValueError, match="lam must be finite"):
        quadratic_problem(quad, lam)
    data = make_dataset([[(0, 1.0)], [(1, 2.0)]], [1.0, -1.0])
    with pytest.raises(ValueError, match="lam must be finite"):
        logistic_problem(data, lam)


def test_lipschitz_is_the_same_bits_on_every_build():
    ds = _logistic_dataset(np.random.default_rng(21), 300, 40, 0.3)
    bounds = {logistic_problem(ds, 1e-3).lipschitz.hex() for _ in range(12)}
    assert len(bounds) == 1, bounds
