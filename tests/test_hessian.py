import copy
import itertools
import pickle
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxqn import _cdkernel, hessian
from proxqn._oracles import dense_bfgs_matrix
from proxqn.dataset import synthesize_quadratic
from proxqn.hessian import (
    CorrectionPairs,
    HessianModel,
    SingularCompactForm,
    compile_compact,
    enforce_domination,
    extreme_eigenvalues,
    model_value,
)
from proxqn.optimizers import CONVERGED, MAX_ITER, OptimizerConfig, run_apqna
from proxqn.problem import quadratic_problem
from proxqn.subsolver import CdWorkspace

from conftest import on_backend


def admissible_pairs(rng, n, count, memory=10, scale=0.3):
    """Pairs sampled from a random SPD quadratic so s'y > 0 always."""
    quad = synthesize_quadratic(n, 0.5, 5.0, int(rng.integers(2**31)))
    pairs = CorrectionPairs(n, memory=memory)
    for _ in range(count):
        s = rng.standard_normal(n) * scale
        pairs.update(s, quad.matvec(s))
    return pairs


BACKENDS = ["c", "python"]
# Powers of two by which the compiled-build streams scale y: each scales
# the middle matrix exactly, down to near underflow and up to near
# overflow of its squared norm.
SCALE_POWERS = (-500, -480, -300, 0, 300, 480, 500)


def cd_diag(model):
    """The model diagonal that the coordinate-descent step divides by."""
    return CdWorkspace(model, np.zeros(model.n), np.zeros(model.n), 0.0).diag


class TestCorrectionPairs:
    def test_accepts_valid_pair(self):
        pairs = CorrectionPairs(3, memory=2)
        assert pairs.update(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
        assert len(pairs) == 1

    def test_rejects_zero_curvature(self):
        pairs = CorrectionPairs(2, memory=2)
        assert not pairs.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert len(pairs) == 0

    @pytest.mark.parametrize("y", [[1.0, np.inf, 0.0], [1.0, np.nan, 0.0],
                                   [-np.inf, np.inf, 0.0]])
    def test_rejects_a_nan_curvature(self, y):
        """s'y = nan (0 * inf, or inf - inf) refuses the pair and leaves
        the buffer as it was."""
        pairs = CorrectionPairs(3, memory=2)
        pairs.update(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
        before = [m.tobytes() for m in pairs.pairs()]
        with np.errstate(invalid="ignore"):
            assert not pairs.update(np.array([1.0, 0, 0]), np.array(y))
        assert len(pairs) == 1
        assert [m.tobytes() for m in pairs.pairs()] == before

    def test_ring_eviction(self):
        pairs = CorrectionPairs(2, memory=2)
        for c in (1.0, 2.0, 3.0):
            pairs.update(np.array([c, 0.0]), np.array([c, 0.0]))
        assert len(pairs) == 2
        s_mat, _ = pairs.pairs()
        np.testing.assert_allclose(s_mat[0], [2.0, 3.0])

    def test_dimension_mismatch(self):
        pairs = CorrectionPairs(3)
        with pytest.raises(ValueError):
            pairs.update(np.ones(2), np.ones(2))

    @settings(max_examples=100, deadline=None, database=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           ulps=st.integers(-3, 3), length=st.integers(1, 16))
    def test_curvature_test_matches_linalg_norm(self, n, seed, ulps, length):
        """The curvature test takes the decisions, and keeps the rows, of
        the list buffer's np.linalg.norm form.  curvature_eps sits within
        three ulps of the cosine of a first pair, and the stream repeats
        that pair rescaled and perturbed in its last bits, so most
        decisions rest on the last bits of the norms; zero, infinite
        and NaN pairs come in between."""
        rng = np.random.default_rng(seed)
        s0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        y0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        if s0 @ y0 < 0:
            y0 = -y0
        eps = float(s0 @ y0) / (np.linalg.norm(s0) * np.linalg.norm(y0))
        eps = float(eps + ulps * np.spacing(eps))
        ring, ref = CorrectionPairs(n, 3, eps), ListPairs(n, 3, eps)
        specials = [np.zeros(n), np.full(n, np.inf), np.full(n, np.nan)]
        for kind in rng.integers(0, 8, size=length):
            if kind < 3:
                s, y = specials[kind], y0
            else:
                wobble = 1.0 + 1e-15 * rng.standard_normal(n)
                s = s0 * wobble * 10.0 ** rng.uniform(-3, 3)
                y = y0 * 10.0 ** rng.uniform(-3, 3)
            with np.errstate(invalid="ignore"):  # inf * 0 in s'y
                assert ring.update(s, y) == ref.update(s, y)
            assert len(ring) == len(ref)
            if len(ref):
                for got, want in zip(ring.pairs(), ref.pairs()):
                    assert got.tobytes() == want.tobytes()


class TestCompileCompact:
    def test_empty_buffer_gives_identity(self):
        model = compile_compact(CorrectionPairs(4))
        assert model.delta == 1.0 and model.p == 0 and model.scale == 1.0
        np.testing.assert_array_equal(model.dense(), np.eye(4))

    def test_single_axis_pair(self):
        pairs = CorrectionPairs(3)
        pairs.update(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
        model = compile_compact(pairs)
        assert model.delta == pytest.approx(2.0)
        np.testing.assert_allclose(model.apply(np.array([1.0, 0, 0])),
                                   [2.0, 0, 0], atol=1e-12)

    def test_matches_dense_bfgs_recursion(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(5, 51))
            memory = int(rng.integers(1, 11))
            pairs = admissible_pairs(rng, n, int(rng.integers(1, memory + 4)),
                                     memory)
            s_mat, y_mat = pairs.pairs()
            model = compile_compact(pairs)
            dense = dense_bfgs_matrix(s_mat, y_mat, model.delta)
            for _ in range(3):
                v = rng.standard_normal(n)
                ref = dense @ v
                err = np.linalg.norm(model.apply(v) - ref)
                worst = max(worst, err / max(1.0, np.linalg.norm(ref)))
        assert worst <= 1e-8

    def test_compiled_models_positive_definite(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            pairs = admissible_pairs(rng, n, int(rng.integers(1, 12)))
            model = compile_compact(pairs)
            for _ in range(50):
                v = rng.standard_normal(n)
                v /= np.linalg.norm(v)
                assert float(v @ model.apply(v)) >= 1e-12

    def test_duplicate_pairs_degrade_gracefully(self):
        pairs = CorrectionPairs(4, memory=5)
        s = np.array([1.0, 0.5, 0.0, -0.2])
        y = np.array([2.0, 1.0, 0.1, -0.1])
        pairs.update(s, y)
        pairs.update(s, y)
        dense = compile_compact(pairs).dense()
        assert np.all(np.isfinite(dense))
        assert np.min(np.linalg.eigvalsh(dense)) > 0


class TestModelOps:
    def test_scaled_identity_apply(self):
        model = HessianModel(1.0, 3, scale=2.0)
        np.testing.assert_allclose(model.apply(np.array([1.0, -2, 3])),
                                   [2.0, -4, 6])

    def test_scaled_fixed_apply(self):
        model = HessianModel(1.0, 2).rescaled(1.0 / 2.0)
        np.testing.assert_allclose(model.apply(np.array([1.0, 4.0])),
                                   [0.5, 2.0])

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_model(self):
        q, w = np.array([[1.0], [0.0]]), np.array([[2.0]])
        h = HessianModel(1.0, 2, q, w)
        q[0, 0] = 3.0
        w[0, 0] = 5.0
        np.testing.assert_array_equal(h.dense(), [[3.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(h.low_rank_diag, [2.0, 0.0])
        for model in (h, h.shifted(1.0), h.rescaled(2.0), HessianModel(1.0, 2)):
            for array in (model.q, model.w, model.qw, model.low_rank_diag):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_derived_models_refuse_what_the_constructor_refuses(self):
        rng = np.random.default_rng(8)
        below_n = compile_compact(admissible_pairs(rng, 12, 3))
        assert below_n.p < below_n.n
        with pytest.raises(ValueError, match="positive definite"):
            below_n.shifted(-below_n.delta)
        with pytest.raises(ValueError, match="positive definite"):
            HessianModel(0.0, 12, below_n.q, below_n.w)
        with pytest.raises(ValueError, match="nonnegative"):
            below_n.shifted(-2.0 * below_n.delta)
        with pytest.raises(ValueError, match="nonnegative"):
            HessianModel(-1.0, 12)
        for factor in (0.0, -1.0):
            with pytest.raises(ValueError, match="scale must be positive"):
                below_n.rescaled(factor)
            with pytest.raises(ValueError, match="scale must be positive"):
                HessianModel(1.0, 12, scale=factor)
        # With n columns delta = 0 stays allowed, as in the constructor.
        full = HessianModel(1.0, 2, np.eye(2), np.diag([2.0, 3.0]))
        assert full.shifted(-1.0).delta == 0.0

    @pytest.mark.parametrize("w, got", [
        (None, "none"), (np.eye(3), r"shape \(3, 3\)"),
        (np.ones((2, 3)), r"shape \(2, 3\)"), (np.ones(2), r"shape \(2,\)")])
    def test_a_missing_or_misshapen_w_is_named(self, w, got):
        with pytest.raises(ValueError, match=(r"Q of shape \(4, 2\) needs a W "
                                              rf"of shape \(2, 2\), got {got}$")):
            HessianModel(1.0, 4, np.ones((4, 2)), w)

    @pytest.mark.parametrize("q", [np.ones(4), np.ones((4, 2, 2)), 2.0])
    def test_a_q_that_is_not_a_matrix_is_named(self, q):
        shape = re.escape(str(np.shape(q)))
        with pytest.raises(ValueError, match=f"matrix, got shape {shape}$"):
            HessianModel(1.0, 4, q, np.eye(2))

    def test_nested_lists_build_the_model_of_the_arrays(self):
        q, w = [[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]], [[2.0, 0.5], [0.5, 1.0]]
        got = HessianModel(1.5, 3, q, w, scale=2.0)
        want = HessianModel(1.5, 3, np.array(q), np.array(w), scale=2.0)
        for name in ("q", "w", "qw", "low_rank_diag"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
        assert (got.n, got.delta, got.scale) == (want.n, want.delta, want.scale)

    def test_compact_apply_matches_dense(self):
        rng = np.random.default_rng(4)
        pairs = admissible_pairs(rng, 20, 6)
        model = compile_compact(pairs)
        dense = model.dense()
        v = rng.standard_normal(20)
        np.testing.assert_allclose(model.apply(v), dense @ v,
                                   rtol=1e-10, atol=1e-10)

    def test_diag_element_cases(self):
        assert cd_diag(HessianModel(1.0, 4))[2] == 1.0
        assert cd_diag(HessianModel(1.0, 4, scale=4.0))[0] == 4.0
        rng = np.random.default_rng(5)
        pairs = admissible_pairs(rng, 12, 5)
        model = compile_compact(pairs)
        dense = model.dense()
        diag = cd_diag(model)
        for j in range(12):
            assert diag[j] == pytest.approx(dense[j, j], rel=1e-10)

    def test_diag_element_consistent_with_apply(self):
        rng = np.random.default_rng(6)
        pairs = admissible_pairs(rng, 10, 4)
        model = compile_compact(pairs)
        diag = cd_diag(model)
        for j in range(10):
            e = np.zeros(10)
            e[j] = 1.0
            assert diag[j] == pytest.approx(float(e @ model.apply(e)), abs=1e-12)

    def test_diag_element_range_check(self):
        model = HessianModel(1.0, 3)
        ws = CdWorkspace(model, np.zeros(3), np.zeros(3), 0.1)
        with pytest.raises(IndexError):
            ws.step(3)

    def test_model_value_at_center(self):
        model = HessianModel(1.0, 3, scale=2.0)
        v = np.array([1.0, 2.0, 3.0])
        assert model_value(model, v, v, 1.5, np.zeros(3), 0.7) == pytest.approx(2.2)

    def test_model_value_unit_step(self):
        model = HessianModel(1.0, 2)
        v = np.zeros(2)
        u = np.array([1.0, 0.0])
        assert model_value(model, u, v, 3.0, np.zeros(2), 0.0) == pytest.approx(3.5)

    def test_model_value_matches_dense_formula(self):
        rng = np.random.default_rng(7)
        pairs = admissible_pairs(rng, 8, 3)
        model = compile_compact(pairs)
        dense = model.dense()
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        g = rng.standard_normal(8)
        ref = 0.3 + g @ (u - v) + 0.5 * (u - v) @ dense @ (u - v) + 0.9
        assert model_value(model, u, v, 0.3, g, 0.9) == pytest.approx(ref, rel=1e-12)


def spd_model(seed, n, count, memory, scale):
    """``count`` pairs (fewer kept) from a random SPD matrix at any n >= 1,
    compiled and rescaled by ``scale``; no pairs give p = 0."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + 0.1 * np.eye(n)
    pairs = CorrectionPairs(n, memory=memory)
    for _ in range(count):
        s = rng.standard_normal(n)
        pairs.update(s, a @ s)
    return compile_compact(pairs).rescaled(scale)


model_draws = dict(n=st.integers(1, 60), memory=st.integers(1, 10),
                   count=st.integers(0, 13), seed=st.integers(0, 2**32 - 1),
                   scale=st.floats(1e-3, 1e3))


class TestEigenvalueEstimates:
    def test_identity(self):
        model = HessianModel(1.0, 10)
        assert extreme_eigenvalues(model) == (1.0, 1.0)

    def test_zero_delta_needs_n_columns(self):
        # delta is the eigenvalue on the complement of the columns.
        axis = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="positive definite"):
            HessianModel(0.0, 2, axis, np.eye(1))
        full = HessianModel(0.0, 2, np.eye(2), np.diag([2.0, 3.0]))
        assert extreme_eigenvalues(full) == pytest.approx(
            (2.0, 3.0), rel=1e-12)

    def test_two_point_spectrum(self):
        # diag(1, 10) as identity plus a rank-one bump on the second axis
        model = HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]]))
        m, big = extreme_eigenvalues(model)
        assert m == pytest.approx(1.0, rel=1e-12)
        assert big == pytest.approx(10.0, rel=1e-12)

    @settings(max_examples=150, deadline=None, database=None)
    @given(**model_draws)
    @example(n=1, memory=1, count=0, seed=0, scale=1.0)
    @example(n=40, memory=10, count=13, seed=1, scale=3.0)
    @example(n=12, memory=10, count=13, seed=2, scale=0.5)
    def test_matches_dense_eigvalsh(self, n, memory, count, seed, scale):
        model = spd_model(seed, n, count, memory, scale)
        eigs = scipy.linalg.eigvalsh(model.dense())
        lo, hi = extreme_eigenvalues(model)
        assert abs(lo - eigs[0]) <= 1e-12 * eigs[-1]
        assert abs(hi - eigs[-1]) <= 1e-12 * eigs[-1]


def variant(model, kind, sigma):
    """``model`` as drawn ("lbfgs"), rescaled by 1/sigma, or as the
    fixed-base model at sigma of its unscaled form."""
    if kind == "rescaled":
        return model.rescaled(1.0 / sigma)
    if kind == "scaled_fixed":
        base = HessianModel(model.delta, model.n, model.q, model.w)
        return base.rescaled(1.0 / sigma)
    return model


class TestEnforceDomination:
    def test_same_model_keeps_sigma(self):
        rng = np.random.default_rng(9)
        pairs = admissible_pairs(rng, 8, 3)
        model = compile_compact(pairs)
        assert enforce_domination(model, 0.7, model) == pytest.approx(0.7, rel=1e-12)

    def test_doubled_model_halves_sigma(self):
        rng = np.random.default_rng(10)
        pairs = admissible_pairs(rng, 8, 3)
        model = compile_compact(pairs)
        doubled = model.rescaled(2.0)
        assert enforce_domination(doubled, 1.0, model) == pytest.approx(0.5, rel=1e-12)

    def test_axis_swap_shrinks_by_ten(self):
        h1 = HessianModel(1.0, 2, np.array([[1.0], [0.0]]), np.array([[9.0]]))
        h2 = HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]]))
        got = enforce_domination(h2, 1.0, h1)
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_scaled_fixed_shared_base_is_exact(self):
        rng = np.random.default_rng(11)
        pairs = admissible_pairs(rng, 10, 4)
        base = compile_compact(pairs)
        h_prev = base
        for sigma_new in (0.5, 0.9, 1.0):
            h_new = base.rescaled(1.0 / sigma_new)
            got = enforce_domination(h_new, 1.0, h_prev)
            assert got == pytest.approx(sigma_new, rel=1e-12)

    def test_returned_sigma_dominates_on_samples(self):
        rng = np.random.default_rng(12)
        prev = compile_compact(admissible_pairs(rng, 9, 4))
        new = compile_compact(admissible_pairs(rng, 9, 5))
        sigma = enforce_domination(new, 1.3, prev)
        for _ in range(50):
            v = rng.standard_normal(9)
            gap = 1.3 * float(v @ prev.apply(v)) - sigma * float(v @ new.apply(v))
            assert gap >= -1e-10 * float(v @ v)

    @settings(max_examples=150, deadline=None, database=None)
    @given(prev=st.fixed_dictionaries(model_draws),
           new=st.fixed_dictionaries(model_draws),
           kinds=st.tuples(*[st.sampled_from(["lbfgs", "rescaled",
                                               "scaled_fixed"])] * 2),
           sigmas=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           shared=st.booleans(), sigma_prev=st.floats(1e-3, 1e3))
    @example(prev=dict(n=30, memory=3, count=3, seed=0, scale=1.0),
             new=dict(n=30, memory=4, count=4, seed=1, scale=2.0),
             kinds=("lbfgs", "rescaled"), sigmas=(1.0, 1.5), shared=False,
             sigma_prev=1.0)
    @example(prev=dict(n=5, memory=10, count=13, seed=2, scale=1.0),
             new=dict(n=5, memory=10, count=0, seed=3, scale=1.0),
             kinds=("scaled_fixed", "lbfgs"), sigmas=(0.5, 1.0), shared=False,
             sigma_prev=1.0)
    @example(prev=dict(n=20, memory=2, count=2, seed=4, scale=1.0),
             new=dict(n=20, memory=2, count=2, seed=4, scale=1.0),
             kinds=("scaled_fixed", "scaled_fixed"), sigmas=(1.0, 1.7),
             shared=True, sigma_prev=1.0)
    def test_matches_dense_pencil(self, prev, new, kinds, sigmas, shared,
                                  sigma_prev):
        # Both models take prev's n; ``shared`` makes new prev's model.
        drawn_prev = spd_model(**prev)
        drawn_new = drawn_prev if shared else spd_model(**dict(new, n=prev["n"]))
        h_prev = variant(drawn_prev, kinds[0], sigmas[0])
        h_new = variant(drawn_new, kinds[1], sigmas[1])
        eigs = scipy.linalg.eigh(h_prev.dense(), h_new.dense(),
                                 eigvals_only=True)
        got = enforce_domination(h_new, sigma_prev, h_prev)
        assert abs(got - sigma_prev * eigs[0]) <= 1e-12 * sigma_prev * eigs[-1]

    def test_strict_domination_at_n600(self):
        # A size the dense eigensolve used to refuse.
        rng = np.random.default_rng(13)
        prev = compile_compact(admissible_pairs(rng, 600, 10))
        new = compile_compact(admissible_pairs(rng, 600, 7))
        eigs = scipy.linalg.eigh(prev.dense(), new.dense(), eigvals_only=True)
        got = enforce_domination(new, 0.9, prev)
        assert abs(got - 0.9 * eigs[0]) <= 1e-12 * 0.9 * eigs[-1]
        problem = quadratic_problem(synthesize_quadratic(600, 0.3, 6.0, 5), 0.02)
        trace = run_apqna(problem, OptimizerConfig(domination="strict",
                                                   max_iters=15, seed=1))
        assert trace.status in (CONVERGED, MAX_ITER)
        assert len(trace.records) > 1


class ListPairs:
    """The list-backed pair buffer that CorrectionPairs replaced, kept as
    the reference for its ring buffer."""

    def __init__(self, n, memory, curvature_eps=1e-8):
        self.n, self.memory, self.curvature_eps = n, memory, curvature_eps
        self._s, self._y = [], []

    def __len__(self):
        return len(self._s)

    def update(self, s, y):
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        sy = float(s @ y)
        if not sy > self.curvature_eps * np.linalg.norm(s) * np.linalg.norm(y):
            return False
        self._s.append(s.copy())
        self._y.append(y.copy())
        if len(self._s) > self.memory:
            self._s.pop(0)
            self._y.pop(0)
        return True

    def drop_oldest(self):
        self._s.pop(0)
        self._y.pop(0)

    def pairs(self):
        return np.array(self._s).T, np.array(self._y).T


def reference_singular(middle):
    """The plain singular test of a compact form's middle matrix: inv
    fails, -inv has an entry that is not finite, or np.linalg.cond (an
    SVD every time) exceeds 1e14."""
    try:
        w = -np.linalg.inv(middle)
        return not np.all(np.isfinite(w)) or np.linalg.cond(middle) > 1e14
    except np.linalg.LinAlgError:
        return True


def reference_compile(pairs):
    """compile_compact as it was before the ring buffer: the middle
    matrix from np.block, the singular test of ``reference_singular``
    and a model built by the public constructor."""
    while True:
        if len(pairs) == 0:
            return HessianModel(1.0, pairs.n)
        s_mat, y_mat = pairs.pairs()
        sy_newest = float(s_mat[:, -1] @ y_mat[:, -1])
        delta = float(y_mat[:, -1] @ y_mat[:, -1]) / sy_newest
        sty = s_mat.T @ y_mat
        lower = np.tril(sty, k=-1)
        middle = np.block([
            [delta * (s_mat.T @ s_mat), lower],
            [lower.T, -np.diag(np.diag(sty))],
        ])
        if reference_singular(middle):
            if len(pairs) == 1:
                raise SingularCompactForm("single pair")
            pairs.drop_oldest()
            continue
        q = np.hstack([delta * s_mat, y_mat])
        return HessianModel(delta, pairs.n, q, -np.linalg.inv(middle))


MODEL_FIELDS = ("q", "w", "qw", "low_rank_diag")


def model_bytes(model):
    """Everything a model holds, as bytes and layout."""
    out = [float(model.delta).hex(), float(model.scale).hex(), model.n]
    for name in MODEL_FIELDS:
        arr = getattr(model, name)
        out += [arr.shape, arr.strides, arr.tobytes()]
    return out


def pair_stream(seed, n, length):
    """(s, y) pairs from a random SPD matrix, mixed with repeats and
    near-repeats of the newest pair (ill-conditioned middle matrices,
    so compile_compact drops old pairs), nearly orthogonal s and y (a
    single such pair is singular) and negative curvature (rejected)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + 0.1 * np.eye(n)
    s = rng.standard_normal(n)
    for kind in rng.integers(0, 6, size=length):
        if kind <= 1:
            s = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 2))
        elif kind == 2:
            s = s.copy()
        elif kind == 3:
            s = s + 10.0 ** -float(rng.integers(5, 13)) * rng.standard_normal(n)
        elif kind == 4 and n > 1:
            ortho = rng.standard_normal(n)
            ortho -= (ortho @ s) / (s @ s) * s
            cos = 10.0 ** -float(rng.uniform(7.0, 7.9))
            yield s, ortho / np.linalg.norm(ortho) + cos * s / np.linalg.norm(s)
            continue
        elif kind == 5:
            yield s, -(a @ s)
            continue
        yield s, a @ s


class TestRingBufferCompile:
    """The ring buffer, the compile with its bound test in front of the
    SVD, and the shared low-rank products of ``shifted`` and
    ``rescaled`` give the bytes of the list buffer, np.linalg.cond and a
    freshly built model, on the kernel's one-call build and on the numpy
    build."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=150, deadline=None, database=None)
    @given(memory=st.integers(1, 10), n=st.integers(1, 50),
           length=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           compile_every=st.integers(1, 4))
    @example(memory=3, n=5, length=30, seed=4, compile_every=1)
    def test_matches_list_buffer_and_reference_compile(
            self, backend, memory, n, length, seed, compile_every):
        with on_backend(backend):
            ring = CorrectionPairs(n, memory=memory)
            ref = ListPairs(n, memory)
            for i, (s, y) in enumerate(pair_stream(seed, n, length)):
                assert ring.update(s, y) == ref.update(s, y)
                assert len(ring) == len(ref)
                if len(ref):
                    for got, want in zip(ring.pairs(), ref.pairs()):
                        assert got.strides == want.strides
                        assert got.tobytes() == want.tobytes()
                if i % compile_every:
                    continue
                try:
                    want = reference_compile(ref)
                except SingularCompactForm:
                    with pytest.raises(SingularCompactForm):
                        compile_compact(ring)
                    continue
                got = compile_compact(ring)
                assert len(ring) == len(ref)
                assert model_bytes(got) == model_bytes(want)
                assert not np.shares_memory(got.q, ring._s)
                assert not np.shares_memory(got.q, ring._y)
                for shift in (0.0, 1e-3, 2.5):
                    fresh = HessianModel(got.delta + shift, n, got.q, got.w)
                    assert model_bytes(got.shifted(shift)) == model_bytes(fresh)
                for factor in (1.0, 1.0 / 1.7, 2.0):
                    fresh = HessianModel(got.delta, n, got.q, got.w, scale=factor)
                    assert model_bytes(got.rescaled(factor)) == model_bytes(fresh)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_near_parallel_pairs_drop_the_oldest(self, backend):
        # The stream's near-repeats must reach the drop-oldest retry.
        with on_backend(backend):
            dropped = 0
            for seed in range(20):
                ring = CorrectionPairs(6, memory=4)
                for s, y in pair_stream(seed, 6, 30):
                    ring.update(s, y)
                    before = len(ring)
                    try:
                        compile_compact(ring)
                    except SingularCompactForm:
                        continue
                    dropped += before - len(ring)
            assert dropped > 0

    @settings(max_examples=200, deadline=None, database=None)
    @given(size=st.integers(1, 20), log_cond=st.floats(9.0, 17.0),
           log_scale=st.floats(-305.0, 307.5), seed=st.integers(0, 2**32 - 1),
           singular=st.sampled_from(["no", "zero", "twin"]))
    @example(size=4, log_cond=13.5, log_scale=0.0, seed=0, singular="no")
    @example(size=6, log_cond=16.0, log_scale=307.5, seed=1, singular="no")
    @example(size=6, log_cond=10.0, log_scale=-305.0, seed=2, singular="no")
    @example(size=5, log_cond=9.0, log_scale=0.0, seed=3, singular="twin")
    def test_bound_test_takes_the_svd_decision(self, size, log_cond,
                                              log_scale, seed, singular):
        """On symmetric indefinite matrices with condition numbers from
        1e9 to 1e17, scaled from near underflow to near overflow, and on
        exactly singular ones (a zero row and column, or two equal rows
        and columns), np.linalg.inv and the bound test in front of the
        SVD refuse exactly what the SVD test refuses.  The compiled
        build's dgesv is held to np.linalg.inv's bytes and decisions by
        the scaled pair streams of ``TestCompiledBuild``."""
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((size, size)))[0]
        eig = np.logspace(0.0, -log_cond, size) * rng.choice([-1.0, 1.0], size)
        middle = (basis * eig) @ basis.T
        middle = 0.5 * (middle + middle.T) * 10.0 ** log_scale
        if singular == "zero":
            middle[0] = middle[:, 0] = 0.0
        elif singular == "twin" and size > 1:
            middle[1] = middle[0]
            middle[:, 1] = middle[:, 0]
        try:
            w = -np.linalg.inv(middle)
        except np.linalg.LinAlgError:
            accepted = False
        else:
            accepted = hessian._conditioned(middle, w,
                                            float(np.vdot(middle, middle)),
                                            float(np.vdot(w, w)))
        assert accepted != reference_singular(middle)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_nearly_orthogonal_pair_is_singular(self, backend):
        # cos(s, y) = 3e-8 passes the 1e-8 curvature test, yet the middle
        # matrix's condition number is about 1/cos^2 > 1e14.
        s, y = np.array([1.0, 0.0]), np.array([3e-8, 1.0])
        with on_backend(backend):
            for buffer, compile_fn in ((CorrectionPairs(2, memory=3),
                                        compile_compact),
                                       (ListPairs(2, 3), reference_compile)):
                assert buffer.update(s, y)
                with pytest.raises(SingularCompactForm):
                    compile_fn(buffer)

    def test_shifted_identity_core(self):
        model = HessianModel(1.0, 4)
        assert model_bytes(model.shifted(0.5)) == model_bytes(HessianModel(1.5, 4))
        assert (model_bytes(model.rescaled(3.0))
                == model_bytes(HessianModel(1.0, 4, scale=3.0)))
        with pytest.raises(ValueError, match="nonnegative"):
            model.shifted(-2.0)


def compile_outcome(pairs):
    """compile_compact's model as ``model_bytes`` with the pairs it kept,
    or "singular"."""
    try:
        model = compile_compact(pairs)
    except SingularCompactForm:
        return "singular", len(pairs)
    for name in MODEL_FIELDS:
        assert not getattr(model, name).flags.writeable
    return model_bytes(model), len(pairs)


@pytest.mark.skipif(_cdkernel.KERNEL is None, reason=_cdkernel.backend())
class TestCompiledBuild:
    """The kernel's one-call build against the Python build, each on its
    own copy of the same pair stream."""

    def test_matches_the_python_build_over_pair_streams(self, monkeypatch):
        """Streams at n = 1, 2, 3, 7, 30 and 123 and every memory from 1
        to 10, each also with y scaled by powers of two from 2^-500 to
        2^500 (which scale M by the same factor), compile to the same
        bytes, drop the same pairs and refuse the same single pairs.
        Each try decides on the same middle matrix (the -0.0 of -D
        included), -inv and squared norms on both backends, and the SVD
        runs, and accepts and refuses, on both."""
        tries = {"c": [], "python": []}
        svd_decisions = set()
        conditioned, svd = hessian._conditioned, hessian._svd_conditioned
        backend = "c"

        def logged(middle, w, sq_m, sq_w):
            accepted = conditioned(middle, w, sq_m, sq_w)
            tries[backend].append((middle.tobytes(), w.tobytes(),
                                   sq_m, sq_w, accepted))
            return accepted

        def logged_svd(middle):
            svd_decisions.add(svd(middle))
            return svd(middle)

        monkeypatch.setattr(hessian, "_conditioned", logged)
        monkeypatch.setattr(hessian, "_svd_conditioned", logged_svd)
        seen, dropped, singular = set(), 0, 0
        for n, memory, seed, power in itertools.product(
                (1, 2, 3, 7, 30, 123), range(1, 11), range(3), SCALE_POWERS):
            kernel_pairs = CorrectionPairs(n, memory)
            python_pairs = CorrectionPairs(n, memory)
            for s, y in pair_stream(seed, n, 24):
                y = np.ldexp(y, power)
                kernel_pairs.update(s, y)
                if not python_pairs.update(s, y) or not len(python_pairs):
                    continue
                before = len(python_pairs)
                backend = "c"
                got = compile_outcome(kernel_pairs)
                backend = "python"
                with on_backend("python"):
                    want = compile_outcome(python_pairs)
                assert got == want, (n, memory, seed, power, before)
                seen.add((memory, before))
                dropped += before > want[1]
                singular += want[0] == "singular"
        assert seen == {(memory, m) for memory in range(1, 11)
                        for m in range(1, memory + 1)}
        assert dropped and singular
        assert tries["c"] == tries["python"]
        assert svd_decisions == {True, False}

    @pytest.mark.parametrize("clone", ["copy", "deepcopy", "pickle"])
    def test_a_copy_of_a_bound_buffer_reads_its_own_rows(self, clone):
        rng = np.random.default_rng(3)
        pairs = admissible_pairs(rng, 7, 4, memory=3)
        compile_compact(pairs)
        assert pairs._rows == (pairs._s.ctypes.data, pairs._y.ctypes.data)
        other = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                 "pickle": lambda p: pickle.loads(pickle.dumps(p))}[clone](pairs)
        assert other._rows is None
        if clone != "copy":
            other.update(*next(pair_stream(5, 7, 1)))
        want = compile_outcome(other)
        with on_backend("python"):
            assert compile_outcome(copy.deepcopy(other)) == want
        assert other._rows == (other._s.ctypes.data, other._y.ctypes.data)
