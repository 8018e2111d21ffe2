"""Approximate-Hessian models H = scale*(delta*I + Q W Q').

One immutable class covers every model the solvers use: the scaled
identity I/mu of the proximal-gradient steps (no Q), the compact L-BFGS
matrix shifted by I/(2 mu), and the frozen base rescaled by 1/sigma.
The correction-pair buffer is the only mutable piece and is owned by a
single optimizer run.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import _cdkernel

# A middle matrix of the compact form counts as singular past this
# 2-norm condition number (as np.linalg.cond forms it, from an SVD).
COND_LIMIT = 1e14
# ||M||_F ||inv(M)||_F bounds the 2-norm condition number from above,
# so a bound this far under COND_LIMIT accepts M without the SVD: the
# factor of ten covers the rounding of inv and of the SVD.
BOUND_LIMIT = 1e13


class SingularCompactForm(RuntimeError):
    """Middle matrix of the compact form is numerically singular."""


class HessianModel:
    """H = scale*(delta*I + Q W Q') with Q of shape (n, p), W symmetric
    (p, p).

    p is at most twice the correction memory, so matvecs cost O(n p).
    The model keeps copies of Q and W, so a later write to the caller's
    arrays cannot reach it.  ``shifted`` and ``rescaled`` share Q, W, QW
    and the diagonal of Q W Q' (all read-only) with the model they come
    from.
    """

    def __init__(self, delta: float, n: int, q: np.ndarray | None = None,
                 w: np.ndarray | None = None, scale: float = 1.0):
        n = int(n)
        if q is None:
            q = np.zeros((n, 0))
        q = np.array(q, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError(f"Q must be a matrix, got shape {q.shape}")
        if q.shape[0] != n:
            raise ValueError("factor rows must match dimension")
        square = (q.shape[1],) * 2
        if w is None and square == (0, 0):
            w = np.zeros(square)
        if w is None or np.shape(w) != square:
            got = "none" if w is None else f"shape {np.shape(w)}"
            raise ValueError(f"Q of shape {q.shape} needs a W of shape "
                             f"{square}, got {got}")
        # The symmetric part of W; qw caches Q W for O(p) coordinate work
        # in the subsolver, and the last array is the diagonal of Q W Q'.
        w = np.asarray(w, dtype=np.float64)
        w = 0.5 * (w + w.T)
        qw = q @ w
        for array in (q, w, qw):
            array.setflags(write=False)
        self._set(delta, scale, q, w, qw, _low_rank_diag(qw, q))

    @classmethod
    def _of_built(cls, delta: float, q: np.ndarray, w: np.ndarray,
                  qw: np.ndarray, low_rank_diag: np.ndarray) -> "HessianModel":
        """The model delta*I + Q W Q' of read-only float64 arrays that no
        one else holds: Q, a symmetric W, their product QW and the
        diagonal of Q W Q', which it keeps without a copy."""
        return object.__new__(cls)._set(delta, 1.0, q, w, qw, low_rank_diag)

    def _set(self, delta: float, scale: float, q: np.ndarray, w: np.ndarray,
             qw: np.ndarray, low_rank_diag: np.ndarray) -> "HessianModel":
        """Check the scalars and take the arrays, as they are; returns
        the model."""
        if delta < 0:
            raise ValueError("diagonal coefficient must be nonnegative")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.n = q.shape[0]
        # With fewer than n columns, delta is an eigenvalue of H/scale.
        if delta <= 0 and q.shape[1] < self.n:
            raise ValueError("model must be positive definite")
        self.q, self.w, self.qw, self.low_rank_diag = q, w, qw, low_rank_diag
        self.delta = float(delta)
        self.scale = float(scale)
        return self

    def shifted(self, shift: float) -> "HessianModel":
        """The same model with delta increased by ``shift``."""
        return object.__new__(HessianModel)._set(
            self.delta + shift, self.scale, self.q, self.w, self.qw,
            self.low_rank_diag)

    def rescaled(self, factor: float) -> "HessianModel":
        """The same model with its scale multiplied by ``factor``."""
        return object.__new__(HessianModel)._set(
            self.delta, self.scale * factor, self.q, self.w, self.qw,
            self.low_rank_diag)

    @property
    def p(self) -> int:
        return self.q.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        if self.p == 0:
            return self.scale * (self.delta * v)
        return self.scale * (self.delta * v + self.qw @ (self.q.T @ v))

    def quad_form(self, d: np.ndarray) -> float:
        if self.p == 0:
            return self.scale * float(self.delta * (d @ d))
        qd = self.q.T @ d
        return self.scale * float(self.delta * (d @ d) + qd @ self.w @ qd)

    def dense(self) -> np.ndarray:
        a = self.delta * np.eye(self.n)
        if self.p:
            a += self.qw @ self.q.T
        return self.scale * a


def _low_rank_diag(qw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The diagonal of Q W Q' from QW and Q, read-only."""
    diag = np.einsum("ij,ij->i", qw, q)
    diag.setflags(write=False)
    return diag


class CorrectionPairs:
    """Ring buffer of admissible (s, y) correction pairs.

    A pair is stored only when s'y > curvature_eps * ||s|| ||y||, which
    keeps the compiled compact matrix positive definite.  The pairs are
    rows of two preallocated (memory, n) arrays, oldest first; evicting
    the oldest shifts the rest up by one row.  Single-owner mutable
    state: one buffer per optimizer run.  The compiled build reads the
    two arrays in place at each try, and keeps nothing of them.
    """

    def __init__(self, n: int, memory: int = 10, curvature_eps: float = 1e-8):
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.n = int(n)
        self.memory = int(memory)
        self.curvature_eps = float(curvature_eps)
        self._s = np.empty((self.memory, self.n))
        self._y = np.empty((self.memory, self.n))
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Append (s, y) if the curvature condition holds; report acceptance."""
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if s.shape != (self.n,) or y.shape != (self.n,):
            raise ValueError("correction pair dimension mismatch")
        sy = float(s @ y)
        # The norms as np.linalg.norm forms them for a real vector.
        norm_s, norm_y = math.sqrt(float(s @ s)), math.sqrt(float(y @ y))
        # In positive form, so that a NaN s'y refuses the pair.
        if not sy > self.curvature_eps * norm_s * norm_y:
            return False
        if self._len == self.memory:
            self.drop_oldest()
        self._s[self._len] = s
        self._y[self._len] = y
        self._len += 1
        return True

    def drop_oldest(self) -> None:
        if self._len == 0:
            raise IndexError("no correction pair to drop")
        self._len -= 1
        self._s[:self._len] = self._s[1:self._len + 1]
        self._y[:self._len] = self._y[1:self._len + 1]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked S, Y of shape (n, len) with columns in chronological
        order.

        Both are views of the buffer, valid only until the next
        ``update`` or ``drop_oldest``; a caller that keeps them must
        copy.
        """
        return self._s[:self._len].T, self._y[:self._len].T


def compile_compact(pairs: CorrectionPairs) -> HessianModel:
    """Compact L-BFGS B-matrix from the stored pairs.

    B = delta*I + Q W Q' with delta = y'y / s'y of the newest pair,
    Q = [delta*S  Y] and W = -inv([[delta*S'S, L], [L', -D]]) where L is
    the strictly lower part of S'Y and D its diagonal.  Equals the
    classical BFGS recursion started from delta*I.  A numerically
    singular middle matrix drops the oldest pair and retries; with no
    pairs the identity (delta = 1) is returned.  Each try is one call of
    the compiled kernel's ``compact`` when it is loaded, else of
    ``_numpy_build``, which give the same bytes; ``_conditioned`` decides
    on the middle matrix either call formed.
    """
    while True:
        if len(pairs) == 0:
            return HessianModel(1.0, pairs.n)
        kernel = _cdkernel.KERNEL
        info, delta, sq_m, sq_w, square, q, qw, diag = (
            _numpy_build(pairs) if kernel is None
            else kernel.compact(pairs._s, pairs._y, len(pairs)))
        if not info and _conditioned(square[0], square[1], sq_m, sq_w):
            if diag is None:
                diag = _low_rank_diag(qw, q)
            return HessianModel._of_built(delta, q, square[2], qw, diag)
        if len(pairs) == 1:
            raise SingularCompactForm(
                "single correction pair yields a singular compact form"
            )
        pairs.drop_oldest()


def _numpy_build(pairs: CorrectionPairs) -> tuple:
    """``Kernel.compact``'s tuple in numpy: a nonzero info where
    ``np.linalg.inv`` refuses the middle matrix M, delta, the squared
    norms of M and of -inv(M), (M, -inv(M), W), and the Q, QW and
    diagonal of Q W Q' of the model ``HessianModel`` builds."""
    s_mat, y_mat = pairs.pairs()
    sy_newest = float(s_mat[:, -1] @ y_mat[:, -1])
    delta = float(y_mat[:, -1] @ y_mat[:, -1]) / sy_newest
    sty = s_mat.T @ y_mat
    lower = np.tril(sty, k=-1)
    middle = np.block([[delta * (s_mat.T @ s_mat), lower],
                       [lower.T, -np.diag(np.diag(sty))]])
    try:
        w = -np.linalg.inv(middle)
    except np.linalg.LinAlgError:
        return 1, delta, 0.0, 0.0, (middle,), None, None, None
    q = np.hstack([delta * s_mat, y_mat])
    model = HessianModel(delta, pairs.n, q, w)
    # vdot, unlike @, does not warn when a square overflows.
    return (0, delta, float(np.vdot(middle, middle)), float(np.vdot(w, w)),
            (middle, w, model.w), model.q, model.qw, model.low_rank_diag)


def _conditioned(middle: np.ndarray, w: np.ndarray, sq_m: float,
                 sq_w: float) -> bool:
    """Whether middle, whose inverse is -w, counts as nonsingular, from
    the squared Frobenius norms sq_m of middle and sq_w of w.  The bound
    ||M||_F ||inv(M)||_F settles it where it is at most BOUND_LIMIT;
    past that, w must be finite and ``_svd_conditioned`` decides.  A
    finite sq_w also shows that every entry of w is finite.  Squares
    lost to underflow do not shrink the bound by a measurable share: the
    bound is at least 1, so with both squared norms finite neither is
    below 5e-309."""
    return (math.sqrt(sq_m) * math.sqrt(sq_w) <= BOUND_LIMIT
            or bool(np.isfinite(w).all()) and _svd_conditioned(middle))


def _svd_conditioned(middle: np.ndarray) -> bool:
    """Whether middle's 2-norm condition number, as np.linalg.cond forms
    it from an SVD, is at most COND_LIMIT; a zero smallest singular
    value, or an SVD that does not converge, counts as singular."""
    try:
        sv = np.linalg.svd(middle, compute_uv=False)
    except np.linalg.LinAlgError:
        return False
    return bool(sv[-1] > 0 and sv[0] / sv[-1] <= COND_LIMIT)


def model_value(
    model: HessianModel,
    u: np.ndarray,
    v: np.ndarray,
    f_v: float,
    grad_v: np.ndarray,
    g_of_u: float,
) -> float:
    """Composite quadratic f(v) + <grad, u-v> + 0.5||u-v||_H^2 + g(u)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.shape != grad_v.shape:
        raise ValueError("dimension mismatch in model evaluation")
    d = u - v
    return f_v + float(grad_v @ d) + 0.5 * model.quad_form(d) + g_of_u


def _restrict_to_span(
    *models: HessianModel,
) -> tuple[list[np.ndarray], bool]:
    """Each model on an orthonormal basis U of the span of all their Q
    columns, and whether U leaves a complement (r < n).

    A model scale*(delta*I + Q W Q') maps span(U) and its complement
    into themselves and is the scalar scale*delta on the complement, so
    on span(U) it is scale*(delta*I_r + (U'Q) W (U'Q)') (the compact
    form of Byrd, Nocedal & Schnabel, Math. Prog. 63, 1994).  U comes
    from a thin QR of the stacked columns, or is the identity when they
    number n or more; the matrices are then the dense models, with
    their arithmetic.
    """
    n = models[0].n
    q = np.hstack([model.q for model in models])
    if q.shape[1] >= n:
        return [model.dense() for model in models], False
    u = np.linalg.qr(q)[0]
    eye = np.eye(u.shape[1])
    restricted = []
    for model in models:
        uq = u.T @ model.q
        restricted.append(model.scale * (model.delta * eye
                                         + uq @ model.w @ uq.T))
    return restricted, True


def extreme_eigenvalues(model: HessianModel) -> tuple[float, float]:
    """(lambda_min, lambda_max) of H: the eigenvalues of H on the span
    of its Q columns, with scale*delta when the span misses part of
    R^n."""
    (restricted,), partial = _restrict_to_span(model)
    eigs = scipy.linalg.eigvalsh(restricted)
    if partial:
        eigs = np.append(eigs, model.scale * model.delta)
    return float(eigs.min()), float(eigs.max())


def enforce_domination(
    h_new: HessianModel,
    sigma_prev: float,
    h_prev: HessianModel,
) -> float:
    """Largest sigma with sigma*H_new <= sigma_prev*H_prev (matrix order).

    sigma_prev times the smallest eigenvalue of the (H_prev, H_new)
    pencil.  Both models are scalar on the complement of the span of
    their Q columns, so the pencil splits in two: a generalized
    eigenproblem of order at most p_prev + p_new on the span, and the
    ratio of the two scalars on the complement.
    """
    if h_new.n != h_prev.n:
        raise ValueError("models must share a dimension")
    if sigma_prev <= 0:
        raise ValueError("sigma_prev must be positive")
    (prev, new), partial = _restrict_to_span(h_prev, h_new)
    eigs = scipy.linalg.eigh(prev, new, eigvals_only=True)
    if partial:
        eigs = np.append(eigs, (h_prev.scale * h_prev.delta)
                         / (h_new.scale * h_new.delta))
    return float(sigma_prev * eigs.min())
