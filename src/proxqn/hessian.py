"""Approximate-Hessian models H = scale*(delta*I + Q W Q').

One immutable class covers every model the solvers use: the scaled
identity I/mu of the proximal-gradient steps (no Q), the compact L-BFGS
matrix shifted by I/(2 mu), and the frozen base rescaled by 1/sigma.
The correction-pair buffer is the only mutable piece and is owned by a
single optimizer run.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


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
        self.n = int(n)
        # qw caches Q W for O(p) coordinate work in the subsolver, and
        # low_rank_diag the diagonal of Q W Q'.
        if q is None or q.shape[1] == 0:
            self.q = self.qw = np.zeros((n, 0))
            self.w = np.zeros((0, 0))
            self.low_rank_diag = np.zeros(n)
        else:
            if q.shape[0] != n:
                raise ValueError("factor rows must match dimension")
            self.q = np.array(q, dtype=np.float64)
            self.w = 0.5 * (np.asarray(w, dtype=np.float64) + np.asarray(w).T)
            self.qw = self.q @ self.w
            self.low_rank_diag = np.einsum("ij,ij->i", self.qw, self.q)
        for array in (self.q, self.w, self.qw, self.low_rank_diag):
            array.setflags(write=False)
        self._set_scalars(delta, scale)

    def _set_scalars(self, delta: float, scale: float) -> None:
        if delta < 0:
            raise ValueError("diagonal coefficient must be nonnegative")
        if scale <= 0:
            raise ValueError("scale must be positive")
        # With fewer than n columns, delta is an eigenvalue of H/scale.
        if delta <= 0 and self.p < self.n:
            raise ValueError("model must be positive definite")
        self.delta = float(delta)
        self.scale = float(scale)

    def _with_scalars(self, delta: float, scale: float) -> "HessianModel":
        out = object.__new__(HessianModel)
        out.n, out.q, out.w, out.qw = self.n, self.q, self.w, self.qw
        out.low_rank_diag = self.low_rank_diag
        out._set_scalars(delta, scale)
        return out

    def shifted(self, shift: float) -> "HessianModel":
        """The same model with delta increased by ``shift``."""
        return self._with_scalars(self.delta + shift, self.scale)

    def rescaled(self, factor: float) -> "HessianModel":
        """The same model with its scale multiplied by ``factor``."""
        return self._with_scalars(self.delta, self.scale * factor)

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


class CorrectionPairs:
    """Ring buffer of admissible (s, y) correction pairs.

    A pair is stored only when s'y > curvature_eps * ||s|| ||y||, which
    keeps the compiled compact matrix positive definite.  The pairs are
    rows of two preallocated (memory, n) arrays, oldest first; evicting
    the oldest shifts the rest up by one row.  Single-owner mutable
    state: one buffer per optimizer run.
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
        if sy <= self.curvature_eps * np.linalg.norm(s) * np.linalg.norm(y):
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
    pairs the identity (delta = 1) is returned.
    """
    while True:
        if len(pairs) == 0:
            return HessianModel(1.0, pairs.n)
        s_mat, y_mat = pairs.pairs()
        sy_newest = float(s_mat[:, -1] @ y_mat[:, -1])
        delta = float(y_mat[:, -1] @ y_mat[:, -1]) / sy_newest
        sty = s_mat.T @ y_mat
        m = sty.shape[0]
        lower = np.tril(sty, k=-1)
        middle = np.empty((2 * m, 2 * m))
        middle[:m, :m] = delta * (s_mat.T @ s_mat)
        middle[:m, m:] = lower
        middle[m:, :m] = lower.T
        # Negating the whole diagonal matrix keeps the -0.0 off-diagonal
        # entries that np.block used to receive.
        middle[m:, m:] = -np.diag(np.diag(sty))
        try:
            w = -np.linalg.inv(middle)
            if not np.isfinite(w).all():
                raise np.linalg.LinAlgError
            # The 2-norm condition number, as np.linalg.cond forms it;
            # a zero smallest singular value counts as singular.
            sv = np.linalg.svd(middle, compute_uv=False)
            if not (sv[-1] > 0 and sv[0] / sv[-1] <= 1e14):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            if len(pairs) == 1:
                raise SingularCompactForm(
                    "single correction pair yields a singular compact form"
                )
            pairs.drop_oldest()
            continue
        q = np.hstack([delta * s_mat, y_mat])
        return HessianModel(delta, pairs.n, q, w)


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
