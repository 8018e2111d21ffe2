"""Approximate-Hessian models: scaled identity, scaled fixed matrix, and
compact L-BFGS in diagonal-plus-low-rank form delta*I + Q W Q'.

All models are immutable once built; the correction-pair buffer is the
only mutable piece and is owned by a single optimizer run.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class SingularCompactForm(RuntimeError):
    """Middle matrix of the compact form is numerically singular."""


class DiagLowRank:
    """delta*I + Q W Q' with Q of shape (n, p), W symmetric (p, p).

    p is at most twice the correction memory, so matvecs cost O(n p).
    """

    def __init__(self, delta: float, n: int,
                 q: np.ndarray | None = None, w: np.ndarray | None = None):
        if delta < 0:
            raise ValueError("diagonal coefficient must be nonnegative")
        self.delta = float(delta)
        self.n = int(n)
        if q is None or q.shape[1] == 0:
            self.q = np.zeros((n, 0))
            self.w = np.zeros((0, 0))
        else:
            if q.shape[0] != n:
                raise ValueError("factor rows must match dimension")
            self.q = np.asarray(q, dtype=np.float64)
            self.w = 0.5 * (np.asarray(w, dtype=np.float64) + np.asarray(w).T)
        # qw caches Q W for O(p) coordinate work in the subsolver, and
        # _low_rank_diag the diagonal of Q W Q', which shifted() reuses.
        self.qw = self.q @ self.w
        self._low_rank_diag = np.einsum("ij,ij->i", self.qw, self.q)
        self._diag = self.delta + self._low_rank_diag

    @property
    def p(self) -> int:
        return self.q.shape[1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.p == 0:
            return self.delta * v
        return self.delta * v + self.qw @ (self.q.T @ v)

    def quad_form(self, d: np.ndarray) -> float:
        if self.p == 0:
            return float(self.delta * (d @ d))
        qd = self.q.T @ d
        return float(self.delta * (d @ d) + qd @ self.w @ qd)

    def dense(self) -> np.ndarray:
        a = self.delta * np.eye(self.n)
        if self.p:
            a += self.qw @ self.q.T
        return a

    def shifted(self, shift: float) -> "DiagLowRank":
        """Same low-rank part with delta increased by ``shift``.

        Shares q, w, qw and the low-rank diagonal term with ``self``
        (all read-only), so only delta and the diagonal are new.
        """
        delta = self.delta + shift
        if delta < 0:
            raise ValueError("diagonal coefficient must be nonnegative")
        out = object.__new__(DiagLowRank)
        out.delta = float(delta)
        out.n = self.n
        out.q, out.w, out.qw = self.q, self.w, self.qw
        out._low_rank_diag = self._low_rank_diag
        out._diag = out.delta + self._low_rank_diag
        return out


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


def compile_compact(pairs: CorrectionPairs) -> DiagLowRank:
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
            return DiagLowRank(1.0, pairs.n)
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
        return DiagLowRank(delta, pairs.n, q, w)


SCALED_IDENTITY = "scaled_identity"
SCALED_FIXED = "scaled_fixed"
LBFGS_COMPACT = "lbfgs_compact"


class HessianModel:
    """H = scale * (delta*I + Q W Q') with a variant tag.

    scaled_identity : H = coeff * I (coeff = 1/mu)
    scaled_fixed    : H = (1/sigma) * base
    lbfgs_compact   : H = compact L-BFGS matrix, optionally diag-shifted
    """

    def __init__(self, variant: str, core: DiagLowRank, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        # With fewer than n columns, delta is an eigenvalue of the core.
        if core.delta <= 0 and core.p < core.n:
            raise ValueError("model must be positive definite")
        self.variant = variant
        self.core = core
        self.scale = float(scale)

    @classmethod
    def scaled_identity(cls, coeff: float, n: int) -> "HessianModel":
        if coeff <= 0:
            raise ValueError("identity coefficient must be positive")
        return cls(SCALED_IDENTITY, DiagLowRank(1.0, n), scale=coeff)

    @classmethod
    def scaled_fixed(cls, sigma: float, base: DiagLowRank) -> "HessianModel":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(SCALED_FIXED, base, scale=1.0 / sigma)

    @classmethod
    def lbfgs(cls, core: DiagLowRank, diag_shift: float = 0.0) -> "HessianModel":
        return cls(LBFGS_COMPACT, core.shifted(diag_shift) if diag_shift else core)

    @property
    def n(self) -> int:
        return self.core.n

    @property
    def p(self) -> int:
        return self.core.p

    def rescaled(self, factor: float) -> "HessianModel":
        return HessianModel(self.variant, self.core, self.scale * factor)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        return self.scale * self.core.matvec(v)

    def quad_form(self, d: np.ndarray) -> float:
        return self.scale * self.core.quad_form(d)

    def dense(self) -> np.ndarray:
        return self.scale * self.core.dense()

    def cd_parts(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(eff_delta, Q, scale*QW, diag) as consumed by the subsolver."""
        return (
            self.scale * self.core.delta,
            self.core.q,
            self.scale * self.core.qw,
            self.scale * self.core._diag,
        )


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
    q = np.hstack([model.core.q for model in models])
    if q.shape[1] >= n:
        return [model.dense() for model in models], False
    u = np.linalg.qr(q)[0]
    eye = np.eye(u.shape[1])
    restricted = []
    for model in models:
        uq = u.T @ model.core.q
        restricted.append(model.scale * (model.core.delta * eye
                                         + uq @ model.core.w @ uq.T))
    return restricted, True


def extreme_eigenvalues(model: HessianModel) -> tuple[float, float]:
    """(lambda_min, lambda_max) of H: the eigenvalues of H on the span
    of its Q columns, with scale*delta when the span misses part of
    R^n."""
    (restricted,), partial = _restrict_to_span(model)
    eigs = scipy.linalg.eigvalsh(restricted)
    if partial:
        eigs = np.append(eigs, model.scale * model.core.delta)
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
        eigs = np.append(eigs, (h_prev.scale * h_prev.core.delta)
                         / (h_new.scale * h_new.core.delta))
    return float(sigma_prev * eigs.min())
