"""Composite objective oracles: F(x) = f(x) + lambda*||x||_1.

The smooth part f is either the average logistic loss over a
:class:`~proxqn.dataset.Dataset` or a synthetic quadratic
f(x) = 0.5 x'Ax - b'x.  The nonsmooth part is the l1 norm, whose prox
is the componentwise soft threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _cdkernel
from .dataset import Dataset, SyntheticQuadratic


def exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """e = exp(-|z|), the one exp of the logistic oracle at margins z.

    The loss takes log1p(e) and the gradient's coefficients 1/(1 + e) or
    e/(1 + e), so the argument of exp stays nonpositive and large margins
    (a9a-scale w'x) cannot overflow.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def softplus(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) computed as max(z,0) + log1p(e) from
    e = :func:`exp_neg_abs` (z); the log1p term is formed in one float64
    temporary that also takes the sum."""
    t = np.log1p(e)
    return np.add(np.maximum(z, 0.0), t, out=t)


class Memo:
    """One-slot store of an oracle's intermediate at one point.

    ``f_value(w, memo)`` stores the bytes of w as ``key`` and the
    intermediate it formed as ``value``: the quadratic product Aw; the
    logistic margins -y*(Xw) and exp(-|z|) from the Python code, or the
    compiled logistic oracle's buffer, which holds both.  ``f_grad(w, memo)`` reuses it only when the bytes of
    its w match ``key``, and on the backend that stored it: switch
    ``_cdkernel.KERNEL`` between runs, not inside one.  A driver run owns
    its memo, so problems stay pure and shareable.
    """

    __slots__ = ("key", "value")

    def __init__(self):
        self.key = self.value = None

    def store(self, w: np.ndarray, value) -> None:
        self.key, self.value = w.tobytes(), value

    def recall(self, w: np.ndarray):
        """The stored value if it was formed at these exact bytes of w."""
        return self.value if self.key == w.tobytes() else None


def margins_reference(dataset: Dataset, w: np.ndarray) -> np.ndarray:
    """The margins z = -y * (Xw) in numpy and scipy."""
    return -dataset.labels * (dataset.matrix @ w)


def forward_reference(dataset: Dataset, w: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one forward pass of every logistic oracle in numpy and scipy:
    the margins z = -y * (Xw), e = exp(-|z|) and the loss terms
    softplus(z).  The reference for the compiled forward pass."""
    z = margins_reference(dataset, w)
    e = exp_neg_abs(z)
    return z, e, softplus(z, e)


def coefficients(labels: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """c = -y * sigmoid(z) from e = exp(-|z|): sigmoid(z) is 1/(1 + e)
    where z >= 0 and e/(1 + e) elsewhere (NaN where z is NaN)."""
    return -labels * (np.where(z >= 0, 1.0, e) / (1.0 + e))


def gradient_reference(dataset: Dataset, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(1/m) X'c with c = -y * sigmoid(z), from the margins z and
    e = exp(-|z|), in numpy and scipy: one pass over the coefficients and
    one transpose pass.  The reference for the compiled gradient."""
    coeff = coefficients(dataset.labels, z, e)
    return (dataset.matrix_t @ coeff) / dataset.n_points


def _compiled(dataset: Dataset):
    """The loaded kernel and the data set's binding to it, or
    ``(None, None)`` when the logistic oracle runs its numpy/scipy code."""
    kernel = _cdkernel.KERNEL
    bound = None if kernel is None else kernel.bind(dataset)
    return (None, None) if bound is None else (kernel, bound)


def logistic_value(dataset: Dataset, w: np.ndarray,
                   memo: Memo | None = None) -> float:
    """Average logistic loss (1/m) sum_i log(1 + exp(-y_i w'x_i))."""
    w = _vector(w, dataset.n_features, "w")
    kernel, bound = _compiled(dataset)
    if kernel is None:
        z, e, t = forward_reference(dataset, w)
        value, forward = float(np.mean(t)), (z, e)
    else:
        value, forward = kernel.value(bound, w)
    if memo is not None:
        memo.store(w, forward)
    return value


def logistic_gradient(dataset: Dataset, w: np.ndarray,
                      memo: Memo | None = None) -> np.ndarray:
    """Gradient -(1/m) sum_i y_i sigmoid(-y_i w'x_i) x_i."""
    w = _vector(w, dataset.n_features, "w")
    forward = None if memo is None else memo.recall(w)
    if forward is None:
        return logistic_value_and_gradient(dataset, w)[1]
    kernel, bound = _compiled(dataset)
    if kernel is None:
        return gradient_reference(dataset, *forward)
    return kernel.grad(bound, forward)


def logistic_value_and_gradient(
    dataset: Dataset, w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and gradient sharing one pass over the margins and one exp:
    :func:`logistic_value` and then :func:`logistic_gradient` on one
    memo."""
    memo = Memo()
    value = logistic_value(dataset, w, memo)
    return value, logistic_gradient(dataset, w, memo)


def _vector(x, n: int, name: str) -> np.ndarray:
    """``x`` as float64, which must have shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    return x


def l1_value(w: np.ndarray, lam: float) -> float:
    return float(lam * np.abs(w).sum())


def soft_threshold_vec(v: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0): minimizer of 0.5||u-v||^2 + tau||u||_1."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_l1_scaled_identity(v: np.ndarray, mu: float, lam: float) -> np.ndarray:
    """Exact minimizer of lam*||u||_1 + (1/(2 mu))||u - v||^2."""
    if mu <= 0:
        raise ValueError("step must be positive")
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return soft_threshold_vec(np.asarray(v, dtype=np.float64), mu * lam)


def min_norm_subgradient(grad: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """Smallest-norm element of the subdifferential of f + lam*||.||_1.

    Componentwise: grad_j + lam*sign(w_j) where w_j != 0, and the
    shrinkage sign(grad_j)*max(|grad_j| - lam, 0) on the zero set.
    Vanishes exactly at minimizers.
    """
    grad = np.asarray(grad, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if grad.shape != w.shape:
        raise ValueError(f"shape mismatch: {grad.shape} vs {w.shape}")
    out = grad + lam * np.sign(w)
    zero = w == 0.0
    out[zero] = np.sign(grad[zero]) * np.maximum(np.abs(grad[zero]) - lam, 0.0)
    return out


@dataclass(frozen=True)
class CompositeProblem:
    """Oracle pair for F = f + lam*||.||_1.

    ``value_and_grad`` shares work between the two smooth oracles; the
    l1 part is handled by the module-level prox helpers.  ``gamma`` is a
    known strong-convexity lower bound of f (0 when unknown) and
    ``lipschitz`` an upper bound on the gradient Lipschitz constant
    (None when unknown).  Oracles are pure; instances can be shared
    across concurrent runs.

    ``f_value(w, memo=None)`` and ``f_grad(w, memo=None)`` take a
    :class:`Memo` that the driver run owns: the drivers pass it to every
    trial ``f_value`` and to the ``f_grad`` at the accepted point, so
    ``f_grad`` can reuse what ``f_value`` formed at the same w.  A
    user-built oracle must accept ``memo`` and may ignore it.
    """

    n: int
    lam: float
    f_value: Callable[..., float]
    f_grad: Callable[..., np.ndarray]
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    gamma: float = 0.0
    lipschitz: float | None = None
    name: str = "composite"


def logistic_problem(dataset: Dataset, lam: float) -> CompositeProblem:
    """l1-regularized average logistic loss over a dataset.

    The Lipschitz bound uses sigmoid'(t) <= 1/4:
    L <= lambda_max(X'X) / (4m), estimated with a sparse SVD.  ARPACK
    starts from a seeded vector, so the bound is the same bits on every
    build.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    import scipy.sparse.linalg as spla

    try:
        smax = spla.svds(dataset.matrix, k=1, return_singular_vectors=False,
                         rng=np.random.default_rng(0))[0]
        lipschitz = float(smax**2 / (4.0 * dataset.n_points))
    except (ValueError, spla.ArpackError):
        # svds refuses a matrix with one row or one column (k must be
        # below min(A.shape)); ARPACK may fail to converge.
        lipschitz = None
    return CompositeProblem(
        n=dataset.n_features,
        lam=lam,
        f_value=lambda w, memo=None: logistic_value(dataset, w, memo),
        f_grad=lambda w, memo=None: logistic_gradient(dataset, w, memo),
        value_and_grad=lambda w: logistic_value_and_gradient(dataset, w),
        gamma=0.0,
        lipschitz=lipschitz,
        name="logistic",
    )


def quadratic_problem(quad: SyntheticQuadratic, lam: float) -> CompositeProblem:
    """f(x) = 0.5 x'Ax - b'x with the spectrum of A known exactly."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")

    def value(w: np.ndarray, memo: Memo | None = None) -> float:
        w = _vector(w, quad.n, "w")
        aw = quad.matvec(w)
        if memo is not None:
            memo.store(w, aw)
        return float(0.5 * w @ aw - quad.b @ w)

    def grad(w: np.ndarray, memo: Memo | None = None) -> np.ndarray:
        w = _vector(w, quad.n, "w")
        aw = None if memo is None else memo.recall(w)
        if aw is None:
            aw = quad.matvec(w)
        return aw - quad.b

    def value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = _vector(w, quad.n, "w")
        aw = quad.matvec(w)
        return float(0.5 * w @ aw - quad.b @ w), aw - quad.b

    return CompositeProblem(
        n=quad.n,
        lam=lam,
        f_value=value,
        f_grad=grad,
        value_and_grad=value_and_grad,
        gamma=quad.gamma,
        lipschitz=quad.lmax,
        name="quadratic",
    )
