"""F* of the benchmark's problems, computed without proxqn.

Each solve is checked against F*.  The objectives are written out here
from the raw inputs and minimized with scipy's L-BFGS-B over the split
x = u - v, u, v >= 0, so a fault in the package's oracles that moves
every driver's F alike still fails the check.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

# The seed-0 a9a proxy with lambda = 1e-3.  The logistic workload always
# solves this problem (the seed only reorders its rows), so F* is fixed;
# the tests recompute it with logistic_fstar.
LOGISTIC_FSTAR = 0.5379757190063353


# A reference point x is accepted when the proximal-gradient step from
# it, x - prox_{t lam}(x - t grad), is below this in max-norm.
STEP_TOL = 1e-7
# The quadratic reference is then refined by proximal-gradient steps
# until they move x by less than this.
POLISH_TOL = 1e-13
POLISH_MAX_STEPS = 100000


def _prox_step(x: np.ndarray, grad: np.ndarray, lam: float, t: float) -> np.ndarray:
    v = x - t * grad
    return np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0)


def _split_minimizer(value_grad, n: int, lam: float, t: float) -> np.ndarray:
    """Minimizer of value(x) + lam ||x||_1, for a smooth convex value.

    L-BFGS-B may stop with an abnormal line search once it is at the
    limit of precision, so optimality is checked directly instead of
    through its message."""
    def objective(z):
        value, grad = value_grad(z[:n] - z[n:])
        return (value + lam * z.sum(),
                np.concatenate([grad + lam, lam - grad]))

    result = minimize(objective, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                      bounds=[(0.0, None)] * (2 * n),
                      options={"ftol": 1e-16, "gtol": 1e-13,
                               "maxiter": 20000, "maxcor": 30})
    x = result.x[:n] - result.x[n:]
    step = np.max(np.abs(x - _prox_step(x, value_grad(x)[1], lam, t)))
    if step > STEP_TOL:
        raise RuntimeError(f"reference solve stopped {step:.1e} from optimal: "
                           f"{result.message}")
    return x


def _objective(value_grad, x: np.ndarray, lam: float) -> float:
    return value_grad(x)[0] + lam * float(np.abs(x).sum())


def logistic_fstar(matrix, labels: np.ndarray, lam: float) -> float:
    """F* of the average logistic loss plus lam ||w||_1."""
    m = matrix.shape[0]

    def value_grad(w):
        margins = -labels * (matrix @ w)
        grad = matrix.T @ (-labels * expit(margins)) / m
        return float(np.mean(np.logaddexp(0.0, margins))), grad

    x = _split_minimizer(value_grad, matrix.shape[1], lam, 1.0)
    return _objective(value_grad, x, lam)


def quadratic_fstar(basis: np.ndarray, eigenvalues: np.ndarray,
                    b: np.ndarray, lam: float) -> float:
    """F* of x'Ax/2 - b'x + lam ||x||_1 with A = V diag(eigenvalues) V'."""
    a = (basis * eigenvalues) @ basis.T

    def value_grad(x):
        ax = a @ x
        return float(0.5 * x @ ax - b @ x), ax - b

    t = 1.0 / eigenvalues.max()
    x = _split_minimizer(value_grad, b.shape[0], lam, t)
    for _ in range(POLISH_MAX_STEPS):
        x_next = _prox_step(x, value_grad(x)[1], lam, t)
        moved = np.max(np.abs(x_next - x))
        x = x_next
        if moved <= POLISH_TOL * max(1.0, np.max(np.abs(x))):
            return _objective(value_grad, x, lam)
    raise RuntimeError(f"reference polish stopped {moved:.1e} from optimal")
