"""Independent reference computations used to cross-check the fast paths.

These deliberately avoid the closed forms and compact representations
they validate: golden-section search against the soft threshold, the
dense BFGS recursion against the compact matrix, central differences
against analytic gradients.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_by_comparison(delta, lo: float, hi: float,
                                  tol: float = 1e-13,
                                  max_iter: int = 400) -> float:
    """Golden section driven by a sign oracle delta(z1, z2) ~ f(z2) - f(z1).

    Comparing differences instead of absolute values removes the
    |f|-proportional rounding floor of comparing f values.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if delta(c, d) > 0.0:  # f(d) > f(c): keep [a, d]
            b, d = d, c
            c = b - _INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + _INVPHI * (b - a)
    return 0.5 * (a + b)


def _piecewise_quadratic_delta(a: float, b: float, u_j: float, lam: float):
    """Difference oracle for psi(z) = 0.5 a z^2 + b z + lam |u_j + z|.

    psi(z2) - psi(z1) in factored form, with the kink term resolved by
    sign branch so like-magnitude cancellation never occurs.
    """

    def delta(z1: float, z2: float) -> float:
        t1, t2 = u_j + z1, u_j + z2
        if t1 >= 0.0 and t2 >= 0.0:
            kink = lam * (z2 - z1)
        elif t1 <= 0.0 and t2 <= 0.0:
            kink = -lam * (z2 - z1)
        else:
            kink = lam * (abs(t2) - abs(t1))
        return 0.5 * a * (z2 - z1) * (z2 + z1) + b * (z2 - z1) + kink

    return delta


def coordinate_step_reference(a: float, b: float, u_j: float,
                              lam: float) -> float:
    """Golden-section minimizer of the 1-D coordinate restriction of the
    composite model, psi(z) = 0.5 a z^2 + b z + lam |u_j + z|."""
    radius = (abs(b) + lam) / a + abs(u_j) + 1.0
    return _golden_section_by_comparison(
        _piecewise_quadratic_delta(a, b, u_j, lam), -radius, radius)


def prox_scalar_reference(v: float, tau: float) -> float:
    """Golden-section minimizer of 0.5(u - v)^2 + tau |u|.

    Same piecewise-quadratic family with a = 1, b = -v (the constant
    v^2/2 cancels in differences).
    """
    radius = abs(v) + tau + 1.0
    return _golden_section_by_comparison(
        _piecewise_quadratic_delta(1.0, -v, 0.0, tau), -radius, radius)


def dense_bfgs_matrix(s_cols: np.ndarray, y_cols: np.ndarray,
                      delta: float) -> np.ndarray:
    """BFGS recursion applied to delta*I, pairs in chronological order.

    B <- B - (B s s' B)/(s'Bs) + (y y')/(y's) per stored pair; the
    reference the compact form must reproduce.
    """
    n = s_cols.shape[0]
    b = delta * np.eye(n)
    for i in range(s_cols.shape[1]):
        s = s_cols[:, i]
        y = y_cols[:, i]
        bs = b @ s
        b = b - np.outer(bs, bs) / (s @ bs) + np.outer(y, y) / (y @ s)
    return b


def directional_derivative(f, x: np.ndarray, d: np.ndarray,
                           h: float = 1e-6) -> float:
    """Central difference (f(x + h d) - f(x - h d)) / (2h)."""
    return (f(x + h * d) - f(x - h * d)) / (2.0 * h)
