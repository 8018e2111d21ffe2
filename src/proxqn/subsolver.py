"""Randomized coordinate descent on the composite quadratic model.

Minimizes Q_H(u, v) = f(v) + <grad_v, u-v> + 0.5||u-v||_H^2 + lam*||u||_1
for diagonal-plus-low-rank H.  Each coordinate step is exact (1-D soft
threshold) and costs O(p) thanks to an incrementally maintained gradient
cache.  Also houses the cyclic solver used as ground truth in tests.

The step loops of :func:`cd_minimize` and :func:`exact_solve_oracle`
run in the compiled kernel of :mod:`proxqn._cdkernel`, built when that
module is imported; without a C compiler or numpy's BLAS symbols, or
with ``_cdkernel.KERNEL`` set to None, they run in Python.  Both
backends give bit-identical results, and :meth:`CdWorkspace.step`
stays the reference they are checked against.

A driver run holds one :class:`CdRun`: one workspace per run, not per
solve, and coordinates drawn a block at a time, which gives each solve
the indices a draw of its own would.
"""

from __future__ import annotations

import numpy as np

from . import _cdkernel
from .hessian import HessianModel
from .problem import _vector, min_norm_subgradient, soft_threshold_vec


def phi_constant(m: float, M: float) -> float:
    """Coordinate-descent contraction constant: 1 - m/(4M) when m <= 2M,
    M/m otherwise (the second branch is vacuous for genuine bounds m <= M)."""
    if m <= 0 or M <= 0:
        raise ValueError("eigenvalue bounds must be positive")
    if m <= 2 * M:
        return 1.0 - m / (4.0 * M)
    return M / m


class CdWorkspace:
    """Mutable state of coordinate-descent solves of one shape (n, p).

    Tracks the iterate ``u``, the displacement d = u - v, and the
    low-rank projection q = Q'd (``qcache``), so the j-th smooth-model
    gradient component grad_v[j] + [H(u-v)]_j is available in O(p).
    Single-owner: one workspace per run, which :meth:`load` readies for
    each solve.  q and qw_scaled (n, p), qcache (p,), and diag, grad_v,
    v, u and d (n,) are C-contiguous float64 arrays of its own, which
    :meth:`load` and :meth:`step` write in place, so the struct of their
    addresses that the compiled kernel builds at its first use stays
    valid.
    """

    def __init__(self, model: HessianModel, grad_v: np.ndarray, v: np.ndarray,
                 lam: float):
        n = model.n
        if n < 1:
            raise ValueError("model dimension must be at least 1")
        p = model.p
        self.q, self.qw_scaled = np.zeros((n, p)), np.zeros((n, p))
        self.qcache = np.zeros(p)
        self.diag, self.grad_v, self.v, self.u, self.d = (
            np.zeros(n) for _ in range(5))
        self.model = None
        self.load(model, grad_v, v, lam)

    def load(self, model: HessianModel, grad_v: np.ndarray, v: np.ndarray,
             lam: float) -> None:
        """Ready the workspace for a solve from u = v of ``model``, of
        this workspace's n and p: the model rows that differ from the
        last model's are rewritten, grad_v and v copied in, and d and
        qcache zeroed."""
        n = self.v.shape[0]
        grad_v = _vector(grad_v, n, "grad_v")
        v = _vector(v, n, "v")
        last = self.model
        if last is not model:
            if last is None or last.q is not model.q:
                self.q[...] = model.q
            scale_moved = last is None or last.scale != model.scale
            if scale_moved or last.qw is not model.qw:
                np.multiply(model.scale, model.qw, out=self.qw_scaled)
            # A delta of -0.0 against 0.0 can only change the sign of a
            # zero diagonal, which a step refuses either way.
            if (scale_moved or last.delta != model.delta
                    or last.low_rank_diag is not model.low_rank_diag):
                np.add(model.delta, model.low_rank_diag, out=self.diag)
                self.diag *= model.scale
            self.eff_delta = model.scale * model.delta
            self.model = model
        self.lam = float(lam)
        self.grad_v[...] = grad_v
        self.v[...] = v
        self.u[...] = v
        self.d.fill(0.0)
        self.qcache.fill(0.0)

    def step(self, j: int) -> float:
        """Exact minimization over coordinate j; returns the move z*."""
        a = self.diag[j]
        if a <= 0:
            raise ValueError(f"nonpositive model diagonal at coordinate {j}")
        b = self.grad_v[j] + self.eff_delta * self.d[j]
        low_rank = self.qcache.shape[0] > 0
        if low_rank:
            b += self.qw_scaled[j] @ self.qcache
        uj = self.u[j]
        w = uj - b / a
        thr = self.lam / a
        if w > thr:
            w -= thr
        elif w < -thr:
            w += thr
        else:
            w = 0.0
        z = w - uj
        if z != 0.0:
            self.u[j] = w
            self.d[j] += z
            if low_rank:
                self.qcache += z * self.q[j]
        return z

    def smooth_gradient(self) -> np.ndarray:
        """Full grad_v + H(u - v), recomputed from the cache in O(np)."""
        g = self.grad_v + self.eff_delta * self.d
        if self.qcache.shape[0]:
            g = g + self.qw_scaled @ self.qcache
        return g

    def cache_error(self) -> float:
        """Inf-norm gap between the cache and a direct recomputation."""
        direct = self.grad_v + self.model.apply(self.u - self.v)
        return float(np.max(np.abs(self.smooth_gradient() - direct)))


# Coordinates a driver's run draws at a time.  numpy's bounded int64
# draws below 2**32 concatenate: draws of r1, r2, ... indices give the
# indices of one draw of r1 + r2 + ... and leave the generator in the
# same state, so drawing ahead moves no bit of any solve.
BLOCK = 4096


class CdRun:
    """Coordinate-descent state of one driver run over dimension n: its
    seeded generator, the coordinates drawn from it and not yet used
    (``indices``), and one :class:`CdWorkspace`, rebuilt only when a
    solve's p differs from the last one's.  Each solve hands its slice
    of ``indices`` to the loop, so a copy or a pickle of a run needs no
    hook.

    A run draws coordinates ``block`` at a time (at least as many as a
    solve needs); with ``block`` 0 it draws each solve's r and no more,
    so a caller's generator is left where r draws leave it.
    """

    def __init__(self, seed: int | np.random.Generator, n: int,
                 block: int = BLOCK):
        self.rng = (seed if isinstance(seed, np.random.Generator)
                    else np.random.default_rng(seed))
        self.n = n
        self.block = block
        self.indices = np.empty(0, dtype=np.int64)
        self.used = 0
        self.ws: CdWorkspace | None = None

    def workspace(self, model: HessianModel, grad_v: np.ndarray,
                  v: np.ndarray, lam: float) -> CdWorkspace:
        """The run's workspace, loaded for a solve of ``model`` from v."""
        if model.n != self.n:
            raise ValueError(f"model has dimension {model.n}, "
                             f"the run {self.n}")
        ws = self.ws
        if ws is None or ws.qcache.shape[0] != model.p:
            ws = self.ws = CdWorkspace(model, grad_v, v, lam)
        else:
            ws.load(model, grad_v, v, lam)
        return ws

    def take(self, r: int) -> int:
        """Offset in ``indices`` of the next r coordinates of the stream,
        which the call marks as used."""
        start, left = self.used, self.indices.shape[0] - self.used
        if left < r:
            fresh = self.rng.integers(0, self.n, size=max(self.block, r - left))
            self.indices = np.concatenate((self.indices[start:], fresh))
            start = 0
        self.used = start + r
        return start


def cd_minimize(
    model: HessianModel,
    grad_v: np.ndarray,
    v: np.ndarray,
    lam: float,
    r: int,
    seed: int | np.random.Generator | CdRun = 0,
) -> tuple[np.ndarray, int]:
    """Randomized coordinate descent from u_0 = v; returns the iterate
    and r, the number of steps taken: a solve always takes exactly r.

    Coordinates are drawn uniformly from a seeded PCG64 generator
    (numpy's default_rng) using unbiased bounded sampling, so traces are
    bit-reproducible across platforms.  ``seed`` is a seed, a generator,
    which gets exactly r draws, or a driver's :class:`CdRun`, whose
    stream and workspace the solve continues.  Q_H(u, v) never increases
    along the steps.
    """
    if r < 0:
        raise ValueError("step count must be nonnegative")
    run = seed if isinstance(seed, CdRun) else CdRun(seed, model.n, block=0)
    ws = run.workspace(model, grad_v, v, lam)
    if r > 0:
        start = run.take(r)
        indices = run.indices[start:start + r]
        kernel = _cdkernel.KERNEL
        if kernel is not None:
            kernel.random(ws, indices)
        else:
            random_loop(ws, indices)
    return ws.u.copy(), r


def random_loop(ws: CdWorkspace, indices: np.ndarray) -> None:
    """Steps of :func:`cd_minimize` at ``indices`` in Python; the
    reference for ``Kernel.random``."""
    for j in indices:
        ws.step(int(j))


def exact_solve_oracle(
    model: HessianModel,
    grad_v: np.ndarray,
    v: np.ndarray,
    lam: float,
    tol: float,
    max_steps: int = 10**7,
    run: CdRun | None = None,
) -> tuple[np.ndarray, int]:
    """Cyclic coordinate descent until the subproblem's min-norm
    subgradient has inf-norm at most tol; returns the iterate and the
    number of steps taken.  Ground truth for epsilon-minimizer checks;
    raises past ``max_steps`` coordinate steps.  A driver passes its
    :class:`CdRun`, whose workspace the solve reuses.

    A sweep whose largest move falls below the 1e-16 step floor cannot
    improve the certificate any further in double precision, so the
    solve returns the current iterate even if ``tol`` is below that
    rounding floor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ws = (CdWorkspace(model, grad_v, v, lam) if run is None
          else run.workspace(model, grad_v, v, lam))
    kernel = _cdkernel.KERNEL
    if kernel is not None:
        steps = kernel.exact(ws, tol, max_steps)
    else:
        steps = exact_loop(ws, tol, max_steps)
    return ws.u.copy(), steps


def exact_loop(ws: CdWorkspace, tol: float, max_steps: int) -> int:
    """Sweeps of :func:`exact_solve_oracle` in Python; the reference for
    ``Kernel.exact``."""
    n = ws.v.shape[0]
    steps = 0
    while True:
        norm = float(np.max(np.abs(
            min_norm_subgradient(ws.smooth_gradient(), ws.u, ws.lam)
        )))
        if norm <= tol:
            return steps
        floor = 1e-16 * (1.0 + float(np.max(np.abs(ws.u))))
        biggest = 0.0
        for j in range(n):
            biggest = max(biggest, abs(ws.step(j)))
        steps += n
        if biggest <= floor:
            return steps
        if steps > max_steps:
            raise RuntimeError(
                f"exact subproblem solve exceeded {max_steps} coordinate steps"
            )


def solve_scaled_identity(
    model: HessianModel, grad_v: np.ndarray, v: np.ndarray, lam: float
) -> np.ndarray:
    """Closed-form minimizer when H = c*I (no low-rank part): the
    componentwise soft threshold of v - grad_v/c at level lam/c."""
    if model.p != 0:
        raise ValueError("closed form requires a pure diagonal model")
    c = model.scale * model.delta
    return soft_threshold_vec(v - grad_v / c, lam / c)
