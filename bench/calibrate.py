"""Calibration kernels: fixed work, timed between solves, that measures how
fast the host is running at the moment.

On a shared host the same solve takes up to 1.8x longer in a slow spell,
and a spell can last longer than a whole run, so no statistic over one
run's repeats removes it.  The benchmark therefore runs a kernel of fixed
work between its solves and scales each measured time by the kernel's
reference time over the mean of the kernel runs around it (``scaled``
below).  A slow spell stretches the solves and the kernel alike and
cancels; a change to proxqn moves the solves only, because the kernels
are written here from numpy alone and never call the package.

Each workload uses a kernel whose work is like its own: the quadratic
workloads spend their time in Python-level coordinate steps on small
numpy arrays, and the logistic workload about three quarters of its
time in sparse products and elementwise exp/log over 32561 rows and
the rest in such steps and the drivers' own bookkeeping.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from statistics import fmean

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


class Kernel:
    """Fixed work whose time tracks the host's speed.  ``reference_s`` is
    about its median time on a 2-core x86 Xeon host with Python 3.11 and
    numpy 2.4; scaled times are in seconds of that host."""

    reference_s: float

    def run(self) -> None:
        raise NotImplementedError

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class LogisticKernel(Kernel):
    """Value and gradient of the average logistic loss at a fixed point,
    40 times, on a private copy of the workload's data set."""

    reference_s = 0.125

    def __init__(self, matrix, labels: np.ndarray):
        self.matrix = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        self.labels = np.array(labels, dtype=np.float64)
        self.w = np.full(self.matrix.shape[1], 0.01)

    def run(self) -> None:
        x, y, m = self.matrix, self.labels, self.matrix.shape[0]
        for _ in range(40):
            margins = -y * (x @ self.w)
            x.T @ (-y * expit(margins)) / m
            np.mean(np.logaddexp(0.0, margins))


class CoordinateKernel(Kernel):
    """``steps`` cyclic coordinate steps of an l1-regularized model in 25
    coordinates with a diagonal and a rank-10 part, one Python call per
    step on numpy scalars and short vectors, as a coordinate-descent
    subsolver makes."""

    N, RANK = 25, 10

    def __init__(self, steps: int = 25000):
        self.reference_s = 0.105 * steps / 25000
        self.steps = steps
        rng = np.random.default_rng(0)
        self.q = rng.normal(size=(self.N, self.RANK))
        self.qw = rng.normal(size=(self.N, self.RANK))
        self.diag = 1.0 + np.abs(rng.normal(size=self.N))
        self.grad = rng.normal(size=self.N)

    def run(self) -> None:
        self.u = np.zeros(self.N)
        self.d = np.zeros(self.N)
        self.cache = np.zeros(self.RANK)
        for k in range(self.steps):
            self._step(k % self.N)

    def _step(self, j: int) -> None:
        a = self.diag[j]
        b = self.grad[j] + 0.5 * self.d[j]
        b += self.qw[j] @ self.cache
        uj = self.u[j]
        w = uj - b / a
        thr = 0.01 / a
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
            self.cache += 1e-3 * z * self.q[j]


class MixedKernel(Kernel):
    """The parts, one after another."""

    def __init__(self, *parts: Kernel):
        self.parts = parts
        self.reference_s = sum(part.reference_s for part in parts)

    def run(self) -> None:
        for part in self.parts:
            part.run()


# A measured time is scaled by the mean of this many kernel runs on each
# side of it.  Spells of the host last from a fraction of a second to
# minutes, so the nearest runs track the speed a time was measured at;
# a mean over the run's runs does not when a spell starts or ends in it.
NEAR = 2


def scaled(kernel: Kernel, runs: list[tuple[float, float]],
           times: list[tuple[float, float]]) -> list[float]:
    """``times`` on the reference host.  Both lists hold (start, seconds)
    in the order they were taken; each time is scaled by the kernel's
    reference time over the mean of the NEAR kernel runs that started
    last before it and the NEAR that started first after it."""
    starts = [start for start, _ in runs]
    out = []
    for start, seconds in times:
        i = bisect_left(starts, start)
        near = [run for _, run in runs[max(i - NEAR, 0):i + NEAR]]
        out.append(seconds * kernel.reference_s / fmean(near))
    return out
