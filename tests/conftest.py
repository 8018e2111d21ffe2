import contextlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from proxqn import _cdkernel
from proxqn.dataset import Dataset, SyntheticQuadratic, synthesize_quadratic
from proxqn.problem import logistic_problem, quadratic_problem


def pytest_report_header(config):
    """Names the backend the suite runs on, and why."""
    return f"proxqn backend: {_cdkernel.backend()}"


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; the summary keeps the backend in the log.
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


def make_dataset(rows, labels, n_features=None):
    """Dataset from a list of [(idx, val), ...] rows."""
    n_features = n_features or (max(i for r in rows for i, _ in r) + 1)
    indptr = [0]
    indices = []
    data = []
    for r in rows:
        for i, v in r:
            indices.append(i)
            data.append(v)
        indptr.append(len(indices))
    mat = sp.csr_matrix((data, indices, indptr), shape=(len(rows), n_features))
    return Dataset(mat, np.asarray(labels, dtype=float))


@contextlib.contextmanager
def on_backend(name):
    """A context on the Python code with ``KERNEL = None`` ("python"),
    on the compiled kernel, skipped where it did not load ("c"), or on
    the backend the import chose ("active"); it yields its MonkeyPatch,
    which undoes the switch and any other patch on exit."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "python":
            mp.setattr(_cdkernel, "KERNEL", None)
        elif name == "c" and _cdkernel.KERNEL is None:
            pytest.skip(_cdkernel.backend())
        yield mp


def infinite_gradient(problem):
    """``problem`` with +inf in the first entry of every f_grad."""
    def grad(w, memo=None):
        g = problem.f_grad(w, memo).copy()
        g[0] = np.inf
        return g
    return replace(problem, f_grad=grad)


@pytest.fixture(scope="session")
def small_logistic():
    rng = np.random.default_rng(7)
    mat = sp.random(60, 15, density=0.4, format="csr",
                    random_state=np.random.RandomState(7))
    mat.data = rng.standard_normal(mat.nnz)
    labels = np.where(rng.standard_normal(60) > 0, 1.0, -1.0)
    return logistic_problem(Dataset(mat, labels), 1e-3)


@pytest.fixture(scope="session")
def small_quadratic():
    return quadratic_problem(synthesize_quadratic(20, 0.3, 6.0, 5), 0.02)


def identity_quadratic(n, b=None):
    """f(x) = 0.5||x||^2 - b'x as a SyntheticQuadratic."""
    return SyntheticQuadratic(np.ones(n), np.eye(n),
                              np.zeros(n) if b is None else np.asarray(b, float))
