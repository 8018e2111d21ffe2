"""Seeded driver traces pinned against a stored file.

Each case replays a small seeded run and compares its status, its
diagnostics (in the field order of ``Diagnostics``) and every
``TraceRecord`` field except ``elapsed_sec`` with
``data/golden_traces.json``; floats are
stored as ``float.hex`` so the comparison is bit-exact.  Together the cases take every branch of
the drivers' step-size and model policies: relaxed and strict
domination, the exact subsolver, a custom ``model_factory``, the
logistic oracles on valued and on binary data, the fixed base after
warm-ups of 8, 6 and 0 iterations, an explicit base, a run stopped
inside the warm-up, the three ``run_pqna`` Hessian modes, and a
backtracking failure.

Every case runs twice: on the active backend (the compiled kernel
wherever it builds, for the coordinate-descent loops and the logistic
oracle) and on the Python code.  Both must match the file, since the
kernel forms each product with numpy's own BLAS routine, sums each
sparse product in scipy's order and repeats the rest of the arithmetic
in the Python order.  The file pins the numpy, scipy and BLAS builds it was generated
with, and the SIMD level that picks numpy's `exp` loop: another build
moves the last bits of the traces.  Such a change regenerates the file
openly, with a note in CHANGES.md, by running

    PYTHONPATH=src python tests/test_golden_traces.py

A refactor of the drivers must leave the file unchanged.  A change
whose purpose is to move the last bits (a numerics change: another
expression for an oracle, an intermediate formed another way) follows
this rule:

* it regenerates the file in a commit of its own, which changes
  nothing else;
* it pastes the tables of ``tests/golden_diff.py`` and
  ``tests/golden_diff.py --python``, run against the file before
  regeneration, into CHANGES.md;
* no case changes its status, and every final F lies within the
  tolerance-induced gap that the table reports (cases without a
  strong-convexity bound report ``n/a``, and their F drift is shown
  instead);
* every change in iterations or backtracks is explained in CHANGES.md;
* cases whose code path the change does not touch stay byte-identical.

The test itself stays bit-exact on both backends: nothing is loosened.
"""

import json
import os
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from proxqn import _cdkernel
from proxqn.dataset import Dataset, synthesize_quadratic
from proxqn.hessian import HessianModel
from proxqn.optimizers import (
    Diagnostics,
    OptimizerConfig,
    TraceRecord,
    run_apga,
    run_apqna,
    run_apqna_fh,
    run_pga,
    run_pqna,
)
from proxqn.problem import CompositeProblem, logistic_problem, quadratic_problem

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_traces.json")
COMPARED = [f.name for f in fields(TraceRecord) if f.name != "elapsed_sec"]


def _quad(n=20, seed=5, lam=0.02):
    return quadratic_problem(synthesize_quadratic(n, 0.3, 6.0, seed), lam)


def _logistic(binary=False):
    """A 60 x 15 data set with 40% nonzeros; ``binary`` sets each
    nonzero to 1.0."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((60, 15)) * (rng.random((60, 15)) < 0.4)
    if binary:
        dense = (dense != 0.0).astype(np.float64)
    labels = np.where(rng.standard_normal(60) > 0, 1.0, -1.0)
    return logistic_problem(Dataset(sp.csr_matrix(dense), labels), 1e-3)


def _broken():
    """Finite only at the origin, so every step is rejected."""
    def value(w, memo=None):
        return 0.0 if not np.any(w) else float("inf")
    return CompositeProblem(n=3, lam=0.0, f_value=value,
                            f_grad=lambda w, memo=None: np.ones(3),
                            value_and_grad=lambda w: (value(w), np.ones(3)))


_AXIS_MODELS = [
    HessianModel(1.0, 2, np.array([[1.0], [0.0]]), np.array([[9.0]])),
    HessianModel(1.0, 2, np.array([[0.0], [1.0]]), np.array([[9.0]])),
]


def _alternating(k, pairs):
    return _AXIS_MODELS[k % 2]


def _cfg(**kw):
    kw.setdefault("tol", 1e-6)
    kw.setdefault("max_iters", 80)
    return OptimizerConfig(**kw)


CASES = {
    "pga": lambda: run_pga(_quad(), _cfg(seed=1)),
    "apga": lambda: run_apga(_quad(), _cfg(seed=1)),
    "pqna-lbfgs": lambda: run_pqna(
        _quad(), _cfg(seed=2, diagnostics=True), "lbfgs"),
    "pqna-fixed": lambda: run_pqna(_quad(), _cfg(seed=2), "fixed"),
    "pqna-zero": lambda: run_pqna(_quad(), _cfg(seed=2), "zero"),
    "apqna-relaxed": lambda: run_apqna(_quad(seed=14), _cfg(seed=2)),
    "apqna-relaxed-x0": lambda: run_apqna(
        _quad(seed=14), _cfg(seed=3, max_iters=40),
        x0=np.linspace(-1.0, 1.0, 20)),
    "apqna-strict": lambda: run_apqna(
        _quad(n=8, seed=15, lam=0.05), _cfg(seed=4, domination="strict")),
    "apqna-strict-exact": lambda: run_apqna(
        _quad(n=8, seed=16, lam=0.05),
        _cfg(seed=5, domination="strict", subsolver="exact", max_iters=40)),
    "apqna-alternating": lambda: run_apqna(
        quadratic_problem(synthesize_quadratic(2, 0.2, 0.9, seed=3), 0.01),
        _cfg(seed=1, domination="strict", tol=1e-30, max_iters=30),
        model_factory=_alternating),
    "apqna-logistic": lambda: run_apqna(_logistic(), _cfg(seed=6)),
    "apqna-fh-logistic": lambda: run_apqna_fh(_logistic(), _cfg(seed=6)),
    "apqna-logistic-binary": lambda: run_apqna(_logistic(binary=True),
                                               _cfg(seed=6)),
    "apqna-fh-warmup8": lambda: run_apqna_fh(
        _quad(seed=18), _cfg(seed=6, tol=1e-3, max_iters=120)),
    "apqna-fh-warmup6": lambda: run_apqna_fh(
        _quad(n=25, seed=20, lam=0.01),
        _cfg(seed=8, warmup=6, diagnostics=True)),
    "apqna-fh-warmup0": lambda: run_apqna_fh(
        _quad(seed=22), _cfg(seed=9, warmup=0)),
    "apqna-fh-base": lambda: run_apqna_fh(
        _quad(n=30, seed=19, lam=0.0),
        _cfg(seed=7, warmup=0, diagnostics=True),
        base=HessianModel(1.0, 30)),
    "apqna-fh-inside-warmup": lambda: run_apqna_fh(
        _quad(seed=18), _cfg(seed=6, max_iters=5)),
    "apqna-fh-backtrack-failure": lambda: run_apqna_fh(
        _broken(), _cfg(warmup=0, backtrack_cap=5),
        base=HessianModel(1.0, 3)),
    "apqna-backtrack-failure": lambda: run_apqna(
        _broken(), _cfg(backtrack_cap=5)),
}


def _atom(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    return str(v)


def _row(values) -> str:
    return " ".join(_atom(v) for v in values)


def _diagnostic(value):
    if isinstance(value, list):
        return [_row(entry) for entry in value]
    if isinstance(value, tuple):
        return _row(value)
    return _atom(value)


def encode(trace) -> dict:
    return {
        "status": trace.status,
        "diagnostics": {f.name: _diagnostic(value)
                        for f in fields(Diagnostics)
                        if (value := getattr(trace.diagnostics, f.name))
                        not in (None, [])},
        "records": [_row(getattr(r, name) for name in COMPARED)
                    for r in trace.records],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def check_case(case, golden):
    got = encode(CASES[case]())
    want = golden[case]
    assert got["status"] == want["status"]
    assert len(got["records"]) == len(want["records"])
    for i, (a, b) in enumerate(zip(got["records"], want["records"])):
        assert a == b, f"row {i} ({' '.join(COMPARED)}) differs"
    assert got["diagnostics"] == want["diagnostics"]
    # Field order too, so that a pass means a regenerated file is byte-equal.
    assert list(got["diagnostics"]) == list(want["diagnostics"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, golden):
    check_case(case, golden)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden_on_python_loops(case, golden, monkeypatch):
    monkeypatch.setattr(_cdkernel, "KERNEL", None)
    check_case(case, golden)


def test_golden_file_has_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    out = {case: encode(CASES[case]()) for case in sorted(CASES)}
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
