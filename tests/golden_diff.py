"""Compare freshly generated golden traces with a stored file, case by case.

    PYTHONPATH=src python tests/golden_diff.py [GOLDEN_JSON] [--case NAME ...] [--python]

Replays the seeded cases of ``test_golden_traces.py`` in memory, on the
active backend or, with ``--python``, on the Python code (it sets
``proxqn._cdkernel.KERNEL`` to ``None`` first), and prints one table row
per case:

* whether the status is the same (``old -> new`` when it is not);
* the change in iterations and in total backtracks (new minus old);
* the largest relative F drift over the rows both traces have;
* the final F gap, and the larger tolerance-induced gap
  (``harness.tolerance_induced_gap``) of the two final rows, or ``n/a``
  when the problem has no strong-convexity bound.

``identical`` says whether the case's encoding (status, diagnostics and
every compared record field) is byte-equal to the stored one.  The
script writes nothing; it exits 0 when every case is identical and 1
otherwise.  A change that moves the last bits of the traces
regenerates the file and pastes this table into CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import test_golden_traces as golden  # noqa: E402

from proxqn import _cdkernel  # noqa: E402
from proxqn.harness import tolerance_induced_gap  # noqa: E402
from proxqn.optimizers import Trace, TraceRecord  # noqa: E402

# The drivers the cases call, rebound while a case runs so that the
# problem it solves (its gamma and n) is known.
DRIVERS = ("run_pga", "run_apga", "run_pqna", "run_apqna", "run_apqna_fh")


@dataclass(frozen=True)
class CaseDiff:
    case: str
    identical: bool
    old_status: str
    new_status: str
    d_iterations: int
    d_backtracks: int
    max_rel_drift: float
    final_gap: float
    tolerance_gap: float | None

    @property
    def within_tolerance(self) -> bool | None:
        if self.tolerance_gap is None:
            return None
        return self.final_gap <= self.tolerance_gap


def run_case(case: str):
    """The trace of one golden case and the problem its driver solved."""
    solved = []
    originals = {name: getattr(golden, name) for name in DRIVERS}

    def capture(fn):
        def run(problem, *args, **kwargs):
            solved.append(problem)
            return fn(problem, *args, **kwargs)
        return run

    try:
        for name, fn in originals.items():
            setattr(golden, name, capture(fn))
        trace = golden.CASES[case]()
    finally:
        for name, fn in originals.items():
            setattr(golden, name, fn)
    return trace, solved[0]


def decode(algorithm: str, stored: dict) -> Trace:
    """A stored case as a Trace (``elapsed_sec`` is 0)."""
    records = []
    for row in stored["records"]:
        tokens = row.split()
        values = {name: int(tok) if tok.lstrip("-").isdigit() else float.fromhex(tok)
                  for name, tok in zip(golden.COMPARED, tokens)}
        records.append(TraceRecord(elapsed_sec=0.0, **values))
    return Trace(algorithm, records, stored["status"])


def _rel_drift(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _tolerance_gap(traces, problem) -> float | None:
    if problem.gamma <= 0:
        return None
    return max(tolerance_induced_gap(t, problem.gamma, problem.n) for t in traces)


def diff_case(case: str, stored: dict) -> CaseDiff:
    trace, problem = run_case(case)
    old = decode(trace.algorithm, stored)
    shared = zip(old.records, trace.records)
    return CaseDiff(
        case=case,
        identical=golden.encode(trace) == stored,
        old_status=old.status,
        new_status=trace.status,
        d_iterations=trace.iterations - old.iterations,
        d_backtracks=(sum(r.backtracks for r in trace.records)
                      - sum(r.backtracks for r in old.records)),
        max_rel_drift=max(_rel_drift(a.fval, b.fval) for a, b in shared),
        final_gap=abs(trace.final().fval - old.final().fval),
        tolerance_gap=_tolerance_gap((old, trace), problem),
    )


def diff(path: str = golden.GOLDEN_PATH,
         cases: list[str] | None = None) -> list[CaseDiff]:
    """One CaseDiff per case (all cases by default) against ``path``."""
    with open(path, encoding="ascii") as fh:
        stored = json.load(fh)
    return [diff_case(case, stored[case]) for case in cases or sorted(golden.CASES)]


def table(rows: list[CaseDiff]) -> str:
    lines = ["| case | identical | status | d iterations | d backtracks "
             "| max rel F drift | final F gap | tolerance gap |",
             "|---|---|---|---:|---:|---:|---:|---:|"]
    for r in rows:
        status = ("same" if r.old_status == r.new_status
                  else f"{r.old_status} -> {r.new_status}")
        if r.tolerance_gap is None:
            tol = "n/a"
        else:
            tol = f"{r.tolerance_gap:.2e} ({'within' if r.within_tolerance else 'OUTSIDE'})"
        lines.append(f"| {r.case} | {'yes' if r.identical else 'NO'} | {status} "
                     f"| {r.d_iterations:+d} | {r.d_backtracks:+d} "
                     f"| {r.max_rel_drift:.2e} | {r.final_gap:.2e} | {tol} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("golden", nargs="?", default=golden.GOLDEN_PATH)
    parser.add_argument("--case", action="append", choices=sorted(golden.CASES),
                        help="compare only this case (repeatable)")
    parser.add_argument("--python", action="store_true",
                        help="replay on the Python code, without the compiled kernel")
    args = parser.parse_args(argv)
    if args.python:
        _cdkernel.KERNEL = None
    rows = diff(args.golden, args.case)
    print(table(rows))
    return 0 if all(r.identical for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
