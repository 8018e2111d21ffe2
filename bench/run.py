"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload logistic-proxy --seed 0 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones, with times scaled to the reference
host by the calibration kernel (calibrate.py); with --trace 1 they are the
per-layer ones from a traced run, whose spans are also written to
``.bench_out/``.  The exit code is 1 when a solve fails its check and 2
when the package cannot be imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"


def import_package():
    """Import proxqn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import proxqn
    except ImportError as exc:
        print(f"cannot import proxqn from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(proxqn.__file__).resolve().parent.parent != src:
        print(f"proxqn was imported from {proxqn.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    import_package()
    import workloads
    from metrics import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        runner = workloads.Runner(workload, traced, Path(tmp))
        outcome = runner.run(args.seconds)

    seconds = outcome.solve_seconds()
    for label, (status, iters, fval) in outcome.finals.items():
        print(f"{label:>20s}  {status:>10s}  {iters:6d}  F={fval:.10e}  "
              f"{seconds.get(label, float('nan')):8.3f} s")
    if not traced:
        kernel = [s for _, s in outcome.probe_s]
        print(f"calibration kernel: {len(kernel)} runs, median {median(kernel):.4f} s, "
              f"reference {outcome.kernel.reference_s:.4f} s; wall times above, "
              f"scaled by the runs around each in the metrics")
    for error in outcome.errors:
        print(f"FAILED: {error}", file=sys.stderr)

    values = outcome.metrics(traced)
    if traced:
        spans = OUT / f"spans.{args.workload}.seed{args.seed}.jsonl"
        with open(spans, "w", encoding="ascii") as fh:
            offset = outcome.tracers[0].spans[0][4]
            next_id = 0
            for tracer in outcome.tracers:
                next_id = tracer.write(fh, offset, next_id)
        print(f"spans written to {spans.relative_to(ROOT)}")
        specs = PER_LAYER
    else:
        specs = END_TO_END
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in specs},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
