"""Run every workload on ten seeds and record the spread.

    python3 bench/baseline.py

Writes bench/baseline.json: for each workload and end-to-end metric the
median, quartiles, spread (quartile distance over median), sample count
and the values by seed; the per-layer numbers of one traced run per
workload; the layer-to-end-to-end map; and the machine and library
versions.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
SEEDS = 10


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # As found; the benchmark does not set them.
        "thread_env": {name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def summary(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2, "n": len(values), "values": values}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END, PER_LAYER

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"environment": environment(), "seconds": seconds,
              "end_to_end": {}, "per_layer_seed0": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, seed, seconds, 0) for seed in range(SEEDS)]
        rows = {}
        for m in END_TO_END:
            rows[m.name] = summary([r["metrics"][m.name]["value"] for r in runs])
            print(f"{name:16s} {m.name:12s} median {rows[m.name]['median']:.4g} "
                  f"spread {rows[m.name]['spread']:.3f} (bound {m.bound})",
                  flush=True)
        record["end_to_end"][name] = rows
        traced = run(name, 0, seconds, 1)
        record["per_layer_seed0"][name] = {
            k: v["value"] for k, v in traced["metrics"].items()}
    record["layer_map"] = {m.name: m.moves for m in PER_LAYER}
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
