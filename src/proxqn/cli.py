"""Command-line front end.

Subcommands: ``run`` (one algorithm, one problem), ``compare`` (an
experiment spec file), ``verify`` (invariant suites) and ``diagnose``
(rate fitting on a stored trace CSV).  Exit codes: 0 success,
1 validation error, 2 runtime failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from ._cdkernel import backend
from .harness import (
    SETTINGS,
    ExperimentSpec,
    _parse_synthetic,
    build_config,
    build_problem,
    emit_trace_csv,
    parse_experiment_spec,
    rate_diagnostics,
    read_trace_csv,
    run_experiment,
    verify_suite,
)
from .optimizers import ALGORITHMS, BACKTRACK_FAILURE

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="LIBSVM text file")
    p.add_argument("--positive-class",
                   help="raw label mapped to +1 (one-vs-rest)")
    p.add_argument("--n-features", type=int,
                   help="override the inferred feature count")
    p.add_argument("--synthetic", metavar="n=..,gamma=..,L=..,seed=..",
                   help="seeded quadratic instance instead of a dataset")
    p.add_argument("--lambda", dest="lam", type=float, default=1e-3,
                   help="l1 weight (default 1e-3)")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    # Values stay strings: build_config converts and OptimizerConfig
    # validates them, exactly as for a spec file.
    for key, typ in SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       metavar=typ.__name__.upper())


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    return {key: getattr(args, key) for key in SETTINGS
            if getattr(args, key) is not None}


def _spec_from_args(args: argparse.Namespace, algorithms: list[str]) -> ExperimentSpec:
    spec = ExperimentSpec(algorithms=algorithms, lam=args.lam)
    if args.dataset:
        spec.dataset_path = args.dataset
        spec.positive_class = args.positive_class
        spec.n_features = args.n_features
    elif args.synthetic:
        spec.synthetic = _parse_synthetic(args.synthetic)
    spec.validate()
    return spec


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args, [args.algorithm])
        problem = build_problem(spec)
        config = build_config(_collect_overrides(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        trace = ALGORITHMS[args.algorithm](problem, config)
    except Exception as exc:
        print(f"error: {args.algorithm}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    final = trace.final()
    print(f"{args.algorithm}: status={trace.status} iterations={final.k} "
          f"F={final.fval:.10e} subgrad_inf={final.subgrad_inf:.3e} "
          f"elapsed={final.elapsed_sec:.2f}s")
    if args.trace_out:
        emit_trace_csv(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    return EXIT_OK if trace.status != BACKTRACK_FAILURE else EXIT_RUNTIME


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        spec = parse_experiment_spec(args.spec)
        if args.output_dir:
            spec.output_dir = args.output_dir
        if args.checkpoints:
            spec.checkpoints = [int(c) for c in args.checkpoints.split(",")]
        spec.validate()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        report, _ = run_experiment(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(report.to_text(), end="")
    print(f"traces and report written to {spec.output_dir}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(args.level)
    print(f"backend: {backend()}")
    print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_diagnose(args: argparse.Namespace) -> int:
    try:
        trace = read_trace_csv(args.trace)
        diag = rate_diagnostics(trace, args.fstar, rho=args.rho,
                                dist0_sq=args.dist0_sq, skip=args.skip)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"fitted geometric ratio (tail half): {diag.fitted_ratio:.6f}")
    if diag.thm1_violations is not None:
        ok = not diag.thm1_violations
        print(f"linear-rate envelope rho^k: {'satisfied' if ok else 'VIOLATED'}"
              + ("" if ok else f" at k={diag.thm1_violations[:5]}"))
    if diag.thm6_violations is not None:
        ok = not diag.thm6_violations
        print("fixed-Hessian bound ||x0-x*||^2/(2 sigma_k t_k^2): "
              + ("satisfied" if ok else f"VIOLATED at k={diag.thm6_violations[:5]}"))
        ok = not diag.envelope_violations
        print("1/k^2 envelope 2||x0-x*||^2/(mu (k+1)^2): "
              + ("satisfied" if ok else f"VIOLATED at k={diag.envelope_violations[:5]}"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxqn",
        description="Proximal gradient / quasi-Newton benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single algorithm")
    p_run.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    _add_problem_args(p_run)
    _add_config_args(p_run)
    p_run.add_argument("--trace-out", help="write the iteration trace CSV here")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="run an experiment spec file")
    p_cmp.add_argument("spec", help="flat key = value spec with [experiment]")
    p_cmp.add_argument("--output-dir", help="override the spec's output_dir")
    p_cmp.add_argument("--checkpoints",
                       help="comma-separated iteration checkpoints "
                            "(default: thirds of the slowest run)")
    p_cmp.set_defaults(fn=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--level", choices=["fast", "full"], default="fast")
    p_ver.set_defaults(fn=cmd_verify)

    p_diag = sub.add_parser("diagnose", help="fit rates on a trace CSV")
    p_diag.add_argument("trace")
    p_diag.add_argument("--fstar", type=float, required=True,
                        help="reference optimal value")
    p_diag.add_argument("--rho", type=float, default=None,
                        help="check the linear envelope rho^k")
    p_diag.add_argument("--dist0-sq", type=float, default=None,
                        help="||x0 - x*||^2 for the accelerated bounds")
    p_diag.add_argument("--skip", type=int, default=0,
                        help="ignore the first rows (warmup)")
    p_diag.set_defaults(fn=cmd_diagnose)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
