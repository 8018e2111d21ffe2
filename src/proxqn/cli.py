"""Command-line front end.

Subcommands: ``run`` (one algorithm, one problem), ``compare`` (an
experiment spec file), ``verify`` (invariant suites) and ``diagnose``
(rate fitting on a stored trace CSV).  Exit codes: 0 success,
1 validation error, 2 runtime failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ._cdkernel import backend
from .harness import (
    SETTINGS,
    ExperimentSpec,
    build_config,
    build_problem,
    emit_trace_csv,
    experiment_fields,
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


# The problem-source flags, each named as its spec-file key.  Values
# stay strings, read by the key's reader exactly as for a spec file.
SOURCE_KEYS = ("dataset", "positive_class", "n_features", "synthetic", "lambda")


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="LIBSVM text file")
    p.add_argument("--positive-class",
                   help="raw label mapped to +1 (one-vs-rest)")
    p.add_argument("--n-features", help="override the inferred feature count")
    p.add_argument("--synthetic", metavar="n=..,gamma=..,L=..,seed=..",
                   help="seeded quadratic instance instead of a dataset")
    p.add_argument("--lambda", help="l1 weight (default 1e-3)")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    # Values stay strings: build_config converts and OptimizerConfig
    # validates them, exactly as for a spec file.
    for key, typ in SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       metavar=typ.__name__.upper())


def cmd_run(args: argparse.Namespace) -> int:
    try:
        settings = {key: getattr(args, key) for key in SETTINGS
                    if getattr(args, key) is not None}
        spec = ExperimentSpec(
            {args.algorithm: build_config(settings)},
            **experiment_fields({key: getattr(args, key) for key in SOURCE_KEYS}))
        problem = build_problem(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        trace = ALGORITHMS[args.algorithm](problem, spec.configs[args.algorithm])
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
        spec = replace(parse_experiment_spec(args.spec), **experiment_fields(
            {"output_dir": args.output_dir, "checkpoints": args.checkpoints}))
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
