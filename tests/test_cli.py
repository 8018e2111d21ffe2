import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from proxqn.cli import main
from proxqn.dataset import write_libsvm
from proxqn.harness import SETTINGS, parse_experiment_spec, read_trace_csv
from proxqn.optimizers import CONVERGED, OptimizerConfig

from conftest import make_dataset


def test_run_synthetic_writes_trace(tmp_path, capsys):
    trace_path = str(tmp_path / "out.csv")
    code = main(["run", "--algorithm", "pqna-lbfgs",
                 "--synthetic", "n=15,gamma=0.3,L=5,seed=2",
                 "--lambda", "0.01", "--tol", "1e-6",
                 "--trace-out", trace_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=converged" in out
    trace = read_trace_csv(trace_path)
    assert trace.records[0].k == 0


def test_run_on_dataset_file(tmp_path, capsys):
    rng = np.random.default_rng(1)
    rows = [[(j, float(rng.standard_normal())) for j in range(6)]
            for _ in range(30)]
    labels = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    ds_path = str(tmp_path / "toy.libsvm")
    write_libsvm(make_dataset(rows, labels), ds_path)
    code = main(["run", "--algorithm", "apqna-fh", "--dataset", ds_path,
                 "--lambda", "1e-3", "--tol", "1e-4", "--warmup", "3"])
    assert code == 0
    assert "apqna-fh" in capsys.readouterr().out


def test_run_validation_error_exit_code(capsys):
    code = main(["run", "--algorithm", "pga"])  # no problem source
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_run_rejects_a_non_finite_lambda(capsys, lam):
    code = main(["run", "--algorithm", "pga", "--synthetic", "n=5",
                 "--lambda", lam])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lam" in err


def test_run_rejects_a_non_finite_synthetic_spectrum(capsys):
    code = main(["run", "--algorithm", "pga",
                 "--synthetic", "n=5,gamma=0.1,L=inf,seed=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "l_target" in err


def test_run_rejects_non_finite_dataset(tmp_path, capfd):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:0.5 2:nan\n-1 1:1.0\n+1 2:2.0\n")
    code = main(["run", "--algorithm", "pqna-lbfgs", "--dataset", str(path)])
    captured = capfd.readouterr()
    assert code == 1
    assert "non-finite feature value nan" in captured.err
    assert "DLASCL" not in captured.out + captured.err


@pytest.mark.parametrize("content, message", [
    (b"+1 1:1\n-1 1:1 3000000000:1\n",
     ":2: feature index 3000000000 is above 2147483648"),
    (b"+1 1:1\n-1 2:\xe91\n", ":2: non-ASCII byte 0xe9"),
], ids=["index-past-int32", "non-ascii"])
def test_run_names_the_line_of_a_bad_dataset_entry(tmp_path, capfd, content,
                                                   message):
    path = tmp_path / "bad.svm"
    path.write_bytes(content)
    code = main(["run", "--algorithm", "pqna-lbfgs", "--dataset", str(path)])
    assert code == 1
    assert f"error: {path}{message}" in capfd.readouterr().err


def test_compare_spec_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
synthetic = n=20 gamma=0.3 L=6 seed=4
lambda = 0.01
algorithms = apga, apqna-fh
output_dir = {out_dir}
tol = 1e-6

[apqna-fh]
warmup = 4
""")
    code = main(["compare", str(spec)])
    assert code == 0
    out = capsys.readouterr().out
    assert "apqna-fh" in out and "apga" in out
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "apga.trace.csv").exists()


def test_compare_bad_spec_exit_code(tmp_path, capsys):
    spec = tmp_path / "bad.ini"
    spec.write_text("[experiment]\nalgorithms = warp-drive\nsynthetic = n=5\n")
    assert main(["compare", str(spec)]) == 1


def test_diagnose_trace(tmp_path, capsys):
    trace_path = str(tmp_path / "t.csv")
    code = main(["run", "--algorithm", "pga",
                 "--synthetic", "n=15,gamma=0.5,L=4,seed=3",
                 "--lambda", "0.0", "--tol", "1e-9",
                 "--trace-out", trace_path])
    assert code == 0
    capsys.readouterr()
    trace = read_trace_csv(trace_path)
    fstar = trace.records[-1].fval - 1e-12
    code = main(["diagnose", trace_path, "--fstar", repr(fstar),
                 "--rho", "0.999"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted geometric ratio" in out


def test_diagnose_missing_file(capsys):
    assert main(["diagnose", "/nonexistent.csv", "--fstar", "0"]) == 1


@pytest.fixture(scope="module")
def converged_trace(tmp_path_factory):
    trace_path = str(tmp_path_factory.mktemp("diagnose") / "t.csv")
    assert main(["run", "--algorithm", "pqna-lbfgs", "--synthetic", "n=10",
                 "--trace-out", trace_path]) == 0
    return trace_path


@pytest.mark.parametrize("flags, named", [
    (["--fstar", "nan", "--rho", "0.5"], "reference_fstar"),
    (["--fstar", "nan", "--dist0-sq", "1"], "reference_fstar"),
    (["--fstar", "inf"], "reference_fstar"),
    (["--fstar", "-10", "--rho", "0"], "rho"),
    (["--fstar", "-10", "--rho", "1.5"], "rho"),
    (["--fstar", "-10", "--rho", "nan"], "rho"),
    (["--fstar", "-10", "--dist0-sq", "-1"], "dist0_sq"),
    (["--fstar", "-10", "--dist0-sq", "inf"], "dist0_sq"),
    (["--fstar", "-10", "--dist0-sq", "nan"], "dist0_sq"),
    (["--fstar", "-10", "--skip", "-1"], "skip"),
])
def test_diagnose_refuses_a_bad_constant(converged_trace, capsys, flags, named):
    """Each comparison with a NaN gap is false, so a NaN F* or rho would
    read as a satisfied bound; every such constant is refused by name."""
    capsys.readouterr()
    assert main(["diagnose", converged_trace, *flags]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {named} ") and "satisfied" not in out


def test_diagnose_accepts_the_ends_of_each_domain(converged_trace, capsys):
    assert main(["diagnose", converged_trace, "--fstar", "-10", "--rho", "1",
                 "--dist0-sq", "0", "--skip", "0"]) == 0


def test_diagnose_refuses_a_skip_that_leaves_no_row(converged_trace, capsys):
    """A bound checked on no row would read as satisfied."""
    last = read_trace_csv(converged_trace).final().k
    flags = ["diagnose", converged_trace, "--fstar", "-10", "--rho", "0.5"]
    capsys.readouterr()
    assert main([*flags, "--skip", str(last)]) == 1
    assert capsys.readouterr().err.startswith("error: skip ")
    assert main([*flags, "--skip", str(last - 1)]) == 0
    assert f"VIOLATED at k=[{last}]" in capsys.readouterr().out


def test_compare_explicit_checkpoints(tmp_path, capsys):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
synthetic = n=15 gamma=0.3 L=5 seed=1
lambda = 0.01
algorithms = pga
output_dir = {out_dir}
tol = 1e-6
""")
    assert main(["compare", str(spec), "--checkpoints", "5,10"]) == 0
    report = (out_dir / "report.csv").read_text()
    assert ",checkpoint,5," in report and ",checkpoint,10," in report


def test_verify_fast_exits_zero(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "PASS" in out


def test_run_takes_every_setting_as_a_flag(capsys):
    # The exact-subsolver solve of the quadratic-exact benchmark workload.
    code = main(["run", "--algorithm", "pqna-lbfgs",
                 "--synthetic", "n=15,gamma=0.1,L=10,seed=0",
                 "--eta", "1", "--subsolver", "exact", "--exact-tol", "1e-10",
                 "--tol", "1e-5", "--mu-cap", "1e6",
                 "--backtrack-cap", "60"])
    assert code == 0
    assert "status=converged" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, named", [
    ("--domination", "loose", "domination"),
    ("--memory", "0", "memory"),
    ("--tol", "-1", "tol"),
    ("--mu-cap", "0", "mu_cap"),
    ("--backtrack-cap", "-1", "backtrack_cap"),
    ("--curvature-eps", "-1", "curvature_eps"),
    ("--exact-tol", "0", "exact_tol"),
    # nan fails every check written as the condition a good value meets
    ("--tol", "nan", "tol"),
    ("--mu-init", "nan", "mu_init"),
    ("--sigma-growth", "nan", "sigma_growth"),
    ("--mu-cap", "nan", "mu_cap"),
    ("--curvature-eps", "nan", "curvature_eps"),
    ("--exact-tol", "nan", "exact_tol"),
    ("--inner-divisor", "nan", "inner_divisor"),
    # finite values only, and each bound named by its key
    ("--seed", "-1", "seed"),
    ("--exact-tol", "inf", "exact_tol"),
    ("--sigma-growth", "inf", "sigma_growth"),
    ("--tol", "inf", "tol"),
    ("--max-iters", "0", "max_iters"),
    # the problem-source flags, read as their spec-file keys
    ("--lambda", "x", "lambda"),
    ("--lambda", "-1", "lambda"),
    ("--n-features", "abc", "n_features"),
    ("--synthetic", "n=abc", "synthetic"),
    # a synthetic field out of range, named after the key
    ("--synthetic", "seed=-1", "synthetic = 'seed=-1': seed"),
    ("--synthetic", "n=0", "synthetic = 'n=0': n"),
    ("--synthetic", "n=1", "synthetic = 'n=1': n"),
    ("--synthetic", "gamma=0", "synthetic = 'gamma=0': gamma"),
    ("--synthetic", "L=inf", "synthetic = 'L=inf': l_target"),
    ("--synthetic", "L=nan", "synthetic = 'L=nan': l_target"),
    ("--synthetic", "gamma=2,L=1", "synthetic = 'gamma=2,L=1': gamma"),
])
def test_run_bad_setting_value_exits_one(capsys, flag, value, named):
    code = main(["run", "--algorithm", "pqna-lbfgs", "--subsolver", "exact",
                 "--synthetic", "n=10", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ")


@pytest.mark.parametrize("experiment, section, named", [
    ("tol_rel = 1e-6", "", "tol_rel"),
    ("", "[pga]\ndomination = loose\n", "domination"),
    ("", "[pga]\nmax_iters = lots\n", "max_iters"),
    ("", "[pqna-fh]\nwarmup = -1\n", "pqna-fh"),
], ids=["unknown-key", "bad-choice", "bad-number", "unused-section"])
def test_compare_rejects_bad_settings_before_running(tmp_path, capsys,
                                                     experiment, section, named):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
synthetic = n=10 gamma=0.3 L=5 seed=1
algorithms = apga, pga
output_dir = {out_dir}
{experiment}

{section}""")
    assert main(["compare", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, cause", [
    ("synthetic = n=5\n[experiment]\nalgorithms = pga\n",
     "no section headers"),
    ("[experiment]\nsynthetic = n=5\nalgorithms = pga\ngarbage\n",
     "parsing errors"),
    ("[experiment]\nsynthetic = n=5\nalgorithms = pga\ntol = 1e-3\ntol = 1e-4\n",
     "option 'tol' in section 'experiment' already exists"),
], ids=["no-section-header", "line-without-equals", "duplicated-key"])
def test_compare_names_a_malformed_spec_file(tmp_path, capsys, text, cause):
    spec = tmp_path / "exp.ini"
    spec.write_text(text)
    assert main(["compare", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and cause in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("experiment, argv, named", [
    ("lambda = x", [], "lambda"),
    ("n_features = abc", [], "n_features"),
    ("checkpoints = 1,x", [], "checkpoints"),
    ("synthetic = n=abc", [], "synthetic"),
    ("", ["--checkpoints", "1,y"], "checkpoints"),
], ids=["lambda", "n_features", "checkpoints", "synthetic", "--checkpoints"])
def test_compare_bad_experiment_value_names_its_key(tmp_path, capsys,
                                                    experiment, argv, named):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
algorithms = pga
output_dir = {out_dir}
{experiment or "synthetic = n=10"}
""")
    assert main(["compare", str(spec), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} ")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--dataset", "DATASET", "dataset"),
    ("--positive-class", "3", "positive_class"),
    ("--n-features", "9", "n_features"),
])
def test_run_refuses_a_source_flag_a_synthetic_run_would_drop(tmp_path, capsys,
                                                              flag, value, named):
    ds_path = tmp_path / "toy.libsvm"
    write_libsvm(make_dataset([[(0, 1.0)], [(1, 2.0)]], np.array([1.0, -1.0])),
                 str(ds_path))
    code = main(["run", "--algorithm", "pga", "--synthetic", "n=5",
                 flag, str(ds_path) if value == "DATASET" else value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_compare_refuses_an_algorithm_listed_twice(tmp_path, capsys):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
synthetic = n=10
algorithms = pga, apga, pga
output_dir = {out_dir}
""")
    assert main(["compare", str(spec)]) == 1
    assert capsys.readouterr().err.startswith("error: algorithms lists pga ")
    assert not out_dir.exists()


def test_compare_rejects_negative_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "results"
    spec = tmp_path / "exp.ini"
    spec.write_text(f"""
[experiment]
synthetic = n=10 gamma=0.3 L=5 seed=1
algorithms = pga
output_dir = {out_dir}
""")
    assert main(["compare", str(spec), "--checkpoints=-3,5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-3" in err
    assert not out_dir.exists()


def test_diagnose_truncated_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(
        "k,fval,subgrad_inf,backtracks,inner_iters,step_scalar,t_k,elapsed_sec\n"
        "0,1.5,0.3,0,0,1,1,0.001\n"
        "1,1.2,0.1\n")
    assert main(["diagnose", str(trace_path), "--fstar", "1.0"]) == 1
    assert f"{trace_path}:3" in capsys.readouterr().err


def test_readme_flag_table_lists_every_setting_with_its_domain():
    """The README's flag table has one row per key of ``SETTINGS``, in
    which the domain is the one ``OptimizerConfig`` declares."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [line.split("|")[1:-1] for line in readme.read_text().splitlines()
            if line.startswith("| `--")]
    table = {flag.strip(" `")[2:].replace("-", "_"): domain.strip(" `")
             for flag, _, domain, _ in rows}
    declared = {f.name: f.metadata["domain"] for f in fields(OptimizerConfig)
                if f.name in SETTINGS}
    assert len(rows) == len(table) == len(SETTINGS)
    assert table == declared


def test_readme_python_example_runs():
    """The README's Python example reaches a driver through ``ALGORITHMS``
    and converges after the number of iterations its comment states."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n")[1].split("```")[0]
    stated = int(re.search(r"converged after (\d+) iterations", block)[1])
    scope = {}
    exec(block, scope)
    trace = scope["trace"]
    assert (trace.status, trace.final().k) == (CONVERGED, stated)


def test_readme_compare_spec_parses(tmp_path):
    """The README's ``compare`` spec file is one that parses, to the
    record its text describes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "experiment.ini"
    path.write_text(readme.split("```ini\n")[1].split("```")[0])
    spec = parse_experiment_spec(str(path))
    assert list(spec.configs) == ["apga", "apqna-fh"]
    assert (spec.dataset_path, spec.lam) == ("data/a9a", 1e-3)
    assert (spec.output_dir, spec.checkpoints) == ("results/a9a", [40, 80])
    assert spec.configs["apga"] == OptimizerConfig(tol=1e-5)
    assert spec.configs["apqna-fh"] == OptimizerConfig(tol=1e-5, warmup=8,
                                                       sigma_growth=1.015)
