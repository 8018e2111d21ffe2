import os

import numpy as np
import pytest

import proxqn.harness
from proxqn.dataset import synthesize_quadratic, write_libsvm
from proxqn.harness import (
    SETTINGS,
    TRACE_HEADER,
    ExperimentSpec,
    SyntheticSpec,
    assemble_report,
    build_config,
    emit_trace_csv,
    parse_experiment_spec,
    rate_diagnostics,
    read_trace_csv,
    run_experiment,
)
from proxqn.optimizers import (
    ALGORITHMS,
    OptimizerConfig,
    Trace,
    TraceRecord,
    run_pga,
)
from proxqn.problem import quadratic_problem

from conftest import infinite_gradient, make_dataset


def toy_trace(n_records=20, algorithm="toy", ratio=0.9, base=1.0):
    """Synthetic geometric trace: fval = base + ratio^k."""
    trace = Trace(algorithm=algorithm)
    for k in range(n_records):
        trace.records.append(TraceRecord(
            k=k, fval=base + ratio**k, subgrad_inf=ratio**k, backtracks=0,
            inner_iters=0, step_scalar=0.5, t_k=1.0, elapsed_sec=0.0))
    return trace


class TestTraceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        prob = quadratic_problem(synthesize_quadratic(10, 0.3, 4.0, 2), 0.01)
        trace = run_pga(prob, OptimizerConfig(tol=1e-6, max_iters=500))
        path = str(tmp_path / "t.csv")
        emit_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert len(back.records) == len(trace.records)
        for a, b in zip(trace.records, back.records):
            assert a == b

    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_trace_csv(Trace(algorithm="x"), path)
        with open(path) as fh:
            content = fh.read()
        assert content == TRACE_HEADER + "\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,fval\n1,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(str(path))


    @pytest.mark.parametrize("row", ["1,2.0,0.5", "1,2,0.5,0,0,1,1,0.1,9",
                                     "1,abc,0.5,0,0,1,1,0.1"],
                             ids=["short", "long", "not-a-number"])
    def test_bad_row_names_the_line(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"{TRACE_HEADER}\n0,3.0,1.0,0,0,1,1,0.0\n\n{row}\n")
        with pytest.raises(ValueError, match=f"{path}:4: "):
            read_trace_csv(str(path))


class TestBuildConfig:
    def test_maps_cli_names(self):
        cfg = build_config({"tol": "1e-7", "max_iters": "500", "warmup": "3",
                            "inner_cap": "200", "eta": "0.7"})
        assert cfg.tol == 1e-7
        assert cfg.max_iters == 500
        assert cfg.warmup == 3
        assert cfg.inner_cap == 200
        assert cfg.eta == 0.7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_config({"learning_rate": "0.1"})

    def test_layered_overrides(self):
        base = build_config({"seed": "5"})
        cfg = build_config({"eta": "1.0"}, base)
        assert cfg.seed == 5 and cfg.eta == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e308"])
    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_a_setting_is_refused_by_name_or_every_driver_stays_finite(
            self, key, value):
        """No value of a setting reaches a driver that then records a
        non-finite F: build_config refuses it with a message that starts
        with the key, or all six drivers keep every row finite."""
        try:
            cfg = build_config({"max_iters": "30", key: value})
        except ValueError as exc:
            assert str(exc).startswith(key + " "), str(exc)
            return
        prob = quadratic_problem(synthesize_quadratic(5, 0.1, 10.0, 0), 1e-3)
        for name, driver in ALGORITHMS.items():
            trace = driver(prob, cfg)
            assert np.all(np.isfinite(trace.fvals())), (name, trace.status)


class TestExperimentSpec:
    def test_parse_full_spec(self, tmp_path):
        spec_text = """
[experiment]
synthetic = n=30 gamma=0.2 L=8 seed=3
lambda = 0.01
algorithms = pga, apga
output_dir = {out}
checkpoints = 10, 20
tol = 1e-6

[apga]
mu_init = 0.5
"""
        path = tmp_path / "exp.ini"
        path.write_text(spec_text.format(out=tmp_path / "out"))
        spec = parse_experiment_spec(str(path))
        assert list(spec.configs) == ["pga", "apga"]
        assert spec.lam == 0.01
        assert spec.checkpoints == [10, 20]
        assert spec.configs["apga"].mu_init == 0.5
        assert spec.configs["apga"].tol == spec.configs["pga"].tol == 1e-6
        assert spec.configs["pga"].mu_init == OptimizerConfig().mu_init

    def test_empty_algorithms_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nsynthetic = n=5\nalgorithms =\n")
        with pytest.raises(ValueError, match="at least one algorithm"):
            parse_experiment_spec(str(path))

    def test_unknown_algorithm_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nsynthetic = n=5\nalgorithms = pga\n[sgd]\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_experiment_spec(str(path))

    def test_checkpoints_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentSpec({"pga": OptimizerConfig()}, synthetic=SyntheticSpec(n=5),
                           checkpoints=[10, 10])

    def test_synthetic_parses_to_a_spec(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nsynthetic = n=7, L=3 seed=2\nalgorithms = pga\n")
        spec = parse_experiment_spec(str(path))
        assert spec.synthetic == SyntheticSpec(n=7, l_target=3.0, seed=2)
        path.write_text(
            "[experiment]\nsynthetic = n=7 mu=2\nalgorithms = pga\n")
        with pytest.raises(ValueError, match="unknown synthetic parameter 'mu'"):
            parse_experiment_spec(str(path))

    def test_spec_values_are_read_as_written(self, tmp_path):
        path = tmp_path / "exp.ini"
        for out in ("results/100%", "out_%(tol)s"):
            path.write_text("[experiment]\nsynthetic = n=5\nalgorithms = pga\n"
                            f"tol = 1e-4\noutput_dir = {out}\n")
            assert parse_experiment_spec(str(path)).output_dir == out

    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="dataset/synthetic"):
            ExperimentSpec({"pga": OptimizerConfig()})


class TestRunExperiment:
    def test_synthetic_all_algorithms_agree(self, tmp_path):
        spec = ExperimentSpec(
            dict.fromkeys(["pga", "apga", "pqna-lbfgs", "apqna-fh"],
                          OptimizerConfig(tol=1e-7, max_iters=20000)),
            lam=0.01,
            synthetic=SyntheticSpec(n=20, gamma=0.3, l_target=6.0, seed=4),
            output_dir=str(tmp_path / "out"),
        )
        report, _ = run_experiment(spec)
        finals = [row.final_fval for row in report.rows]
        assert max(finals) - min(finals) <= 1e-4
        for alg in spec.configs:
            assert os.path.exists(os.path.join(spec.output_dir,
                                               f"{alg}.trace.csv"))
        assert os.path.exists(os.path.join(spec.output_dir, "report.txt"))
        assert os.path.exists(os.path.join(spec.output_dir, "report.csv"))
        # monotone algorithms: final value at or below every checkpoint
        for row in report.rows:
            if row.algorithm in ("pga", "pqna-lbfgs"):
                assert all(row.final_fval <= fv + 1e-12
                           for _, fv in row.values)

    def test_non_finite_gradient_raises(self, tmp_path, monkeypatch):
        build = proxqn.harness.build_problem
        monkeypatch.setattr(proxqn.harness, "build_problem",
                            lambda spec: infinite_gradient(build(spec)))
        spec = ExperimentSpec(
            {"apqna-fh": OptimizerConfig()}, lam=0.1,
            synthetic=SyntheticSpec(n=10, gamma=0.1, l_target=10.0, seed=0),
            output_dir=str(tmp_path / "out"))
        with pytest.raises(RuntimeError, match=r"^apqna-fh: non_finite: "):
            run_experiment(spec)

    def test_report_regenerates_from_stored_csvs(self, tmp_path):
        spec = ExperimentSpec(
            dict.fromkeys(["pga", "apqna-fh"], OptimizerConfig(tol=1e-6)),
            lam=0.01,
            synthetic=SyntheticSpec(n=15, gamma=0.3, l_target=5.0, seed=9),
            output_dir=str(tmp_path / "out"),
        )
        report, traces = run_experiment(spec)
        reloaded = [read_trace_csv(os.path.join(spec.output_dir,
                                                f"{alg}.trace.csv"))
                    for alg in spec.configs]
        regenerated = assemble_report(reloaded)
        assert regenerated.to_text() == report.to_text()
        assert regenerated.to_csv_text() == report.to_csv_text()

    def test_dataset_source(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [[(j, float(rng.standard_normal()))
                 for j in range(5)] for _ in range(40)]
        labels = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
        ds_path = str(tmp_path / "toy.libsvm")
        write_libsvm(make_dataset(rows, labels), ds_path)
        spec = ExperimentSpec(
            {"pqna-lbfgs": OptimizerConfig(tol=1e-5)}, lam=1e-3, dataset_path=ds_path,
            output_dir=str(tmp_path / "out"),
        )
        report, traces = run_experiment(spec)
        assert traces["pqna-lbfgs"].status == "converged"

    def test_checkpoint_clamping(self):
        report = assemble_report([toy_trace(11), toy_trace(31)],
                                 checkpoints=[10, 20, 30])
        short = report.rows[0]
        assert short.values[0] == (10, pytest.approx(1.0 + 0.9**10))
        # clamped to the final iterate past the end of the shorter run
        assert short.values[1][0] == 10
        assert short.values[2][0] == 10
        long = report.rows[1]
        assert long.values[2] == (30, pytest.approx(1.0 + 0.9**30))

    def test_default_checkpoints_are_thirds_of_slowest(self):
        report = assemble_report([toy_trace(91)])
        assert report.checkpoints == [30, 60, 90]


class TestRateDiagnostics:
    def test_exact_geometric_ratio(self):
        diag = rate_diagnostics(toy_trace(60), 1.0)
        assert diag.fitted_ratio == pytest.approx(0.9, abs=1e-6)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="short"):
            rate_diagnostics(toy_trace(5), 1.0)

    def test_fstar_above_trace_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            rate_diagnostics(toy_trace(30), 2.5)

    def test_thm1_flags(self):
        trace = toy_trace(40, ratio=0.9)
        ok = rate_diagnostics(trace, 1.0, rho=0.95)
        assert ok.thm1_violations == []
        bad = rate_diagnostics(trace, 1.0, rho=0.5)
        assert bad.thm1_violations

    def test_envelope_flags(self):
        # fval = fstar + 1/(k+1)^2 exactly matches the envelope bound
        # scale: use dist0_sq and mu with 2*dist0/mu = 1
        trace = Trace(algorithm="env")
        for k in range(30):
            trace.records.append(TraceRecord(
                k=k, fval=1.0 / (k + 1) ** 2, subgrad_inf=1.0,
                backtracks=0, inner_iters=0, step_scalar=2.0, t_k=1.0,
                elapsed_sec=0.0))
        diag = rate_diagnostics(trace, 0.0, dist0_sq=1.0)
        assert diag.envelope_violations == []
        diag_tight = rate_diagnostics(trace, 0.0, dist0_sq=0.99)
        assert diag_tight.envelope_violations
