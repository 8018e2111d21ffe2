import json

import golden_diff
from test_golden_traces import GOLDEN_PATH

from proxqn import _cdkernel


def _copy(tmp_path, edit=None):
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        data = json.load(fh)
    if edit is not None:
        edit(data)
    path = tmp_path / "golden_traces.json"
    path.write_text(json.dumps(data), encoding="ascii")
    return str(path)


def _perturb_fval(data, case="pga", row=5, factor=1.0 + 1e-9):
    tokens = data[case]["records"][row].split()
    tokens[1] = (float.fromhex(tokens[1]) * factor).hex()
    data[case]["records"][row] = " ".join(tokens)


def test_unchanged_copy_is_identical(tmp_path):
    (row,) = golden_diff.diff(_copy(tmp_path), ["pga"])
    assert row.identical and row.old_status == row.new_status
    assert (row.d_iterations, row.d_backtracks) == (0, 0)
    assert row.max_rel_drift == 0.0 and row.final_gap == 0.0
    assert row.within_tolerance


def test_perturbed_fval_is_reported(tmp_path, capsys):
    path = _copy(tmp_path, _perturb_fval)
    (row,) = golden_diff.diff(path, ["pga"])
    assert not row.identical
    assert row.old_status == row.new_status
    assert (row.d_iterations, row.d_backtracks) == (0, 0)
    assert 0.5e-9 < row.max_rel_drift < 2e-9
    assert row.final_gap == 0.0

    assert golden_diff.main([path, "--case", "pga", "--case", "apga"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("| pga | NO | same | +0 | +0 | 1.00e-09 |")
    assert lines[3].startswith("| apga | yes | same | +0 | +0 | 0.00e+00 |")


def test_status_and_length_changes_are_reported(tmp_path):
    def edit(data):
        data["pga"]["status"] = "converged"
        del data["pga"]["records"][-3:]
    (row,) = golden_diff.diff(_copy(tmp_path, edit), ["pga"])
    assert (row.old_status, row.new_status) == ("converged", "max_iter")
    assert row.d_iterations == 3 and row.max_rel_drift == 0.0
    assert row.final_gap > 0.0 and row.tolerance_gap is not None


def test_python_switch_replays_without_the_kernel(tmp_path, monkeypatch, capsys):
    kernel = _cdkernel.KERNEL
    monkeypatch.setattr(_cdkernel, "KERNEL", kernel)  # restored afterwards
    seen = []
    run_case = golden_diff.run_case

    def spy(case):
        seen.append(_cdkernel.KERNEL)
        return run_case(case)

    monkeypatch.setattr(golden_diff, "run_case", spy)
    path = _copy(tmp_path)
    assert golden_diff.main([path, "--case", "apqna-logistic-binary"]) == 0
    assert seen == [kernel]
    assert golden_diff.main([path, "--python", "--case", "apqna-logistic-binary"]) == 0
    assert seen == [kernel, None]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("| apqna-logistic-binary | yes | same | +0 | +0 |")
