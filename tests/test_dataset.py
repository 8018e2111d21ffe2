import os
import re
import tempfile
import threading
from array import array
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from proxqn import dataset
from proxqn.dataset import (
    Dataset,
    DatasetFormatError,
    read_libsvm,
    synthesize_quadratic,
    write_libsvm,
)
from proxqn.problem import logistic_problem

from conftest import make_dataset


def write_lines(tmp_path, lines, name="data.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def outcome(path, **kwargs):
    """The bytes and dtypes of what read_libsvm gives for ``path``, or the
    type and message of what it raises."""
    try:
        ds = read_libsvm(path, **kwargs)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    x = ds.matrix
    return x.shape, [(a.dtype.str, a.tobytes())
                     for a in (x.data, x.indices, x.indptr, ds.labels)]


def reference_outcome(path, **kwargs):
    """outcome() of the line-by-line reference parser alone, which then
    reads the whole file as one block."""
    with mock.patch.object(dataset, "_scan", lambda block, lineno, rows: None), \
            mock.patch.object(dataset, "_BLOCK", os.path.getsize(path) + 1):
        return outcome(path, **kwargs)


class TestReadLibsvm:
    def test_basic_line(self, tmp_path):
        ds = read_libsvm(write_lines(tmp_path, ["+1 1:0.5 3:2.0", "-1 2:1.0"]))
        assert ds.labels[0] == 1.0
        idx, val = ds.row(0)
        np.testing.assert_array_equal(idx, [0, 2])
        np.testing.assert_allclose(val, [0.5, 2.0])
        assert ds.n_features == 3
        assert ds.n_points == 2
        assert ds.nnz == 3

    def test_zero_one_labels_mapped(self, tmp_path):
        ds = read_libsvm(write_lines(tmp_path, ["0 1:1", "1 1:2"]))
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    def test_positive_label_binarizes(self, tmp_path):
        ds = read_libsvm(write_lines(tmp_path, ["3 1:1", "1 1:2", "2 1:3"]),
                         positive_label="3")
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, -1.0])

    def test_multiclass_without_positive_label_fails(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="positive_label"):
            read_libsvm(write_lines(tmp_path, ["3 1:1", "1 1:2", "2 1:3"]))

    def test_malformed_entry_reports_line(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=":2"):
            read_libsvm(write_lines(tmp_path, ["+1 1:0.5", "-1 oops"]))

    def test_nonincreasing_indices_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="increasing"):
            read_libsvm(write_lines(tmp_path, ["+1 2:1.0 2:2.0"]))

    def test_zero_based_index_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="1-based"):
            read_libsvm(write_lines(tmp_path, ["+1 0:1.0"]))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(DatasetFormatError, match="no data"):
            read_libsvm(str(path))

    def test_n_features_override(self, tmp_path):
        ds = read_libsvm(write_lines(tmp_path, ["+1 1:1.0"]), n_features=10)
        assert ds.n_features == 10

    def test_n_features_override_too_small(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="below max index"):
            read_libsvm(write_lines(tmp_path, ["+1 5:1.0"]), n_features=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = write_lines(tmp_path, ["+1 1:0.5", f"-1 1:1.0 3:{value}"])
        with pytest.raises(ValueError, match=f"non-finite feature value {value} "
                                             "at row 1, column 2"):
            read_libsvm(path)
        matrix = sp.csr_matrix(np.array([[0.5, 0.0], [float(value), 1.0]]))
        with pytest.raises(ValueError, match="non-finite .* row 1, column 0"):
            Dataset(matrix, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("index, accepted", [
        (2**31, True), (2**31 + 1, False), (3000000000, False),
        (10**12, False)])
    def test_index_past_int32_is_a_format_error(self, tmp_path, index,
                                                accepted):
        path = write_lines(tmp_path, ["-1 2:1", f"+1 1:1 {index}:1"])
        if accepted:
            assert read_libsvm(path).row(1)[0][-1] == index - 1
        else:
            with pytest.raises(DatasetFormatError,
                               match=f"{re.escape(path)}:2: feature index {index} is above"):
                read_libsvm(path)
        assert outcome(path) == reference_outcome(path)

    def test_non_ascii_byte_reports_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"+1 1:0.5\n\n-1 2:1.0 3:\xc3\xa91\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{re.escape(str(path))}:3: non-ASCII byte 0xc3"):
            read_libsvm(str(path))

    @pytest.mark.parametrize("block", [8, 1 << 17])
    def test_non_numeric_label_reports_line(self, tmp_path, block):
        """The first line with such a label is named, whether the scan or
        the line loop (the tab) read it, and in whichever block."""
        path = write_lines(tmp_path, ["+1 1:1", "", "-1 2:1", "cat 1:1",
                                      "dog\t2:1", "cat 2:1"])
        with mock.patch.object(dataset, "_BLOCK", block):
            with pytest.raises(DatasetFormatError,
                               match=f"{re.escape(path)}:4: label 'cat' is not a "
                                     "number; non-numeric labels require "
                                     "--positive-class"):
                read_libsvm(path)
            assert read_libsvm(path, positive_label="cat").labels.tolist() == [
                -1.0, -1.0, 1.0, -1.0, 1.0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_non_numeric_label_in_a_pipe_reports_line(self, tmp_path):
        """A pipe can be read only once, and the error still names the line."""
        path = str(tmp_path / "pipe")
        os.mkfifo(path)

        def write():
            with open(path, "w") as fh:
                fh.write("+1 1:1\n-1 2:1\ncat 1:1\n")

        writer = threading.Thread(target=write)
        writer.start()
        try:
            with pytest.raises(DatasetFormatError,
                               match=f"{re.escape(path)}:3: label 'cat'"):
                read_libsvm(path)
        finally:
            writer.join()

    def test_a_very_long_line_goes_to_the_line_loop(self, tmp_path):
        """The scan declines a block that a long line makes more than four
        reads long, whose arrays would take about 30 bytes per byte."""
        long_line = "+1 " + " ".join(f"{j}:{j % 7 + 0.5}" for j in range(1, 400))
        path = write_lines(tmp_path, ["-1 1:1 2:2", long_line, "+1 3:1"] * 3)
        taken = {}
        scan = dataset._scan

        def spy(block, lineno, rows):
            lines = scan(block, lineno, rows)
            taken[len(block)] = lines is not None
            return lines

        with mock.patch.object(dataset, "_scan", spy), \
                mock.patch.object(dataset, "_BLOCK", 256):
            got = outcome(path)
        assert got == reference_outcome(path)
        assert got[0] == (9, 399)
        assert any(taken.values())
        assert all(taken[size] == (size <= 4 * 256) for size in taken)

    def test_values_of_many_digits_are_what_float_gives(self, tmp_path):
        """Up to 15 digits are decoded by arithmetic; longer ones, past
        2^53 or past int64, go to float()."""
        tokens = ["999999999999999", "9999999999999999", "9007199254740993",
                  "12345678901234567890", "000000000000007", "0"]
        path = write_lines(tmp_path, [f"+1 1:{t}" for t in tokens] + ["-1 1:1"])
        assert read_libsvm(path).matrix.data.tolist() == [
            float(t) for t in tokens] + [1.0]

    @pytest.mark.parametrize("kind", ["binary", "valued", "short"])
    def test_plain_files_never_reach_the_line_loop(self, tmp_path, kind):
        """Binary rows, rows written by write_libsvm and short decimals are
        all in the scan's grammar, over many blocks."""
        rng = np.random.default_rng(5)
        dense = np.where(rng.random((400, 60)) < 0.2,
                         rng.uniform(0.5, 2.0, (400, 60)), 0.0)
        labels = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        path = str(tmp_path / "data.svm")
        if kind == "short":
            dense = np.round(dense * rng.choice([-1, 1], dense.shape), 3)
            with open(path, "w") as fh:
                for row, label in zip(dense, labels):
                    entries = " ".join(f"{j + 1}:{v:g}" for j, v in
                                       enumerate(row) if v)
                    fh.write(f"{label:+.0f} {entries}\n")
        else:
            if kind == "binary":
                dense = (dense != 0).astype(float)
            write_libsvm(Dataset(sp.csr_matrix(dense), labels), path)
        with mock.patch.object(dataset, "_read_lines",
                               side_effect=AssertionError("line loop")), \
                mock.patch.object(dataset, "_BLOCK", 4096):
            got = outcome(path)
        assert got == reference_outcome(path)
        assert got[0] == (400, 60)

    def test_line_permutation_permutes_rows(self, tmp_path):
        lines = ["+1 1:0.5 3:2.0", "-1 2:1.5", "+1 1:3.0"]
        ds = read_libsvm(write_lines(tmp_path, lines, "a.txt"))
        perm = [2, 0, 1]
        ds_perm = read_libsvm(write_lines(
            tmp_path, [lines[i] for i in perm], "b.txt"))
        for new_i, old_i in enumerate(perm):
            oi, ov = ds.row(old_i)
            ni, nv = ds_perm.row(new_i)
            np.testing.assert_array_equal(oi, ni)
            np.testing.assert_array_equal(ov, nv)
            assert ds.labels[old_i] == ds_perm.labels[new_i]


# Value tokens in and out of the scan's own grammar, all accepted by float().
VALUES = st.one_of(
    st.just("1"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.builds(lambda sign, whole, point, frac, exp: sign + whole + point + frac + exp,
              st.sampled_from(["", "+", "-"]),
              st.text("0123456789", min_size=1, max_size=9),
              st.sampled_from(["", "."]),
              st.text("0123456789", max_size=9),
              st.sampled_from(["", "e5", "E-3", "e+22", "e-22", "e23", "e-400"])),
    st.sampled_from(["-0", "-0.0", ".5", "5.", "+.5", "0", "000000000000007",
                     "999999999999999", "9999999999999999", "9007199254740992",
                     "9007199254740993", "12345678901234567890", "9999999999.999999",
                     "99999999999999.99", "123456789012345678", "1_0",
                     "0.1", "1e22", "1e-5", "1e400"]),
)

# Entries that make a file fail, or that only the line loop takes.
FAULTS = ["7", "0:1", "REPEAT", "7:", "7:nan", "7:inf", "7:-inf",
          "3000000000:1", "007:1", "+7:1", "7:1:2", "7:x", "7:0x1"]


@st.composite
def libsvm_files(draw):
    """A LIBSVM file's bytes, a block size and a positive label.  Its
    whitespace is single spaces, or runs of spaces with blank lines, or
    also tabs and CRLF line ends, which only the line loop takes."""
    labels = draw(st.sampled_from([("+1", "-1"), ("1", "0"), ("1", "-1.0"),
                                   ("2", "7")]))
    valued = draw(st.booleans())
    layout = draw(st.sampled_from(["single", "spaces", "mixed"]))
    space = {"single": [" "], "spaces": [" ", " ", "  "],
             "mixed": [" ", " ", "  ", "\t"]}[layout]
    edge = {"single": [""], "spaces": ["", "", " "],
            "mixed": ["", "", " ", "\t"]}[layout]
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        if layout != "single" and draw(st.sampled_from([False] * 5 + [True])):
            lines.append(draw(st.sampled_from(edge)))
            continue
        indices = sorted(draw(st.sets(st.integers(1, 400), max_size=8)))
        tokens = [draw(st.sampled_from(labels))] + [
            f"{j}:{draw(VALUES) if valued else '1'}" for j in indices]
        line = tokens[0] + "".join(draw(st.sampled_from(space)) + t
                                   for t in tokens[1:])
        lines.append(draw(st.sampled_from(edge)) + line
                     + draw(st.sampled_from(edge)))
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    if fault is not None and lines:
        i = draw(st.integers(0, len(lines) - 1))
        last = lines[i].split()[-1:] or ["+1"]
        lines[i] += " " + (last[0] if fault == "REPEAT" else fault)
    newline = "\r\n" if layout == "mixed" and draw(st.booleans()) else "\n"
    content = newline.join(lines).encode("ascii")
    if draw(st.booleans()):
        content += newline.encode("ascii")
    if draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(content)))
        content = content[:at] + b"\xe9" + content[at:]
    block = draw(st.sampled_from([8, 64, 512, 1 << 17]))
    positive = draw(st.sampled_from([None, None, "2", "+1"]))
    return content, block, positive


class TestScanAgainstLineLoop:
    @settings(max_examples=300, deadline=None)
    @given(libsvm_files())
    def test_same_bytes_or_same_error(self, case):
        content, block, positive = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.svm")
            with open(path, "wb") as fh:
                fh.write(content)
            with mock.patch.object(dataset, "_BLOCK", block):
                got = outcome(path, positive_label=positive)
            assert got == reference_outcome(path, positive_label=positive)


class TestConstructor:
    def test_leaves_the_callers_arrays_untouched(self):
        labels = np.array([1.0, -1.0])
        matrix = sp.csr_matrix((np.array([2.0, 1.0]), np.array([1, 0]),
                                np.array([0, 2, 2])), shape=(2, 2))
        ds = Dataset(matrix, labels)
        labels[0] = -1.0
        assert ds.labels[0] == 1.0
        assert not ds.labels.flags.writeable
        np.testing.assert_array_equal(matrix.indices, [1, 0])
        np.testing.assert_array_equal(matrix.data, [2.0, 1.0])
        idx, val = ds.row(0)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(val, [1.0, 2.0])

    def test_read_libsvm_arrays_are_not_copied(self, tmp_path):
        """The matrix read_libsvm returns holds the typed arrays that the
        scan and the line loop appended their blocks to, not copies of
        them.  Each line is a block here, and the tab sends the last one
        through the line loop."""
        path = write_lines(tmp_path, ["+1 1:0.5 3:2.0", "-1 2:1.0", "+1\t1:3"])
        with mock.patch.object(dataset, "_BLOCK", 4):
            ds = read_libsvm(path)
        assert ds.nnz == 4

        def owner(a):
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            return a.obj if isinstance(a, memoryview) else a

        assert isinstance(owner(ds.matrix.data), array)
        assert isinstance(owner(ds.matrix.indices), array)

    def test_later_writes_to_the_callers_matrix_do_not_reach_it(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        ds = Dataset(matrix, np.array([1.0, -1.0, 1.0]))
        problem = logistic_problem(ds, 0.0)
        w = np.array([0.5, -2.0])
        value, grad = problem.value_and_grad(w)
        assert ds.binary
        matrix.data[:] = 7.0
        matrix.indices[0] = 1
        idx, val = ds.row(0)
        np.testing.assert_array_equal(idx, [0])
        np.testing.assert_array_equal(val, [1.0])
        assert ds.binary
        value2, grad2 = problem.value_and_grad(w)
        assert value2 == value and grad2.tobytes() == grad.tobytes()


class TestDerived:
    def test_feature_order_is_by_nonincreasing_count_ties_by_index(self):
        dense = np.array([[1.0, 1.0, 0.0, 1.0, 0.0],
                          [0.0, 1.0, 0.0, 1.0, 1.0],
                          [1.0, 1.0, 0.0, 1.0, 0.0]])
        ds = Dataset(sp.csr_matrix(dense), np.ones(3))
        order = ds._feature_order
        assert order.dtype == np.int64
        np.testing.assert_array_equal(order, [1, 3, 0, 4, 2])
        assert ds._feature_order is order

    def test_arrays_behind_what_it_derives_are_read_only(self, tmp_path):
        """A write through ds.matrix would leave the binary flag, the
        transpose and the feature order stale, so none is allowed."""
        read = read_libsvm(write_lines(tmp_path, ["+1 1:1 3:1", "-1 2:1"]))
        built = Dataset(sp.csr_matrix(np.ones((3, 2))), np.ones(3))
        for ds in (read, built):
            derived = (ds.matrix.data, ds.matrix.indices, ds.matrix.indptr,
                       ds.matrix_t.data, ds.matrix_t.indices,
                       ds.matrix_t.indptr, ds._feature_order, ds.labels)
            for array in derived:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 2

    @pytest.mark.parametrize("value", [2.0, np.nextafter(1.0, 2.0), 0.0])
    def test_one_other_stored_value_makes_it_valued(self, value):
        matrix = sp.csr_matrix(np.ones((3, 2)))
        assert Dataset(matrix, np.ones(3)).binary
        matrix.data[4] = value
        assert not Dataset(matrix, np.ones(3)).binary


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = []
        for _ in range(25):
            picks = sorted(rng.choice(12, size=rng.integers(1, 6),
                                      replace=False))
            rows.append([(int(j), float(rng.standard_normal()
                                        * 10.0 ** float(rng.integers(-8, 9))))
                         for j in picks])
        rows.append([(0, -0.0), (3, 0.087), (5, 1e16), (7, 1.0), (9, -2.5e-300)])
        labels = np.where(rng.standard_normal(26) > 0, 1.0, -1.0)
        ds = make_dataset(rows, labels, n_features=12)
        path = str(tmp_path / "rt.txt")
        write_libsvm(ds, path)
        back = read_libsvm(path, n_features=12)
        np.testing.assert_array_equal(ds.labels, back.labels)
        for i in range(ds.n_points):
            oi, ov = ds.row(i)
            ni, nv = back.row(i)
            np.testing.assert_array_equal(oi, ni)
            # Bytewise, so that -0.0 read back as 0.0 fails.
            assert ov.tobytes() == nv.tobytes(), "values must round-trip bit-exactly"

    def test_values_are_written_as_the_shortest_round_trip_decimal(self, tmp_path):
        """17 significant digits would write 0.087 as 0.086999999999999994."""
        path = str(tmp_path / "short.txt")
        write_libsvm(make_dataset([[(0, 0.087), (1, 1.0), (2, -0.0)],
                                   [(1, 1e-8), (2, 2.5e16)]], [1.0, -1.0]), path)
        with open(path, encoding="ascii") as fh:
            assert fh.read() == "+1 1:0.087 2:1 3:-0\n-1 2:1e-08 3:2.5e+16\n"


class TestSynthesizeQuadratic:
    def test_flat_spectrum_gives_identity(self):
        quad = synthesize_quadratic(2, 1.0, 1.0, seed=0)
        np.testing.assert_allclose(quad.dense(), np.eye(2), atol=1e-14)

    def test_spectrum_endpoints_exact(self):
        quad = synthesize_quadratic(50, 0.1, 10.0, seed=7)
        eigs = np.linalg.eigvalsh(quad.dense())
        assert abs(eigs[0] - 0.1) <= 1e-10
        assert abs(eigs[-1] - 10.0) <= 1e-10
        assert np.all(eigs >= 0.1 - 1e-10) and np.all(eigs <= 10.0 + 1e-10)

    def test_deterministic_given_seed(self):
        a = synthesize_quadratic(20, 0.5, 5.0, seed=42)
        b = synthesize_quadratic(20, 0.5, 5.0, seed=42)
        np.testing.assert_array_equal(a.dense(), b.dense())
        np.testing.assert_array_equal(a.b, b.b)
        c = synthesize_quadratic(20, 0.5, 5.0, seed=43)
        assert not np.array_equal(a.b, c.b)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            synthesize_quadratic(5, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            synthesize_quadratic(5, 2.0, 1.0, 0)

    def test_matvec_matches_dense(self):
        quad = synthesize_quadratic(15, 0.2, 3.0, seed=3)
        v = np.random.default_rng(0).standard_normal(15)
        np.testing.assert_allclose(quad.matvec(v), quad.dense() @ v,
                                   rtol=1e-12, atol=1e-12)
