from array import array

import numpy as np
import pytest
import scipy.sparse as sp

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
        """The matrix read_libsvm returns holds the typed arrays the
        parser filled, not copies of them."""
        ds = read_libsvm(write_lines(tmp_path, ["+1 1:0.5 3:2.0", "-1 2:1.0"]))

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
        labels = np.where(rng.standard_normal(25) > 0, 1.0, -1.0)
        ds = make_dataset(rows, labels, n_features=12)
        path = str(tmp_path / "rt.txt")
        write_libsvm(ds, path)
        back = read_libsvm(path, n_features=12)
        np.testing.assert_array_equal(ds.labels, back.labels)
        for i in range(ds.n_points):
            oi, ov = ds.row(i)
            ni, nv = back.row(i)
            np.testing.assert_array_equal(oi, ni)
            assert all(a == b for a, b in zip(ov, nv)), "values must round-trip bit-exactly"


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
