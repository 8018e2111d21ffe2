"""LIBSVM-format ingestion and synthetic strongly convex test instances."""

from __future__ import annotations

from array import array

import numpy as np
import scipy.sparse as sp


# Parsed entries held as Python objects before they move to typed arrays.
_FLUSH_ENTRIES = 65536


class DatasetFormatError(ValueError):
    """Raised when a LIBSVM text file violates the expected format."""


class Dataset:
    """Immutable sparse design matrix with labels in {-1, +1}.

    Rows are stored in CSR form; ``row(i)`` exposes the (index, value)
    pairs of a single data point with strictly increasing indices.  The
    Dataset holds a copy of the caller's matrix and labels and makes the
    arrays read-only, so no write reaches what it derives from them:
    ``binary`` says whether every stored value is exactly 1.0, and
    ``matrix_t`` is X' as a read-only CSR copy of its own (12 bytes per
    nonzero with 32-bit indices), built on first use.  Each row of
    ``matrix_t`` lists a
    feature's nonzeros in increasing data-point order, so ``matrix_t @
    c`` sums in the order of the CSC scatter over X's own arrays.
    """

    def __init__(self, matrix: sp.csr_matrix, labels: np.ndarray):
        matrix = sp.csr_matrix(matrix, dtype=np.float64)
        # A CSR matrix given as float64 shares its arrays.  These copies
        # keep their index dtype, which scipy's own copy may narrow.
        matrix.data = matrix.data.copy()
        matrix.indices = matrix.indices.copy()
        matrix.indptr = matrix.indptr.copy()
        self._own(matrix, labels)

    @classmethod
    def _adopt(cls, matrix: sp.csr_matrix, labels: np.ndarray) -> "Dataset":
        """A Dataset over a float64 CSR ``matrix`` whose arrays no one
        else holds, such as :func:`read_libsvm` builds: they are used
        without a copy."""
        dataset = cls.__new__(cls)
        dataset._own(matrix, labels)
        return dataset

    def _own(self, matrix: sp.csr_matrix, labels: np.ndarray) -> None:
        if not matrix.has_sorted_indices:
            matrix.sort_indices()
        labels = np.array(labels, dtype=np.float64)
        if matrix.shape[0] == 0:
            raise ValueError("dataset must contain at least one point")
        if labels.shape != (matrix.shape[0],):
            raise ValueError("labels length must equal the number of rows")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be -1 or +1")
        bad = np.flatnonzero(~np.isfinite(matrix.data))
        if bad.size:
            i = bad[0]
            row = int(np.searchsorted(matrix.indptr, i, side="right")) - 1
            raise ValueError(
                f"non-finite feature value {matrix.data[i]} at row {row}, "
                f"column {matrix.indices[i]}"
            )
        self._X = _read_only(matrix)
        self._binary = bool(np.all(matrix.data == 1.0))
        self._XT = None
        self._order = None
        self._y = labels
        self._y.setflags(write=False)

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._X

    @property
    def binary(self) -> bool:
        """Whether every stored value of the matrix is exactly 1.0."""
        return self._binary

    @property
    def matrix_t(self) -> sp.csr_matrix:
        if self._XT is None:
            self._XT = _read_only(self._X.T.tocsr())
        return self._XT

    @property
    def _feature_order(self) -> np.ndarray:
        """The features by nonincreasing nonzero count, ties in index
        order (int64), which the compiled gradient takes in groups of
        similar length; built on first use, from ``matrix_t``."""
        if self._order is None:
            counts = np.diff(self.matrix_t.indptr)
            self._order = np.argsort(-counts, kind="stable").astype(np.int64)
            self._order.setflags(write=False)
        return self._order

    @property
    def labels(self) -> np.ndarray:
        return self._y

    @property
    def n_features(self) -> int:
        return self._X.shape[1]

    @property
    def n_points(self) -> int:
        return self._X.shape[0]

    @property
    def nnz(self) -> int:
        return self._X.nnz

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, values) of point ``i``."""
        lo, hi = self._X.indptr[i], self._X.indptr[i + 1]
        return self._X.indices[lo:hi], self._X.data[lo:hi]


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix`` with its data, indices and indptr made read-only."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


def _map_labels(raw: list[str], positive_label: str | None) -> np.ndarray:
    def as_float(tok: str) -> float | None:
        try:
            return float(tok)
        except ValueError:
            return None

    if positive_label is not None:
        target = as_float(positive_label)
        out = np.empty(len(raw))
        for i, tok in enumerate(raw):
            val = as_float(tok)
            if target is not None and val is not None:
                out[i] = 1.0 if val == target else -1.0
            else:
                out[i] = 1.0 if tok == positive_label else -1.0
        if np.all(out == out[0]):
            raise DatasetFormatError(
                f"positive label {positive_label!r} splits the data into a single class"
            )
        return out

    values = [as_float(tok) for tok in raw]
    if any(v is None for v in values):
        raise DatasetFormatError(
            "non-numeric labels require --positive-class to binarize"
        )
    distinct = sorted(set(values))
    if set(distinct) <= {-1.0, 1.0}:
        return np.array(values)
    if set(distinct) <= {0.0, 1.0}:
        return np.array([1.0 if v == 1.0 else -1.0 for v in values])
    raise DatasetFormatError(
        f"labels {distinct[:6]} are not in {{-1,+1}} or {{0,1}}; "
        "pass positive_label to binarize"
    )


def read_libsvm(
    path: str,
    positive_label: str | None = None,
    n_features: int | None = None,
) -> Dataset:
    """Parse a LIBSVM text file into a :class:`Dataset`.

    Each nonempty line is ``<label> <idx>:<val> ...`` with 1-based,
    strictly increasing feature indices.  Indices are converted to
    0-based.  Labels already in {-1,+1} are kept, {0,1} is mapped to
    {-1,+1}, and any other labeling requires ``positive_label`` (the
    matching raw label becomes +1, everything else -1).

    The feature count is the largest index seen unless ``n_features``
    overrides it (LIBSVM files omit trailing all-zero features).
    """
    # The entries collect in lists, which are fast to append to, and
    # move to typed arrays every _FLUSH_ENTRIES: a list holds a 32-byte
    # Python object per value where an array holds 8 bytes, and the
    # arrays become the matrix's own without a copy.
    raw_labels: list[str] = []
    indptr = array("q", [0])
    indices, data = array("i"), array("d")
    pending_indices: list[int] = []
    pending_data: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            raw_labels.append(parts[0])
            prev = 0
            for item in parts[1:]:
                try:
                    idx_s, val_s = item.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: malformed feature entry {item!r}"
                    ) from exc
                if idx <= prev:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: indices must be 1-based and strictly increasing"
                    )
                prev = idx
                pending_indices.append(idx - 1)
                pending_data.append(val)
            if len(pending_data) >= _FLUSH_ENTRIES:
                indices.extend(pending_indices)
                data.extend(pending_data)
                pending_indices.clear()
                pending_data.clear()
            indptr.append(len(indices) + len(pending_indices))
    indices.extend(pending_indices)
    data.extend(pending_data)
    if not raw_labels:
        raise DatasetFormatError(f"{path}: no data lines found")

    cols = np.asarray(indices, dtype=np.int32)
    max_dim = int(cols.max()) + 1 if cols.size else 0
    if n_features is None:
        n_features = max_dim
    elif n_features < max_dim:
        raise DatasetFormatError(
            f"{path}: explicit n_features={n_features} below max index {max_dim}"
        )
    if n_features == 0:
        raise DatasetFormatError(f"{path}: no features present")

    labels = _map_labels(raw_labels, positive_label)
    matrix = sp.csr_matrix(
        (np.asarray(data), cols, np.asarray(indptr)),
        shape=(len(raw_labels), n_features),
    )
    return Dataset._adopt(matrix, labels)


def write_libsvm(dataset: Dataset, path: str) -> None:
    """Write a Dataset back to LIBSVM text (17 significant digits).

    Round trip with :func:`read_libsvm` preserves indices, values and
    labels bit-exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        for i in range(dataset.n_points):
            idx, val = dataset.row(i)
            label = "+1" if dataset.labels[i] > 0 else "-1"
            feats = " ".join(f"{j + 1}:{v:.17g}" for j, v in zip(idx, val))
            fh.write(f"{label} {feats}\n" if feats else f"{label}\n")


class SyntheticQuadratic:
    """Symmetric matrix A with prescribed spectrum plus a linear term b.

    A is held as an eigendecomposition ``V diag(eigenvalues) V^T`` so the
    extreme eigenvalues are exact by construction.
    """

    def __init__(self, eigenvalues: np.ndarray, basis: np.ndarray, b: np.ndarray):
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.basis = np.asarray(basis, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def gamma(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lmax(self) -> float:
        return float(self.eigenvalues[-1])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.eigenvalues * (self.basis.T @ v))

    def dense(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.T


def synthesize_quadratic(
    n: int, gamma: float, l_target: float, seed: int
) -> SyntheticQuadratic:
    """Build a seeded quadratic test instance with spectrum in [gamma, l_target].

    The extreme eigenvalues are pinned to gamma and l_target; interior
    eigenvalues are log-uniform.  The orthogonal basis comes from a QR
    factorization of a seeded Gaussian matrix (sign-fixed so the result
    is deterministic for a given seed).
    """
    if not (0.0 < gamma <= l_target):
        raise ValueError(f"need 0 < gamma <= l_target, got ({gamma}, {l_target})")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1 and gamma != l_target:
        raise ValueError("a 1-dimensional spectrum cannot span [gamma, l_target]")

    rng = np.random.default_rng(seed)
    if n == 1:
        eigs = np.array([gamma])
    elif n == 2:
        eigs = np.array([gamma, l_target])
    else:
        interior = np.exp(
            rng.uniform(np.log(gamma), np.log(l_target), size=n - 2)
        )
        eigs = np.sort(np.concatenate([[gamma], interior, [l_target]]))

    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    b = rng.standard_normal(n)
    return SyntheticQuadratic(eigs, q, b)
