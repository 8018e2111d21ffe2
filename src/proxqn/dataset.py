"""LIBSVM-format ingestion and synthetic strongly convex test instances."""

from __future__ import annotations

from array import array
from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp


# Bytes read at a time; a block runs on to the next line end.
_BLOCK = 1 << 17

# The largest 1-based feature index: its 0-based form fills an int32.
_MAX_INDEX = 2**31

# The most digits of a value the scan decodes by itself: any 15 digits
# spell an integer below 2^53, exact in float64.  The padding lets it
# read that far from any token.
_DIGITS = 15
_PAD = b" " * _DIGITS


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
    c`` sums in the order of the CSC scatter over X's own arrays.  The
    compiled logistic oracle keeps the addresses of these arrays in
    ``_bound``, made at its first call.
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
        self._bound = None
        self._y = labels
        self._y.setflags(write=False)

    def __getstate__(self) -> dict:
        # The binding holds the addresses of this object's arrays, which a
        # copy or an unpickled object does not share; it binds its own.
        return {**self.__dict__, "_bound": None}

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


def _map_labels(rows: _Rows, positive_label: str | None, path: str) -> np.ndarray:
    """The {-1,+1} label of each row of ``rows``; the rules look at each
    distinct raw label once."""
    def as_float(tok: str) -> float | None:
        try:
            return float(tok)
        except ValueError:
            return None

    tokens = list(rows.tokens)
    codes = np.asarray(rows.labels)
    values = [as_float(tok) for tok in tokens]
    if positive_label is not None:
        target = as_float(positive_label)
        out = np.empty(len(tokens))
        for i, (tok, val) in enumerate(zip(tokens, values)):
            if target is not None and val is not None:
                out[i] = 1.0 if val == target else -1.0
            else:
                out[i] = 1.0 if tok == positive_label else -1.0
        out = out[codes]
        if np.all(out == out[0]):
            raise DatasetFormatError(
                f"positive label {positive_label!r} splits the data into a single class"
            )
        return out

    bad = [i for i, v in enumerate(values) if v is None]
    if bad:
        line, i = min((rows.first_lines[i], i) for i in bad)
        raise DatasetFormatError(
            f"{path}:{line}: label {tokens[i]!r} is not a number; "
            "non-numeric labels require --positive-class to binarize"
        )
    distinct = sorted(set(values))
    if set(distinct) <= {-1.0, 1.0}:
        return np.array(values)[codes]
    if set(distinct) <= {0.0, 1.0}:
        return np.array([1.0 if v == 1.0 else -1.0 for v in values])[codes]
    raise DatasetFormatError(
        f"labels {distinct[:6]} are not in {{-1,+1}} or {{0,1}}; "
        "pass positive_label to binarize"
    )


class _Rows:
    """The rows read so far, in typed arrays that become the matrix's own
    without a copy, and each row's raw label as an index into ``tokens``,
    whose first row is on line ``first_lines[index]``."""

    def __init__(self):
        self.indptr = array("q", [0])
        self.indices = array("i")
        self.data = array("d")
        self.labels = array("i")
        self.tokens: dict[str, int] = {}
        self.first_lines: list[int] = []

    def add_labels(self, tokens: list[str], lines: list[int]) -> None:
        """Append rows whose raw labels are ``tokens``, on ``lines``."""
        known = self.tokens
        codes = []
        for tok, line in zip(tokens, lines):
            code = known.get(tok)
            if code is None:
                code = known[tok] = len(known)
                self.first_lines.append(line)
            codes.append(code)
        self.labels.extend(codes)


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

    The file is read in blocks of about ``_BLOCK`` bytes that end at a
    line end.  :func:`_scan` parses a block with array operations; a
    block it cannot vouch for goes through :func:`_read_lines`, the
    line-by-line reference, which also finds and reports any error.
    Either way every value is the one ``float()`` gives.
    """
    rows = _Rows()
    lineno = 1
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            lines = _scan(block, lineno, rows)
            if lines is None:
                lines = _read_lines(path, block, lineno, rows)
            lineno += lines
    if not rows.labels:
        raise DatasetFormatError(f"{path}: no data lines found")

    cols = np.asarray(rows.indices, dtype=np.int32)
    max_dim = int(cols.max()) + 1 if cols.size else 0
    if n_features is None:
        n_features = max_dim
    elif n_features < max_dim:
        raise DatasetFormatError(
            f"{path}: explicit n_features={n_features} below max index {max_dim}"
        )
    if n_features == 0:
        raise DatasetFormatError(f"{path}: no features present")

    labels = _map_labels(rows, positive_label, path)
    matrix = sp.csr_matrix(
        (np.asarray(rows.data), cols, np.asarray(rows.indptr)),
        shape=(len(rows.labels), n_features),
    )
    return Dataset._adopt(matrix, labels)


def _blocks(fh) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of about ``_BLOCK`` bytes, each ending
    at a line end, except a last one without a final newline."""
    pending = []
    while chunk := fh.read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    tail = b"".join(pending)
    if tail:
        yield tail


def _read_lines(path: str, block: bytes, lineno: int, rows: _Rows) -> int:
    """Append the rows of ``block``, whose first line is line ``lineno`` of
    ``path``, one line at a time, and return the number of lines.

    This is the reference parser: each line is decoded as ASCII, split at
    any whitespace, and its entries converted by ``int()`` and
    ``float()``.  The first fault raises a :class:`DatasetFormatError`
    that names its line.  The block's entries collect in lists, which are
    fast to append to, and move to the typed arrays at its end.
    """
    indices: list[int] = []
    data: list[float] = []
    tokens: list[str] = []
    token_lines: list[int] = []
    lines = block.splitlines()
    for lineno, raw in enumerate(lines, start=lineno):
        try:
            parts = raw.decode("ascii").split()
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(
                f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x}"
            ) from None
        if not parts:
            continue
        tokens.append(parts[0])
        token_lines.append(lineno)
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
            if idx > _MAX_INDEX:
                raise DatasetFormatError(
                    f"{path}:{lineno}: feature index {idx} is above {_MAX_INDEX}, "
                    "the largest a 32-bit index holds"
                )
            prev = idx
            indices.append(idx - 1)
            data.append(val)
        rows.indptr.append(len(rows.indices) + len(indices))
    rows.indices.extend(indices)
    rows.data.extend(data)
    rows.add_labels(tokens, token_lines)
    return len(lines)


def _scan(block: bytes, lineno: int, rows: _Rows) -> int | None:
    """Append the rows of ``block``, whose first line is line ``lineno``,
    and return its number of lines, or return None, appending nothing,
    when the block holds anything outside the grammar below or is more
    than four reads long.  Equal to :func:`_read_lines` on every block
    it takes.

    Lines hold printable ASCII and spaces.  A line is blank or a label
    token with no colon, followed by ``<index>:<value>`` tokens.  An
    index is 1 to 10 digits, from 1 to ``_MAX_INDEX`` and above the one
    before it.  A value is any token ``float()`` accepts.  One of 1 to
    ``_DIGITS`` digits and nothing else is decoded by digit arithmetic;
    every other value goes to ``float()`` itself.
    """
    if len(block) > 4 * _BLOCK:
        return None  # a very long line; the arrays below take ~30 bytes a byte
    # A leading space makes every token start after a separator.
    text = b" " + block + (b"" if block.endswith(b"\n") else b"\n")
    buf = np.frombuffer(text + _PAD, np.uint8)
    b = buf[:len(text)]
    ends_of_lines = np.flatnonzero(b == 10)
    if np.count_nonzero(b - np.uint8(32) > 94) != ends_of_lines.size:
        return None  # a byte other than a newline, a space or printable ASCII
    starts, ends = _tokens(b)

    # Tokens before each line end, so the first token of each nonblank
    # line is its label and the rest are its entries.
    before = np.searchsorted(starts, ends_of_lines)
    per_line = np.diff(before, prepend=0)
    nonblank = per_line > 0
    first = before[nonblank] - per_line[nonblank]
    counts = per_line[nonblank] - 1
    entry = np.ones(starts.size, bool)
    entry[first] = False
    estart, eend = starts[entry], ends[entry]

    # Exactly one colon in each entry, inside it, and none in a label.
    colons = np.flatnonzero(b == 58)
    if colons.size != estart.size or not (
        np.all(colons > estart) and np.all(colons < eend - 1)
    ):
        return None

    index, digits_only = _decode_digits(buf, estart, colons, 10)
    if not (np.all(digits_only) and np.all((index >= 1) & (index <= _MAX_INDEX))):
        return None
    row_end = np.cumsum(counts)
    row_start = np.zeros(index.size, bool)
    row_start[(row_end - counts)[counts > 0]] = True
    if not np.all((index[1:] > index[:-1]) | row_start[1:]):
        return None
    values = _decode_values(buf, colons + 1, eend)
    if values is None:
        return None

    labels = [text[s:e].decode("ascii")
              for s, e in zip(starts[first].tolist(), ends[first].tolist())]
    rows.add_labels(labels, (np.flatnonzero(nonblank) + lineno).tolist())
    rows.indptr.frombytes((row_end + len(rows.indices)).view(np.uint8))
    rows.indices.frombytes((index - 1).astype(np.int32).view(np.uint8))
    rows.data.frombytes(values.view(np.uint8))
    return ends_of_lines.size


def _tokens(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of bytes above the space starts and ends in ``b``,
    which starts with a space and ends with a newline."""
    token = b > 32
    edges = np.flatnonzero(token[1:] != token[:-1])
    edges += 1
    return edges[0::2], edges[1::2]


def _decode_digits(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                   most: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 number each ``buf[start:end]`` spells, and whether it
    is 1 to ``most`` decimal digits and nothing else (the number is
    meaningless where it is not)."""
    length = end - start
    number = np.zeros(start.size, np.int64)
    ok = (length >= 1) & (length <= most)
    at = start.copy()
    for k in range(min(most, int(length.max(initial=0)))):
        digit = buf[at] - np.uint8(48)
        at += 1
        live = length > k
        ok &= (digit <= 9) | ~live
        # Branch-free: a masked update costs ten times as much.
        number = number * (1 + 9 * live) + digit * live
    return number, ok


def _decode_values(buf: np.ndarray, start: np.ndarray,
                   end: np.ndarray) -> np.ndarray | None:
    """The float64 value of each ``buf[start:end]``, bit for bit what
    ``float()`` gives, or None when ``float()`` rejects one."""
    number, decoded = _decode_digits(buf, start, end, _DIGITS)
    out = number.astype(np.float64)
    slow = np.flatnonzero(~decoded)
    if slow.size:
        # Everything but the bytes of these values becomes a space, so
        # that a split gives the values in order.
        edge = np.zeros(buf.size + 1, np.int8)
        edge[start[slow]] = 1
        edge[end[slow]] = -1
        kept = np.where(np.cumsum(edge[:-1], dtype=np.int8).view(bool),
                        buf, np.uint8(32))
        try:
            out[slow] = list(map(float, kept.tobytes().split()))
        except ValueError:
            return None
    return out


def write_libsvm(dataset: Dataset, path: str) -> None:
    """Write a Dataset back to LIBSVM text, each value as the shortest
    decimal that reads back to the same float (``1.0`` as ``1``).

    Round trip with :func:`read_libsvm` preserves indices, values and
    labels bit-exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        for i in range(dataset.n_points):
            idx, val = dataset.row(i)
            label = "+1" if dataset.labels[i] > 0 else "-1"
            feats = " ".join(f"{j + 1}:{repr(float(v)).removesuffix('.0')}"
                             for j, v in zip(idx, val))
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
    if not (0.0 < gamma <= l_target < np.inf):
        raise ValueError(f"need 0 < gamma <= l_target < inf, got ({gamma}, {l_target})")
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
