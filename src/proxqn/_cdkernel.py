"""Build and load the compiled kernel (``_cdkernel.c``): the
coordinate-descent loops of :mod:`proxqn.subsolver`, the stop test of
:mod:`proxqn.optimizers`, the compact L-BFGS build of
:mod:`proxqn.hessian` and the logistic oracle of :mod:`proxqn.problem`.

The C file is compiled with the system ``cc`` into a temporary
directory and loaded with ctypes when this module is imported.  It
calls numpy's own BLAS for the products that the Python reference forms
with ``@`` and numpy's own float64 ``exp``, ``log1p`` and ``add`` loops
for the loss, and sums every sparse product in scipy's order, so both paths
give the same bits.  The loss's mean runs numpy's ``add`` loop in reduce
mode, once over all terms from 0.0 and then divided by m, which gives
``np.mean``'s bits; the loader checks that mode against
``np.add.reduce`` as it checks each loop against its ufunc.  It is
built with ``-fopenmp`` so that the
logistic passes split over OpenMP's default thread count (the standard
``OMP_NUM_THREADS`` sets it); where that build fails it is built once
more without the flag and those passes run serially, with the same bits.

Each pass of the logistic oracle is one prepared call.  A Dataset is
bound once, at its first compiled oracle call: :class:`Bound` holds its
point and feature counts and the addresses of its arrays in one ctypes
struct, kept on the data set.  ``f_value`` passes that struct and one
fresh buffer, which holds the point, the gradient and the forward pass's
margins, to ``lg_value``; ``f_grad`` passes the struct and the buffer
that ``f_value`` filled at its point to ``lg_grad``.  ``value_and_grad``
makes both calls on one buffer.

Each try of ``compile_compact`` is one call too, ``cc_build``, on the
addresses of the pair buffer's two row arrays, read once and kept on
the buffer, and one fresh block, of which the model keeps read-only
views.  It calls the routines numpy calls for the same products, with
numpy's arguments, all from numpy's OpenBLAS: ``ddot`` for s'y, y'y and
the two ``np.vdot`` norms, ``dsyrk`` and a mirror for S'S, ``dgemm`` for
S'Y and QW (``dgemv`` at n = 1), and LAPACK's ``dgesv`` on the middle
matrix's Fortran-order copy and an identity right-hand side for inv.
The diagonal of Q W Q' is ``np.einsum``'s row sum in order, except at
n = 1, where einsum sums in vector lanes and still forms it.

``KERNEL`` is the loaded kernel, or ``None`` with the reason in
``FALLBACK`` (no C compiler, or numpy's BLAS, LAPACK or loops not
bound), in which case the subsolver, the stop test, the compact build
and the logistic oracle run their numpy/scipy code.  Setting ``KERNEL``
to ``None`` switches all four off.
"""

from __future__ import annotations

import ctypes
import glob
import os
import shutil
import subprocess
import tempfile

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cdkernel.c")
CFLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]
OPENMP = "-fopenmp"
# numpy wheels bundle scipy-openblas with 64-bit integer interfaces.
BLAS_GLOB = "libscipy_openblas64_*.so"
DDOT = "scipy_cblas_ddot64_"
DGEMV = "scipy_cblas_dgemv64_"
DGEMM = "scipy_cblas_dgemm64_"
DSYRK = "scipy_cblas_dsyrk64_"
# numpy's linalg calls LAPACK's Fortran entry points from the same file.
DGESV = "scipy_dgesv_64_"
# The ufuncs whose float64 inner loops the forward pass calls, in the
# order lg_bind_loops takes them.
UFUNCS = (np.exp, np.log1p, np.add)
# The lengths on which the add loop's reduce mode, the mean of the loss
# terms, is checked: past numpy's pairwise blocks of 8 and 128 terms and
# its buffer of 8192 elements, and a9a's 32561 points.
SUM_LENGTHS = (*range(1, 40), 8191, 8192, 8193, 32561)
# Doubles in front of the middle matrix in a compact build's block
# (COMPACT_HEAD in _cdkernel.c): delta, sq_m and sq_w, and padding that
# keeps every part 16-byte aligned.
COMPACT_HEAD = 8


class _Workspace(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64), ("p", ctypes.c_int64),
        ("eff_delta", ctypes.c_double), ("lam", ctypes.c_double),
        ("q", ctypes.c_void_p), ("qw", ctypes.c_void_p),
        ("diag", ctypes.c_void_p), ("grad_v", ctypes.c_void_p),
        ("u", ctypes.c_void_p), ("d", ctypes.c_void_p),
        ("qcache", ctypes.c_void_p), ("scratch", ctypes.c_void_p),
        ("bad", ctypes.c_int64),
    ]


class _UFuncHead(ctypes.Structure):
    """The leading fields of numpy's public ``PyUFuncObject``
    (numpy/ufuncobject.h), after the object header."""

    _fields_ = [
        ("head", ctypes.c_byte * object.__basicsize__),
        ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
        ("identity", ctypes.c_int),
        ("functions", ctypes.POINTER(ctypes.c_void_p)),
        ("data", ctypes.POINTER(ctypes.c_void_p)),
        ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
        ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_ubyte)),
    ]


# PyUFuncGenericFunction: (args, dimensions, strides, innerloopdata).
_LOOP = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_void_p),
                         ctypes.POINTER(ctypes.c_ssize_t),
                         ctypes.POINTER(ctypes.c_ssize_t), ctypes.c_void_p)


class Kernel:
    """The two loops over a ``CdWorkspace``, which they update in place,
    the stop test's subgradient norm, one try of the compact build with
    the bytes of ``hessian._numpy_build``, and the logistic oracle's
    forward pass and gradient.  A driver run keeps one workspace for all
    its solves, and the loops reuse its struct of pointers; a data set
    keeps its :class:`Bound`, and a pair buffer its rows' addresses.

    The loops raise the errors the Python loops raise, and ``exact``
    returns the number of coordinate steps it took.  A logistic pass
    over at least ``parallel_nnz`` nonzeros splits over ``threads``
    threads; a kernel built without OpenMP, for ``serial_reason``, runs
    them serially.
    """

    def __init__(self, lib: ctypes.CDLL, serial_reason: str = ""):
        ws = ctypes.POINTER(_Workspace)
        self._random = lib.cd_random
        self._random.argtypes = [ws, ctypes.c_void_p, ctypes.c_int64]
        self._random.restype = ctypes.c_int
        self._exact = lib.cd_exact
        self._exact.argtypes = [ws, ctypes.c_double, ctypes.c_int64]
        self._exact.restype = ctypes.c_int64
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self._value = lib.lg_value
        self._value.argtypes = [ptr, ptr]
        self._value.restype = ctypes.c_double
        self._grad = lib.lg_grad
        self._grad.argtypes = [ptr, ptr]
        self._grad.restype = None
        self._subgrad_inf = lib.subgrad_inf
        self._subgrad_inf.argtypes = [i64, ptr, ptr, ctypes.c_double]
        self._subgrad_inf.restype = ctypes.c_double
        self._build = lib.cc_build
        self._build.argtypes = [i64, i64, ptr, ptr, ptr]
        self._build.restype = i64
        self._threads = lib.lg_threads
        self._threads.argtypes = []
        self._threads.restype = ctypes.c_int
        lib.lg_parallel_nnz.argtypes = []
        lib.lg_parallel_nnz.restype = i64
        self.parallel_nnz = lib.lg_parallel_nnz()
        self.serial_reason = serial_reason
        lib.lg_after_fork.argtypes = []
        lib.lg_after_fork.restype = None
        os.register_at_fork(after_in_child=lib.lg_after_fork)

    @property
    def threads(self) -> int:
        """OpenMP threads of a parallel logistic pass: one in a child
        made by fork, 0 when built without OpenMP."""
        return self._threads()

    def random(self, ws, address: int, r: int) -> None:
        """One coordinate step at each of the r int64 indices (in
        [0, n)) that start at ``address``, an address the caller keeps
        valid, in order: exactly r steps."""
        arrays = _arrays(ws)
        if self._random(ctypes.byref(arrays), address, r):
            raise ValueError(f"nonpositive model diagonal at coordinate {arrays.bad}")

    def exact(self, ws, tol: float, max_steps: int) -> int:
        """Cyclic sweeps until the min-norm subgradient's inf-norm is at
        most ``tol`` or a sweep's moves reach the rounding floor."""
        arrays = _arrays(ws)
        steps = self._exact(ctypes.byref(arrays), tol, min(max_steps, 2**63 - 1))
        if steps == -1:
            raise ValueError(f"nonpositive model diagonal at coordinate {arrays.bad}")
        if steps == -2:
            raise RuntimeError(
                f"exact subproblem solve exceeded {max_steps} coordinate steps"
            )
        return steps

    def subgrad_inf(self, grad: np.ndarray, x: np.ndarray, lam: float) -> float:
        """``np.abs(min_norm_subgradient(grad, x, lam)).max()`` in one
        pass, with the same bits (nan included) and the same refusal of
        arrays of two shapes or of none."""
        grad = np.ascontiguousarray(grad, dtype=np.float64)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if grad.shape != x.shape:
            raise ValueError(f"shape mismatch: {grad.shape} vs {x.shape}")
        if x.size == 0:
            raise ValueError("no subgradient norm of an empty vector")
        return self._subgrad_inf(x.size, _address(grad), _address(x), lam)

    def compact(self, pairs) -> tuple[int, float, float, float, np.ndarray,
                                       np.ndarray, np.ndarray,
                                       np.ndarray | None]:
        """One try of ``hessian.compile_compact`` from the rows of a
        ``CorrectionPairs``: the tuple of ``hessian._numpy_build``, with
        its bytes, in one fresh block that is read-only once written.
        That is dgesv's info (nonzero where ``np.linalg.inv`` raises),
        delta, the squared norms of M and of -inv(M), the views M,
        -inv(M) and its symmetric part W of one (3, k, k) array, Q in the
        layout of ``np.hstack`` (Fortran order from two pairs and two
        entries on), QW, and the diagonal of Q W Q' (None at n = 1, where
        only ``np.einsum`` gives einsum's bytes), for k = 2 len(pairs).
        The buffer's row addresses are read once and kept on it."""
        rows = pairs._rows
        if rows is None:
            rows = pairs._rows = (pairs._s.ctypes.data, pairs._y.ctypes.data)
        n, m = pairs.n, len(pairs)
        k = 2 * m
        square = COMPACT_HEAD + 3 * k * k
        qw = square + n * k
        diag = qw + n * k
        block = np.empty(diag + n + 2 * k * k + k + 2 * m * m)
        info = self._build(n, m, *rows, _address(block))
        block.setflags(write=False)
        delta, sq_m, sq_w = block[:3].tolist()
        q = block[square:qw]
        return (info, delta, sq_m, sq_w,
                block[COMPACT_HEAD:square].reshape(3, k, k),
                q.reshape(k, n).T if m > 1 and n > 1 else q.reshape(n, k),
                block[qw:diag].reshape(n, k),
                block[diag:diag + n] if n > 1 else None)

    @staticmethod
    def takes(matrix) -> bool:
        """Whether the logistic passes read this CSR matrix: they take
        32-bit index arrays, which scipy uses below 2**31 nonzeros."""
        return matrix.indptr.dtype == np.int32 and matrix.indices.dtype == np.int32

    @classmethod
    def bind(cls, dataset) -> Bound | None:
        """The :class:`Bound` view of a Dataset, made at its first
        compiled oracle call and kept on the data set, or None when the
        passes cannot read its ``matrix`` or ``matrix_t``."""
        bound = dataset._bound
        if bound is None:
            ok = cls.takes(dataset.matrix) and cls.takes(dataset.matrix_t)
            bound = dataset._bound = Bound(dataset) if ok else False
        return bound or None

    def value(self, bound: Bound, w: np.ndarray) -> tuple[float, np.ndarray, int]:
        """f(w) for float64 ``w`` of the data set's feature count, with
        the buffer that holds its margins and exp(-|z|) and the buffer's
        address, which :meth:`grad` takes."""
        buf = np.empty(bound.size)
        buf[:bound.n] = w
        address = buf.ctypes.data
        return self._value(bound.address, address), buf, address

    def grad(self, bound: Bound, buf: np.ndarray, address: int) -> np.ndarray:
        """grad f at the w of a buffer that :meth:`value` filled, from
        its margins and exp(-|z|): no forward pass."""
        self._grad(bound.address, address)
        return buf[bound.n:2 * bound.n].copy()


class _Dataset(ctypes.Structure):
    """The ``dataset`` struct of _cdkernel.c."""

    _fields_ = [
        ("m", ctypes.c_int64), ("n", ctypes.c_int64),
        ("x_indptr", ctypes.c_void_p), ("x_indices", ctypes.c_void_p),
        ("x_data", ctypes.c_void_p),
        ("xt_indptr", ctypes.c_void_p), ("xt_indices", ctypes.c_void_p),
        ("xt_data", ctypes.c_void_p),
        ("order", ctypes.c_void_p), ("y", ctypes.c_void_p),
    ]


class Bound:
    """A Dataset as the logistic entry points take it: the addresses of
    X's and X''s indptr, indices and data (NULL for the data of a binary
    data set, whose stored values are all 1.0), of the feature order and
    of the labels, in one struct, read once.  The data set owns those
    read-only arrays and keeps this object, so the addresses stay valid.

    An oracle call works in one buffer of ``size`` = 2n + 3m doubles,
    which :meth:`parts` splits into w, grad, the margins z, e =
    exp(-|z|), and the loss terms t, which the gradient's coefficients
    replace."""

    __slots__ = ("struct", "address", "n", "size")

    def __init__(self, dataset):
        x, xt = dataset.matrix, dataset.matrix_t
        m, n = x.shape
        self.struct = _Dataset(m, n, *_csr(x, dataset.binary),
                               *_csr(xt, dataset.binary),
                               dataset._feature_order.ctypes.data,
                               dataset.labels.ctypes.data)
        self.address = ctypes.addressof(self.struct)
        self.n = n
        self.size = 2 * n + 3 * m

    def parts(self, buf: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of ``buf``'s w, grad, z, e and t."""
        n, m = self.n, self.struct.m
        return (buf[:n], buf[n:2 * n], buf[2 * n:2 * n + m],
                buf[2 * n + m:2 * n + 2 * m], buf[2 * n + 2 * m:])


def _csr(matrix, binary: bool) -> tuple[int, int, int | None]:
    """Addresses of a CSR matrix's indptr, indices and data; NULL for
    the data of a ``binary`` matrix, whose stored values are all 1.0."""
    return (matrix.indptr.ctypes.data, matrix.indices.ctypes.data,
            None if binary else matrix.data.ctypes.data)


def _address(array: np.ndarray) -> object:
    """The address of a C-contiguous array's data, as a ctypes argument:
    through ``from_buffer``, which is cheaper than ``ndarray.ctypes``
    but refuses read-only arrays, which take ``ctypes.data``."""
    if array.flags.writeable:
        return ctypes.byref(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _arrays(ws) -> _Workspace:
    """The struct of pointers into ``ws``, built at the first call and
    kept as ``ws.struct`` (the block outlives it), with the workspace's
    eff_delta and lam of this call."""
    arrays = ws.struct
    if arrays is None:
        arrays = ws.struct = _Workspace(ws.v.shape[0], ws.qcache.shape[0],
                                        0.0, 0.0, *ws.addresses(), 0)
    arrays.eff_delta = ws.eff_delta
    arrays.lam = ws.lam
    return arrays


def _numpy_blas() -> list[ctypes.c_void_p] | str:
    """Addresses of numpy's ddot, dgemv, dgemm, dsyrk and dgesv, or why
    they were not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, BLAS_GLOB)))
    if len(found) != 1:
        return f"numpy's BLAS is not one {BLAS_GLOB} in {libs}"
    try:
        # numpy has loaded this file already, so dlopen returns that copy.
        blas = ctypes.CDLL(found[0])
    except OSError as exc:
        return f"numpy's BLAS not loadable from {found[0]}: {exc}"
    symbols = []
    for name in (DDOT, DGEMV, DGEMM, DSYRK, DGESV):
        try:
            symbols.append(ctypes.cast(getattr(blas, name), ctypes.c_void_p))
        except AttributeError as exc:
            return f"{name} not loadable from {found[0]}: {exc}"
    return symbols


def _float64_loop(ufunc: np.ufunc) -> tuple[int, int | None] | str:
    """The address of ufunc's all-float64 inner loop and of its data,
    read from the ufunc's public fields, or why it was not found."""
    name = ufunc.__name__
    head = _UFuncHead.from_address(id(ufunc))
    if ((head.nin, head.nout, head.nargs, head.ntypes, head.name)
            != (ufunc.nin, ufunc.nout, ufunc.nargs, ufunc.ntypes, name.encode())):
        return f"np.{name} does not have the fields of numpy/ufuncobject.h"
    signature = "d" * ufunc.nin + "->d"
    if signature not in ufunc.types:
        return f"np.{name} has no {signature} loop"
    i = ufunc.types.index(signature)
    double = np.dtype(np.float64).num
    if any(head.types[i * head.nargs + k] != double for k in range(head.nargs)):
        return f"np.{name}'s loop {i} is not its {signature} loop"
    return head.functions[i], head.data[i]


def _probe(ufunc: np.ufunc) -> list[np.ndarray]:
    """The arguments of a check of ufunc's loop, as the forward pass
    calls it: z from -760 to 760 with the infinities and NaNs of both
    signs, as -|z| for exp (down to the subnormal and zero results
    past -708), exp(-|z|) for log1p, and for add two such arrays whose
    NaNs of opposite signs meet at every sixth element."""
    z = np.concatenate([np.linspace(-760.0, 760.0, 1001),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
    e = -np.abs(z)
    if ufunc is np.exp:
        return [e]
    if ufunc is np.log1p:
        return [np.exp(e)]
    step = np.arange(z.size)
    return [np.where(step % 3 == 0, np.nan, z),
            np.where(step % 2 == 0, -np.nan, z[::-1])]


def _same_bytes(ufunc: np.ufunc, fn: int, data: int | None) -> bool:
    """Whether the loop at ``fn`` gives the bytes of ``ufunc`` on the
    probe, on every length from 1 to 39 and on the whole probe, into a
    new array and in place of its last argument."""
    loop = _LOOP(fn)
    args = _probe(ufunc)
    for n in [*range(1, 40), args[0].size]:
        ins = [x[:n].copy() for x in args]
        want = ufunc(*ins).tobytes()
        for out in (np.empty(n), ins[-1]):
            ptrs = [x.ctypes.data for x in (*ins, out)]
            loop((ctypes.c_void_p * len(ptrs))(*ptrs), (ctypes.c_ssize_t * 1)(n),
                 (ctypes.c_ssize_t * len(ptrs))(*[8] * len(ptrs)), data)
            if out.tobytes() != want:
                return False
    return True


def _same_sum(fn: int, data: int | None) -> bool:
    """Whether the add loop at ``fn``, called in reduce mode as the
    compiled mean calls it (once over all terms, from 0.0, with strides
    0 for the accumulator), gives the bytes of ``np.add.reduce`` on every
    length in ``SUM_LENGTHS``: on terms of mixed signs and magnitudes,
    whose sum depends on the order of the adds, and on the same terms
    with an infinity and with NaNs of both signs."""
    loop = _LOOP(fn)
    acc = np.zeros(1)
    for n in SUM_LENGTHS:
        k = np.arange(n)
        terms = np.sin(k + 1.0) * 10.0 ** (k % 17 - 8)
        inf, nan = terms.copy(), terms.copy()
        inf[n // 2] = np.inf
        nan[::7], nan[3::11] = np.nan, -np.nan
        for x in (terms, inf, nan):
            acc[0] = 0.0
            ptrs = (acc.ctypes.data, x.ctypes.data, acc.ctypes.data)
            loop((ctypes.c_void_p * 3)(*ptrs), (ctypes.c_ssize_t * 1)(n),
                 (ctypes.c_ssize_t * 3)(0, 8, 0), data)
            if acc.tobytes() != np.add.reduce(x).tobytes():
                return False
    return True


def _numpy_loops() -> list[int | None] | str:
    """Addresses of numpy's float64 exp, log1p and add loops and of
    their data, each checked against its ufunc, or why they were not
    bound."""
    found = []
    for ufunc in UFUNCS:
        loop = _float64_loop(ufunc)
        if isinstance(loop, str):
            return f"numpy's exp, log1p and add loops not bound: {loop}"
        if not _same_bytes(ufunc, *loop):
            return (f"numpy's exp, log1p and add loops not bound: the float64 "
                    f"loop of np.{ufunc.__name__} differs from the ufunc")
        if ufunc is np.add and not _same_sum(*loop):
            return ("numpy's exp, log1p and add loops not bound: the float64 "
                    "loop of np.add in reduce mode differs from np.add.reduce")
        found.extend(loop)
    return found


def load() -> tuple[Kernel | None, str]:
    """Compile and load the kernel: ``(kernel, "")``, or ``(None, reason)``
    when there is no C compiler, numpy's BLAS or LAPACK symbols are
    missing, or numpy's float64 exp, log1p and add loops cannot be
    bound.  A compiler
    that cannot build with OpenMP gets one more try without it."""
    blas = _numpy_blas()
    if isinstance(blas, str):
        return None, blas
    loops = _numpy_loops()
    if isinstance(loops, str):
        return None, loops
    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    with tempfile.TemporaryDirectory(prefix="proxqn-") as tmp:
        out = os.path.join(tmp, "_cdkernel.so")
        serial_reason = ""
        try:
            try:
                _compile(cc, [OPENMP], out)
            except subprocess.CalledProcessError as exc:
                serial_reason = f"cc {OPENMP} failed: {exc.stderr.strip()[:200]}"
                _compile(cc, [], out)
            lib = ctypes.CDLL(out)
        except subprocess.CalledProcessError as exc:
            return None, f"cc failed: {exc.stderr.strip()[:200]}"
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"kernel build failed: {exc}"
    lib.cd_bind_blas.argtypes = [ctypes.c_void_p] * len(blas)
    lib.cd_bind_blas.restype = None
    lib.cd_bind_blas(*blas)
    lib.lg_bind_loops.argtypes = [ctypes.c_void_p] * 6
    lib.lg_bind_loops.restype = None
    lib.lg_bind_loops(*loops)
    return Kernel(lib, serial_reason), ""


def _compile(cc: str, flags: list[str], out: str) -> None:
    subprocess.run([cc, *CFLAGS, *flags, SOURCE, "-o", out], check=True,
                   capture_output=True, text=True, timeout=120)


def backend() -> str:
    """The active backend: ``"c"`` with its thread count, or the reason
    its logistic passes run serially; or ``"python"`` with the reason
    the kernel is not used."""
    if KERNEL is None:
        return f"python ({FALLBACK or 'kernel disabled'})"
    if KERNEL.threads == 0:
        return f"c, serial ({KERNEL.serial_reason})"
    return (f"c, {KERNEL.threads} OpenMP thread(s) for logistic passes over "
            f"at least {KERNEL.parallel_nnz} nonzeros")


# The compiled kernel, or None and the reason the Python code runs
# instead.  The subsolver, the stop test, the compact build and the
# logistic oracle read KERNEL on every call, so setting it to None
# switches all four to their Python code.
KERNEL, FALLBACK = load()
