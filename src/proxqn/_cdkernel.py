"""Build and load the compiled kernel (``_cdkernel.c``): the
coordinate-descent loops of :mod:`proxqn.subsolver` and the three
passes of the logistic oracle of :mod:`proxqn.problem`.

The C file is compiled with the system ``cc`` into a temporary
directory and loaded with ctypes when this module is imported.  It
calls numpy's own BLAS for the products that the Python reference forms
with ``@``, and sums every sparse product in scipy's order, so both
paths give the same bits.  It is built with ``-fopenmp`` so that the
logistic passes split over OpenMP's default thread count (the standard
``OMP_NUM_THREADS`` sets it); where that build fails it is built once
more without the flag and those passes run serially, with the same bits.

``KERNEL`` is the loaded kernel, or ``None`` with the reason in
``FALLBACK``, in which case the subsolver and the logistic oracle run
their numpy/scipy code.  Setting ``KERNEL`` to ``None`` switches both
off.
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


class _Workspace(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64), ("p", ctypes.c_int64),
        ("eff_delta", ctypes.c_double), ("lam", ctypes.c_double),
        ("q", ctypes.c_void_p), ("qw", ctypes.c_void_p),
        ("diag", ctypes.c_void_p), ("grad_v", ctypes.c_void_p),
        ("u", ctypes.c_void_p), ("d", ctypes.c_void_p),
        ("qcache", ctypes.c_void_p), ("bad", ctypes.c_int64),
    ]


class Kernel:
    """The two loops over a ``CdWorkspace``, which they update in place,
    and the logistic oracle's passes.

    The loops return the number of coordinate steps taken and raise the
    errors the Python loops raise.  A logistic pass over at least
    ``parallel_nnz`` nonzeros splits over ``threads`` threads; a kernel
    built without OpenMP, for ``serial_reason``, runs them serially.
    """

    def __init__(self, lib: ctypes.CDLL, serial_reason: str = ""):
        ws = ctypes.POINTER(_Workspace)
        self._random = lib.cd_random
        self._random.argtypes = [ws, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
        self._random.restype = ctypes.c_int64
        self._exact = lib.cd_exact
        self._exact.argtypes = [ws, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
        self._exact.restype = ctypes.c_int64
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self._margins = lib.lg_margins
        self._margins.argtypes = [i64] + [ptr] * 6
        self._margins.restype = None
        self._gradient = lib.lg_gradient
        self._gradient.argtypes = [i64, i64] + [ptr] * 7
        self._gradient.restype = None
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

    def random(self, ws, indices: np.ndarray, step_eps: float) -> int:
        """Steps at ``indices`` (int64, in [0, n)) until n consecutive
        moves are shorter than ``step_eps``."""
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        arrays = _arrays(ws)
        taken = self._random(ctypes.byref(arrays), indices.ctypes.data,
                             indices.shape[0], step_eps)
        if taken < 0:
            raise ValueError(f"nonpositive model diagonal at coordinate {arrays.bad}")
        return taken

    def exact(self, ws, tol: float, max_steps: int) -> int:
        """Cyclic sweeps until the min-norm subgradient's inf-norm is at
        most ``tol`` or a sweep's moves reach the rounding floor."""
        scratch = np.empty(2 * ws.v.shape[0])
        arrays = _arrays(ws)
        steps = self._exact(ctypes.byref(arrays), tol,
                            min(max_steps, 2**63 - 1), scratch.ctypes.data)
        if steps == -1:
            raise ValueError(f"nonpositive model diagonal at coordinate {arrays.bad}")
        if steps == -2:
            raise RuntimeError(
                f"exact subproblem solve exceeded {max_steps} coordinate steps"
            )
        return steps

    @staticmethod
    def takes(matrix) -> bool:
        """Whether the logistic passes read this CSR matrix: they take
        32-bit index arrays, which scipy uses below 2**31 nonzeros."""
        return matrix.indptr.dtype == np.int32 and matrix.indices.dtype == np.int32

    def margins(self, matrix, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``-labels * (matrix @ w)`` for a CSR ``matrix`` that
        :meth:`takes` accepts, float64 ``labels`` of its row count and
        float64 ``w`` of its column count."""
        w = np.ascontiguousarray(w)
        z = np.empty(matrix.shape[0])
        self._margins(matrix.shape[0], *_csr(matrix), labels.ctypes.data,
                      w.ctypes.data, z.ctypes.data)
        return z

    def gradient(self, matrix_t, labels: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``(matrix_t @ (-labels * expit(z))) / m`` for X' as a CSR
        ``matrix_t`` of shape (n, m) that :meth:`takes` accepts and
        float64 ``labels`` and margins ``z`` of length m."""
        n, m = matrix_t.shape
        coeff = np.empty(m)
        grad = np.empty(n)
        self._gradient(m, n, *_csr(matrix_t), labels.ctypes.data,
                       z.ctypes.data, coeff.ctypes.data, grad.ctypes.data)
        return grad


def _csr(matrix) -> tuple[int, int, int]:
    """Addresses of a CSR matrix's indptr, indices and data."""
    return (matrix.indptr.ctypes.data, matrix.indices.ctypes.data,
            matrix.data.ctypes.data)


def _arrays(ws) -> _Workspace:
    """Pointers into ``ws``, whose block outlives the call."""
    return _Workspace(ws.v.shape[0], ws.qcache.shape[0], ws.eff_delta, ws.lam,
                      *ws.addresses(), 0)


def _numpy_blas() -> tuple[ctypes.c_void_p, ctypes.c_void_p] | str:
    """Addresses of numpy's ddot and dgemv, or why they were not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, BLAS_GLOB)))
    if len(found) != 1:
        return f"numpy's BLAS is not one {BLAS_GLOB} in {libs}"
    try:
        # numpy has loaded this file already, so dlopen returns that copy.
        blas = ctypes.CDLL(found[0])
        return (ctypes.cast(getattr(blas, DDOT), ctypes.c_void_p),
                ctypes.cast(getattr(blas, DGEMV), ctypes.c_void_p))
    except (OSError, AttributeError) as exc:
        return f"{DDOT} and {DGEMV} not loadable from {found[0]}: {exc}"


def load() -> tuple[Kernel | None, str]:
    """Compile and load the kernel: ``(kernel, "")``, or ``(None, reason)``
    when there is no C compiler or numpy's BLAS symbols are missing.  A
    compiler that cannot build with OpenMP gets one more try without it."""
    blas = _numpy_blas()
    if isinstance(blas, str):
        return None, blas
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
    lib.cd_bind_blas.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    lib.cd_bind_blas.restype = None
    lib.cd_bind_blas(*blas)
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
# instead.  The subsolver and the logistic oracle read KERNEL on every
# call, so setting it to None switches both to their Python code.
KERNEL, FALLBACK = load()
