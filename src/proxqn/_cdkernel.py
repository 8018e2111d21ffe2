"""Build and load the compiled coordinate-descent loops (``_cdkernel.c``).

The C file is compiled with the system ``cc`` into a temporary
directory and loaded with ctypes.  It calls numpy's own BLAS for the
products that the Python reference forms with ``@``, so both paths give
the same bits.  :func:`load` returns the loaded kernel, or ``None`` and
the reason it could not be built, in which case the subsolver runs its
Python loops.
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
    """The two loops over a ``CdWorkspace``, which they update in place.

    Both return the number of coordinate steps taken and raise the
    errors the Python loops raise.
    """

    def __init__(self, lib: ctypes.CDLL):
        ws = ctypes.POINTER(_Workspace)
        self._random = lib.cd_random
        self._random.argtypes = [ws, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
        self._random.restype = ctypes.c_int64
        self._exact = lib.cd_exact
        self._exact.argtypes = [ws, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
        self._exact.restype = ctypes.c_int64

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
    when there is no C compiler or numpy's BLAS symbols are missing."""
    blas = _numpy_blas()
    if isinstance(blas, str):
        return None, blas
    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    with tempfile.TemporaryDirectory(prefix="proxqn-") as tmp:
        out = os.path.join(tmp, "_cdkernel.so")
        try:
            subprocess.run([cc, *CFLAGS, SOURCE, "-o", out], check=True,
                           capture_output=True, text=True, timeout=120)
            lib = ctypes.CDLL(out)
        except subprocess.CalledProcessError as exc:
            return None, f"cc failed: {exc.stderr.strip()[:200]}"
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"kernel build failed: {exc}"
    lib.cd_bind_blas.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    lib.cd_bind_blas.restype = None
    lib.cd_bind_blas(*blas)
    return Kernel(lib), ""
