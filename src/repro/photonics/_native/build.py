"""Build and load the native kernel library.

The library ships as plain C source -- :file:`cchain.c` (the rotation-chain
kernels of the ``cchain`` mesh backend) and :file:`trainops.c` (the fused
batch-norm and col2im kernels of the compiled training step) -- and is
compiled at most once per (sources, compiler, flags) triple: the shared
library lands in a cache directory keyed by the SHA-256 of every source file
plus the compiler's identification string and the flags, so upgrading the
compiler or editing any source triggers exactly one rebuild and CI can cache
the artifact by hashing the same sources.

The flags include ``-ffp-contract=off``: the training kernels must round
every multiply and add separately, exactly as the numpy ufuncs they replace,
and an FMA contraction (the default with ``-march=native`` and on aarch64)
would change result bits.  ``-O3`` vectorises the kernels' per-element
loops, which changes no bit: without ``-ffast-math`` nothing is reassociated.

Loading prefers :mod:`cffi` (releases the GIL around kernel calls, stable
ABI-mode ``dlopen``) and falls back to :mod:`ctypes` when cffi is absent.
Every failure mode -- no C compiler on PATH, a failed compile, a failed
``dlopen`` -- degrades to ``None`` with one logged message, after which the
pure-numpy paths carry the process exactly as before.

Environment knobs:

``REPRO_FORCE_REFERENCE``
    Truthy value disables the native kernel entirely (checked per call, so a
    test can flip it without reloading modules); the numpy reference paths
    run everywhere.  CI runs the full suite once in this mode.
``REPRO_NATIVE_CC``
    Compiler executable to use instead of ``$CC``/``cc``/``gcc``/``clang``.
    Pointing it at a nonexistent binary simulates a toolchain-less host.
``REPRO_NATIVE_CACHE``
    Cache directory for compiled libraries (default
    ``~/.cache/repro/native``).
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

logger = logging.getLogger(__name__)

#: every C source compiled into the one shared library
SOURCE_PATHS = tuple(Path(__file__).with_name(name)
                     for name in ("cchain.c", "trainops.c"))

#: C declarations of the kernel entry points (shared by cffi and ctypes).
CDEF = """
int cchain_propagate(double *work, long batch, long dim,
                     const long *modes, long n_mzi,
                     const double *thetas, const double *phis,
                     const double *output_phases, double transmission);
int cchain_clements_chain(double *work, long n,
                          const unsigned char *is_left,
                          const long *op_modes, const long *op_pivots,
                          long n_ops, double *thetas, double *phis,
                          double tol);
int cchain_clements_chain_stack(double *work, long count, long n,
                                const unsigned char *is_left,
                                const long *op_modes, const long *op_pivots,
                                long n_ops, double *thetas, double *phis,
                                double tol);
int trainops_bn_forward(const double *x, long n, long c, long s, double eps,
                        double *mean, double *var, double *sq,
                        double *sub, double *norm, double *out,
                        const double *weight, const double *bias);
int trainops_bn_backward(const double *grad, long n, long c, long s,
                         const double *sub, const double *sq,
                         const double *norm, double *gx, int accumulate,
                         double *gweight, double *gbias,
                         const double *weight);
int trainops_col2im_planes(const double *dcols, long batch, long channels,
                           long height, long width,
                           long kernel_h, long kernel_w,
                           long stride_h, long stride_w,
                           long pad_h, long pad_w,
                           long out_h, long out_w, long split,
                           double *top, int accumulate_top,
                           double *bottom, int accumulate_bottom);
"""

_CFLAGS = ("-O3", "-shared", "-fPIC", "-fno-math-errno", "-ffp-contract=off")


def _env_truthy(name: str) -> bool:
    value = os.environ.get(name, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def force_reference_enabled() -> bool:
    """Whether ``REPRO_FORCE_REFERENCE`` pins execution to the numpy paths."""
    return _env_truthy("REPRO_FORCE_REFERENCE")


def _find_compiler() -> str:
    """Absolute path of the C compiler to use; raises when none exists."""
    override = os.environ.get("REPRO_NATIVE_CC") or os.environ.get("CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for candidate in candidates:
        path = shutil.which(candidate)
        if path:
            return path
    raise RuntimeError(f"no C compiler found (tried {', '.join(candidates)})")


def _compiler_identity(compiler: str) -> str:
    """A string that changes when the compiler changes (version line or stat)."""
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=30)
        first = (proc.stdout or proc.stderr).splitlines()
        if first:
            return first[0].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        stat = os.stat(compiler)
        return f"{compiler}:{stat.st_size}:{stat.st_mtime_ns}"
    except OSError:
        return compiler


def cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro/native").expanduser()


def _cache_key(sources, compiler_identity: str) -> str:
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source)
        digest.update(b"\x00")
    digest.update(compiler_identity.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(" ".join(_CFLAGS).encode())
    return digest.hexdigest()[:16]


def _compile(compiler: str, library_path: Path) -> None:
    """Compile the sources to ``library_path`` atomically (tmp + ``os.replace``)."""
    library_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=library_path.name + ".",
                                    suffix=".tmp", dir=library_path.parent)
    os.close(fd)
    try:
        command = [compiler, *_CFLAGS, "-o", tmp_name,
                   *(str(path) for path in SOURCE_PATHS), "-lm"]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise RuntimeError(
                f"C compile failed ({' '.join(command)}): {detail[:500]}")
        os.replace(tmp_name, library_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


class ChainKernel:
    """Loaded native library with numpy-aware entry points.

    All methods operate **in place** on the caller's buffers; the caller is
    responsible for passing C-contiguous arrays of the documented dtypes
    (asserted cheaply here).  Calls release the GIL (both cffi ``dlopen``
    bindings and ctypes foreign calls do), so sharded workers and threaded
    plan executors overlap native time freely.
    """

    def __init__(self, lib, binding: str, library_path: Path,
                 compiler: str, key: str):
        self._lib = lib
        self.binding = binding
        self.library_path = library_path
        self.compiler = compiler
        self.key = key

    def _check(self, array: np.ndarray, dtype, name: str) -> np.ndarray:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous {dtype}")
        return array

    def propagate(self, work: np.ndarray, modes: np.ndarray,
                  thetas: np.ndarray, phis: np.ndarray,
                  output_phases: np.ndarray, transmission: float) -> None:
        """Run the MZI chain + output phases in place on ``(batch, dim)`` work."""
        self._check(work, np.complex128, "work")
        self._check(modes, np.intp, "modes")
        self._check(thetas, np.float64, "thetas")
        self._check(phis, np.float64, "phis")
        self._check(output_phases, np.complex128, "output_phases")
        batch, dim = work.shape
        rc = self._lib.cchain_propagate(
            self._cast_d(work), batch, dim, self._cast_l(modes), modes.size,
            self._cast_d(thetas), self._cast_d(phis),
            self._cast_d(output_phases), float(transmission))
        if rc != 0:
            raise MemoryError("cchain_propagate scratch allocation failed")

    def clements_chain(self, work: np.ndarray, is_left: np.ndarray,
                       op_modes: np.ndarray, op_pivots: np.ndarray,
                       tol: float):
        """Full Clements nulling chain on one ``(n, n)`` matrix, in place."""
        self._check(work, np.complex128, "work")
        self._check(is_left, np.uint8, "is_left")
        self._check(op_modes, np.intp, "op_modes")
        self._check(op_pivots, np.intp, "op_pivots")
        n = work.shape[-1]
        n_ops = op_modes.size
        thetas = np.empty(n_ops, dtype=float)
        phis = np.empty(n_ops, dtype=float)
        self._lib.cchain_clements_chain(
            self._cast_d(work), n, self._cast_u8(is_left),
            self._cast_l(op_modes), self._cast_l(op_pivots), n_ops,
            self._cast_d(thetas), self._cast_d(phis), float(tol))
        return thetas, phis

    def clements_chain_stack(self, work: np.ndarray, is_left: np.ndarray,
                             op_modes: np.ndarray, op_pivots: np.ndarray,
                             tol: float):
        """Clements nulling chains on a ``(count, n, n)`` stack, in place."""
        self._check(work, np.complex128, "work")
        self._check(is_left, np.uint8, "is_left")
        self._check(op_modes, np.intp, "op_modes")
        self._check(op_pivots, np.intp, "op_pivots")
        count, n = work.shape[0], work.shape[-1]
        n_ops = op_modes.size
        thetas = np.empty((count, n_ops), dtype=float)
        phis = np.empty((count, n_ops), dtype=float)
        self._lib.cchain_clements_chain_stack(
            self._cast_d(work), count, n, self._cast_u8(is_left),
            self._cast_l(op_modes), self._cast_l(op_pivots), n_ops,
            self._cast_d(thetas), self._cast_d(phis), float(tol))
        return thetas, phis

    def bind(self, name: str, *args) -> "BoundCall":
        """Prepare repeated calls of kernel ``name`` on fixed buffers.

        ``args`` are the leading C arguments: float64 arrays (passed as
        ``double *``, so they must be C-contiguous), ``None`` (``NULL``),
        ints (``long``/``int``) or floats (``double``).  The returned
        callable appends its own call-time arguments -- arrays or ``None``
        for buffers that can be rebound between calls, such as parameter
        data -- and raises :class:`MemoryError` when the kernel reports a
        failed scratch allocation.
        """
        for arg in args:
            if isinstance(arg, np.ndarray):
                self._check(arg, np.float64, f"{name} argument")
        return BoundCall(getattr(self._lib, name), name, args,
                         tuple(self._pointer(arg) for arg in args),
                         self._pointer)

    def _pointer(self, arg):
        """An argument in the binding's calling convention."""
        if isinstance(arg, np.ndarray):
            return self._cast_d(arg)
        return self._null if arg is None else arg

    # the cast hooks are replaced per binding in the loader below
    _null = None

    def _cast_d(self, array: np.ndarray):
        raise NotImplementedError

    def _cast_l(self, array: np.ndarray):
        raise NotImplementedError

    def _cast_u8(self, array: np.ndarray):
        raise NotImplementedError


class BoundCall:
    """A native kernel call with its leading arguments converted once.

    Holds a reference to every array whose pointer it passes, so those
    buffers live at least as long as the call: a raw pointer alone would not
    keep an array alive.
    """

    __slots__ = ("_fn", "name", "_held", "_args", "_pointer")

    def __init__(self, fn, name: str, held, args, pointer):
        self._fn = fn
        self.name = name
        self._held = held  # the Python objects behind the converted ``args``
        self._args = args
        self._pointer = pointer

    def __call__(self, *late) -> None:
        pointer = self._pointer
        if self._fn(*self._args, *[pointer(arg) for arg in late]) != 0:
            raise MemoryError(f"{self.name} scratch allocation failed")


class _CffiKernel(ChainKernel):
    def __init__(self, ffi, lib, library_path, compiler, key):
        super().__init__(lib, "cffi", library_path, compiler, key)
        self._ffi = ffi
        self._null = ffi.NULL

    def _cast_d(self, array):
        # a view of the array's buffer (it keeps the array alive); several
        # times cheaper than casting ``array.ctypes.data``
        return self._ffi.from_buffer("double[]", array)

    def _cast_l(self, array):
        return self._ffi.cast("long *", array.ctypes.data)

    def _cast_u8(self, array):
        return self._ffi.cast("unsigned char *", array.ctypes.data)


class _CtypesKernel(ChainKernel):
    def _cast_d(self, array):
        return array.ctypes.data

    _cast_l = _cast_d
    _cast_u8 = _cast_d


def _load_library(library_path: Path, compiler: str, key: str) -> ChainKernel:
    try:
        import cffi

        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        lib = ffi.dlopen(str(library_path))
        return _CffiKernel(ffi, lib, library_path, compiler, key)
    except ImportError:
        pass
    import ctypes

    lib = ctypes.CDLL(str(library_path))
    for name in ("cchain_propagate", "cchain_clements_chain",
                 "cchain_clements_chain_stack", "trainops_bn_forward",
                 "trainops_bn_backward", "trainops_col2im_planes"):
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int
    ptr = ctypes.c_void_p
    lib.cchain_propagate.argtypes = [ptr, ctypes.c_long, ctypes.c_long, ptr,
                                     ctypes.c_long, ptr, ptr, ptr,
                                     ctypes.c_double]
    chain_args = [ptr, ctypes.c_long, ptr, ptr, ptr, ctypes.c_long, ptr, ptr,
                  ctypes.c_double]
    lib.cchain_clements_chain.argtypes = chain_args
    lib.cchain_clements_chain_stack.argtypes = (
        chain_args[:1] + [ctypes.c_long] + chain_args[1:])
    long, flag = ctypes.c_long, ctypes.c_int
    lib.trainops_bn_forward.argtypes = (
        [ptr, long, long, long, ctypes.c_double] + [ptr] * 8)
    lib.trainops_bn_backward.argtypes = (
        [ptr, long, long, long, ptr, ptr, ptr, ptr, flag, ptr, ptr, ptr])
    lib.trainops_col2im_planes.argtypes = (
        [ptr] + [long] * 13 + [ptr, flag, ptr, flag])
    return _CtypesKernel(lib, "ctypes", library_path, compiler, key)


def build_and_load() -> ChainKernel:
    """Compile (if not cached) and load the kernel.  Raises on any failure."""
    compiler = _find_compiler()
    sources = [path.read_bytes() for path in SOURCE_PATHS]
    key = _cache_key(sources, _compiler_identity(compiler))
    library_path = cache_dir() / f"cchain-{key}" / "libcchain.so"
    if not library_path.exists():
        _compile(compiler, library_path)
        logger.info("compiled native cchain kernel with %s -> %s",
                    compiler, library_path)
    return _load_library(library_path, compiler, key)


# --------------------------------------------------------------------------- #
# process-wide singleton
# --------------------------------------------------------------------------- #
_LOCK = threading.Lock()
_KERNEL: Optional[ChainKernel] = None
_ATTEMPTED = False
_LOAD_ERROR: Optional[str] = None


def kernel() -> Optional[ChainKernel]:
    """The loaded native kernel, or None (unavailable or force-disabled).

    The build/load is attempted once per process and the outcome cached; the
    ``REPRO_FORCE_REFERENCE`` gate is re-read on every call so tests and the
    reference CI leg can flip it without reloading modules.
    """
    if force_reference_enabled():
        return None
    global _KERNEL, _ATTEMPTED, _LOAD_ERROR
    if not _ATTEMPTED:
        with _LOCK:
            if not _ATTEMPTED:
                try:
                    _KERNEL = build_and_load()
                except Exception as exc:  # noqa: BLE001 - any failure => numpy
                    _KERNEL = None
                    _LOAD_ERROR = f"{type(exc).__name__}: {exc}"
                    logger.info(
                        "native cchain kernel unavailable (%s); "
                        "falling back to the pure-numpy reference paths",
                        _LOAD_ERROR)
                _ATTEMPTED = True
    return _KERNEL


def load_error() -> Optional[str]:
    """The failure message of the last load attempt (None if loaded or unattempted)."""
    return _LOAD_ERROR


def reset() -> None:
    """Forget the cached load outcome (tests re-probe under new env vars)."""
    global _KERNEL, _ATTEMPTED, _LOAD_ERROR
    with _LOCK:
        _KERNEL = None
        _ATTEMPTED = False
        _LOAD_ERROR = None


def build_info() -> dict:
    """Diagnostics for the ``repro backends`` CLI."""
    loaded = kernel()
    info = {
        "available": loaded is not None,
        "forced_reference": force_reference_enabled(),
        "sources": [str(path) for path in SOURCE_PATHS],
        "cache_dir": str(cache_dir()),
        "load_error": _LOAD_ERROR,
    }
    if loaded is not None:
        info.update(binding=loaded.binding, compiler=loaded.compiler,
                    library=str(loaded.library_path), key=loaded.key)
    return info
