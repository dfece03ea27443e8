"""Native (compiled-C) kernels: the ``"cchain"`` mesh backend and the fused
batch-norm and col2im kernels of the compiled training step.

The package ships :file:`cchain.c` and :file:`trainops.c` as source and
compiles them into one library on first use
(:mod:`repro.photonics._native.build`); :func:`kernel` returns the loaded
library or ``None``, and every caller treats ``None`` as "run the pure-numpy
reference path".  See the build module for the environment knobs
(``REPRO_FORCE_REFERENCE``, ``REPRO_NATIVE_CC``, ``REPRO_NATIVE_CACHE``).
"""

from repro.photonics._native.build import (  # noqa: F401
    ChainKernel,
    build_info,
    cache_dir,
    force_reference_enabled,
    kernel,
    load_error,
    reset,
)

__all__ = ["ChainKernel", "build_info", "cache_dir", "force_reference_enabled",
           "kernel", "load_error", "reset"]
