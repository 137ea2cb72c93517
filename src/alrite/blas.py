"""One BLAS thread for numeric work.

Threaded OpenBLAS GEMM splits its sums differently from single-threaded
GEMM, so results would differ in their last bits with the core count, and a
process pool whose workers each start one BLAS thread per core oversubscribes
the cores. `one_blas_thread` pins numpy's bundled OpenBLAS to one thread for
the duration of a block; parallelism comes from processes instead.
"""

from __future__ import annotations

import ctypes
import glob
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

# (get, set) symbol pairs in lookup order: scipy-openblas builds, then plain
# OpenBLAS, each with the 64-bit-integer suffix first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _thread_controls():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded from its `numpy.libs`, or None when no known symbol is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread and restore the previous thread
    count on exit, also when the block raises. Without a known OpenBLAS the
    block runs unpinned."""
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
