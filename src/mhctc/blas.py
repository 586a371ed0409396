"""numpy's bundled OpenBLAS, whose thread count sets the bits of every trained model."""

import ctypes
from pathlib import Path

import numpy as np


def openblas():
    """numpy's bundled OpenBLAS, whose thread count can be set, or None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: this is its handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def pin_one_thread():
    """Compute with one BLAS thread from now on; the OpenBLAS handle, or None where there is none.

    One thread gives the same bits in every process, however many CPUs it may use.
    """
    lib = openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
    return lib
