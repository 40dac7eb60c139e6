"""Numerical toolkit for moving frames, zero-curvature residuals and
soliton field maps on regular grids."""

import ctypes
import os

from solgeo.errors import ConstraintError, DomainError, NumericalError

__version__ = "0.1.0"

__all__ = ["ConstraintError", "DomainError", "NumericalError", "__version__"]

# glibc mallopt parameters (malloc.h) and the values set for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit hosts
_TRIM_THRESHOLD = 256 << 20


def _keep_freed_arrays_in_heap():
    """Serve the multi-MB array temporaries of the grid kernels from the
    heap and keep up to _TRIM_THRESHOLD of freed heap mapped.  By default
    glibc maps each such block fresh and unmaps it on free (or trims the
    heap top), so the next temporary faults in new zeroed pages; that cost
    a fifth of a refinement check in system time.  Both thresholds are
    needed: either alone still returns the memory.  Skipped where the C
    library is not glibc or refuses the first setting."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_arrays_in_heap()
