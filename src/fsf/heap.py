"""Process heap policy: large temporaries come from the heap, and freed heap is kept for reuse."""

import ctypes
import os


def keep_freed_memory() -> bool:
    """On glibc, serve every block from the heap and never trim it; True when both settings took.

    Each detector op makes and frees feature maps of tens of MB. Above glibc's
    mmap threshold each would be a fresh mapping, zero-filled page by page on
    first touch and unmapped on free. The process keeps its peak RSS until it
    exits. On any other C library this does nothing and returns False.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or a name this libc lacks
        return False
    mallopt = ctypes.CDLL(None).mallopt  # the C library the interpreter runs on
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    no_mmap = mallopt(-4, 0) == 1  # M_MMAP_MAX: no block is an mmap of its own
    no_trim = mallopt(-1, 2**31 - 1) == 1  # M_TRIM_THRESHOLD: freed heap is never returned
    return no_mmap and no_trim
