"""The heap policy: after ``import fsf``, large blocks come from glibc's heap and stay there."""

import ctypes
import platform

import numpy as np
import pytest

import fsf

BLOCK = 64 << 20  # above glibc's largest default mmap threshold (32 MB)


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def mallinfo2():
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):  # glibc before 2.33
        pytest.skip("no mallinfo2 in this C library")
    libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), MallInfo2
    return libc.mallinfo2()


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")


@glibc_only
def test_import_sets_the_policy():
    assert fsf.heap_policy is True


@glibc_only
def test_large_block_is_served_from_the_heap_and_kept_after_free():
    before = mallinfo2()
    block = np.ones(BLOCK, dtype=np.uint8)
    held = mallinfo2()
    # an mmap-served block counts in hblkhd; a heap-served one in uordblks
    assert held.hblkhd - before.hblkhd < BLOCK
    assert held.uordblks - before.uordblks >= BLOCK
    del block
    # freed, it stays in the arena for the next large temporary
    assert mallinfo2().fordblks >= BLOCK
