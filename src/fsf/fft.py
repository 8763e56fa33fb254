"""2-D discrete Fourier transforms for arbitrary side lengths.

The transform is the plain unshifted DFT,

    F[u, v] = sum_{x, y} a[x, y] * exp(-2j*pi*(u*x/H + v*y/W)),

over the trailing two axes of an array, so batches of planes transform in
one call.  ``np.fft`` computes it for every input except one: float32 or
complex64 input whose side lengths are both composite with no prime factor
above ``_MAX_DIRECT_PRIME``.  That is the detector's batched spectrum
stage, where a four-step GEMM transform with multithreaded BLAS beats
single-threaded ``np.fft.fft2``, and the stage's float32 reductions depend
on its output layout.

The four-step transform splits each length N = n1 * n2 into an n1-point
dense DFT GEMM, a twiddle multiplication and an n2-point dense DFT GEMM.
Both axes run through two complex work buffers the size of the input, after
Bailey, "FFTs in external or hierarchical memory" (J. Supercomputing,
1990).  Each stage gathers its operand from a strided view of the other
buffer with one copy, multiplies it into the other buffer with one GEMM and
applies its twiddle in place, so the gathers are the only transposes.  The
first gather reads the caller's array in any layout and casts it; the row
stage's last reorder and the column stage's first gather are one copy.  The
result is a view of a work buffer whose row axis (the last but one) is the
contiguous one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# Float32 composite lengths whose prime factors are all up to this bound run
# the dense four-step GEMM path; any larger prime factor, a prime length or a
# length of 1 sends the input to np.fft.  Covers every factor of the common
# crop sizes (224 = 2^5 * 7).
_MAX_DIRECT_PRIME = 61
MAG_EPS = 1e-12  # magnitude floor of magnitude_backward

_plan_cache: dict = {}


def _four_step(n: int) -> bool:
    """True when the positive length n is composite with no prime factor
    above the bound."""
    factors = 0
    for p in range(2, _MAX_DIRECT_PRIME + 1):
        while n % p == 0:
            n //= p
            factors += 1
    return n == 1 and factors > 1


def _dense(n: int) -> np.ndarray:
    """Forward DFT kernel exp(-2j*pi*j*k/n) in complex64."""
    k = np.arange(n)
    return np.exp((-2j * np.pi / n) * np.outer(k, k)).astype(np.complex64)


def _plan(n: int) -> tuple:
    """(n1, n2, n1-point matrix, n2-point matrix, twiddle) for a composite
    length n; n1 is the largest divisor of n not above sqrt(n)."""
    plan = _plan_cache.get(n)
    if plan is None:
        n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        n2 = n // n1
        twiddle = np.exp(
            (-2j * np.pi / n) * np.outer(np.arange(n2), np.arange(n1))
        ).astype(np.complex64)  # indexed [j2, k1]
        plan = _plan_cache[n] = (n1, n2, _dense(n1), _dense(n2), twiddle)
    return plan


def _axis(src: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-step transform of the last axis of ``src`` through the flat work
    buffers ``a`` and ``b`` (each of ``src.size``); returns the result as a
    view of ``b``.

    Writing the input index as n2*j1 + j2 and the output index as
    n1*k2 + k1, the DFT factorizes into an n1-point transform over j1,
    a twiddle multiplication, and an n2-point transform over j2.  ``src``
    may have any strides and dtype: the first gather reads and casts it.
    The result's last two axes, (k2, k1), flatten to the transformed axis.
    """
    lead = src.shape[:-1]
    n1, n2, m1, m2, twiddle = _plan(src.shape[-1])
    x = a.reshape(lead + (n2, n1))  # [j2, j1]
    np.copyto(x, src.reshape(lead + (n1, n2)).swapaxes(-2, -1), casting="unsafe")
    y = b.reshape(lead + (n2, n1))
    np.matmul(x.reshape(-1, n1), m1, out=y.reshape(-1, n1))  # -> [j2, k1]
    y *= twiddle
    x = a.reshape(lead + (n1, n2))
    np.copyto(x, y.swapaxes(-2, -1))  # [k1, j2]
    np.matmul(x.reshape(-1, n2), m2, out=b.reshape(-1, n2))  # -> [k1, k2]
    return b.reshape(lead + (n1, n2)).swapaxes(-2, -1)


def _checked(array, name: str) -> np.ndarray:
    array = np.asarray(array)
    if array.ndim < 2:
        raise DimensionError(f"{name} needs at least 2 axes, got shape {array.shape}")
    if array.shape[-1] < 1 or array.shape[-2] < 1:
        raise DimensionError(f"{name} got a zero-sized plane {array.shape}")
    return array


def dft2(plane: np.ndarray) -> np.ndarray:
    """Full complex 2-D DFT over the trailing two axes (unshifted layout).

    Float32/complex64 input gives complex64 and float64 input complex128.
    ``plane`` may be any strided view.  On the four-step path the result's
    row axis (the last but one) is the contiguous one.
    """
    plane = _checked(plane, "dft2")
    *lead, h, w = plane.shape
    if plane.dtype not in (np.float32, np.complex64) or not (_four_step(h) and _four_step(w)):
        return np.fft.fft2(plane)
    a, b = np.empty(plane.size, np.complex64), np.empty(plane.size, np.complex64)
    rows = _axis(plane, a, b)  # (..., H, [W])
    cols = _axis(np.moveaxis(rows, len(lead), -1), a, b)  # (..., [W], [H])
    out = a.reshape(tuple(lead) + (w, h))
    np.copyto(out.reshape(cols.shape), cols)
    return out.swapaxes(-2, -1)


def idft2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft2` (complex output; take ``.real`` for real signals)."""
    return np.fft.ifft2(_checked(spectrum, "idft2"))


def magnitude_backward(spectrum: np.ndarray, magnitude: np.ndarray,
                       upstream: np.ndarray) -> np.ndarray:
    """Plane gradient of ``sum(upstream * magnitude)`` from a forward pass's
    ``spectrum = dft2(plane)`` and ``magnitude = |spectrum|``.

    Uses d|z|/dz = conj(z)/|z| plus linearity of the DFT, so the whole
    gradient is one forward transform of the reweighted spectrum.  Bins with
    magnitude below ``MAG_EPS`` contribute zero gradient.  The reweighted
    spectrum is built in one complex buffer; the arguments are not written.
    Returns the real part as a (possibly strided) view.
    """
    ratio = np.conjugate(spectrum, dtype=np.result_type(spectrum, magnitude, upstream))
    np.divide(ratio, np.maximum(magnitude, MAG_EPS), out=ratio)
    ratio[~(magnitude > MAG_EPS)] = 0
    ratio *= upstream
    return dft2(ratio).real
