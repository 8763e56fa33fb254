"""2-D discrete Fourier transforms for arbitrary side lengths.

The transform is the plain unshifted DFT,

    F[u, v] = sum_{x, y} a[x, y] * exp(-2j*pi*(u*x/H + v*y/W)),

computed with a four-step (matrix-matrix) decomposition N = n1 * n2 for
every composite length.  Each sub-transform is a dense DFT GEMM when its
prime factors are all at most 61, and otherwise recurses; prime lengths up
to 61 are one dense GEMM and larger primes run Bluestein's chirp-z
convolution, itself padded to a power of two.  Everything operates on the
trailing axes of an array, so batches of planes transform in one call.

Both axes of a 2-D transform run through two complex work buffers the size
of the input, after Bailey, "FFTs in external or hierarchical memory"
(J. Supercomputing, 1990).  Each stage gathers its operand from a strided
view of the other buffer with one copy, multiplies it into the other buffer
with one GEMM and applies its twiddle in place, so the gathers are the only
transposes.  The first gather reads the caller's array in any layout and
casts it; the row stage's last reorder and the column stage's first gather
are one copy.  The result is a view of a work buffer whose row axis (the
last but one) is the contiguous one.

Inputs of dtype float32/complex64 are transformed in single precision;
everything else runs in double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# Lengths whose prime factors are all up to this bound get a dense DFT
# matrix; a larger prime factor goes through Bluestein.  Covers every factor
# of the common crop sizes (224 = 2^5 * 7) without the chirp detour.
_MAX_DIRECT_PRIME = 61

_chirp_cache: dict = {}
_plan_cache: dict = {}


def _dense(n: int, dtype: np.dtype):
    """Forward DFT kernel exp(-2j*pi*j*k/n) cast to ``dtype``, or None when n
    has a prime factor above ``_MAX_DIRECT_PRIME``."""
    rest = n
    for p in range(2, _MAX_DIRECT_PRIME + 1):
        while rest % p == 0:
            rest //= p
    if rest != 1:
        return None
    k = np.arange(n)
    return np.exp((-2j * np.pi / n) * np.outer(k, k)).astype(dtype)


def _plan(n: int, dtype: np.dtype) -> tuple:
    """(n1, n2, n1-point matrix, n2-point matrix, twiddle) for length n.

    n1 is the largest divisor of n not above sqrt(n), so a prime n has
    n1 == 1.  A matrix is None where its sub-length has a prime factor
    above the dense bound; that sub-transform recurses instead.
    """
    key = (n, dtype)
    plan = _plan_cache.get(key)
    if plan is None:
        n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        n2 = n // n1
        twiddle = np.exp(
            (-2j * np.pi / n) * np.outer(np.arange(n2), np.arange(n1))
        ).astype(dtype)  # indexed [j2, k1]
        plan = _plan_cache[key] = (n1, n2, _dense(n1, dtype), _dense(n2, dtype), twiddle)
    return plan


def _sub(x: np.ndarray, y: np.ndarray, mat) -> None:
    """``y`` = the transform of the last axis of the contiguous ``x`` by a
    plan matrix, or by recursion where the matrix is None."""
    if mat is None:
        np.copyto(y, _fft_last(x))
    else:
        np.matmul(x.reshape(-1, mat.shape[0]), mat, out=y.reshape(-1, mat.shape[0]))


def _bluestein(x: np.ndarray) -> np.ndarray:
    """Chirp-z transform of the last axis; used for large prime lengths."""
    n = x.shape[-1]
    key = (n, x.dtype)
    cached = _chirp_cache.get(key)
    if cached is None:
        k = np.arange(n)
        # Exponent reduced mod 2n to keep the angle small for large n.
        chirp = np.exp((-1j * np.pi / n) * ((k * k) % (2 * n)))
        size = 1 << (2 * n - 1).bit_length()
        kernel = np.zeros(size, dtype=np.complex128)
        kernel[:n] = np.conj(chirp)
        kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
        kernel_f = _fft_last(kernel)
        cached = _chirp_cache[key] = (chirp.astype(x.dtype), kernel_f.astype(x.dtype), size)
    chirp, kernel_f, size = cached

    buf = np.zeros(x.shape[:-1] + (size,), dtype=x.dtype)
    buf[..., :n] = x * chirp
    conv = _fft_last(_fft_last(buf) * kernel_f, inverse=True)
    return conv[..., :n] * chirp


def _axis(src: np.ndarray, a: np.ndarray, b: np.ndarray, rows: int,
          inverse: bool = False) -> np.ndarray:
    """Four-step transform of the last axis of ``src`` through the flat work
    buffers ``a`` and ``b`` (each of ``src.size``); returns the result as a
    view of ``b``.

    Writing the input index as n2*j1 + j2 and the output index as
    n1*k2 + k1, the DFT factorizes into an n1-point transform over j1,
    a twiddle multiplication, and an n2-point transform over j2.  ``src``
    may have any strides and dtype: the first gather reads and casts it.
    The result's last two axes, (k2, k1), flatten to the transformed axis.
    A dense prime length multiplies stacked (rows, n) matrices.  The
    inverse conjugates before and after and divides by n.
    """
    n = src.shape[-1]
    lead = src.shape[:-1]
    n1, n2, m1, m2, twiddle = _plan(n, a.dtype)
    x = a.reshape(lead + (n2, n1))  # [j2, j1]
    np.copyto(x, src.reshape(lead + (n1, n2)).swapaxes(-2, -1), casting="unsafe")
    if inverse:
        np.conjugate(x, out=x)
    y = b.reshape(lead + (n2, n1))
    if n == 1:
        np.copyto(y, x)
    elif n1 == 1:  # prime
        x, y = x.reshape(-1, rows, n), y.reshape(-1, rows, n)
        if m2 is None:
            np.copyto(y, _bluestein(x))
        else:
            np.matmul(x, m2, out=y)
    else:
        _sub(x, y, m1)  # n1-point transform -> [j2, k1]
        y *= twiddle
        x = a.reshape(lead + (n1, n2))
        np.copyto(x, y.swapaxes(-2, -1))  # [k1, j2]
        _sub(x, b.reshape(lead + (n1, n2)), m2)  # n2-point transform -> [k1, k2]
    if inverse:
        np.conjugate(b, out=b)
        np.divide(b, n, out=b)
    return b.reshape(lead + (n1, n2)).swapaxes(-2, -1)


def _fft_last(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Transform of the last axis of a complex array, as a new contiguous array."""
    a, b = np.empty(x.size, x.dtype), np.empty(x.size, x.dtype)
    y = _axis(x, a, b, x.shape[-2] if x.ndim > 1 else 1, inverse)
    np.copyto(a.reshape(y.shape), y)
    return a.reshape(x.shape)


def _dft2(plane, inverse: bool) -> np.ndarray:
    plane = np.asarray(plane)
    name = "idft2" if inverse else "dft2"
    if plane.ndim < 2:
        raise DimensionError(f"{name} needs at least 2 axes, got shape {plane.shape}")
    if plane.shape[-1] < 1 or plane.shape[-2] < 1:
        raise DimensionError(f"{name} got a zero-sized plane {plane.shape}")
    *lead, h, w = plane.shape
    single = plane.dtype in (np.float32, np.complex64)
    dtype = np.dtype(np.complex64 if single else np.complex128)
    a, b = np.empty(plane.size, dtype), np.empty(plane.size, dtype)
    rows = _axis(plane, a, b, h, inverse)  # (..., H, [W])
    cols = _axis(np.moveaxis(rows, len(lead), -1), a, b, w, inverse)  # (..., [W], [H])
    out = a.reshape(tuple(lead) + (w, h))
    np.copyto(out.reshape(cols.shape), cols)
    return out.swapaxes(-2, -1)


def dft2(plane: np.ndarray) -> np.ndarray:
    """Full complex 2-D DFT over the trailing two axes (unshifted layout).

    ``plane`` may be any strided view.  The result is a new array whose
    row axis (the last but one) is the contiguous one.
    """
    return _dft2(plane, inverse=False)


def idft2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft2` (complex output; take ``.real`` for real signals)."""
    return _dft2(spectrum, inverse=True)


def magnitude_backward(
    spectrum: np.ndarray,
    magnitude: np.ndarray,
    upstream: np.ndarray,
    eps_mag: float = 1e-12,
) -> np.ndarray:
    """Plane gradient of ``sum(upstream * magnitude)`` from a forward pass's
    ``spectrum = dft2(plane)`` and ``magnitude = |spectrum|``.

    Uses d|z|/dz = conj(z)/|z| plus linearity of the DFT, so the whole
    gradient is one forward transform of the reweighted spectrum.  Bins with
    magnitude below ``eps_mag`` contribute zero gradient.  Returns the real
    part as a (possibly strided) view.
    """
    ratio = np.where(
        magnitude > eps_mag, np.conj(spectrum) / np.maximum(magnitude, eps_mag), 0.0
    )
    return dft2(upstream * ratio).real
