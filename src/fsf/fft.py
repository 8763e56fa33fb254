"""2-D discrete Fourier transforms for arbitrary side lengths.

The transform is the plain unshifted DFT,

    F[u, v] = sum_{x, y} a[x, y] * exp(-2j*pi*(u*x/H + v*y/W)),

computed with a four-step (matrix-matrix) decomposition N = n1 * n2 for
every composite length.  Each sub-transform is a dense DFT GEMM when its
prime factors are all at most 61, and otherwise recurses; prime lengths up
to 61 are one dense GEMM and larger primes run Bluestein's chirp-z
convolution, itself padded to a power of two.  Everything operates on the
trailing axes of an array, so batches of planes transform in one call.

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


def _sub_transform(a: np.ndarray, mat) -> np.ndarray:
    """Transform of the last axis of a contiguous ``a`` by a plan matrix."""
    if mat is None:
        return _fft_last(a)
    return (a.reshape(-1, mat.shape[0]) @ mat).reshape(a.shape)


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
    conv = _ifft_last(_fft_last(buf) * kernel_f)
    return conv[..., :n] * chirp


def _fft_last(x: np.ndarray) -> np.ndarray:
    """Four-step transform of the last axis.

    Writing the input index as n2*j1 + j2 and the output index as
    n1*k2 + k1, the DFT factorizes into an n1-point transform over j1,
    a twiddle multiplication, and an n2-point transform over j2.
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    n1, n2, m1, m2, twiddle = _plan(n, x.dtype)
    if n1 == 1:  # prime
        return _bluestein(x) if m2 is None else x @ m2
    lead = x.shape[:-1]
    a = np.ascontiguousarray(x.reshape(lead + (n1, n2)).swapaxes(-2, -1))  # [j2, j1]
    a = _sub_transform(a, m1)  # n1-point transform -> [j2, k1]
    a *= twiddle
    a = np.ascontiguousarray(a.swapaxes(-2, -1))  # [k1, j2]
    a = _sub_transform(a, m2)  # n2-point transform -> [k1, k2]
    return np.ascontiguousarray(a.swapaxes(-2, -1)).reshape(lead + (n,))


def _ifft_last(x: np.ndarray) -> np.ndarray:
    return np.conj(_fft_last(np.conj(x))) / x.shape[-1]


def _complex_dtype(x: np.ndarray) -> np.dtype:
    if x.dtype in (np.float32, np.complex64):
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


def _as_complex(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=_complex_dtype(x))


def fft1d(x: np.ndarray, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """DFT along one axis of a possibly batched array."""
    x = _as_complex(np.asarray(x))
    if x.shape[axis] == 0:
        raise DimensionError("cannot transform a zero-length axis")
    moved = axis not in (-1, x.ndim - 1)
    if moved:
        x = np.ascontiguousarray(np.moveaxis(x, axis, -1))
    out = _ifft_last(x) if inverse else _fft_last(x)
    if moved:
        out = np.moveaxis(out, -1, axis)
    return out


def dft2(plane: np.ndarray) -> np.ndarray:
    """Full complex 2-D DFT over the trailing two axes (unshifted layout)."""
    plane = np.asarray(plane)
    if plane.ndim < 2:
        raise DimensionError(f"dft2 needs at least 2 axes, got shape {plane.shape}")
    if plane.shape[-1] < 1 or plane.shape[-2] < 1:
        raise DimensionError(f"dft2 got a zero-sized plane {plane.shape}")
    out = fft1d(plane, axis=-1)
    out = fft1d(out, axis=-2)
    return out


def idft2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft2` (complex output; take ``.real`` for real signals)."""
    spectrum = np.asarray(spectrum)
    if spectrum.ndim < 2 or spectrum.shape[-1] < 1 or spectrum.shape[-2] < 1:
        raise DimensionError(f"idft2 got an invalid shape {spectrum.shape}")
    out = fft1d(spectrum, axis=-1, inverse=True)
    out = fft1d(out, axis=-2, inverse=True)
    return out


def dft2_magnitude(plane: np.ndarray) -> np.ndarray:
    """Magnitude spectrum |dft2(plane)| with DC at index [0, 0]."""
    return np.abs(dft2(plane))


def dft2_magnitude_backward(
    plane: np.ndarray,
    upstream: np.ndarray,
    eps_mag: float = 1e-12,
) -> np.ndarray:
    """Gradient of ``sum(upstream * dft2_magnitude(plane))`` w.r.t. ``plane``."""
    plane = np.asarray(plane)
    z = dft2(plane)
    grad = magnitude_backward(z, np.abs(z), np.asarray(upstream), eps_mag)
    return np.ascontiguousarray(grad, dtype=plane.dtype)


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
