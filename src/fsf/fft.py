"""2-D discrete Fourier transforms for arbitrary side lengths.

The transform is the plain unshifted DFT,

    F[u, v] = sum_{x, y} a[x, y] * exp(-2j*pi*(u*x/H + v*y/W)),

computed with a four-step (matrix-matrix) decomposition for power-of-two
lengths, a recursive mixed-radix decomposition for other composite lengths,
and Bluestein's chirp-z convolution, itself padded to a power of two, for
large prime factors.  Everything operates on the trailing axes of an array,
so batches of planes transform in one call.

Inputs of dtype float32/complex64 are transformed in single precision;
everything else runs in double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Primes up to this bound are transformed with a dense DFT matrix; larger
# primes fall back to Bluestein.  Covers every factor of the common crop
# sizes (224 = 2^5 * 7) without the chirp detour.
_MAX_DIRECT_PRIME = 61

_dft_mat_cache: dict = {}
_chirp_cache: dict = {}
_four_step_cache: dict = {}


def _dft_matrix(n: int) -> np.ndarray:
    """Dense forward DFT kernel exp(-2j*pi*j*k/n), cached per length."""
    mat = _dft_mat_cache.get(n)
    if mat is None:
        k = np.arange(n)
        mat = np.exp((-2j * np.pi / n) * np.outer(k, k))
        _dft_mat_cache[n] = mat
    return mat


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def _fft_four_step(x: np.ndarray) -> np.ndarray:
    """Four-step transform of the last axis for N = n1 * n2 (both powers of 2).

    Writing the input index as n2*j1 + j2 and the output index as
    n1*k2 + k1, the DFT factorizes into an n1-point transform over j1,
    a twiddle multiplication, and an n2-point transform over j2.  Both
    small transforms run as dense GEMMs on the trailing axis.
    """
    n = x.shape[-1]
    plan = _four_step_cache.get(n)
    if plan is None:
        half_bits = (n.bit_length() - 1) // 2
        n1 = 1 << half_bits
        n2 = n // n1
        twiddle = np.exp(
            (-2j * np.pi / n) * np.outer(np.arange(n2), np.arange(n1))
        )  # indexed [j2, k1]
        _four_step_cache[n] = (n1, n2, twiddle)
        plan = _four_step_cache[n]
    n1, n2, twiddle = plan
    lead = x.shape[:-1]
    m1 = _dft_matrix(n1).astype(x.dtype, copy=False)
    m2 = _dft_matrix(n2).astype(x.dtype, copy=False)
    tw = twiddle.astype(x.dtype, copy=False)

    grid = x.reshape(lead + (n1, n2))
    a = np.ascontiguousarray(grid.swapaxes(-2, -1))  # [j2, j1]
    a = (a.reshape(-1, n1) @ m1).reshape(a.shape)  # n1-point transform -> [j2, k1]
    a *= tw
    a = np.ascontiguousarray(a.swapaxes(-2, -1))  # [k1, j2]
    a = (a.reshape(-1, n2) @ m2).reshape(a.shape)  # n2-point transform -> [k1, k2]
    return np.ascontiguousarray(a.swapaxes(-2, -1)).reshape(lead + (n,))


def _bluestein(x: np.ndarray) -> np.ndarray:
    """Chirp-z transform of the last axis; used for large prime lengths."""
    n = x.shape[-1]
    cached = _chirp_cache.get(n)
    if cached is None:
        k = np.arange(n)
        # Exponent reduced mod 2n to keep the angle small for large n.
        chirp = np.exp((-1j * np.pi / n) * ((k * k) % (2 * n)))
        size = 1 << (2 * n - 1).bit_length()
        kernel = np.zeros(size, dtype=np.complex128)
        kernel[:n] = np.conj(chirp)
        kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
        kernel_f = _fft_four_step(kernel)
        _chirp_cache[n] = (chirp, kernel_f, size)
        cached = _chirp_cache[n]
    chirp, kernel_f, size = cached
    chirp = chirp.astype(x.dtype, copy=False)
    kernel_f = kernel_f.astype(x.dtype, copy=False)

    buf = np.zeros(x.shape[:-1] + (size,), dtype=x.dtype)
    buf[..., :n] = x * chirp
    conv = _ifft_last(_fft_four_step(buf) * kernel_f)
    return conv[..., :n] * chirp


def _fft_mixed(x: np.ndarray) -> np.ndarray:
    """Recursive mixed-radix (Cooley-Tukey) transform of the last axis."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    p = _smallest_prime_factor(n)
    if p == n:
        if n <= _MAX_DIRECT_PRIME:
            mat = _dft_matrix(n).astype(x.dtype, copy=False)
            return x @ mat
        return _bluestein(x)
    m = n // p
    # Decimate in time: index j = p*j1 + j2 -> sub-transforms of stride p.
    sub = np.ascontiguousarray(x.reshape(x.shape[:-1] + (m, p)).swapaxes(-2, -1))
    sub = _fft_last(sub)  # (..., p, m): rows indexed by j2
    twiddle = np.exp((-2j * np.pi / n) * np.outer(np.arange(p), np.arange(m)))
    sub = sub * twiddle.astype(x.dtype, copy=False)
    mat = _dft_matrix(p).astype(x.dtype, copy=False)
    combined = mat @ sub  # output index k = r + m*q lives at [..., q, r]
    return combined.reshape(x.shape[:-1] + (n,))


def _fft_last(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    if n & (n - 1) == 0:
        return _fft_four_step(x)
    return _fft_mixed(x)


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
