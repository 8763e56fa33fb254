"""Deterministic numeric kernels: convolution, filtering, activations, norms.

The detector's operations work on channel-last batches (B, H, W, C).  In
that layout each im2col row (the 3x3 window of one output pixel, 9*C
values) is nine contiguous channel runs; the convolution copies those rows
chunk by chunk into a reused workspace instead of building the whole
matrix; the weight gradient copies them one kernel row at a time.  The
simulator's ``conv2d`` and ``transposed_conv2d`` take one C x H x W image.

All backward functions return analytic gradients; there is no autodiff graph.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, ParameterError


# ---------------------------------------------------------------------------
# 3x3 convolution (stride 1, zero padding 1)
# ---------------------------------------------------------------------------

# Fewest im2col elements one GEMM chunk holds: a forward chunk, or a weight
# gradient's kernel-row block.  OpenBLAS (0.3.31) sends sgemm/dgemm with
# M*N*K <= 1e6 to a small-matrix kernel that sums in another order; above
# that, each output row's sums do not depend on M.  So chunks of at least
# this size give bitwise the result of one full GEMM.
_CHUNK_ELEMENTS = 1 << 20


def _im2col_view(xp: np.ndarray) -> np.ndarray:
    """(B, H+2, W+2, C) zero-padded input -> (B, H, W, 3, 3, C) window view."""
    return sliding_window_view(xp, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


def _chunk_plan(b: int, h: int, w: int, k: int):
    """Balanced (b0, b1, y0, y1) chunks of images b0:b1, output rows y0:y1.

    Each chunk holds at least ``_CHUNK_ELEMENTS`` im2col elements (k per
    output pixel) unless the whole matrix is smaller, which is one chunk.
    An image smaller than a chunk is grouped whole with others; a larger one
    is cut into bands of output rows.
    """
    rows = -(-_CHUNK_ELEMENTS // k)
    if h * w < rows:
        n = max(1, b // -(-rows // (h * w)))
        return [(b * i // n, b * (i + 1) // n, 0, h) for i in range(n)]
    n = h // -(-rows // w)
    return [(i, i + 1, h * j // n, h * (j + 1) // n) for i in range(b) for j in range(n)]


def conv3x3_nhwc(x: np.ndarray, weights: np.ndarray, bias=None) -> np.ndarray:
    """Batched 3x3 cross-correlation, (B, H, W, C) -> (B, H, W, O).

    weights: (3, 3, C, O); bias: (O,) or None.  The im2col rows are copied
    chunk by chunk (see ``_chunk_plan``) into one reused workspace, and each
    chunk's GEMM writes its rows of the output, so the full (B*H*W, 9*C)
    matrix is never built.
    """
    b, h, w, c = x.shape
    o = weights.shape[3]
    if weights.shape[:3] != (3, 3, c):
        raise DimensionError(
            f"kernel shape {weights.shape} does not match {c} input channels"
        )
    k = 9 * c
    dtype = np.result_type(x, weights)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    wmat = weights.reshape(k, o).astype(dtype, copy=False)
    out = np.empty((b * h * w, o), dtype=dtype)
    plan = _chunk_plan(b, h, w, k)
    workspace = np.empty(max((b1 - b0) * (y1 - y0) for b0, b1, y0, y1 in plan) * w * k, dtype)
    for b0, b1, y0, y1 in plan:
        m = (b1 - b0) * (y1 - y0) * w
        col = workspace[:m * k].reshape(b1 - b0, y1 - y0, w, 3, 3, c)
        np.copyto(col, _im2col_view(xp[b0:b1, y0:y1 + 2]))
        r0 = (b0 * h + y0) * w
        np.matmul(col.reshape(m, k), wmat, out=out[r0:r0 + m])
    if bias is not None:
        out += bias
    return out.reshape(b, h, w, o)


def conv3x3_nhwc_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray,
                          need_input_grad: bool = True):
    """Gradients of conv3x3_nhwc. Returns (grad_input, grad_weights, grad_bias).

    ``x`` is the forward input.  The weight gradient ``col.T @ upstream``
    sums over all B*H*W pixels, so splitting the pixels would split its
    sums; splitting its output rows does not.  When one kernel row's im2col
    block holds at least ``_CHUNK_ELEMENTS`` elements, the three kernel rows
    are copied in turn into one reused block, each with its own GEMM over
    every pixel.  Above OpenBLAS's small-matrix cutoff an output row's sums
    do not depend on how many rows its GEMM has, so this is bitwise the
    full GEMM while holding a third of its matrix.  A smaller input, whose
    row GEMMs could fall under the cutoff, keeps one GEMM over the full
    matrix.
    ``need_input_grad=False`` skips the input gradient (first-layer case)
    and returns None in its place.
    """
    b, h, w, o = upstream.shape
    c = weights.shape[2]
    if x.shape != (b, h, w, c) or weights.shape != (3, 3, c, o):
        raise DimensionError(
            f"input {x.shape}, kernel {weights.shape} and upstream {upstream.shape} do not match"
        )
    m = b * h * w
    dflat = upstream.reshape(m, o)
    view = _im2col_view(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))))
    rows = 1 if m * 3 * c >= _CHUNK_ELEMENTS else 3  # kernel rows per GEMM
    block = np.empty((b, h, w, rows, 3, c), dtype=x.dtype)
    grad_w = np.empty((3, 3, c, o), dtype=np.result_type(x, upstream))
    for ky in range(0, 3, rows):
        np.copyto(block, view[:, :, :, ky:ky + rows])
        np.matmul(block.reshape(m, rows * 3 * c).T, dflat,
                  out=grad_w[ky:ky + rows].reshape(rows * 3 * c, o))
    del block, view  # before the input-gradient conv allocates its own
    grad_b = dflat.sum(axis=0)
    if not need_input_grad:
        return None, grad_w, grad_b
    # grad wrt input = correlation of upstream with spatially flipped,
    # channel-swapped kernels; same padding geometry.
    wflip = np.ascontiguousarray(weights[::-1, ::-1].transpose(0, 1, 3, 2))
    return conv3x3_nhwc(upstream, wflip, None), grad_w, grad_b


def conv2d(x: np.ndarray, kernels: np.ndarray, bias=None) -> np.ndarray:
    """3x3 cross-correlation on a C x H x W image, zero padding 1, stride 1.

    kernels: (O, C, 3, 3); bias: (O,) or None.  Output is O x H x W.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3:
        raise DimensionError(f"conv2d expects C x H x W input, got {x.shape}")
    if kernels.ndim != 4 or kernels.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d expects O x C x 3 x 3 kernels, got {kernels.shape}")
    if kernels.shape[1] != x.shape[0]:
        raise DimensionError(
            f"kernel channels {kernels.shape[1]} != input channels {x.shape[0]}"
        )
    xh = np.ascontiguousarray(x.transpose(1, 2, 0))[None]
    wh = np.ascontiguousarray(kernels.transpose(2, 3, 1, 0))
    out = conv3x3_nhwc(xh, wh, None if bias is None else np.asarray(bias))
    return np.ascontiguousarray(out[0].transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# 4x4 stride-2 transposed convolution (simulator use; no gradient needed)
# ---------------------------------------------------------------------------

def transposed_conv2d(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Fractionally strided convolution: (C, H, W) -> (O, 2H, 2W).

    kernels: (C, O, 4, 4).  Padding is fixed at 1 so the output is exactly
    twice the input extent.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3:
        raise DimensionError(f"expected C x H x W input, got {x.shape}")
    if kernels.ndim != 4 or kernels.shape[2:] != (4, 4):
        raise DimensionError(f"expected C x O x 4 x 4 kernels, got {kernels.shape}")
    if kernels.shape[0] != x.shape[0]:
        raise DimensionError(
            f"kernel channels {kernels.shape[0]} != input channels {x.shape[0]}"
        )
    c, h, w = x.shape
    o = kernels.shape[1]
    full = np.zeros((o, 2 * h + 2, 2 * w + 2), dtype=np.result_type(x, kernels))
    flat = x.reshape(c, h * w)
    for ky in range(4):
        for kx in range(4):
            tap = kernels[:, :, ky, kx]  # (C, O)
            stamped = (tap.T @ flat).reshape(o, h, w)
            full[:, ky:ky + 2 * h:2, kx:kx + 2 * w:2] += stamped
    return full[:, 1:2 * h + 1, 1:2 * w + 1]


# ---------------------------------------------------------------------------
# Median filter
# ---------------------------------------------------------------------------

def median_filter(image: np.ndarray, k: int) -> np.ndarray:
    """k x k median with reflect borders on an H x W image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DimensionError(f"median_filter expects H x W input, got {image.shape}")
    if k < 1 or k % 2 == 0:
        raise ParameterError(f"window size must be odd and positive, got {k}")
    if k == 1:
        return image.copy()
    if not np.issubdtype(image.dtype, np.inexact):
        image = image.astype(np.float64)  # np.median's result type
    xp = np.pad(image, k // 2, mode="reflect")
    win = sliding_window_view(xp, (k, k)).reshape(image.shape + (k * k,))
    # The middle order statistic, as np.median selects it for an odd window;
    # its mean of one element adds it to +0.0, which turns -0.0 into +0.0.
    out = np.partition(win, k * k // 2, axis=-1)[..., k * k // 2] + 0.0
    nan = np.isnan(xp)
    if nan.any():  # NaN sorts last, so np.median's own NaN check decides
        hit = sliding_window_view(nan, (k, k)).any(axis=(-2, -1))
        out[hit] = np.median(win[hit], axis=-1)
    return out


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    if not 0.0 < slope < 1.0:
        raise ParameterError(f"slope must lie in (0, 1), got {slope}")
    x = np.asarray(x)
    y = x * x.dtype.type(slope)  # a numpy scalar for 0-d x
    # equals np.where(x >= 0, x, slope * x)
    return np.maximum(x, y, out=y) if y.ndim else np.maximum(x, y)


def leaky_relu_backward(x: np.ndarray, upstream: np.ndarray, slope: float = 0.2) -> np.ndarray:
    if not 0.0 < slope < 1.0:
        raise ParameterError(f"slope must lie in (0, 1), got {slope}")
    upstream = np.asarray(upstream)
    # factor 1 where x >= 0, else slope (also for NaN x); bitwise
    # np.where(x >= 0, upstream, upstream * slope) without its two full-size temporaries
    factor = np.asarray(np.asarray(x) >= 0).astype(upstream.dtype)
    np.maximum(factor, upstream.dtype.type(slope), out=factor)
    factor *= upstream
    return factor


# ---------------------------------------------------------------------------
# Instance normalization
# ---------------------------------------------------------------------------

def instance_norm_nhwc(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Per-sample, per-channel standardization over the spatial axes of (B,H,W,C).

    Returns (y, cache) with the cache consumed by the backward pass.
    """
    if x.shape[1] * x.shape[2] < 2:
        raise ParameterError(f"spatial extent {x.shape[1:3]} too small to normalize")
    xhat = x - x.mean(axis=(1, 2), keepdims=True)
    # np.var's own reduction on the centred copy, so var is bitwise x.var(axis=(1, 2))
    sq = np.multiply(xhat, xhat)
    var = np.add.reduce(sq, axis=(1, 2), keepdims=True) / (x.shape[1] * x.shape[2])
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    if sq.dtype == np.result_type(sq, gain, bias):  # the squares' buffer becomes y
        y = np.multiply(xhat, gain, out=sq)
        y += bias
    else:
        y = xhat * gain + bias
    return y, (xhat, inv, gain)


def instance_norm_nhwc_backward(cache, upstream: np.ndarray):
    """Gradients of instance_norm_nhwc: (grad_x, grad_gain, grad_bias)."""
    xhat, inv, gain = cache
    grad_gain = (upstream * xhat).sum(axis=(0, 1, 2))
    grad_bias = upstream.sum(axis=(0, 1, 2))
    dxhat = upstream * gain
    mean_d = dxhat.mean(axis=(1, 2), keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=(1, 2), keepdims=True)
    grad_x = inv * (dxhat - mean_d - xhat * mean_dx)
    return grad_x, grad_gain, grad_bias


# ---------------------------------------------------------------------------
# Four-factor elementwise product
# ---------------------------------------------------------------------------

def _four(arrays) -> list:
    if len(arrays) != 4:
        raise ParameterError(f"elementwise_mul takes four factors, got {len(arrays)}")
    arrays = [np.asarray(a) for a in arrays]
    for a in arrays[1:]:
        if a.shape != arrays[0].shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {arrays[0].shape}")
    return arrays


def elementwise_mul(*arrays: np.ndarray) -> np.ndarray:
    """Hadamard product ``(a0 * a1) * (a2 * a3)`` of four equally shaped factors."""
    a0, a1, a2, a3 = _four(arrays)
    return (a0 * a1) * (a2 * a3)


def elementwise_mul_backward(arrays, upstream: np.ndarray) -> list:
    """Per-factor gradients of :func:`elementwise_mul`.

    Each gradient is ``upstream`` times the product of the other three
    factors, grouped as in the forward pass, so zeros in any factor are
    handled without division.
    """
    a0, a1, a2, a3 = _four(arrays)
    upstream = np.asarray(upstream)
    p01, p23 = a0 * a1, a2 * a3
    return [upstream * (a1 * p23), upstream * (a0 * p23),
            upstream * (p01 * a3), upstream * (p01 * a2)]
