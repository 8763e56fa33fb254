"""Deterministic numeric kernels: convolution, filtering, activations, norms.

The detector's operations work on channel-last batches (B, H, W, C).  In
that layout each im2col row (the 3x3 window of one output pixel, 9*C
values) is nine contiguous channel runs.  The convolution runs chunk by
chunk: it copies a chunk's input rows, with a halo row on either side,
into a reused zero-bordered band instead of padding the whole input, then
that chunk's im2col rows from the band into a reused workspace instead of
building the whole matrix.  The weight gradient copies the im2col rows one
kernel row at a time, for half the input channels where that stays
bitwise, straight from the unpadded input.  The simulator's ``conv2d`` and
``transposed_conv2d`` take one H x W plane and one kernel.  Instance norm
and the detector's spectrum stage share one standardization kernel,
``standardize``, and its backward.

All backward functions return analytic gradients; there is no autodiff graph.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, ParameterError


# ---------------------------------------------------------------------------
# 3x3 convolution (stride 1, zero padding 1)
# ---------------------------------------------------------------------------

# Fewest im2col elements one GEMM chunk holds (a forward chunk, or a weight
# gradient's kernel-row block), and fewest M*N*K of a weight gradient's
# half-channel GEMM.  OpenBLAS (0.3.31) sends sgemm/dgemm with
# M*N*K <= 1e6 to a small-matrix kernel that sums in another order; above
# that, each output row's sums do not depend on M.  So chunks of at least
# this size give bitwise the result of one full GEMM.
_CHUNK_ELEMENTS = 1 << 20


def _im2col_view(xp: np.ndarray) -> np.ndarray:
    """(B, H+2, W+2, C) zero-bordered input -> (B, H, W, 3, 3, C) window view."""
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

    weights: (3, 3, C, O); bias: (O,) or None.  The input is never padded
    whole: for each chunk of ``_chunk_plan``, its input rows and one halo
    row above and below (zero where they fall outside the image) are copied
    into one reused band buffer whose border columns stay zero, the chunk's
    im2col rows are copied from that band into one reused workspace, and
    the chunk's GEMM writes its rows of the output.  So neither the padded
    input nor the full (B*H*W, 9*C) matrix is ever built.
    """
    b, h, w, c = x.shape
    o = weights.shape[3]
    if weights.shape[:3] != (3, 3, c):
        raise DimensionError(
            f"kernel shape {weights.shape} does not match {c} input channels"
        )
    k = 9 * c
    dtype = np.result_type(x, weights)
    wmat = weights.reshape(k, o).astype(dtype, copy=False)
    out = np.empty((b * h * w, o), dtype=dtype)
    plan = _chunk_plan(b, h, w, k)
    nb = max(b1 - b0 for b0, b1, _, _ in plan)
    rows = max(y1 - y0 for _, _, y0, y1 in plan)
    band = np.zeros((nb, rows + 2, w + 2, c), dtype=x.dtype)
    workspace = np.empty(nb * rows * w * k, dtype)
    for b0, b1, y0, y1 in plan:
        xb = band[:b1 - b0, :y1 - y0 + 2]
        lo, hi = max(y0 - 1, 0), min(y1 + 1, h)  # the input rows the chunk reads
        xb[:, lo - y0 + 1:hi - y0 + 1, 1:w + 1] = x[b0:b1, lo:hi]
        if y0 == 0:
            xb[:, 0] = 0
        if y1 == h:
            xb[:, -1] = 0
        m = (b1 - b0) * (y1 - y0) * w
        col = workspace[:m * k].reshape(b1 - b0, y1 - y0, w, 3, 3, c)
        np.copyto(col, _im2col_view(xb))
        r0 = (b0 * h + y0) * w
        np.matmul(col.reshape(m, k), wmat, out=out[r0:r0 + m])
    if bias is not None:
        out += bias
    return out.reshape(b, h, w, o)


def _kernel_row(dst: np.ndarray, x: np.ndarray, dy: int) -> None:
    """``dst[:, i, j, kx] = x[:, i + dy, j + kx - 1]``, zero where that falls
    outside ``x``: one kernel row of the zero-padded input's im2col rows,
    (B, H, W, 3, C), copied without the pad."""
    h, w = x.shape[1:3]
    y0, y1 = max(0, -dy), h - max(0, dy)
    dst[:, :y0] = 0
    dst[:, y1:] = 0
    src, rows = x[:, y0 + dy:y1 + dy], dst[:, y0:y1]
    if w > 2:  # inner columns: each pixel's three taps are one run of 3*C
        np.copyto(rows[:, :, 1:w - 1], sliding_window_view(src, 3, axis=2).swapaxes(3, 4))
    for j in {0, w - 1}:
        for kx in range(3):
            rows[:, :, j, kx] = src[:, :, j + kx - 1] if 0 <= j + kx - 1 < w else 0


def conv3x3_nhwc_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray,
                          need_input_grad: bool = True):
    """Gradients of conv3x3_nhwc. Returns (grad_input, grad_weights, grad_bias).

    ``x`` is the forward input.  The weight gradient ``col.T @ upstream``
    sums over all B*H*W pixels, so splitting the pixels would split its
    sums; splitting its output rows does not.  When one kernel row's im2col
    block holds at least ``_CHUNK_ELEMENTS`` elements, each kernel row is
    copied for one half of the input channels at a time into one reused
    (B*H*W, 3*ceil(C/2)) block, with one GEMM over every pixel per (kernel
    row, half) whose rows of ``grad_w`` go through a small temporary.  Above
    OpenBLAS's small-matrix cutoff an output row's sums do not depend on
    how many rows its GEMM has, so this is bitwise the full GEMM while
    holding a sixth of its matrix.  Where a half's GEMM could fall under the
    cutoff (one channel, or few output channels) the block holds whole
    kernel rows, a third of the matrix; a smaller input keeps one GEMM over
    the full matrix.  Each block is copied straight from ``x`` with its zero
    border written in place (``_kernel_row``), so ``x`` is never padded.
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
    rows, parts = 3, 1  # kernel rows and channel parts per GEMM
    if m * 3 * c >= _CHUNK_ELEMENTS:
        rows = 1
        if m * 3 * (c // 2) * o >= _CHUNK_ELEMENTS:  # the smaller half's GEMM
            parts = 2
    cuts = [-(-c * i // parts) for i in range(parts + 1)]  # the larger half first
    block = np.empty(m * rows * 3 * cuts[1], dtype=x.dtype)
    grad_w = np.empty((3, 3, c, o), dtype=np.result_type(x, upstream))
    for ky in range(0, 3, rows):
        for c0, c1 in zip(cuts, cuts[1:]):
            k = rows * 3 * (c1 - c0)
            col = block[:m * k].reshape(b, h, w, rows, 3, c1 - c0)
            for r in range(rows):
                _kernel_row(col[:, :, :, r], x[..., c0:c1], ky + r - 1)
            part = np.matmul(col.reshape(m, k).T, dflat)
            grad_w[ky:ky + rows, :, c0:c1] = part.reshape(rows, 3, c1 - c0, o)
    del block, col  # before the input-gradient conv allocates its own
    grad_b = dflat.sum(axis=0)
    if not need_input_grad:
        return None, grad_w, grad_b
    # grad wrt input = correlation of upstream with spatially flipped,
    # channel-swapped kernels; same padding geometry.
    wflip = np.ascontiguousarray(weights[::-1, ::-1].transpose(0, 1, 3, 2))
    return conv3x3_nhwc(upstream, wflip, None), grad_w, grad_b


def conv2d(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 cross-correlation of an H x W plane, zero padding 1, stride 1:
    ``conv3x3_nhwc`` with one input and one output channel."""
    plane, kernel = np.asarray(plane), np.asarray(kernel)
    if plane.ndim != 2 or kernel.shape != (3, 3):
        raise DimensionError(f"conv2d takes (H, W) and (3, 3), got {plane.shape}, {kernel.shape}")
    return conv3x3_nhwc(plane[None, :, :, None], kernel[:, :, None, None])[0, :, :, 0]


# ---------------------------------------------------------------------------
# 4x4 stride-2 transposed convolution (simulator use; no gradient needed)
# ---------------------------------------------------------------------------

def transposed_conv2d(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Fractionally strided convolution of an H x W plane: 2H x 2W out.

    kernel: (4, 4); each input pixel stamps ``kernel[ky, kx] * pixel`` on
    the stride-2 grid.  Padding is fixed at 1 so the output is exactly twice
    the input extent.
    """
    plane, kernel = np.asarray(plane), np.asarray(kernel)
    if plane.ndim != 2 or kernel.shape != (4, 4):
        raise DimensionError(f"expected (H, W) and (4, 4), got {plane.shape}, {kernel.shape}")
    h, w = plane.shape
    full = np.zeros((2 * h + 2, 2 * w + 2), dtype=np.result_type(plane, kernel))
    for ky in range(4):
        for kx in range(4):
            full[ky:ky + 2 * h:2, kx:kx + 2 * w:2] += kernel[ky, kx] * plane
    return full[1:2 * h + 1, 1:2 * w + 1]


# ---------------------------------------------------------------------------
# Median filter
# ---------------------------------------------------------------------------

# Window elements (rows * W * k * k) of one band of the median filter.
_MEDIAN_BAND = 1 << 18


def median_filter(image: np.ndarray, k: int) -> np.ndarray:
    """k x k median with reflect borders on an H x W image.

    Runs in bands of output rows, each holding at most about
    ``_MEDIAN_BAND`` window elements, so the (H, W, k*k) window copy is
    never built whole."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DimensionError(f"median_filter expects H x W input, got {image.shape}")
    if k < 1 or k % 2 == 0:
        raise ParameterError(f"window size must be odd and positive, got {k}")
    if k == 1:
        return image.copy()
    if not np.issubdtype(image.dtype, np.inexact):
        image = image.astype(np.float64)  # np.median's result type
    h, w = image.shape
    mid = k * k // 2
    xp = np.pad(image, k // 2, mode="reflect")
    nan = np.isnan(xp)
    has_nan = nan.any()
    out = np.empty(image.shape, image.dtype)
    rows = max(1, _MEDIAN_BAND // (w * k * k))
    for y0 in range(0, h, rows):
        y1 = min(h, y0 + rows)
        win = sliding_window_view(xp[y0:y1 + k - 1], (k, k)).reshape(y1 - y0, w, k * k)
        if not win.flags.writeable:  # w == 1: the reshape is a read-only view, not a copy
            win = win.copy()
        if has_nan:  # NaN sorts last, so np.median's own NaN check decides
            hit = sliding_window_view(nan[y0:y1 + k - 1], (k, k)).any(axis=(-2, -1))
            nan_median = np.median(win[hit], axis=-1)  # reads the windows unpartitioned
        # The middle order statistic, as np.median selects it for an odd
        # window; its mean of one element adds it to +0.0, which turns -0.0
        # into +0.0.
        win.partition(mid, axis=-1)
        np.add(win[..., mid], 0.0, out=out[y0:y1])
        if has_nan:
            out[y0:y1][hit] = nan_median
    return out


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    if not 0.0 < slope < 1.0:
        raise ParameterError(f"slope must lie in (0, 1), got {slope}")
    y = x * x.dtype.type(slope)
    # equals np.where(x >= 0, x, slope * x)
    return np.maximum(x, y, out=y)


def leaky_relu_backward(x: np.ndarray, upstream: np.ndarray, slope: float) -> np.ndarray:
    if not 0.0 < slope < 1.0:
        raise ParameterError(f"slope must lie in (0, 1), got {slope}")
    # factor 1 where x >= 0, else slope (also for NaN x); bitwise
    # np.where(x >= 0, upstream, upstream * slope) without its two full-size temporaries
    factor = (x >= 0).astype(upstream.dtype)
    np.maximum(factor, upstream.dtype.type(slope), out=factor)
    factor *= upstream
    return factor


# ---------------------------------------------------------------------------
# Instance normalization
# ---------------------------------------------------------------------------

NORM_EPS = 1e-5  # variance floor of standardize


def standardize(xc: np.ndarray, axes) -> np.ndarray:
    """Scale the centred ``xc`` in place to unit variance over ``axes`` and
    return the scale ``inv = 1 / sqrt(var + NORM_EPS)``.  ``var`` is np.var's
    own reduction, so it is bitwise ``x.var(axes)`` for ``xc = x - x.mean(axes)``."""
    sq = np.add.reduce(xc * xc, axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(sq / (xc.size // sq.size) + NORM_EPS)
    xc *= inv
    return inv


def standardize_backward(d: np.ndarray, xhat: np.ndarray, inv: np.ndarray, axes) -> np.ndarray:
    """Input gradient of :func:`standardize` (centring included), built in
    place in the output gradient ``d`` and returned:
    ``inv * (d - mean(d) - xhat * mean(d * xhat))``."""
    mean_d = d.mean(axis=axes, keepdims=True)
    t = d * xhat
    mean_dx = t.mean(axis=axes, keepdims=True)
    np.multiply(xhat, mean_dx, out=t)
    d -= mean_d
    d -= t
    d *= inv
    return d


def instance_norm_nhwc(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-sample, per-channel standardization over the spatial axes of (B,H,W,C).

    Returns (y, cache) with the cache consumed by the backward pass.
    """
    if x.shape[1] * x.shape[2] < 2:
        raise ParameterError(f"spatial extent {x.shape[1:3]} too small to normalize")
    xhat = x - x.mean(axis=(1, 2), keepdims=True)
    inv = standardize(xhat, (1, 2))
    y = xhat * gain
    y += bias
    return y, (xhat, inv, gain)


def instance_norm_nhwc_backward(cache, upstream: np.ndarray):
    """Gradients of instance_norm_nhwc: (grad_x, grad_gain, grad_bias)."""
    xhat, inv, gain = cache
    grad_gain = (upstream * xhat).sum(axis=(0, 1, 2))
    grad_bias = upstream.sum(axis=(0, 1, 2))
    return standardize_backward(upstream * gain, xhat, inv, (1, 2)), grad_gain, grad_bias


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
