"""Independent brute-force oracles used across the test suite.

Everything here is deliberately dumb: direct summation, nested loops,
sorting.  None of it shares code with the library implementations.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def rel_err(actual, expected):
    """Max absolute deviation relative to the expected array's peak magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = max(np.max(np.abs(expected)), 1e-300)
    return float(np.max(np.abs(actual - expected)) / scale)


def naive_dft2(plane):
    """Direct evaluation of the 2-D DFT double sum (no fast algorithm).

    Computed as E_H @ plane @ E_W^T with E[k, x] = exp(-2j*pi*k*x/N), which
    is literally sum_x sum_y plane[x, y] e^{-2j pi (ux/H + vy/W)}.
    """
    plane = np.asarray(plane, dtype=np.complex128)
    h, w = plane.shape[-2:]
    eh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return eh @ plane @ ew.T


def loop_dft2(plane):
    """Quadruple-loop DFT for tiny inputs; cross-checks naive_dft2 itself."""
    plane = np.asarray(plane, dtype=np.complex128)
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for x in range(h):
                for y in range(w):
                    acc += plane[x, y] * np.exp(-2j * np.pi * (u * x / h + v * y / w))
            out[u, v] = acc
    return out


def naive_conv2d(x, kernels, bias=None):
    """Six-loop cross-correlation, 3x3 kernels, zero padding 1, stride 1."""
    c, h, w = x.shape
    o = kernels.shape[0]
    out = np.zeros((o, h, w), dtype=np.float64)
    xp = np.zeros((c, h + 2, w + 2), dtype=np.float64)
    xp[:, 1:-1, 1:-1] = x
    for oc in range(o):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for ic in range(c):
                    for ky in range(3):
                        for kx in range(3):
                            acc += xp[ic, y + ky, xx + kx] * kernels[oc, ic, ky, kx]
                out[oc, y, xx] = acc
        if bias is not None:
            out[oc] += bias[oc]
    return out


def im2col_conv3x3_nhwc(x, weights, bias=None):
    """Single-GEMM 3x3 convolution of (B, H, W, C) over its full im2col matrix.

    Returns (out, col) with ``col`` the (B*H*W, 9*C) matrix; the streamed
    ``conv3x3_nhwc`` must reproduce ``out`` bit for bit.
    """
    b, h, w, c = x.shape
    o = weights.shape[3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B,H,W,C,3,3)
    col = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(b * h * w, 9 * c)
    out = col @ weights.reshape(9 * c, o)
    if bias is not None:
        out += bias
    return out.reshape(b, h, w, o), col


def median_filter_np(x, k):
    """Median filter with reflect borders through np.median over every window."""
    if k == 1:
        return x.copy()
    xp = np.pad(x, k // 2, mode="reflect")
    return np.median(sliding_window_view(xp, (k, k)).reshape(x.shape + (k * k,)), axis=-1)


def zero_insert_then_conv(x, kernels):
    """Stride-2 transposed convolution via zero insertion + flipped-kernel conv.

    x: (C, H, W); kernels: (C, O, 4, 4).  Output (O, 2H, 2W), matching a
    4x4 stride-2 padding-1 transposed convolution.
    """
    c, h, w = x.shape
    o = kernels.shape[1]
    ins = np.zeros((c, 2 * h - 1, 2 * w - 1), dtype=np.float64)
    ins[:, ::2, ::2] = x
    pad = 2  # kernel_size - 1 - transposed_padding
    xp = np.zeros((c, ins.shape[1] + 2 * pad, ins.shape[2] + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + ins.shape[1], pad:pad + ins.shape[2]] = ins
    flipped = kernels[:, :, ::-1, ::-1]
    out = np.zeros((o, 2 * h, 2 * w), dtype=np.float64)
    for oc in range(o):
        for y in range(2 * h):
            for xx in range(2 * w):
                acc = 0.0
                for ic in range(c):
                    for ky in range(4):
                        for kx in range(4):
                            acc += xp[ic, y + ky, xx + kx] * flipped[ic, oc, ky, kx]
                out[oc, y, xx] = acc
    return out


def sort_median_filter(x, k):
    """Brute-force median filter with reflect borders."""
    h, w = x.shape
    pad = k // 2
    xp = np.pad(x, pad, mode="reflect")
    out = np.empty_like(x)
    for y in range(h):
        for xx in range(w):
            window = sorted(xp[y:y + k, xx:xx + k].ravel().tolist())
            out[y, xx] = window[len(window) // 2]
    return out


def fd_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f at every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def fd_gradient_sampled(f, x, indices, step=1e-6):
    """Central finite differences at a subset of flat indices of x."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        out[j] = (hi - lo) / (2.0 * step)
    return out
