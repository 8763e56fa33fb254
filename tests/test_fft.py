import tracemalloc

import numpy as np
import pytest

from fsf.errors import DimensionError
from fsf.fft import dft2, idft2, magnitude_backward
from fsf.spectral import spectrum_of

from oracles import fd_gradient, loop_dft2, naive_dft2, rel_err


def test_all_ones_2x2_is_dc_only():
    out = dft2(np.ones((2, 2)))
    assert np.allclose(out.real, [[4, 0], [0, 0]], atol=1e-12)
    assert np.allclose(out.imag, 0, atol=1e-12)


def test_delta_transforms_to_flat_ones():
    img = np.zeros((8, 8))
    img[0, 0] = 1.0
    out = dft2(img)
    assert np.allclose(out.real, 1.0, atol=1e-12)
    assert np.allclose(out.imag, 0.0, atol=1e-12)


def test_matches_quadruple_loop_oracle_on_tiny_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4))
    assert rel_err(loop_dft2(x), naive_dft2(x)) < 1e-12
    got = dft2(x)
    assert rel_err(got.real, loop_dft2(x).real) < 1e-12
    assert rel_err(got.imag, loop_dft2(x).imag) < 1e-12


def test_random_7x12_matches_naive_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((7, 12))
    expected = naive_dft2(x)
    got = dft2(x)
    assert rel_err(np.abs(got), np.abs(expected)) < 1e-9
    assert rel_err(got.real, expected.real) < 1e-9


@pytest.mark.parametrize(
    "size", [(5, 5), (7, 7), (8, 8), (12, 12), (5, 12), (16, 32), (64, 128), (224, 224)]
)
def test_naive_oracle_equivalence(size):
    rng = np.random.default_rng(size[0] * 1000 + size[1])
    x = rng.standard_normal(size)
    assert rel_err(dft2(x), naive_dft2(x)) < 1e-9


# Composite lengths that are not powers of two: smooth ones (6 .. 225), and
# ones with a prime factor above the dense bound (194 = 2 * 97, 201 = 3 * 67).
@pytest.mark.parametrize("n", [6, 9, 25, 49, 100, 112, 194, 201, 225])
def test_composite_lengths_match_naive_oracle(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    assert rel_err(dft2(x), naive_dft2(x)) < 1e-9
    assert rel_err(idft2(dft2(x)).real, x) < 1e-9


# The same smooth lengths on the single-precision four-step GEMM path.
@pytest.mark.parametrize("n", [6, 9, 25, 49, 100, 112, 225])
def test_single_precision_composite_lengths_match_naive_oracle(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    got = dft2(x.astype(np.float32))
    assert got.dtype == np.complex64
    assert rel_err(got, naive_dft2(x)) < 1e-5


# 67 and 194 = 2 * 97 have a prime factor above the dense bound, so they
# leave the GEMM path; the result stays single precision.
@pytest.mark.parametrize("n", [56, 67, 194, 224])
def test_single_precision_composite_matches_double(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n, n))
    got = dft2(x.astype(np.float32))
    assert got.dtype == np.complex64
    assert rel_err(got, dft2(x)) < 1e-5


def test_large_prime_factor_of_composite_leaves_the_gemm_path():
    # A dense 100003-point DFT matrix would need 80 GB in complex64; a
    # float32 input of that length must not take the dense GEMM path.
    x = np.random.default_rng(5).standard_normal((1, 2 * 100003))
    got = dft2(x.astype(np.float32))
    assert got.dtype == np.complex64
    assert rel_err(got, np.fft.fft(x)) < 1e-5


@pytest.mark.parametrize("n", [17, 31, 101, 149])
def test_prime_lengths_match_dense_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    assert rel_err(dft2(x), naive_dft2(x)) < 1e-9


@pytest.mark.parametrize("n", [17, 31])
def test_single_precision_prime_lengths_match_dense_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    got = dft2(x.astype(np.complex64))
    assert got.dtype == np.complex64
    assert rel_err(got, naive_dft2(x)) < 1e-5


# A prime or length-1 side leaves the four-step path for np.fft, which keeps
# single precision from numpy 2.0 on.
@pytest.mark.parametrize("hw", [(1, 1), (1, 5), (7, 12), (12, 7), (13, 13), (1, 64), (67, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_single_precision_prime_and_unit_sides_match_naive_oracle(hw, dtype):
    rng = np.random.default_rng(sum(hw))
    x = rng.standard_normal((2,) + hw)
    if dtype == np.complex64:
        x = x + 1j * rng.standard_normal(x.shape)
    got = dft2(x.astype(dtype))
    assert got.dtype == np.complex64
    assert rel_err(got, naive_dft2(x)) < 1e-5


@pytest.mark.parametrize("size", [(5, 7), (8, 8), (12, 224), (64, 64)])
def test_parseval(size):
    rng = np.random.default_rng(size[0] + size[1])
    x = rng.standard_normal(size)
    mag = spectrum_of(x)
    lhs = np.sum(mag ** 2) / (size[0] * size[1])
    rhs = np.sum(x ** 2)
    assert abs(lhs - rhs) / rhs < 1e-9


def test_round_trip_inverse():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 28))
    back = idft2(dft2(x)).real
    assert rel_err(back, x) < 1e-12


def test_batched_transform_matches_per_plane():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 6, 10))
    batched = dft2(x)
    for c in range(3):
        assert rel_err(batched[c], dft2(x[c])) == 0.0


def test_single_precision_path_is_single_precision():
    x = np.ones((8, 8), dtype=np.float32)
    out = dft2(x)
    assert out.dtype == np.complex64
    assert rel_err(np.abs(out), np.abs(naive_dft2(x))) < 1e-5


# The float32 spectrum stage's means and variances reduce over dft2's output
# in its memory order, so a layout change changes their bits.  Pin the
# strides of the four-step path: the row axis (last but one) is the
# contiguous one, whatever the input's layout or dtype.
LAYOUT_SHAPES = [(224, 224), (64, 64), (12, 28), (56, 56), (112, 112), (4, 6)]


def _pinned_strides(z):
    h, w = z.shape[-2:]
    return z.strides[-2:] == (z.itemsize, h * z.itemsize)


@pytest.mark.parametrize("hw", LAYOUT_SHAPES)
def test_layout_of_channel_last_view_matches_contiguous_copy(hw):
    x = np.random.default_rng(hw[0]).standard_normal((2,) + hw + (3,)).astype(np.float32)
    view = x.transpose(0, 3, 1, 2)
    got, want = dft2(view), dft2(np.ascontiguousarray(view))
    assert np.array_equal(got, want)
    assert got.strides == want.strides and _pinned_strides(got)


@pytest.mark.parametrize("hw", LAYOUT_SHAPES)
def test_real_input_matches_its_complex_cast(hw):
    x = np.random.default_rng(hw[1]).standard_normal((2,) + hw).astype(np.float32)
    got, want = dft2(x), dft2(x.astype(np.complex64))
    assert got.dtype == want.dtype == np.complex64
    assert np.array_equal(got, want)
    assert got.strides == want.strides and _pinned_strides(got)


@pytest.mark.parametrize("hw", LAYOUT_SHAPES)
def test_round_trip_keeps_layout(hw):
    x = np.random.default_rng(sum(hw)).standard_normal((3,) + hw)
    assert rel_err(idft2(dft2(x)).real, x) < 1e-9


def test_peak_memory_is_two_work_planes():
    x = np.random.default_rng(1).standard_normal((4, 8, 224, 224)).astype(np.float32)
    plane = x.size * np.dtype(np.complex64).itemsize
    tracemalloc.start()
    try:
        z = dft2(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.dtype == np.complex64
    assert peak <= 2.25 * plane, peak / plane


def test_zero_sized_input_raises():
    with pytest.raises(DimensionError):
        dft2(np.zeros((0, 4)))
    with pytest.raises(DimensionError):
        dft2(np.zeros((4, 0)))


def test_magnitude_of_ones_and_zero_images():
    assert np.allclose(spectrum_of(np.ones((2, 2))), [[4, 0], [0, 0]], atol=1e-12)
    assert np.all(spectrum_of(np.zeros((6, 6))) == 0)


def test_magnitude_matches_naive_oracle_224():
    rng = np.random.default_rng(224)
    x = rng.standard_normal((224, 224))
    assert rel_err(spectrum_of(x), np.abs(naive_dft2(x))) < 1e-9


def plane_gradient(x, upstream):
    """magnitude_backward from a forward pass over ``x``, as the detector runs it."""
    z = dft2(x)
    return magnitude_backward(z, np.abs(z), upstream)


class TestMagnitudeBackward:
    def test_zero_input_has_zero_gradient(self):
        grad = plane_gradient(np.zeros((4, 4)), np.ones((4, 4)))
        assert np.all(grad == 0)

    def test_constant_upstream_delta_input(self):
        x = np.zeros((5, 5))
        x[2, 3] = 0.7
        upstream = np.ones((5, 5))
        grad = plane_gradient(x, upstream)
        fd = fd_gradient(lambda a: float(np.sum(spectrum_of(a))), x.copy())
        assert rel_err(grad, fd) < 1e-4

    def test_random_case_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 6))
        upstream = rng.standard_normal((6, 6))
        grad = plane_gradient(x, upstream)
        fd = fd_gradient(lambda a: float(np.sum(upstream * spectrum_of(a))), x.copy())
        assert rel_err(grad, fd) < 1e-4

    def test_rectangular_case(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6))
        upstream = rng.standard_normal((4, 6))
        grad = plane_gradient(x, upstream)
        fd = fd_gradient(lambda a: float(np.sum(upstream * spectrum_of(a))), x.copy())
        assert rel_err(grad, fd) < 1e-4

    @pytest.mark.parametrize("dtype,up_dtype", [(np.float32, np.float32),
                                                (np.float64, np.float64),
                                                (np.float32, np.float64)])
    def test_matches_the_reference_expression_and_keeps_its_arguments(self, dtype, up_dtype):
        # a batched channel-first stack, as the detector's spectrum stage runs
        # it; the constant plane has exact zero bins, which get zero gradient
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 8, 12)).astype(dtype)
        x[1, 2] = 1.0
        z = dft2(x)
        mag = np.abs(z)
        upstream = rng.standard_normal(z.shape).astype(up_dtype)
        args = (z, mag, upstream)
        before = [a.copy() for a in args]
        grad = magnitude_backward(*args)
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()
        ratio = np.where(mag > 1e-12, np.conj(z) / np.maximum(mag, 1e-12), 0.0)
        want = dft2(upstream * ratio).real
        assert grad.dtype == want.dtype
        if up_dtype == dtype:
            assert np.array_equal(grad, want)
        else:  # the wider upstream widens the whole reweighting, not only its last product
            assert np.allclose(grad, want, rtol=1e-5, atol=1e-5)
        assert (mag[1, 2] == 0).any()
