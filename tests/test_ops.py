import tracemalloc

import numpy as np
import pytest

from fsf.errors import DimensionError, ParameterError
from fsf import ops
from fsf.fft import dft2
from fsf.forensics import noise_residual
from fsf.ops import (
    conv2d,
    conv3x3_nhwc,
    conv3x3_nhwc_backward,
    elementwise_mul,
    elementwise_mul_backward,
    instance_norm_nhwc,
    instance_norm_nhwc_backward,
    leaky_relu,
    leaky_relu_backward,
    median_filter,
    transposed_conv2d,
)

from oracles import (
    fd_gradient,
    im2col_conv3x3_nhwc,
    median_filter_np,
    naive_conv2d,
    rel_err,
    sort_median_filter,
    zero_insert_then_conv,
)


def nhwc(image):
    """C x H x W image -> contiguous (1, H, W, C) batch."""
    return np.ascontiguousarray(image.transpose(1, 2, 0)[None])


def hwio(kernels):
    """(O, C, 3, 3) kernels -> contiguous (3, 3, C, O)."""
    return np.ascontiguousarray(kernels.transpose(2, 3, 1, 0))


class TestConv2d:
    # conv2d takes one H x W plane and one 3 x 3 kernel; the oracle gets
    # [None] copies (one channel in, one out).

    def test_identity_kernel_passes_input_through(self):
        x = np.random.default_rng(0).standard_normal((6, 6))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        assert np.array_equal(conv2d(x, kernel), x)

    def test_zero_kernels_with_bias_give_constant(self):
        # the bias lives in conv3x3_nhwc, which the detector's plain convs call
        x = np.ones((1, 4, 5, 1))
        out = conv3x3_nhwc(x, np.zeros((3, 3, 1, 3)), np.array([1.5, -2.0, 0.0]))
        assert np.all(out[..., 0] == 1.5)
        assert np.all(out[..., 1] == -2.0)
        assert np.all(out[..., 2] == 0.0)

    def test_matches_naive_six_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5))
        k = rng.standard_normal((3, 3))
        assert rel_err(conv2d(x, k), naive_conv2d(x[None], k[None, None])[0]) < 1e-12

    def test_integer_inputs_match_oracle_exactly(self):
        rng = np.random.default_rng(2)
        x = rng.integers(-8, 9, size=(6, 7)).astype(np.float64)
        k = rng.integers(-4, 5, size=(3, 3)).astype(np.float64)
        assert np.array_equal(conv2d(x, k), naive_conv2d(x[None], k[None, None])[0])

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((3, 3)))  # a C x H x W image
        with pytest.raises(DimensionError):
            conv2d(np.zeros((4, 4)), np.zeros((1, 1, 3, 3)))

    # The backward checks run conv3x3_nhwc(_backward), the detector's op, on
    # channel-last copies of each image (nhwc) and kernel (hwio).

    def test_backward_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        x = nhwc(rng.standard_normal((2, 4, 4)))
        k = hwio(rng.standard_normal((2, 2, 3, 3)))
        gx, gk, gb = conv3x3_nhwc_backward(x, k, np.zeros((1, 4, 4, 2)))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_backward_bias_grad_is_upstream_channel_sum(self):
        rng = np.random.default_rng(4)
        x = nhwc(rng.standard_normal((1, 5, 5)))
        k = hwio(rng.standard_normal((3, 1, 3, 3)))
        up = rng.standard_normal((3, 5, 5))
        _, _, gb = conv3x3_nhwc_backward(x, k, nhwc(up))
        assert rel_err(gb, up.sum(axis=(1, 2))) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = nhwc(rng.standard_normal((2, 4, 4)))
        k = hwio(rng.standard_normal((2, 2, 3, 3)))
        b = rng.standard_normal(2)
        up = nhwc(rng.standard_normal((2, 4, 4)))
        gx, gk, gb = conv3x3_nhwc_backward(x, k, up)

        def loss_x(a):
            return float(np.sum(up * conv3x3_nhwc(a, k, b)))

        def loss_k(a):
            return float(np.sum(up * conv3x3_nhwc(x, a, b)))

        assert rel_err(gx, fd_gradient(loss_x, x.copy())) < 1e-4
        assert rel_err(gk, fd_gradient(loss_k, k.copy())) < 1e-4

    def test_backward_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv3x3_nhwc_backward(
                np.zeros((1, 4, 4, 1)), np.zeros((3, 3, 1, 2)), np.zeros((1, 5, 4, 2))
            )


# (input shape, output channels): one small GEMM under OpenBLAS's small-matrix
# threshold, row bands of one image with a remainder, image groups, a whole
# matrix smaller than one chunk, one-pixel-high images (one band each, both
# halo rows outside the image) and a one-pixel-wide image cut into three
# bands of unequal height.
STREAM_SHAPES = [
    ((2, 32, 32, 8), 8),
    ((1, 224, 224, 32), 32),
    ((8, 224, 224, 1), 32),
    ((20, 16, 16, 32), 32),
    ((32, 64, 64, 1), 32),
    ((1, 5, 7, 2), 3),
    ((3, 1, 5000, 32), 8),
    ((1, 11000, 1, 32), 8),
]


# (input shape, output channels, whether one kernel row's im2col block is
# big enough for the weight gradient to take row blocks, whether each half of
# the input channels gets its own GEMM): the train-64 and 224 px spatial
# convs and a one-pixel-wide input, which take half blocks; an odd channel
# count, whose halves differ in size; whole kernel rows where a half's GEMM
# would fall under OpenBLAS's small-matrix threshold; then three that keep
# one GEMM, among them the first layer's one channel and a block under that
# threshold.
BACKWARD_SHAPES = [
    ((32, 64, 64, 32), 32, True, True),
    ((2, 224, 224, 32), 32, True, True),
    ((4, 1024, 1, 96), 8, True, True),
    ((16, 64, 64, 7), 8, True, True),
    ((8, 128, 128, 3), 2, True, False),
    ((3, 48, 40, 16), 8, False, False),
    ((32, 64, 64, 1), 32, False, False),
    ((4, 16, 16, 16), 16, False, False),
    ((2, 1, 3, 2), 3, False, False),
]


class TestConv3x3Nhwc:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,o", STREAM_SHAPES)
    def test_streamed_forward_bitwise_equals_single_gemm(self, shape, o, dtype):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((3, 3, shape[3], o)).astype(dtype)
        b = rng.standard_normal(o).astype(dtype)
        expected, _ = im2col_conv3x3_nhwc(x, w, b)
        out = conv3x3_nhwc(x, w, b)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,o,row_blocks,halves", BACKWARD_SHAPES,
                             ids=["b32_64px", "b2_224px", "b4_1024x1", "b16_64px_c7",
                                  "b8_128px_c3_o2", "b3_48x40", "b32_64px_c1", "b4_16px",
                                  "b2_1x3"])
    def test_backward_bitwise_equals_single_gemm_forms(self, shape, o, row_blocks, halves, dtype):
        b, h, w_, c = shape
        assert (b * h * w_ * 3 * c >= ops._CHUNK_ELEMENTS) == row_blocks
        assert (row_blocks and b * h * w_ * 3 * (c // 2) * o >= ops._CHUNK_ELEMENTS) == halves
        rng = np.random.default_rng(21)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((3, 3, c, o)).astype(dtype)
        up = rng.standard_normal((b, h, w_, o)).astype(dtype)
        gx, gw, gb = conv3x3_nhwc_backward(x, w, up)
        dflat = up.reshape(-1, o)
        _, col = im2col_conv3x3_nhwc(x, w)
        assert np.array_equal(gw, (col.T @ dflat).reshape(3, 3, c, o))
        del col
        assert np.array_equal(gb, dflat.sum(0))
        wflip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        assert np.array_equal(gx, im2col_conv3x3_nhwc(up, wflip)[0])
        none, gw2, gb2 = conv3x3_nhwc_backward(x, w, up, need_input_grad=False)
        assert none is None and np.array_equal(gw2, gw) and np.array_equal(gb2, gb)

    def test_forward_copies_one_row_band_not_a_padded_input(self):
        shape = (1, 224, 224, 32)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((3, 3, 32, 32), dtype=np.float32)
        plan = ops._chunk_plan(1, 224, 224, 9 * 32)
        rows = max(y1 - y0 for _, _, y0, y1 in plan)
        assert len(plan) > 2  # a first, a middle and a last band
        workspace = rows * 224 * 9 * 32 * 4  # one chunk's im2col rows
        band = (rows + 2) * 226 * 32 * 4  # one chunk's input rows, zero-bordered
        tracemalloc.start()
        try:
            conv3x3_nhwc(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 11.7 MB measured; a padded copy of the input (6.5 MB) breaks it
        assert peak <= x.nbytes + workspace + band + (1 << 20), peak

    def test_weight_gradient_builds_half_a_kernel_row_at_a_time(self):
        shape = (32, 64, 64, 32)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((3, 3, 32, 32), dtype=np.float32)
        up = rng.standard_normal(shape, dtype=np.float32)
        full = x.nbytes * 9  # the (B*H*W, 9*C) im2col matrix, 151 MB
        tracemalloc.start()
        try:
            conv3x3_nhwc_backward(x, w, up, need_input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one kernel row's block for half the input channels (a sixth of
        # the matrix), no padded copy of the input, plus 1 MiB for the
        # gradients themselves
        assert peak <= full // 6 + (1 << 20), peak

    @pytest.mark.parametrize("b,h,w,c", [(2, 32, 32, 8), (1, 224, 224, 32), (20, 16, 16, 32),
                                         (7, 50, 3, 1), (1, 5, 7, 2), (0, 4, 4, 3)])
    def test_chunk_plan_covers_every_row_once_in_large_chunks(self, b, h, w, c):
        plan = ops._chunk_plan(b, h, w, 9 * c)
        covered = np.zeros((b, h), dtype=int)
        for b0, b1, y0, y1 in plan:
            assert b1 - b0 == 1 or (y0, y1) == (0, h)
            covered[b0:b1, y0:y1] += 1
            if len(plan) > 1:
                assert (b1 - b0) * (y1 - y0) * w * 9 * c >= ops._CHUNK_ELEMENTS
        assert np.all(covered == 1)
        for extent in ([b1 - b0 for b0, b1, _, _ in plan], [y1 - y0 for _, _, y0, y1 in plan]):
            assert max(extent) - min(extent) <= 1  # balanced, no short tail

    def test_backward_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv3x3_nhwc_backward(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 3, 2)), np.zeros((1, 4, 4, 2)))


class TestTransposedConv2d:
    def test_delta_input_stamps_kernel_on_stride2_grid(self):
        x = np.zeros((3, 3))
        x[1, 1] = 1.0
        k = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = transposed_conv2d(x, k)
        # input pixel (1,1) lands at output offset 2*1 - pad for tap (ky,kx)
        expected = np.zeros((6, 6))
        for ky in range(4):
            for kx in range(4):
                yy, xx = 2 + ky - 1, 2 + kx - 1
                if 0 <= yy < 6 and 0 <= xx < 6:
                    expected[yy, xx] += k[ky, kx]
        assert np.array_equal(out, expected)

    def test_uniform_kernel_constant_input_gives_constant(self):
        x = np.full((5, 5), 2.0)
        k = np.full((4, 4), 0.25)
        out = transposed_conv2d(x, k)
        inner = out[2:-2, 2:-2]
        assert np.allclose(inner, 2.0)

    def test_matches_zero_insert_then_flipped_conv_exactly(self):
        rng = np.random.default_rng(6)
        x = rng.integers(-8, 9, size=(4, 5)).astype(np.float64)
        k = rng.integers(-4, 5, size=(4, 4)).astype(np.float64)
        assert np.array_equal(transposed_conv2d(x, k), zero_insert_then_conv(x[None], k[None, None])[0])

    def test_float_inputs_match_oracle_to_1e12(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4))
        k = rng.standard_normal((4, 4))
        assert rel_err(transposed_conv2d(x, k), zero_insert_then_conv(x[None], k[None, None])[0]) < 1e-12

    def test_bad_shapes_raise(self):
        with pytest.raises(DimensionError):
            transposed_conv2d(np.zeros((2, 2, 2)), np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            transposed_conv2d(np.zeros((2, 2)), np.zeros((1, 1, 4, 4)))


class TestMedianFilter:
    def test_constant_image_unchanged(self):
        x = np.full((6, 6), 3.25)
        assert np.array_equal(median_filter(x, 3), x)

    def test_k1_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 7))
        assert np.array_equal(median_filter(x, 1), x)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_sort_oracle_bit_exactly(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((9, 9))
        assert np.array_equal(median_filter(x, k), sort_median_filter(x, k))

    @pytest.mark.parametrize("k", [3, 5, 9])
    @pytest.mark.parametrize("shape", [(5, 1), (9, 1), (1, 1)])
    def test_one_pixel_wide_image_matches_both_oracles(self, k, shape):
        # each band's windows reshape to a read-only view, not a copy
        x = np.random.default_rng(k + shape[0]).standard_normal(shape)
        out = median_filter(x, k)
        assert np.array_equal(out, sort_median_filter(x, k))
        assert out.tobytes() == median_filter_np(x, k).tobytes()

    def test_even_k_raises(self):
        with pytest.raises(ParameterError):
            median_filter(np.zeros((4, 4)), 2)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("kind", ["finite", "signed_zeros", "inf", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_np_median_form(self, k, kind, dtype):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((23, 31)).astype(dtype)
        if kind == "signed_zeros":
            x[rng.random(x.shape) < 0.4] = 0.0
            x[rng.random(x.shape) < 0.4] = -0.0
        if kind == "inf":
            x[rng.random(x.shape) < 0.15] = np.inf
            x[rng.random(x.shape) < 0.15] = -np.inf
        if kind == "nan":
            x[rng.random(x.shape) < 0.03] = np.nan
            x[0, 0] = -np.nan
        out, expected = median_filter(x, k), median_filter_np(x, k)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("shape", [(301, 260), (97, 1000)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_bands_are_bitwise_np_median(self, k, shape, dtype):
        rows = ops._MEDIAN_BAND // (shape[1] * k * k)  # output rows per band
        assert shape[0] > 2 * rows and shape[0] % rows  # several bands, the last one short
        rng = np.random.default_rng(k + shape[0])
        x = rng.standard_normal(shape).astype(dtype)
        band = x[rows:2 * rows]  # special values only in the second band
        for value, share in ((0.0, 0.2), (-0.0, 0.2), (np.inf, 0.05), (-np.inf, 0.05),
                             (np.nan, 0.01), (-np.nan, 0.01)):
            band[rng.random(band.shape) < share] = value
        out, expected = median_filter(x, k), median_filter_np(x, k)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_noise_residual_of_a_224px_image_holds_one_band(self):
        image = np.random.default_rng(9).random((224, 224))
        tracemalloc.start()
        try:
            noise_residual(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.9 MB measured; 40 MB when every 7x7 window was copied at once, twice
        assert peak <= 8e6, peak


class TestLeakyRelu:
    def test_definition(self):
        assert leaky_relu(np.array([1.0]), 0.2)[0] == 1.0
        assert leaky_relu(np.array([-2.0]), 0.2)[0] == pytest.approx(-0.4)

    def test_gradient_away_from_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(32)
        x = x[np.abs(x) > 1e-3]
        up = rng.standard_normal(x.size)
        grad = leaky_relu_backward(x, up, 0.2)
        fd = fd_gradient(lambda a: float(np.sum(up * leaky_relu(a, 0.2))), x.copy())
        assert rel_err(grad, fd) < 1e-6

    def test_bad_slope_raises(self):
        with pytest.raises(ParameterError):
            leaky_relu(np.zeros(3), 1.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_bitwise_the_where_oracle(self, dtype):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(64).astype(dtype)
        up = rng.standard_normal(64).astype(dtype)
        specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf]
        x[:6] = specials  # NaN x takes the slope branch, as in np.where
        up[6:12] = specials
        up[12:18] = specials
        x[12:18] = -1.0
        expected = np.where(x >= 0, up, up * up.dtype.type(0.2))
        out = leaky_relu_backward(x, up, 0.2)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.2, 1.5])
    def test_backward_bad_slope_raises(self, slope):
        with pytest.raises(ParameterError):
            leaky_relu_backward(np.zeros(3), np.ones(3), slope)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_where_form(self, dtype):
        rng = np.random.default_rng(12)
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.concatenate([
            rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, 1000),
            [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, np.nan],
        ]).astype(dtype)
        for slope in (0.01, 0.2, 0.5, 0.999):
            got = leaky_relu(x, slope)
            want = np.where(x >= 0, x, x * dtype(slope))
            assert got.dtype == dtype
            assert np.isnan(got[-1])
            assert got[:-1].tobytes() == want[:-1].tobytes()
            assert got.strides == want.strides
            # a strided view keeps its own layout, as np.where's output does
            view = x[:-7].reshape(40, 25).T
            assert leaky_relu(view, slope).strides == np.where(view >= 0, view, view).strides


class TestInstanceNorm:
    def test_unit_gain_zero_bias_standardizes(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 8, 8)) * 4 + 2
        y, _ = instance_norm_nhwc(nhwc(x), np.ones(3), np.zeros(3))
        assert np.all(np.abs(y.mean(axis=(1, 2))) <= 1e-6)
        assert np.all(np.abs(y.var(axis=(1, 2)) - 1.0) <= 1e-4)

    def test_constant_channel_maps_to_zero(self):
        y, _ = instance_norm_nhwc(np.full((1, 4, 4, 1), 7.0), np.ones(1), np.zeros(1))
        assert np.all(y == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nhwc_bitwise_equal_to_mean_var_form(self, dtype):
        rng = np.random.default_rng(13)
        x = (rng.standard_normal((3, 9, 14, 5)) * 30 + 7).astype(dtype)
        gain = rng.standard_normal(5).astype(dtype)
        bias = rng.standard_normal(5).astype(dtype)
        y, (xhat, inv, _) = instance_norm_nhwc(x, gain, bias)
        mu = x.mean(axis=(1, 2), keepdims=True)
        want_inv = 1.0 / np.sqrt(x.var(axis=(1, 2), keepdims=True) + 1e-5)
        want_xhat = (x - mu) * want_inv
        for got, want in ((y, want_xhat * gain + bias), (xhat, want_xhat), (inv, want_inv)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides

    def test_degenerate_spatial_map_raises(self):
        with pytest.raises(ParameterError):
            instance_norm_nhwc(np.zeros((1, 1, 1, 2)), np.ones(2), np.zeros(2))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = nhwc(rng.standard_normal((2, 4, 4)))
        gain = rng.standard_normal(2)
        bias = rng.standard_normal(2)
        up = nhwc(rng.standard_normal((2, 4, 4)))
        gx, ggain, gbias = instance_norm_nhwc_backward(instance_norm_nhwc(x, gain, bias)[1], up)

        def loss_x(a):
            return float(np.sum(up * instance_norm_nhwc(a, gain, bias)[0]))

        def loss_g(g):
            return float(np.sum(up * instance_norm_nhwc(x, g, bias)[0]))

        def loss_b(b):
            return float(np.sum(up * instance_norm_nhwc(x, gain, b)[0]))

        assert rel_err(gx, fd_gradient(loss_x, x.copy())) < 1e-4
        assert rel_err(ggain, fd_gradient(loss_g, gain.copy())) < 1e-4
        assert rel_err(gbias, fd_gradient(loss_b, bias.copy())) < 1e-4

    @pytest.mark.parametrize("dtype,gain_dtype", [(np.float32, np.float32),
                                                  (np.float64, np.float64),
                                                  (np.float32, np.float64)])
    def test_backward_is_the_reference_expression_and_keeps_its_inputs(self, dtype, gain_dtype):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 9, 14, 5)).astype(dtype)
        gain = rng.standard_normal(5).astype(gain_dtype)
        up = rng.standard_normal((3, 9, 14, 5)).astype(dtype)
        cache = instance_norm_nhwc(x, gain, rng.standard_normal(5).astype(dtype))[1]
        before = [a.copy() for a in cache + (up,)]
        gx, ggain, gbias = instance_norm_nhwc_backward(cache, up)
        for a, b in zip(cache + (up,), before):
            assert a.tobytes() == b.tobytes()
        xhat, inv, _ = cache
        dxhat = up * gain
        mean_d = dxhat.mean(axis=(1, 2), keepdims=True)
        mean_dx = (dxhat * xhat).mean(axis=(1, 2), keepdims=True)
        want = inv * (dxhat - mean_d - xhat * mean_dx)
        assert gx.dtype == want.dtype and np.array_equal(gx, want)
        assert np.array_equal(gbias, up.sum(axis=(0, 1, 2)))
        assert np.array_equal(ggain, (up * xhat).sum(axis=(0, 1, 2)))


def _standardize_input(layout, dtype, rng):
    """(x, axes): channel-last planes as instance norm gets them, or the
    log-magnitude spectrum of a channel-first view in the layout ``dft2``
    returns, as the spectrum stage gets it."""
    x = (rng.standard_normal((2, 12, 10, 5)) * 3 + 1).astype(dtype)
    if layout == "nhwc":
        return x, (1, 2)
    return np.log1p(np.abs(dft2(x.transpose(0, 3, 1, 2)))), (2, 3)


class TestStandardize:
    @pytest.mark.parametrize("layout", ["nhwc", "spectrum"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_mean_var_form(self, layout, dtype):
        x, axes = _standardize_input(layout, dtype, np.random.default_rng(15))
        assert x.dtype == dtype
        xc = x - x.mean(axis=axes, keepdims=True)
        inv = ops.standardize(xc, axes)
        want_inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
        want = (x - x.mean(axis=axes, keepdims=True)) * want_inv
        for got, ref in ((xc, want), (inv, want_inv)):
            assert got.dtype == ref.dtype == dtype
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("layout", ["nhwc", "spectrum"])
    def test_backward_matches_finite_differences(self, layout):
        rng = np.random.default_rng(16)
        x, axes = _standardize_input(layout, np.float64, rng)
        x = np.ascontiguousarray(x[:1, :2, :6, :4])  # 48 entries: a fast FD
        up = rng.standard_normal(x.shape)

        def loss(a):
            ac = a - a.mean(axis=axes, keepdims=True)
            ops.standardize(ac, axes)
            return float(np.sum(up * ac))

        xhat = x - x.mean(axis=axes, keepdims=True)
        inv = ops.standardize(xhat, axes)
        got = ops.standardize_backward(up.copy(), xhat, inv, axes)
        assert rel_err(got, fd_gradient(loss, x.copy())) < 1e-6

    def test_both_kernels_work_in_the_array_they_are_given(self):
        rng = np.random.default_rng(17)
        x, axes = _standardize_input("spectrum", np.float64, rng)
        xc = x - x.mean(axis=axes, keepdims=True)
        centred = xc.copy()
        inv = ops.standardize(xc, axes)
        assert inv.shape == (2, 5, 1, 1) and not np.shares_memory(inv, xc)
        assert xc.tobytes() == (centred * inv).tobytes()  # written in place
        d = rng.standard_normal(x.shape)
        before = [a.copy() for a in (d, xc, inv)]
        got = ops.standardize_backward(d, xc, inv, axes)
        assert got is d
        assert not np.array_equal(d, before[0])
        for a, b in zip((xc, inv), before[1:]):  # the forward's outputs are read only
            assert a.tobytes() == b.tobytes()


class TestElementwiseMul:
    def test_ones_is_identity_and_zeros_annihilate(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4))
        ones = np.ones_like(a)
        assert np.array_equal(elementwise_mul(a, ones, ones, ones), a)
        assert not elementwise_mul(a, np.zeros_like(a), a, a).any()

    def test_shape_mismatch_raises(self):
        a = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            elementwise_mul(a, a, a, np.zeros((2, 3)))

    def test_factor_count_other_than_four_raises(self):
        a = np.zeros((2, 2))
        with pytest.raises(ParameterError):
            elementwise_mul(a, a, a)
        with pytest.raises(ParameterError):
            elementwise_mul_backward([a, a], a)

    def test_four_way_product_gradient(self):
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal((3, 3)) for _ in range(4)]
        up = rng.standard_normal((3, 3))
        grads = elementwise_mul_backward(arrays, up)
        for i in range(4):
            def loss(a, i=i):
                args = list(arrays)
                args[i] = a
                return float(np.sum(up * elementwise_mul(*args)))
            assert rel_err(grads[i], fd_gradient(loss, arrays[i].copy())) < 1e-4

    def test_gradient_with_zero_factor(self):
        rng = np.random.default_rng(14)
        arrays = [rng.standard_normal((2, 2)) for _ in range(4)]
        arrays[1] = np.zeros((2, 2))
        up = np.ones((2, 2))
        grads = elementwise_mul_backward(arrays, up)
        assert not grads[0].any() and not grads[2].any() and not grads[3].any()
        assert rel_err(grads[1], arrays[0] * (arrays[2] * arrays[3])) < 1e-12
