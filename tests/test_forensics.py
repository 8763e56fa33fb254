import numpy as np
import pytest

from fsf.errors import ParameterError
from fsf.forensics import (
    AugmentPolicy,
    DistortionConfig,
    apply_augment_plan,
    center_crop_pad,
    downsample,
    draw_augment_plan,
    gaussian_blur,
    jpeg_distort,
    jpeg_quant_table,
    noise_residual,
)

from oracles import rel_err


class TestNoiseResidual:
    def test_constant_image_gives_zero_residual(self):
        assert not noise_residual(np.full((16, 16), 0.7)).any()

    def test_shift_equivariance(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 12))
        assert np.allclose(noise_residual(img + 0.25), noise_residual(img))

    def test_impulse_survives_with_original_deviation(self):
        img = np.full((15, 15), 0.5)
        img[7, 7] = 1.0
        res = noise_residual(img)
        assert res[7, 7] == pytest.approx(0.5)
        assert np.abs(res).sum() == pytest.approx(0.5)

    def test_default_kernel_is_seven(self):
        rng = np.random.default_rng(1)
        img = rng.random((20, 20))
        from fsf.ops import median_filter

        assert np.array_equal(noise_residual(img), img - median_filter(img, 7))

    def test_multichannel(self):
        rng = np.random.default_rng(2)
        img = rng.random((3, 10, 10))
        res = noise_residual(img)
        assert res.shape == img.shape


class TestJpeg:
    def test_quality_100_steps_are_all_one(self):
        assert np.all(jpeg_quant_table(100) == 1)

    def test_quality_50_is_reference_table(self):
        from fsf.forensics import JPEG_LUMA_TABLE

        assert np.array_equal(jpeg_quant_table(50), JPEG_LUMA_TABLE)

    def test_quality_100_psnr_at_least_50db(self):
        rng = np.random.default_rng(3)
        img = rng.random((32, 32))
        out = jpeg_distort(img, 100)
        mse = np.mean((out - img) ** 2)
        psnr = 10 * np.log10(1.0 / mse)
        assert psnr >= 50.0

    def test_quality_70_zeroes_high_frequency_coefficients(self):
        rng = np.random.default_rng(4)
        img = rng.random((8, 8)) * 0.05 + 0.5  # low-contrast so HF coefs are small
        out = jpeg_distort(img, 70)
        from fsf.forensics import _DCT

        coefs = _DCT @ ((out * 255.0) - 128.0) @ _DCT.T
        table = jpeg_quant_table(70)
        # every surviving coefficient is an exact multiple of its step
        ratio = coefs / table
        assert np.allclose(ratio, np.rint(ratio), atol=1e-6)
        assert np.sum(np.abs(coefs[4:, 4:]) < 1e-9) > 10

    def test_constant_image_unchanged_up_to_rounding(self):
        img = np.full((16, 16), 0.42)
        out = jpeg_distort(img, 80)
        assert np.max(np.abs(out - img)) <= 1.0 / 255

    def test_quality_out_of_range_raises(self):
        with pytest.raises(ParameterError):
            jpeg_distort(np.zeros((8, 8)), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        img = rng.random((24, 24))
        assert np.array_equal(jpeg_distort(img, 77), jpeg_distort(img, 77))


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(6)
        img = rng.random((9, 9))
        assert np.array_equal(gaussian_blur(img, 0.0), img)

    def test_dc_gain_preserved(self):
        img = np.full((12, 12), 0.3)
        assert np.allclose(gaussian_blur(img, 1.0), img)

    def test_delta_matches_sampled_gaussian(self):
        sigma = 1.0
        n = 17
        img = np.zeros((n, n))
        img[n // 2, n // 2] = 1.0
        out = gaussian_blur(img, sigma)
        radius = int(np.ceil(3 * sigma))
        taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        taps /= taps.sum()
        expected = np.outer(taps, taps)
        window = out[n // 2 - radius:n // 2 + radius + 1, n // 2 - radius:n // 2 + radius + 1]
        assert rel_err(window, expected) < 1e-6


class TestDownsample:
    def test_constant_stays_constant(self):
        img = np.full((10, 10), 0.6)
        out = downsample(img)
        assert out.shape == (5, 5)
        assert np.allclose(out, 0.6)

    def test_even_grid_is_2x2_block_average(self):
        rng = np.random.default_rng(7)
        img = rng.random((8, 6))
        out = downsample(img)
        blocks = img.reshape(4, 2, 3, 2).mean(axis=(1, 3))
        assert rel_err(out, blocks) < 1e-12

    def test_odd_sizes_round_up(self):
        assert downsample(np.zeros((9, 7))).shape == (5, 4)


class TestCenterCropPad:
    def test_matching_size_is_identity(self):
        rng = np.random.default_rng(8)
        img = rng.random((224, 224))
        assert np.array_equal(center_crop_pad(img, 224), img)

    def test_larger_input_takes_central_window(self):
        rng = np.random.default_rng(9)
        img = rng.random((300, 300))
        out = center_crop_pad(img, 224)
        assert np.array_equal(out, img[38:262, 38:262])

    def test_small_input_reflect_pads(self):
        rng = np.random.default_rng(10)
        img = rng.random((100, 100))
        out = center_crop_pad(img, 224)
        assert out.shape == (224, 224)
        # reflect extension: border columns mirror interior ones
        padded = np.pad(img, ((62, 62), (62, 62)), mode="reflect")
        assert np.array_equal(out, padded)

    def test_mixed_pad_and_crop(self):
        rng = np.random.default_rng(11)
        img = rng.random((100, 300))
        out = center_crop_pad(img, 224)
        assert out.shape == (224, 224)


def augment(image, policy, rng):
    """One training draw: sample the gates, distort, then crop."""
    return apply_augment_plan(image, draw_augment_plan(policy, rng), policy.crop)


class TestAugment:
    def test_all_gates_closed_is_crop_only(self):
        rng = np.random.default_rng(12)
        img = rng.random((64, 64))
        policy = AugmentPolicy(p_jpeg=0.0, p_blur=0.0, p_down=0.0, crop=48)
        out = augment(img, policy, np.random.default_rng(0))
        assert np.array_equal(out, center_crop_pad(img, 48))

    def test_gate_rates_near_ten_percent(self):
        policy = AugmentPolicy()
        rng = np.random.default_rng(13)
        counts = np.zeros(3)
        n = 10_000
        for _ in range(n):
            kinds = [d.kind for d in draw_augment_plan(policy, rng)]
            counts += [k in kinds for k in ("jpeg", "gaussian_blur", "downsample")]
        rates = counts / n
        assert np.all(rates >= 0.08) and np.all(rates <= 0.12)

    def test_parameter_ranges_respected(self):
        policy = AugmentPolicy(p_jpeg=1.0, p_blur=1.0, p_down=1.0)
        rng = np.random.default_rng(14)
        for _ in range(200):
            jpeg, blur, down = draw_augment_plan(policy, rng)
            assert jpeg.kind == "jpeg" and 70 <= jpeg.jpeg_quality <= 100
            assert blur.kind == "gaussian_blur" and 0.0 <= blur.blur_sigma < 1.0
            assert down.kind == "downsample"

    def test_plan_applies_in_draw_order(self):
        rng = np.random.default_rng(16)
        img = rng.random((80, 80))
        policy = AugmentPolicy(p_jpeg=1.0, p_blur=1.0, p_down=1.0, crop=32)
        plan = draw_augment_plan(policy, np.random.default_rng(3))
        jpeg, blur, _ = plan
        expected = center_crop_pad(
            downsample(gaussian_blur(jpeg_distort(img, jpeg.jpeg_quality), blur.blur_sigma)), 32
        )
        assert np.array_equal(apply_augment_plan(img, plan, 32), expected)

    def test_reproducible_per_seed(self):
        rng = np.random.default_rng(15)
        img = rng.random((80, 80))
        policy = AugmentPolicy(p_jpeg=0.5, p_blur=0.5, p_down=0.5, crop=64)
        a = augment(img, policy, np.random.default_rng(77))
        b = augment(img, policy, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_bad_probability_rejected(self):
        with pytest.raises(ParameterError):
            AugmentPolicy(p_jpeg=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"blur_sigma_range": (-0.5, 1.0)},
        {"blur_sigma_range": (1.0, 0.5)},
        {"blur_sigma_range": (0.0, float("inf"))},
        {"blur_sigma_range": (float("nan"), 1.0)},
        {"crop": 0},
    ])
    def test_bad_blur_range_or_crop_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            AugmentPolicy(**kwargs)


class TestDistortionConfig:
    def test_labels(self):
        assert DistortionConfig("none").label == "none"
        assert DistortionConfig("jpeg", jpeg_quality=95).label == "jpeg95"
        assert DistortionConfig("downsample").label == "down0.5"
        assert DistortionConfig("gaussian_blur", blur_sigma=1.0).label == "blur1"

    def test_apply_dispatches(self):
        rng = np.random.default_rng(16)
        img = rng.random((16, 16))
        assert np.array_equal(DistortionConfig("none").apply(img), img)
        assert DistortionConfig("downsample").apply(img).shape == (8, 8)
        assert np.array_equal(
            DistortionConfig("jpeg", jpeg_quality=90).apply(img), jpeg_distort(img, 90)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            DistortionConfig("sharpen")


@pytest.mark.parametrize(
    "distort",
    [
        lambda x: jpeg_distort(x, 90),
        lambda x: gaussian_blur(x, 1.0),
        downsample,
        lambda x: center_crop_pad(x, 8),
    ],
    ids=["jpeg", "blur", "downsample", "crop"],
)
@pytest.mark.parametrize("shape", [(3, 16, 16), (16,)])
def test_distortions_take_graymaps_only(distort, shape):
    with pytest.raises(ParameterError):
        distort(np.zeros(shape))
