import numpy as np
import pytest

from fsf.errors import DataError, DimensionError, ParameterError
from fsf.simulate import upsample_nearest, upsample_zero
from fsf.spectral import (
    average_spectrum,
    fractal_pyramid,
    quadrant_average,
    quadrant_correlation,
    quadrant_split,
    self_similarity,
    self_similarity_features,
    spectrum_of,
)

from oracles import rel_err


class TestSpectrumOf:
    def test_constant_image_has_energy_only_at_dc(self):
        mag = spectrum_of(np.full((8, 8), 0.5))
        assert mag[0, 0] == pytest.approx(32.0)
        off = mag.copy()
        off[0, 0] = 0.0
        assert np.all(off < 1e-10)

    def test_pure_cosine_lights_two_bins(self):
        w = 16
        k = 3
        row = np.cos(2 * np.pi * k * np.arange(w) / w)
        img = np.tile(row, (8, 1))
        mag = spectrum_of(img)
        hot = {(0, k), (0, w - k)}
        for u in range(8):
            for v in range(w):
                if (u, v) in hot:
                    assert mag[u, v] == pytest.approx(8 * w / 2, rel=1e-9)
                else:
                    assert mag[u, v] < 1e-9


class TestQuadrantSplit:
    def test_definition_on_4x4(self):
        s = np.arange(16.0).reshape(4, 4)
        s00, s01, s10, s11 = quadrant_split(s)
        assert np.array_equal(s00, [[0, 1], [4, 5]])
        assert np.array_equal(s01, [[2, 3], [6, 7]])
        assert np.array_equal(s10, [[8, 9], [12, 13]])
        assert np.array_equal(s11, [[10, 11], [14, 15]])

    def test_odd_extent_raises(self):
        with pytest.raises(DimensionError):
            quadrant_split(np.zeros((5, 4)))

    def test_tiling_identity_for_zero_insertion(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 18))
        base = spectrum_of(img)
        for block in quadrant_split(spectrum_of(upsample_zero(img))):
            assert rel_err(block, base) < 1e-9

    def test_white_noise_quadrants_uncorrelated(self):
        rng = np.random.default_rng(1)
        rhos = []
        for _ in range(100):
            mag = spectrum_of(rng.standard_normal((64, 64)))
            rhos.append(abs(quadrant_correlation(mag)))
        assert np.mean(rhos) < 0.2


class TestSelfSimilarity:
    def test_all_ones_gives_log_2(self):
        assert self_similarity(np.ones((4, 4))) == pytest.approx(np.log(2.0))

    def test_zero_quadrant_gives_zero(self):
        s = np.abs(np.random.default_rng(2).standard_normal((6, 6)))
        s[:3, :3] = 0.0
        assert self_similarity(s) == 0.0

    def test_invariant_under_branch_permutation(self):
        rng = np.random.default_rng(3)
        s = np.abs(rng.standard_normal((8, 8)))
        q = quadrant_split(s)
        base = self_similarity(s)
        permuted = np.block([[q[3], q[1]], [q[2], q[0]]])
        # swapping which quadrant sits where leaves the fused product alone
        assert self_similarity(permuted) == pytest.approx(base, rel=1e-12)

    def test_separates_zero_upsampled_from_plain_fields(self):
        # Small version of the corpus-level separation check (full-size AUC
        # experiment lives in the acceptance suite).
        from fsf.simulate import synth_real

        ups, plain = [], []
        for seed in range(40):
            base = synth_real(seed, 32)
            ups.append(self_similarity(spectrum_of(upsample_zero(base))))
            plain.append(self_similarity(spectrum_of(synth_real(1000 + seed, 64))))
        assert np.min(ups) > np.max(plain)

    def test_separates_zero_upsampled_from_white_noise(self):
        rng = np.random.default_rng(21)
        ups, noise = [], []
        for _ in range(40):
            ups.append(self_similarity(spectrum_of(upsample_zero(rng.random((32, 32))))))
            noise.append(self_similarity(spectrum_of(rng.random((64, 64)))))
        assert np.min(ups) > np.max(noise)

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        s = np.abs(rng.standard_normal((8, 8)))
        assert self_similarity(3.7 * s) == pytest.approx(self_similarity(s), rel=1e-12)


class TestQuadrantAverage:
    def test_four_equal_blocks_return_that_block(self):
        b = np.random.default_rng(4).random((3, 3))
        assert np.array_equal(quadrant_average(b, b, b, b), b)

    def test_three_zeros_and_x_gives_quarter_x(self):
        x = np.random.default_rng(5).random((3, 3))
        z = np.zeros_like(x)
        assert np.allclose(quadrant_average(z, z, z, x), x / 4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            quadrant_average(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_left_inverse_of_tiling_is_exact(self):
        rng = np.random.default_rng(6)
        s = rng.random((6, 8))
        tiled = np.tile(s, (2, 2))
        assert np.array_equal(quadrant_average(*quadrant_split(tiled)), s)


class TestFractalPyramid:
    def test_zero_levels_is_identity(self):
        s = np.random.default_rng(7).random((8, 8))
        levels = fractal_pyramid(s, 0)
        assert len(levels) == 1
        assert np.array_equal(levels[0], s)

    def test_full_crop_level_sizes(self):
        s = np.zeros((224, 224))
        sizes = [lv.shape[-1] for lv in fractal_pyramid(s, 4)]
        assert sizes == [224, 112, 56, 28, 14]

    def test_extents_halve_exactly(self):
        shapes = [lv.shape for lv in fractal_pyramid(np.zeros((64, 32)), 3)]
        assert shapes == [(64, 32), (32, 16), (16, 8), (8, 4)]

    def test_insufficient_divisibility_raises(self):
        with pytest.raises(ParameterError):
            fractal_pyramid(np.zeros((12, 12)), 3)

    def test_too_many_levels_for_extent_raises(self):
        with pytest.raises(ParameterError):
            fractal_pyramid(np.zeros((8, 8)), 3)  # coarsest level would be 1x1

    def test_double_upsampled_levels_recover_originals(self):
        rng = np.random.default_rng(8)
        img = rng.random((8, 8))
        once = upsample_zero(img)
        twice = upsample_zero(once)
        levels = fractal_pyramid(spectrum_of(twice), 2)
        assert rel_err(levels[1], spectrum_of(once)) < 1e-9
        assert rel_err(levels[2], spectrum_of(img)) < 1e-9

    def test_k_fold_upsampling_elevates_low_levels_only(self):
        from fsf.simulate import synth_real

        k = 2
        img = synth_real(40, 8)
        for _ in range(k):
            img = upsample_zero(img)
        feats = self_similarity_features(spectrum_of(img), k)
        # Plain fields at the same final size give the per-level baseline.
        ref = self_similarity_features(spectrum_of(synth_real(41, 8 << k)), k)
        for level in range(k):
            assert feats[level] > 1.5 * ref[level]
            assert feats[level] > feats[k] + 0.2  # statistic drops at level k


class TestAverageSpectrum:
    def test_single_image_average_is_its_spectrum(self):
        img = np.random.default_rng(10).random((6, 6))
        assert np.allclose(average_spectrum([img]), spectrum_of(img))

    def test_two_image_average_is_midpoint(self):
        rng = np.random.default_rng(11)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        mid = (spectrum_of(a) + spectrum_of(b)) / 2
        assert np.allclose(average_spectrum([a, b]), mid)

    def test_empty_corpus_raises(self):
        with pytest.raises(DataError):
            average_spectrum([])

    def test_hundred_zero_upsampled_images_show_tiling(self):
        from fsf.simulate import synth_real

        images = [upsample_zero(synth_real(seed, 32)) for seed in range(100)]
        avg = average_spectrum(images)
        assert quadrant_correlation(avg) >= 0.9


def test_nearest_neighbor_spectral_factorization():
    rng = np.random.default_rng(12)
    for trial in range(5):
        h, w = rng.integers(6, 20, size=2) * 2
        img = rng.random((h, w))
        measured = spectrum_of(upsample_nearest(img))
        base = spectrum_of(img)
        u = np.arange(2 * h)[:, None]
        v = np.arange(2 * w)[None, :]
        envelope = 4 * np.abs(np.cos(np.pi * u / (2 * h))) * np.abs(np.cos(np.pi * v / (2 * w)))
        tiled = base[np.arange(2 * h) % h][:, np.arange(2 * w) % w]
        assert rel_err(measured, tiled * envelope) < 1e-9
