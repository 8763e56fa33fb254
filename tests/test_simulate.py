import hashlib
import os
from collections import Counter

import numpy as np
import pytest

from fsf.errors import ConfigError, DimensionError, ParameterError
from fsf.parallel import worker_count
from fsf.simulate import (
    CorpusSpec,
    PipelineConfig,
    build_corpus,
    embed_spectral_watermark,
    generate_fake,
    letter_a_glyph,
    synth_real,
    upsample_nearest,
    upsample_tconv,
    upsample_zero,
)
from fsf.spectral import quadrant_correlation, quadrant_split, self_similarity_features, spectrum_of

from fsf.ops import transposed_conv2d

from oracles import rel_err, zero_insert_then_conv


class TestUpsampleZero:
    def test_one_pixel(self):
        out = upsample_zero(np.array([[3.0]]))
        assert np.array_equal(out, [[3.0, 0.0], [0.0, 0.0]])

    def test_energy_preserved(self):
        rng = np.random.default_rng(0)
        img = rng.random((9, 5))
        assert np.sum(upsample_zero(img) ** 2) == np.sum(img ** 2)

    def test_spectrum_tiles_exactly(self):
        rng = np.random.default_rng(1)
        img = rng.random((10, 14))
        up = spectrum_of(upsample_zero(img))
        base = spectrum_of(img)
        h, w = img.shape
        tiled = base[np.arange(2 * h) % h][:, np.arange(2 * w) % w]
        assert rel_err(up, tiled) < 1e-9


class TestUpsampleNearest:
    def test_one_pixel(self):
        assert np.array_equal(upsample_nearest(np.array([[2.0]])), np.full((2, 2), 2.0))

    def test_equals_zero_insert_plus_box_sum(self):
        rng = np.random.default_rng(2)
        img = rng.random((6, 7))
        z = upsample_zero(img)
        boxed = np.zeros_like(z)
        h, w = z.shape
        for dy in (0, 1):
            for dx in (0, 1):
                shifted = np.zeros_like(z)
                shifted[dy:, dx:] = z[: h - dy, : w - dx]
                boxed += shifted
        assert np.array_equal(upsample_nearest(img), boxed)


class TestUpsampleTconv:
    def test_deterministic_for_fixed_stage(self):
        rng = np.random.default_rng(3)
        img = rng.random((6, 6))
        a = upsample_tconv(img, PipelineConfig("tconv_conv", 1, 42, 6).stage(0))
        b = upsample_tconv(img, PipelineConfig("tconv_conv", 1, 42, 6).stage(0))
        assert np.array_equal(a, b)

    def test_linear_mode_matches_zero_insert_conv_oracle(self):
        # the stage's linear part: its transposed convolution alone
        rng = np.random.default_rng(4)
        img = rng.integers(-4, 5, size=(5, 5)).astype(np.float64)
        tconv = np.rint(PipelineConfig("tconv_conv", 1, 7, 5).stage(0)[0] * 40)
        out = transposed_conv2d(img, tconv)
        expected = zero_insert_then_conv(img[None], tconv[None, None])[0]
        assert np.array_equal(out, expected)

    def test_output_shape_doubles(self):
        kernels = PipelineConfig("tconv_conv", 1, 8, 5).stage(0)
        assert [k.shape for k in kernels] == [(4, 4), (3, 3), (3, 3)]
        out = upsample_tconv(np.zeros((5, 9)), kernels)
        assert out.shape == (10, 18)


class TestWatermark:
    def test_empty_glyph_round_trips(self):
        rng = np.random.default_rng(5)
        img = rng.random((16, 16))
        out = embed_spectral_watermark(img, np.zeros((16, 9)), amplitude=1.0)
        assert rel_err(out, img) < 1e-9

    def test_glyph_visible_at_embedded_bins(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16))
        mask = np.zeros((16, 9))
        mask[4, 3] = 1.0
        before = spectrum_of(img)
        after = spectrum_of(embed_spectral_watermark(img, mask, amplitude=50.0))
        assert after[4, 3] - before[4, 3] == pytest.approx(50.0, rel=1e-6)
        # conjugate bin rises symmetrically, keeping the image real
        assert after[12, 13] - before[12, 13] == pytest.approx(50.0, rel=1e-6)

    def test_glyph_replicates_under_zero_insertion(self):
        img = synth_real(9, 16)
        mask = letter_a_glyph(16, 9)
        marked = embed_spectral_watermark(img, mask, amplitude=40.0)
        up_spec = spectrum_of(upsample_zero(marked))
        base_spec = spectrum_of(marked)
        for block in quadrant_split(up_spec):
            assert rel_err(block, base_spec) < 1e-9

    def test_wrong_mask_shape_raises(self):
        with pytest.raises(DimensionError):
            embed_spectral_watermark(np.zeros((8, 8)), np.zeros((8, 8)))


class TestSynthReal:
    def test_zero_exponent_is_white(self):
        img = synth_real(0, 32, spectral_exponent=0.0)
        mag = spectrum_of(img)
        # flat expected profile: low-frequency ring close to high-frequency ring
        fu = np.minimum(np.arange(32), 32 - np.arange(32)) / 32
        freq = np.sqrt(fu[:, None] ** 2 + fu[None, :] ** 2)
        low = mag[(freq > 0.05) & (freq < 0.15)].mean()
        high = mag[(freq > 0.35) & (freq < 0.45)].mean()
        assert 0.5 < low / high < 2.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_radial_log_spectrum_slope(self, alpha):
        slopes = []
        for seed in range(5):
            img = synth_real(100 + seed, 64, spectral_exponent=alpha)
            mag = spectrum_of(img)
            fu = np.minimum(np.arange(64), 64 - np.arange(64)) / 64
            freq = np.sqrt(fu[:, None] ** 2 + fu[None, :] ** 2)
            edges = np.geomspace(2 / 64, 0.45, 12)
            logs_f, logs_m = [], []
            for lo, hi in zip(edges[:-1], edges[1:]):
                sel = (freq >= lo) & (freq < hi)
                if sel.any():
                    logs_f.append(np.log(np.sqrt(lo * hi)))
                    logs_m.append(np.log(mag[sel].mean()))
            slope = np.polyfit(logs_f, logs_m, 1)[0]
            slopes.append(slope)
        assert abs(np.mean(slopes) + alpha) <= 0.2

    def test_seed_reproducible_and_in_range(self):
        a = synth_real(123, 48)
        b = synth_real(123, 48)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestPipelines:
    def test_bad_configs_raise(self):
        with pytest.raises(ParameterError):
            PipelineConfig("bicubic", 1, 0, 8)
        with pytest.raises(ParameterError):
            PipelineConfig("nearest", 0, 0, 8)
        with pytest.raises(ParameterError):  # 28 x 2^8 = 7168 px, over the 4096 cap
            PipelineConfig("zero_insert", 8, 0, 28)

    def test_depth1_zero_insert_quadrants_equal(self):
        pipe = PipelineConfig("zero_insert", 1, 11, 32)
        img = generate_fake(5, pipe)
        spec = spectrum_of(img)
        blocks = quadrant_split(spec)
        for block in blocks[1:]:
            assert rel_err(block, blocks[0]) < 1e-9

    def test_depth3_elevates_levels_0_to_2(self):
        pipe = PipelineConfig("zero_insert", 3, 11, 8)
        feats = np.mean(
            [self_similarity_features(spectrum_of(generate_fake(s, pipe)), 3) for s in range(8)],
            axis=0,
        )
        base = np.mean(
            [self_similarity_features(spectrum_of(synth_real(50 + s, 64)), 3) for s in range(8)],
            axis=0,
        )
        for level in range(3):
            assert feats[level] > base[level] + 0.05
        assert feats[3] < feats[2] - 0.2  # replication stops below the base field

    def test_deterministic_per_seed_and_config(self):
        pipe = PipelineConfig("tconv_conv", 2, 13, 16)
        assert np.array_equal(generate_fake(3, pipe), generate_fake(3, pipe))

    def test_image_scoped_kernels_differ_per_seed_but_reproduce(self):
        pipe = PipelineConfig("tconv_conv", 1, 13, 16, kernel_scope="image")
        a1 = generate_fake(1, pipe)
        a2 = generate_fake(1, pipe)
        b = generate_fake(2, pipe)
        assert np.array_equal(a1, a2)
        kern1 = pipe.stage(0, image_seed=1)[0]
        kern2 = pipe.stage(0, image_seed=2)[0]
        assert not np.array_equal(kern1, kern2)
        assert not np.array_equal(a1, b)

    def test_image_scoped_kernels_require_seed(self):
        pipe = PipelineConfig("tconv_conv", 1, 13, 16, kernel_scope="image")
        with pytest.raises(ParameterError):
            pipe.stage(0)

    def test_exponent_range_draws_per_image(self):
        spec = CorpusSpec(
            size=16,
            seed=1,
            pipelines=[PipelineConfig("zero_insert", 1, 2, 8, name="z")],
            n_train_real=2,
            spectral_exponent=(0.7, 1.3),
        )
        a = spec.exponent_for(101)
        b = spec.exponent_for(102)
        assert a != b
        assert 0.7 <= a <= 1.3 and 0.7 <= b <= 1.3
        assert spec.exponent_for(101) == a

    def test_tconv_quadrant_correlation_exceeds_noise_baseline(self):
        pipe = PipelineConfig("tconv_conv", 1, 17, 32)
        fake_corrs = [
            quadrant_correlation(spectrum_of(generate_fake(s, pipe))) for s in range(100)
        ]
        rng = np.random.default_rng(18)
        noise_corrs = [
            quadrant_correlation(spectrum_of(rng.standard_normal((64, 64))))
            for _ in range(100)
        ]
        # rank-sum test, normal approximation: fake correlations stochastically larger
        pooled = np.concatenate([fake_corrs, noise_corrs])
        ranks = pooled.argsort().argsort() + 1
        r1 = ranks[: len(fake_corrs)].sum()
        n1 = n2 = 100
        mu = n1 * (n1 + n2 + 1) / 2
        sigma = np.sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
        z = (r1 - mu) / sigma
        assert z > 2.33  # one-sided p < 0.01
        assert np.mean(fake_corrs) >= 0.5

    def test_size_overflow_rejected(self):
        with pytest.raises(ParameterError):
            PipelineConfig("zero_insert", 10, 0, 8)


class TestBuildCorpus:
    def _spec(self, tmp_path):
        pipes = [
            PipelineConfig("zero_insert", 2, 1, 8, name="zero"),
            PipelineConfig("nearest", 2, 2, 8, name="near"),
        ]
        return CorpusSpec(
            size=32,
            seed=99,
            pipelines=pipes,
            n_train_real=10,
            n_train_fake=10,
            n_test_real=4,
            n_test_fake=2,
            holdout=("near",),
        )

    def test_counts_and_balance(self, tmp_path):
        manifests = build_corpus(self._spec(tmp_path), tmp_path)
        train = manifests["train"]
        assert len(train) == 20
        assert Counter(e.label for e in train.entries) == {"real": 10, "generated": 10}
        # holdout excluded from training
        assert {e.pipeline for e in train.entries if e.label == "generated"} == {"zero"}
        test = manifests["test"]
        assert Counter(e.label for e in test.entries) == {"real": 4, "generated": 4}
        assert {e.pipeline for e in test.entries if e.label == "generated"} == {"zero", "near"}

    def test_rerun_produces_identical_tree(self, tmp_path):
        def tree_hash(root):
            digest = hashlib.sha256()
            for dirpath, _, files in sorted(os.walk(root)):
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        digest.update(name.encode())
                        digest.update(fh.read())
            return digest.hexdigest()

        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        build_corpus(self._spec(tmp_path), a_dir)
        build_corpus(self._spec(tmp_path), b_dir)
        assert tree_hash(a_dir) == tree_hash(b_dir)

    def test_entries_regenerate_bit_exactly(self, tmp_path):
        from fsf.fileio import read_image

        manifests = build_corpus(self._spec(tmp_path), tmp_path)
        entry = next(e for e in manifests["train"].entries if e.label == "generated")
        pipe = next(p for p in self._spec(tmp_path).pipelines if p.name == entry.pipeline)
        regen = generate_fake(entry.seed, pipe)
        stored = read_image(manifests["train"].resolve(entry))
        assert np.array_equal(np.rint(stored * 255), np.rint(np.clip(regen, 0, 1) * 255))

    def test_mismatched_pipeline_size_rejected(self):
        with pytest.raises(ParameterError):
            CorpusSpec(
                size=64,
                seed=0,
                pipelines=[PipelineConfig("zero_insert", 2, 1, 8)],
                n_train_real=1,
            )

    def test_thread_cap_does_not_change_results(self, tmp_path, monkeypatch, no_child_left):
        from fsf.figures import average_spectrum_report, features_export

        def run(workers):
            monkeypatch.setenv("FSF_THREADS", str(workers))
            out = tmp_path / f"w{workers}"
            manifests = build_corpus(self._spec(tmp_path), out)
            features_export(manifests["train"], out / "features.csv", levels=2)
            average_spectrum_report(manifests["test"], out / "average", residual=True)
            return tree_hash(out)

        def tree_hash(root):
            digest = hashlib.sha256()
            for dirpath, _, files in sorted(os.walk(root)):
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        digest.update(name.encode())
                        digest.update(fh.read())
            return digest.hexdigest()

        assert run(1) == run(2) == run(3)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_bad_thread_cap_rejected(monkeypatch, raw):
    monkeypatch.setenv("FSF_THREADS", raw)
    with pytest.raises(ConfigError):
        worker_count()
