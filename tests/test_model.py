import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from fsf import model as model_module
from fsf import ops
from fsf.errors import ConfigError, DimensionError, ParameterError, build
from fsf.model import FractalCNN, ModelConfig, bce_with_logits


def toy_config(n_units, size=16, dtype="float64"):
    return ModelConfig(
        channels=4,
        n_units=n_units,
        input_size=size,
        head_hidden=8,
        dtype=dtype,
    )


def jittered_model(cfg, seed=0):
    """Model with parameters nudged off their init symmetry points."""
    model = FractalCNN(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in model.param_names():
        p = model.params[name]
        model.params[name] = p + rng.normal(0.0, 0.05, p.shape).astype(p.dtype)
    return model


def check_param_gradients(model, x, labels, samples_per_tensor=6, step=1e-6, tol=1e-4):
    logits, cache = model.forward(x)
    _, dlogits = bce_with_logits(logits, labels)
    grads = model.backward(cache, dlogits)
    rng = np.random.default_rng(123)
    failures = []
    for name in model.param_names():
        p = model.params[name]
        k = min(samples_per_tensor, p.size)
        idx = rng.choice(p.size, size=k, replace=False)
        flat = p.ravel()
        fd = np.zeros(k)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = bce_with_logits(model.predict(x), labels)
            flat[i] = orig - step
            lo, _ = bce_with_logits(model.predict(x), labels)
            flat[i] = orig
            fd[j] = (hi - lo) / (2 * step)
        analytic = grads[name].ravel()[idx]
        scale = max(np.max(np.abs(fd)), 1e-8)
        err = np.max(np.abs(analytic - fd)) / scale
        if err > tol:
            failures.append((name, err))
    assert not failures, f"gradient mismatches: {failures}"


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ParameterError):
            ModelConfig(input_size=36, n_units=3)

    def test_unit_range_enforced(self):
        with pytest.raises(ParameterError):
            ModelConfig(n_units=5)

    def test_round_trip_dict(self):
        cfg = toy_config(2)
        assert build(ModelConfig, asdict(cfg), "model", ConfigError) == cfg

    def test_feature_width(self):
        assert ModelConfig(channels=32, n_units=3, input_size=64).feature_width == 128


class TestForward:
    def test_output_shape_and_determinism(self):
        cfg = toy_config(2)
        model = FractalCNN(cfg, seed=7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 16, 16, 1))
        a = model.predict(x)
        b = model.predict(x)
        assert a.shape == (3,)
        assert np.array_equal(a, b)

    def test_same_seed_same_params(self):
        cfg = toy_config(1)
        m1 = FractalCNN(cfg, seed=11)
        m2 = FractalCNN(cfg, seed=11)
        for name in m1.param_names():
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_hidden_channel_count_matches_config(self):
        cfg = ModelConfig(channels=32, n_units=1, input_size=32)
        model = FractalCNN(cfg)
        assert model.params["sp2_w"].shape == (3, 3, 32, 32)
        assert model.params["fq2_w"].shape == (3, 3, 32, 32)

    def test_n0_model_has_no_unit_parameters(self):
        model = FractalCNN(toy_config(0))
        assert not [n for n in model.param_names() if n.startswith("u")]
        deeper = FractalCNN(toy_config(2))
        n_params = [sum(p.size for p in m.params.values()) for m in (model, deeper)]
        assert n_params[1] > n_params[0]

    def test_zero_input_is_finite(self):
        model = FractalCNN(toy_config(2), seed=3)
        logits = model.predict(np.zeros((2, 16, 16, 1)))
        assert np.all(np.isfinite(logits))

    def test_wrong_size_raises(self):
        model = FractalCNN(toy_config(2))
        with pytest.raises(DimensionError):
            model.predict(np.zeros((1, 20, 20, 1)))

    def test_batch_composition_does_not_change_logits(self):
        model = FractalCNN(toy_config(2), seed=5)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 16, 16, 1))
        full = model.predict(x)
        singles = np.concatenate([model.predict(x[i:i + 1]) for i in range(4)])
        assert np.allclose(full, singles, atol=1e-12)

    def test_fractal_unit_zeroed_branch_annihilates_fused_path(self):
        cfg = toy_config(1)
        model = FractalCNN(cfg, seed=7)
        model.params["u0_q00_w"][:] = 0.0
        model.params["u0_q00_b"][:] = 0.0
        model.params["u0_fuse_b"][:] = np.linspace(-1.0, 1.0, cfg.channels)
        rng = np.random.default_rng(4)
        feats = model.features(0.2 * rng.standard_normal((1, 16, 16, 1)))
        # fused map is zero, so unit 0's level vector collapses to the fuse bias
        assert np.allclose(feats[0, :cfg.channels], model.params["u0_fuse_b"], atol=1e-12)


class TestOneImageInference:
    """``predict`` and ``features`` run the trunk one image at a time."""

    @pytest.mark.parametrize("size, batch", [(64, 32), (224, 2)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predict_and_features_equal_the_cached_batched_pass(self, size, batch, dtype):
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=size, dtype=dtype), seed=1)
        x = np.random.default_rng(41).standard_normal((batch, size, size, 1))
        logits, cache = model.forward(x)
        feats = cache["head"][0]
        del cache  # the B=32 float64 cache is about 600 MB
        assert model.predict(x).tobytes() == logits.tobytes()
        assert model.features(x).tobytes() == feats.tobytes()

    def test_features_do_not_depend_on_the_batch(self):
        # with 8 channels the batched unit convs take another BLAS kernel than one image's
        model = FractalCNN(ModelConfig(channels=8, n_units=2, input_size=64), seed=3)
        x = np.random.default_rng(40).standard_normal((32, 64, 64, 1))
        feats = model.features(x)
        for i in range(len(x)):
            assert feats[i].tobytes() == model.features(x[i:i + 1])[0].tobytes()

    def test_predict_memory_does_not_grow_with_the_batch(self):
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=64))
        rng = np.random.default_rng(42)
        peaks = []
        for batch in (1, 8):
            x = rng.standard_normal((batch, 64, 64, 1))
            tracemalloc.start()
            try:
                model.predict(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_224px_predict_holds_three_maps_and_a_conv_workspace(self, dtype):
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=224, dtype=dtype))
        x = np.random.default_rng(45).standard_normal((1, 224, 224, 1))
        tracemalloc.start()
        try:
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(dtype).itemsize
        feature_map = 224 * 224 * 32 * itemsize  # one (1, H, W, C) map
        chunk_rows = max(y1 - y0 for _, _, y0, y1 in ops._chunk_plan(1, 224, 224, 9 * 32))
        workspace = chunk_rows * 224 * 9 * 32 * itemsize  # conv3x3_nhwc's im2col chunk
        # 19.5 / 38.6 MB measured: the norm step and the spectrum stage each
        # hold three maps.  25.9 / 51.5 MB when the conv padded its whole
        # input and each block's input lived through its norm; 45.0 / 90.0 MB
        # with every channel's spectrum at once as well.
        assert peak <= 3 * feature_map + workspace, peak


def _cached_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _cached_arrays(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _cached_arrays(v)


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestCacheMemory:
    def test_step_cache_holds_no_im2col_matrix_and_stays_small(self):
        cfg = ModelConfig(channels=32, n_units=2, input_size=64)
        x = np.random.default_rng(30).standard_normal((4, 64, 64, 1))
        _, cache = FractalCNN(cfg).forward(x)
        arrays = list(_cached_arrays(cache))
        bases = {id(b): b for b in map(_base, arrays)}
        for a in arrays + list(bases.values()):
            assert a.ndim < 2 or a.shape[-1] != 9 * cfg.channels, a.shape
        cache_bytes = sum(b.nbytes for b in bases.values())
        assert cache_bytes <= 40e6, cache_bytes

    def test_backward_consumes_the_cache(self):
        cfg = ModelConfig(channels=4, n_units=2, input_size=16, head_hidden=8)
        x = np.random.default_rng(32).standard_normal((2, 16, 16, 1))
        logits, cache = FractalCNN(cfg).forward(x)
        FractalCNN(cfg).backward(cache, np.ones_like(logits))
        assert cache == {}

    def test_step_cache_keeps_no_recomputable_map(self):
        # B=32, 64 px: backward recomputes each block's norm output n and the
        # spectrum's |z|, so neither is among the cached arrays
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=64), seed=6)
        for name in ("sp1", "sp2", "fq1", "fq2"):  # off the init's n == xhat
            model.params[f"{name}_g"] += np.float32(0.5)
            model.params[f"{name}_beta"] += np.float32(0.25)
        x = np.random.default_rng(34).standard_normal((32, 64, 64, 1)).astype(np.float32)
        _, cache = model.forward(x)
        arrays = list(_cached_arrays(cache))
        bases = {id(b): b for b in map(_base, arrays)}
        recomputable = [np.abs(z) for z, _, _ in cache["spectrum"]]
        for name in ("sp1", "sp2", "fq1", "fq2"):
            xhat, _, gain = cache[name][-1]
            recomputable.append(xhat * gain + model.params[f"{name}_beta"])
        for r in recomputable:
            for a in arrays + list(bases.values()):
                assert not (a.shape == r.shape and np.array_equal(a, r)), a.shape
        cache_bytes = sum(b.nbytes for b in bases.values())
        assert cache_bytes <= 200e6, cache_bytes  # 198.8 MB; 282.6 MB with n and |z|

    def test_consecutive_steps_hold_one_cache_at_a_time(self):
        # Two training steps as ``train`` runs them: the cache dropped after
        # backward, so the second forward's cache never overlaps the first's.
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=64), seed=5)
        rng = np.random.default_rng(33)
        labels = (np.arange(32) % 2).astype(np.float32)
        batches = [rng.standard_normal((32, 64, 64, 1)).astype(np.float32) for _ in range(2)]
        cache_bytes = []
        tracemalloc.start()
        try:
            for x in batches:
                logits, cache = model.forward(x)
                bases = {id(b): b.nbytes for b in map(_base, _cached_arrays(cache))}
                cache_bytes.append(sum(bases.values()))
                model.backward(cache, bce_with_logits(logits, labels)[1])
                del cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        feature_map = 32 * 64 * 64 * 32 * 4  # one (B, H, W, C) float32 map, 16.8 MB
        row_block = 3 * feature_map  # one kernel row's im2col block in the weight gradient
        # 199 + 50 MB (224 MB measured, 252 MB when the fractal unit's
        # backward concatenated its quadrant gradients); two overlapping
        # caches (199 MB each) would break it
        assert peak <= max(cache_bytes) + row_block, (peak, cache_bytes)

    def test_fq1_input_is_a_view_of_the_spectrum_output(self):
        cfg = ModelConfig(channels=12, n_units=1, input_size=16, head_hidden=8)
        x = np.random.default_rng(31).standard_normal((2, 16, 16, 1))
        _, cache = FractalCNN(cfg).forward(x)
        fq1_input, groups = cache["fq1"][0], cache["spectrum"]
        assert fq1_input.shape == (2, 16, 16, 12)
        assert len(groups) == 2  # 8 + 4 channels
        for _, shat, _ in groups:
            assert np.shares_memory(fq1_input, shat)


def _spectrum_stage(model, x, upstream):
    """Output and input gradient of the spectrum stage alone."""
    cache = {}
    out = model._spectrum_normalize(x, cache)
    return out, model._spectrum_normalize_backward(upstream, cache)


class TestSpectrumGroups:
    # 12 channels: one full group of SPECTRUM_GROUP = 8 and a short one
    @staticmethod
    def _inputs(dtype):
        rng = np.random.default_rng(38)
        return [rng.standard_normal((2, 28, 28, 12)).astype(dtype) for _ in range(2)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_groups_are_bitwise_one_pass_over_every_channel(self, dtype, monkeypatch):
        model = FractalCNN(toy_config(1, dtype=dtype))
        x, upstream = self._inputs(dtype)
        grouped = _spectrum_stage(model, x, upstream)
        monkeypatch.setattr(model_module, "SPECTRUM_GROUP", 12)
        whole = _spectrum_stage(model, x, upstream)
        for a, b in zip(grouped, whole):
            assert a.tobytes() == b.tobytes()

    def test_each_channel_is_bitwise_the_stage_on_that_channel_alone(self):
        # float32 runs dft2's four-step path, whose planes are row-contiguous
        # for any channel count.  A float64 plane's layout follows np.fft's
        # channel-last output, so a lone channel's mean sums pairwise where
        # a group's sums run channel-innermost; the test above covers it.
        model = FractalCNN(toy_config(1, dtype="float32"))
        x, upstream = self._inputs("float32")
        out, dx = _spectrum_stage(model, x, upstream)
        for c in range(12):
            out_c, dx_c = _spectrum_stage(model, x[..., c:c + 1], upstream[..., c:c + 1])
            assert out_c.tobytes() == out[..., c:c + 1].tobytes()
            assert dx_c.tobytes() == dx[..., c:c + 1].tobytes()


class TestInPlaceBackward:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_spectrum_backward_keeps_its_upstream_and_cache(self, dtype):
        cfg = ModelConfig(channels=12, n_units=1, input_size=16, head_hidden=8, dtype=dtype)
        model = FractalCNN(cfg, seed=7)
        x = np.random.default_rng(35).standard_normal((2, 16, 16, 1))
        _, cache = model.forward(x)
        groups = cache["spectrum"]
        upstream = np.random.default_rng(36).standard_normal((2, 16, 16, 12)).astype(dtype)
        arrays = [a for group in groups for a in group] + [upstream]
        before = [a.copy() for a in arrays]
        model._spectrum_normalize_backward(upstream, {"spectrum": list(groups)})
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()


class TestGradients:
    @pytest.mark.parametrize("n_units", [1, 2])
    def test_end_to_end_toy_model(self, n_units):
        cfg = toy_config(n_units)
        model = jittered_model(cfg, seed=n_units)
        rng = np.random.default_rng(42)
        x = 0.2 * rng.standard_normal((2, 16, 16, 1))
        labels = np.array([0.0, 1.0])
        check_param_gradients(model, x, labels)

    def test_n0_baseline_gradients(self):
        cfg = toy_config(0)
        model = jittered_model(cfg, seed=9)
        rng = np.random.default_rng(43)
        x = 0.2 * rng.standard_normal((2, 16, 16, 1))
        labels = np.array([1.0, 0.0])
        check_param_gradients(model, x, labels)

    def test_single_precision_gradients_at_relaxed_tolerance(self):
        # Single-precision analytic gradients against a double-precision
        # finite-difference reference evaluated at identical parameter values
        # (direct f32 differencing would drown in rounding noise).
        cfg32 = toy_config(1, dtype="float32")
        model32 = jittered_model(cfg32, seed=3)
        model64 = FractalCNN(toy_config(1, dtype="float64"), seed=3)
        model64.load_params({k: v.astype(np.float64) for k, v in model32.params.items()})

        rng = np.random.default_rng(44)
        x64 = 0.2 * rng.standard_normal((2, 16, 16, 1))
        x32 = x64.astype(np.float32)
        labels = np.array([0.0, 1.0])

        logits, cache = model32.forward(x32)
        _, dlogits = bce_with_logits(logits, labels)
        grads32 = model32.backward(cache, dlogits)

        check_rng = np.random.default_rng(123)
        step = 1e-6
        for name in model64.param_names():
            p = model64.params[name]
            k = min(4, p.size)
            idx = check_rng.choice(p.size, size=k, replace=False)
            flat = p.ravel()
            fd = np.zeros(k)
            for j, i in enumerate(idx):
                orig = flat[i]
                flat[i] = orig + step
                hi, _ = bce_with_logits(model64.predict(x64), labels)
                flat[i] = orig - step
                lo, _ = bce_with_logits(model64.predict(x64), labels)
                flat[i] = orig
                fd[j] = (hi - lo) / (2 * step)
            analytic = grads32[name].ravel()[idx].astype(np.float64)
            scale = max(np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-2, name


class TestLoss:
    def test_bce_matches_reference_values(self):
        logits = np.array([0.0, 10.0, -10.0])
        labels = np.array([1.0, 1.0, 0.0])
        loss, _ = bce_with_logits(logits, labels)
        expected = np.mean([np.log(2.0), np.log1p(np.exp(-10.0)), np.log1p(np.exp(-10.0))])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_bce_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal(5)
        labels = (rng.random(5) > 0.5).astype(float)
        _, grad = bce_with_logits(logits, labels)
        step = 1e-6
        for i in range(5):
            z = logits.copy()
            z[i] += step
            hi, _ = bce_with_logits(z, labels)
            z[i] -= 2 * step
            lo, _ = bce_with_logits(z, labels)
            assert grad[i] == pytest.approx((hi - lo) / (2 * step), abs=1e-8)
