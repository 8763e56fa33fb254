import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

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
    """Without a cache the trunk runs one image at a time (``FractalCNN.forward``)."""

    @pytest.mark.parametrize("size, batch", [(64, 32), (224, 2)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predict_and_features_equal_the_cached_batched_pass(self, size, batch, dtype):
        model = FractalCNN(ModelConfig(channels=32, n_units=2, input_size=size, dtype=dtype), seed=1)
        x = np.random.default_rng(41).standard_normal((batch, size, size, 1))
        logits, cache = model.forward(x)
        feats = cache["features"]
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
        assert sum(b.nbytes for b in bases.values()) <= 40e6

    def test_backward_consumes_the_cache(self):
        cfg = ModelConfig(channels=4, n_units=2, input_size=16, head_hidden=8)
        x = np.random.default_rng(32).standard_normal((2, 16, 16, 1))
        logits, cache = FractalCNN(cfg).forward(x)
        feats = cache["features"]
        FractalCNN(cfg).backward(cache, np.ones_like(logits))
        assert list(cache) == ["features"] and cache["features"] is feats

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
        margin = 3 * feature_map  # one layer's gradients and backward temporaries
        # 283 + 50 + 50 MB; two overlapping caches (283 MB each) would break it
        assert peak <= max(cache_bytes) + row_block + margin, (peak, cache_bytes)

    def test_fq1_input_is_a_view_of_the_spectrum_output(self):
        cfg = ModelConfig(channels=4, n_units=1, input_size=16, head_hidden=8)
        x = np.random.default_rng(31).standard_normal((2, 16, 16, 1))
        _, cache = FractalCNN(cfg).forward(x)
        fq1_input, shat = cache["fq1"][0], cache["spectrum"][2]
        assert fq1_input.shape == (2, 16, 16, 4)
        assert np.shares_memory(fq1_input, shat)


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
