import weakref

import numpy as np
import pytest

from fsf.errors import DataError, NumericError, ParameterError
from fsf.fileio import Manifest, ManifestEntry
from fsf.forensics import DistortionConfig
from fsf.model import FractalCNN, ModelConfig
from fsf.simulate import CorpusSpec, PipelineConfig, build_corpus
from fsf.training import TrainConfig, accuracy_table, auc_score, evaluate, train


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """32x32 zero-insertion corpus: easily separable, quick to train on."""
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(
        size=32,
        seed=5,
        pipelines=[
            PipelineConfig("zero_insert", 2, 3, 8, name="zero"),
            PipelineConfig("nearest", 2, 4, 8, name="near"),
        ],
        n_train_real=24,
        n_train_fake=24,
        n_test_real=12,
        n_test_fake=6,
        holdout=("near",),
    )
    return build_corpus(spec, root)


def tiny_model_cfg(n_units=1):
    return ModelConfig(channels=8, n_units=n_units, input_size=32, head_hidden=16)


def tiny_train_cfg(**kw):
    defaults = dict(batch_size=16, max_epochs=6, seed=11, val_fraction=0.125)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrain:
    def test_learns_separable_corpus(self, tiny_corpus):
        ckpt, history = train(tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg())
        assert history[-1].train_acc >= 0.9 or max(h.train_acc for h in history) >= 0.9
        assert ckpt.metadata["epoch"] >= 1
        result = evaluate(ckpt, tiny_corpus["test"])
        assert result.per_pipeline["zero"] >= 0.9

    def test_two_runs_produce_identical_history(self, tiny_corpus):
        _, h1 = train(tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg())
        _, h2 = train(tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg())
        assert [s.__dict__ for s in h1] == [s.__dict__ for s in h2]

    def test_checkpoint_holds_best_epoch_weights(self, tiny_corpus):
        ckpt, history = train(tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg())
        best = min(history, key=lambda s: s.val_loss)
        assert ckpt.metadata["epoch"] == best.epoch
        assert ckpt.metadata["val_loss"] == pytest.approx(best.val_loss)

    def test_patience_halts_exactly_two_epochs_after_last_improvement(self, tiny_corpus):
        ckpt, history = train(
            tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg(max_epochs=50, patience=2)
        )
        if len(history) < 50:  # early stopping fired
            losses = [s.val_loss for s in history]
            best_epoch = int(np.argmin(losses)) + 1
            assert len(history) == best_epoch + 2
            assert ckpt.metadata["epochs_run"] == len(history)

    def test_single_class_manifest_rejected(self, tmp_path):
        from fsf.fileio import write_pgm

        entries = []
        for i in range(4):
            name = f"r{i}.pgm"
            write_pgm(tmp_path / name, np.random.default_rng(i).random((32, 32)))
            entries.append(ManifestEntry(name, "real", "real", i))
        manifest = Manifest(entries, root=str(tmp_path))
        with pytest.raises(DataError):
            train(manifest, tiny_model_cfg(), tiny_train_cfg())

    def test_each_step_cache_is_dropped_before_the_next_forward(self, tiny_corpus, monkeypatch):
        forward = FractalCNN.forward
        steps = []  # weak references to each training step's cached head features

        def tracked(self, x):
            assert all(ref() is None for ref in steps), "an earlier step's cache is alive"
            logits, cache = forward(self, x)
            steps.append(weakref.ref(cache["head"][0]))
            return logits, cache

        monkeypatch.setattr(FractalCNN, "forward", tracked)
        train(tiny_corpus["train"], tiny_model_cfg(), tiny_train_cfg(max_epochs=2))
        assert len(steps) == 6  # 42 training images in batches of 16, two epochs

    def test_augment_crop_mismatch_rejected(self, tiny_corpus):
        from fsf.forensics import AugmentPolicy

        cfg = tiny_train_cfg(augment=AugmentPolicy(crop=64))
        with pytest.raises(ParameterError):
            train(tiny_corpus["train"], tiny_model_cfg(), cfg)

    def test_config_and_labels_are_checked_before_any_image_is_read(self, tmp_path):
        from fsf.forensics import AugmentPolicy

        # no image file exists, so reading any of them would raise FileNotFoundError
        both = Manifest([ManifestEntry("r.pgm", "real", "real", 0),
                         ManifestEntry("g.pgm", "generated", "zero", 1)], root=str(tmp_path))
        with pytest.raises(ParameterError):
            train(both, tiny_model_cfg(), tiny_train_cfg(augment=AugmentPolicy(crop=64)))
        one_class = Manifest([ManifestEntry(f"r{i}.pgm", "real", "real", i) for i in range(4)],
                             root=str(tmp_path))
        with pytest.raises(DataError):
            train(one_class, tiny_model_cfg(), tiny_train_cfg())

    def test_default_augment_crop_fits_default_model(self, tmp_path):
        from fsf.forensics import AugmentPolicy

        assert AugmentPolicy().crop == ModelConfig().input_size
        # past the crop check, train reads its first image, and none exists
        both = Manifest([ManifestEntry("r.pgm", "real", "real", 0),
                         ManifestEntry("g.pgm", "generated", "zero", 1)], root=str(tmp_path))
        with pytest.raises(FileNotFoundError):
            train(both, ModelConfig(), TrainConfig(augment=AugmentPolicy()))


class TestEvaluate:
    def test_random_weight_model_near_chance_on_balanced_corpus(self, tiny_corpus):
        from fsf.checkpoint import ModelCheckpoint
        from fsf.model import FractalCNN

        cfg = tiny_model_cfg()
        model = FractalCNN(cfg, seed=0)
        ckpt = ModelCheckpoint(cfg, model.copy_params(), {})
        result = evaluate(ckpt, tiny_corpus["train"])
        assert 0.4 <= result.overall <= 0.6

    def test_order_invariance(self, tiny_corpus):
        from fsf.checkpoint import ModelCheckpoint
        from fsf.model import FractalCNN

        cfg = tiny_model_cfg()
        ckpt = ModelCheckpoint(cfg, FractalCNN(cfg, seed=1).copy_params(), {})
        test = tiny_corpus["test"]
        shuffled = Manifest(list(reversed(test.entries)), root=test.root)
        a = evaluate(ckpt, test)
        b = evaluate(ckpt, shuffled)
        assert a.per_pipeline == b.per_pipeline
        assert a.overall == b.overall

    def test_distortion_is_applied(self, tiny_corpus):
        from fsf.checkpoint import ModelCheckpoint
        from fsf.model import FractalCNN

        cfg = tiny_model_cfg()
        ckpt = ModelCheckpoint(cfg, FractalCNN(cfg, seed=2).copy_params(), {})
        clean = evaluate(ckpt, tiny_corpus["test"])
        blurred = evaluate(ckpt, tiny_corpus["test"], DistortionConfig("gaussian_blur", blur_sigma=1.0))
        assert blurred.distortion == "blur1"
        assert blurred.n_images == clean.n_images

    def test_prepares_at_most_one_batch_before_each_predict(self, tiny_corpus, monkeypatch):
        import fsf.training
        from fsf.checkpoint import ModelCheckpoint
        from fsf.model import FractalCNN

        # The recording list lives in this process: forked workers' appends never reach it.
        monkeypatch.setenv("FSF_THREADS", "1")
        cfg = tiny_model_cfg()
        ckpt = ModelCheckpoint(cfg, FractalCNN(cfg).copy_params(), {})
        events, prepare = [], fsf.training.detector_input
        monkeypatch.setattr(
            fsf.training, "detector_input", lambda *a: events.append("prep") or prepare(*a)
        )
        monkeypatch.setattr(
            FractalCNN, "predict", lambda self, x: events.append(len(x)) or np.zeros(len(x))
        )
        evaluate(ckpt, tiny_corpus["test"], batch_size=5)
        n = len(tiny_corpus["test"])
        sizes = [e for e in events if e != "prep"]
        assert sizes == [5] * (n // 5) + [n % 5] * (n % 5 > 0)  # today's batch boundaries
        prepared = 0
        for event in events:
            if event == "prep":
                prepared += 1
                assert prepared <= 5
            else:
                assert prepared == event
                prepared = 0

    def test_empty_manifest_rejected(self, tiny_corpus):
        from fsf.checkpoint import ModelCheckpoint
        from fsf.model import FractalCNN

        cfg = tiny_model_cfg()
        ckpt = ModelCheckpoint(cfg, FractalCNN(cfg).copy_params(), {})
        with pytest.raises(DataError):
            evaluate(ckpt, Manifest([], root="."))


class TestResidualWindow:
    def test_checkpoint_window_sets_evaluate_and_features_inputs(self, tiny_corpus, tmp_path, monkeypatch):
        from dataclasses import replace

        from fsf.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
        from fsf.figures import features_export
        from fsf.fileio import read_image
        from fsf.model import FractalCNN
        from fsf.training import detector_input

        # The recording list below lives in this process: forked workers' appends never reach it.
        monkeypatch.setenv("FSF_THREADS", "1")
        cfg = replace(tiny_model_cfg(), residual_kernel=3)
        path = tmp_path / "w3.ckpt"
        save_checkpoint(path, ModelCheckpoint(cfg, FractalCNN(cfg).copy_params(), {}))
        ckpt = load_checkpoint(path)
        assert ckpt.config.residual_kernel == 3

        fed = []
        monkeypatch.setattr(FractalCNN, "predict", lambda self, x: fed.append(x) or np.zeros(len(x)))
        monkeypatch.setattr(
            FractalCNN, "features", lambda self, x: fed.append(x) or np.zeros((len(x), cfg.feature_width))
        )
        test = tiny_corpus["test"]
        evaluate(ckpt, test)
        fed_eval = np.concatenate(fed)[..., 0]
        fed.clear()
        features_export(test, tmp_path / "features.csv", checkpoint=ckpt)
        fed_features = np.concatenate(fed)[..., 0]

        entries = sorted(test.entries, key=lambda e: e.path)  # evaluate's order
        images = [read_image(test.resolve(e)) for e in entries]
        none = (DistortionConfig("none"),)
        assert np.array_equal(fed_eval, np.stack([detector_input(im, cfg, none) for im in images]))
        by_path = dict(zip((e.path for e in entries), images))
        window3 = np.stack([detector_input(by_path[e.path], cfg) for e in test.entries])
        assert np.array_equal(fed_features, window3)
        window7 = replace(cfg, residual_kernel=7)
        assert not np.array_equal(
            fed_features, np.stack([detector_input(by_path[e.path], window7) for e in test.entries])
        )


class TestAblationTable:
    def test_grid_shape(self):
        from fsf.training import EvalResult

        columns = [
            ("N=0*", EvalResult("none", {"zero": 0.7, "near": 0.6}, 0.65, 40)),
            ("N=2", EvalResult("none", {"zero": 0.9, "near": 0.8}, 0.85, 40)),
        ]
        header, rows = accuracy_table(columns)
        assert header == ["pipeline", "N=0*", "N=2"]
        assert rows == [
            ["near", "0.6000", "0.8000"],
            ["zero", "0.7000", "0.9000"],
            ["overall", "0.6500", "0.8500"],
        ]


class TestAuc:
    def test_perfect_separation(self):
        assert auc_score([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_chance(self):
        assert auc_score([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.5)

    def test_ties_count_half(self):
        assert auc_score([1.0], [1.0]) == pytest.approx(0.5)

    def test_known_value(self):
        # 3 of 4 pairs ordered correctly, one tie -> (2 + 0.5) / 4... check by hand:
        # pos=[1,3], neg=[1,2]: pairs (1,1)=0.5 (1,2)=0 (3,1)=1 (3,2)=1 -> 2.5/4
        assert auc_score([1.0, 3.0], [1.0, 2.0]) == pytest.approx(0.625)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            auc_score([], [1.0])

    def test_ties_match_brute_force_pair_count(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pos = rng.integers(0, 6, size=rng.integers(1, 12)).astype(np.float64)
            neg = rng.integers(0, 6, size=rng.integers(1, 12)).astype(np.float64)
            wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
            assert auc_score(pos, neg) == wins / (pos.size * neg.size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NumericError):
            auc_score([bad], [0.0])
        with pytest.raises(NumericError):
            auc_score([1.0, 2.0], [0.0, bad])
