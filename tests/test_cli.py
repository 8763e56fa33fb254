import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsf
from fsf.cli import load_config, main, parse_distortion
from fsf.errors import ConfigError
from fsf.figures import formation_grid
from fsf.forensics import DistortionConfig


def experiment_config(tmp_path, **overrides):
    cfg = {
        "seed": 21,
        "out_dir": str(tmp_path / "run"),
        "corpus": {
            "dir": str(tmp_path / "corpus"),
            "size": 32,
            "pipelines": [
                {"kind": "zero_insert", "depth": 2, "base_size": 8, "seed": 31, "name": "zero"},
                {"kind": "nearest", "depth": 2, "base_size": 8, "seed": 32, "name": "near"},
            ],
            "holdout": ["near"],
            "n_train_real": 12,
            "n_train_fake": 12,
            "n_test_real": 8,
            "n_test_fake": 4,
        },
        "model": {"channels": 4, "n_units": 1, "input_size": 32, "head_hidden": 8},
        "train": {"seed": 7, "batch_size": 8, "max_epochs": 2},
        "distortions": ["none", "jpeg95"],
        "ablate_n": [0, 1],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


# Fields of run_meta.json that measure the run rather than describe it.
MEASURED = ("wall_s", "peak_rss_mb", "children_peak_rss_mb")


def tree_hash(root):
    """Hash of every file under root; run_meta.json enters without MEASURED."""
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            with open(os.path.join(dirpath, name), "rb") as fh:
                data = fh.read()
            if name == "run_meta.json":
                meta = json.loads(data)
                data = json.dumps({k: v for k, v in meta.items() if k not in MEASURED}).encode()
            digest.update(name.encode())
            digest.update(data)
    return digest.hexdigest()


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path, _ = experiment_config(tmp_path, extra_section={"a": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path, cfg = experiment_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["model"]["dropout"] = 0.5
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_pipeline_seed_rejected(self, tmp_path):
        path, _ = experiment_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["corpus"]["pipelines"][0]["seed"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_seed_override(self, tmp_path):
        path, _ = experiment_config(tmp_path)
        cfg = load_config(path, seed_override=999)
        assert cfg.seed == 999
        assert cfg.corpus.seed == 999

    def test_distortion_labels(self):
        for d in (DistortionConfig("none"), DistortionConfig("jpeg", jpeg_quality=1),
                  DistortionConfig("jpeg", jpeg_quality=100), DistortionConfig("downsample"),
                  DistortionConfig("gaussian_blur", blur_sigma=0.0),
                  DistortionConfig("gaussian_blur", blur_sigma=1.5)):
            assert parse_distortion(d.label) == d
        with pytest.raises(ConfigError):
            parse_distortion("rotate90")


# Each config that once escaped as a raw exception or was accepted and then
# failed partway through a run.
PROBES = {
    "model_not_object": lambda c: c.update(model=[1]),
    "ablate_n_not_int": lambda c: c.update(ablate_n=["x"]),
    "seed_not_int": lambda c: c.update(seed="abc"),
    "distortion_jpegX": lambda c: c.update(distortions=["jpegX"]),
    "pipelines_not_list": lambda c: c["corpus"].update(pipelines=5),
    "channels_not_int": lambda c: c["model"].update(channels="a"),
    "lr_not_number": lambda c: c["train"].update(lr="x"),
    "augment_not_bool": lambda c: c["train"].update(augment=[1]),
    "distortion_jpeg0": lambda c: c.update(distortions=["jpeg0"]),
    "distortion_blur-1": lambda c: c.update(distortions=["blur-1"]),
    "distortion_down0.7": lambda c: c.update(distortions=["down0.7"]),
    "seed_negative": lambda c: c.update(seed=-1),
    "train_seed_negative": lambda c: c["train"].update(seed=-1),
    "pipeline_seed_negative": lambda c: c["corpus"]["pipelines"][0].update(seed=-1),
    "channels_zero": lambda c: c["model"].update(channels=0),
    "head_hidden_zero": lambda c: c["model"].update(head_hidden=0),
    "in_channels_unknown": lambda c: c["model"].update(in_channels=1),
    "lr_negative": lambda c: c["train"].update(lr=-1),
    "residual_kernel_even": lambda c: c["model"].update(residual_kernel=4),
    "residual_kernel_above_input_size": lambda c: c["model"].update(residual_kernel=33),
    "residual_kernel_huge": lambda c: c["model"].update(residual_kernel=1000001),
    "input_size_zero": lambda c: c["model"].update(input_size=0),
    "size_zero": lambda c: c["corpus"].update(size=0, pipelines=[], holdout=[], n_train_fake=0),
    "size_negative": lambda c: c["corpus"].update(size=-4, pipelines=[], holdout=[], n_train_fake=0),
    "n_train_real_negative": lambda c: c["corpus"].update(n_train_real=-3),
    "sensor_noise_negative": lambda c: c["corpus"].update(sensor_noise=-0.5),
    "sensor_noise_nan": lambda c: c["corpus"].update(sensor_noise=float("nan")),
    "spectral_exponent_reversed": lambda c: c["corpus"].update(spectral_exponent=[1.3, 0.75]),
    "spectral_exponent_infinite": lambda c: c["corpus"].update(spectral_exponent=float("inf")),
    # an empty or repeated experiment list gives a table without a column or with one lost
    "ablate_n_empty": lambda c: c.update(ablate_n=[]),
    "ablate_n_repeated": lambda c: c.update(ablate_n=[1, 1]),
    "distortions_empty": lambda c: c.update(distortions=[]),
    "distortions_repeated": lambda c: c.update(distortions=["none", "blur1", "blur1.0"]),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_config_rejected(tmp_path, capsys, probe):
    path, cfg = experiment_config(tmp_path)
    PROBES[probe](cfg)
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_import_needs_only_the_standard_library_and_numpy():
    # modules present at startup (site hooks such as _distutils_hack) are left out
    script = ("import sys; before = set(sys.modules); import fsf, fsf.cli; "
              "fsf.cli.build_parser(); print(*sorted(set(sys.modules) - before))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{inherited}" if inherited else src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    added = done.stdout.split()
    assert "fsf.cli" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "fsf"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []


@pytest.mark.parametrize(
    "section, key", [("model", "in_channels"), ("model", "leaky_slope"), ("model", "norm_eps"),
                     ("model", "mag_eps"), ("train", "residual_kernel"), ("train", "beta1"),
                     ("train", "beta2"), ("train", "adam_eps")],
)
def test_removed_fields_are_unknown_keys(tmp_path, capsys, section, key):
    path, cfg = experiment_config(tmp_path)
    cfg[section][key] = 7
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 2
    assert f"unknown key(s) ['{key}'] in {section}" in capsys.readouterr().err


class TestSimulateCommand:
    def test_builds_balanced_corpus(self, tmp_path, capsys):
        path, cfg = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "train: 24 images" in out
        corpus_dir = tmp_path / "corpus"
        assert (corpus_dir / "manifest_train.csv").exists()
        assert (corpus_dir / "run_meta.json").exists()

    def test_run_meta_records_wall_time_memory_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FSF_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "corpus" / "run_meta.json").read_text())
        assert meta["command"] == "simulate"
        assert 0.0 <= meta["wall_s"] < 600.0
        assert meta["peak_rss_mb"] > 10.0  # numpy alone is larger
        if os.path.exists("/proc/self/smaps_rollup"):
            # a worker's private memory: the caller's pages it maps copy-on-write do not count
            assert 0.0 < meta["children_peak_rss_mb"] < meta["peak_rss_mb"]
        else:
            assert meta["children_peak_rss_mb"] is None
        assert meta["threads"] == {"FSF_THREADS": "2", "OPENBLAS_NUM_THREADS": None}
        # a property of the C library (tests/test_heap.py), not a measurement of the run
        assert meta["heap_policy"] is fsf.heap_policy

    def test_same_config_twice_gives_identical_tree(self, tmp_path):
        path, _ = experiment_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "c1")])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "c2")])
        assert tree_hash(tmp_path / "c1") == tree_hash(tmp_path / "c2")

    def test_holdout_excluded_from_train_manifest(self, tmp_path):
        from fsf.fileio import read_manifest

        path, _ = experiment_config(tmp_path)
        main(["simulate", "--config", str(path)])
        train = read_manifest(tmp_path / "corpus" / "manifest_train.csv")
        assert {e.pipeline for e in train.entries if e.label == "generated"} == {"zero"}
        test = read_manifest(tmp_path / "corpus" / "manifest_test.csv")
        assert {e.pipeline for e in test.entries if e.label == "generated"} == {"zero", "near"}


class TestDemoFractal:
    def test_emits_grid_with_replication(self, tmp_path, capsys):
        out = tmp_path / "grid"
        assert main(["demo-fractal", "--out", str(out), "--seed", "3"]) == 0
        files = sorted(p.name for p in out.glob("*.pgm"))
        assert len(files) == 12  # 3 kinds x (origin + 3 stages)
        rows = capsys.readouterr().out.strip().splitlines()
        zero_rows = [r.split(",") for r in rows if r.startswith("zero_insert") and not r.endswith(",")]
        for row in zero_rows:
            if row[2] != "0":
                assert float(row[3]) >= 0.9

    def test_origin_column_identical_across_rows(self, tmp_path):
        out = tmp_path / "grid"
        main(["demo-fractal", "--out", str(out), "--seed", "3"])
        origins = [
            (out / f"{kind}_stage0.pgm").read_bytes()
            for kind in ("zero_insert", "nearest", "tconv_conv")
        ]
        assert origins[0] == origins[1] == origins[2]

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["demo-fractal", "--out", str(a), "--seed", "5"])
        main(["demo-fractal", "--out", str(b), "--seed", "5"])
        assert tree_hash(a) == tree_hash(b)

    def test_seed_has_its_own_help_and_defaults_to_zero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-fractal", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        assert "config" not in help_text
        assert "--seed SEED seed of the grid's images (default 0)" in help_text
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["demo-fractal", "--out", str(a)]) == 0
        assert json.loads((a / "run_meta.json").read_text())["seed"] == 0
        assert main(["demo-fractal", "--out", str(b), "--seed", "0"]) == 0
        assert tree_hash(a) == tree_hash(b)

    def test_base_size_below_glyph_height(self, tmp_path):
        # the glyph's crossbar row lies below a 3 px spectrum
        out = tmp_path / "grid"
        assert len(formation_grid(out, 0, base_size=3, stages=1)) == 6
        assert (out / "captions.csv").exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"]])
    def test_bad_arguments_return_2(self, tmp_path, capsys, flags):
        assert main(["demo-fractal", "--out", str(tmp_path / "grid")] + flags) == 2
        assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ws")
    path, cfg = experiment_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    return tmp_path, path


class TestPipelineCommands:
    def test_train_writes_checkpoint_and_history(self, workspace):
        tmp_path, _ = workspace
        assert (tmp_path / "run" / "checkpoint.ckpt").exists()
        history = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(history) >= 2

    def test_eval_emits_distortion_grid(self, workspace, capsys):
        tmp_path, path = workspace
        assert main(["eval", "--config", str(path)]) == 0
        grid = (tmp_path / "run" / "eval_grid.csv").read_text().splitlines()
        assert grid[0] == "pipeline,none,jpeg95"
        assert grid[-1].startswith("overall,")
        assert (tmp_path / "run" / "eval_grid.txt").exists()

    def test_features_with_checkpoint(self, workspace, tmp_path):
        ws, path = workspace
        out = tmp_path / "features.csv"
        assert main([
            "features",
            "--manifest", str(ws / "corpus" / "manifest_test.csv"),
            "--out", str(out),
            "--levels", "1",
            "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
        ]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["path", "label", "pipeline"]
        assert "selfsim_l0" in header and "selfsim_l1" in header
        assert "svec_0" in header and "svec_7" in header
        from fsf.fileio import read_manifest

        assert len(lines) - 1 == len(read_manifest(ws / "corpus" / "manifest_test.csv"))

    @pytest.mark.parametrize("command", ["spectrum", "features", "train", "eval", "ablate"])
    def test_only_simulate_and_demo_fractal_take_a_seed(self, workspace, tmp_path, command):
        # the other commands draw nothing from the top-level seed that --seed overrides
        ws, path = workspace
        source = (["--manifest", str(ws / "corpus" / "manifest_test.csv")]
                  if command in ("spectrum", "features") else ["--config", str(path)])
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main([command, *source, "--out", str(tmp_path / "o"), "--seed", "5"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_out_does_not_move_the_default_corpus(self, tmp_path, capsys):
        path, cfg = experiment_config(tmp_path)
        del cfg["corpus"]["dir"]
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "corpus" / "manifest_train.csv").exists()
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "other")]) == 0
        assert (tmp_path / "other" / "checkpoint.ckpt").exists()

    def test_spectrum_command_residual_flag_changes_output(self, workspace, tmp_path):
        ws, path = workspace
        raw_dir = tmp_path / "raw"
        res_dir = tmp_path / "res"
        manifest = str(ws / "corpus" / "manifest_test.csv")
        assert main(["spectrum", "--manifest", manifest, "--out", str(raw_dir)]) == 0
        assert main(["spectrum", "--manifest", manifest, "--out", str(res_dir), "--residual"]) == 0
        raw_files = sorted(p.name for p in raw_dir.glob("*.pgm"))
        res_files = sorted(p.name for p in res_dir.glob("*.pgm"))
        assert raw_files and all(f.startswith("avg_raw_") for f in raw_files)
        assert res_files and all(f.startswith("avg_residual_") for f in res_files)

    def test_ablate_grid(self, workspace, capsys):
        tmp_path, path = workspace
        assert main(["ablate", "--config", str(path)]) == 0
        grid = (tmp_path / "run" / "ablation.csv").read_text().splitlines()
        assert grid[0] == "pipeline,N=0*,N=1"
        assert grid[-1].startswith("overall,")


class TestExitCodes:
    def test_bad_config_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("name", ["real", "a/b", "x,y"])
    def test_unsafe_pipeline_name_returns_2_and_writes_nothing(self, tmp_path, capsys, name):
        path, cfg = experiment_config(tmp_path)
        cfg["corpus"]["pipelines"][0]["name"] = name
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_overflowing_exponent_returns_4_and_writes_no_manifest(self, tmp_path, capsys):
        # frequency ** -400 overflows, so the power-law envelope is infinite and the field NaN
        path, cfg = experiment_config(tmp_path)
        cfg["corpus"]["spectral_exponent"] = 400
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", str(path)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not list((tmp_path / "corpus").glob("manifest_*.csv"))

    def test_missing_manifest_returns_3(self, tmp_path, capsys):
        path, _ = experiment_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 3  # corpus never built

    def test_missing_checkpoint_returns_3(self, tmp_path, capsys):
        path, _ = experiment_config(tmp_path)
        main(["simulate", "--config", str(path)])
        assert main(["eval", "--config", str(path)]) == 3

    @pytest.mark.parametrize("command", ["features", "spectrum"])
    def test_truncated_image_in_worker_share_returns_3(
        self, tmp_path, capsys, monkeypatch, no_child_left, command
    ):
        from fsf.fileio import read_manifest

        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = tmp_path / "corpus" / "manifest_test.csv"
        # Entry 1 is odd, and its group (real) is the second of three: a worker's share
        # of both the feature rows and the report's groups.
        entry = read_manifest(manifest).entries[1]
        assert entry.label == "real"
        image = tmp_path / "corpus" / entry.path
        image.write_bytes(image.read_bytes()[:-5])
        monkeypatch.setenv("FSF_THREADS", "2")
        capsys.readouterr()
        assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
        assert f"{image}: truncated pixel data" in capsys.readouterr().err

    def test_features_image_with_indivisible_sides_returns_3(self, tmp_path, capsys):
        from fsf.fileio import read_manifest, write_pgm

        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = tmp_path / "corpus" / "manifest_test.csv"
        image = tmp_path / "corpus" / read_manifest(manifest).entries[2].path
        write_pgm(image, np.zeros((63, 63)))
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 3
        assert f"{image} is 63x63; 2 levels need sides divisible by 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("residual", [False, True])
    def test_spectrum_of_one_pixel_wide_image_returns_3(self, tmp_path, capsys, residual):
        # a 6x1 graymap: its residual's median windows, then its odd width
        from fsf.fileio import write_pgm

        image = tmp_path / "narrow.pgm"
        write_pgm(image, np.arange(6.0).reshape(6, 1) / 8)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label,pipeline,seed\nnarrow.pgm,real,real,0\n")
        flags = ["--residual"] if residual else []
        capsys.readouterr()
        assert main(["spectrum", "--manifest", str(manifest),
                     "--out", str(tmp_path / "spectra")] + flags) == 3
        err = capsys.readouterr().err
        assert f"{image} is 6x1; the quadrant split needs even sides" in err
        assert "data error" in err

    def test_features_negative_levels_returns_2(self, tmp_path, capsys):
        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = tmp_path / "corpus" / "manifest_test.csv"
        out = tmp_path / "f.csv"
        assert main(["features", "--manifest", str(manifest), "--out", str(out),
                     "--levels", "-1"]) == 2
        assert "levels must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_residual_kernel_in_checkpoint_returns_3(self, workspace, tmp_path, capsys):
        from test_checkpoint import join_checkpoint, resign, split_checkpoint

        ws, path = workspace
        header, blocks = split_checkpoint(ws / "run" / "checkpoint.ckpt")
        header["config"]["residual_kernel"] = 4
        bad = tmp_path / "bad.ckpt"
        resign(bad, join_checkpoint(header, blocks))
        assert main(["eval", "--config", str(path), "--checkpoint", str(bad)]) == 3
        assert "residual_kernel" in capsys.readouterr().err

    def test_parameters_not_of_the_checkpoint_config_return_3(self, workspace, tmp_path, capsys):
        from test_checkpoint import join_checkpoint, resign, split_checkpoint

        ws, path = workspace
        header, blocks = split_checkpoint(ws / "run" / "checkpoint.ckpt")
        header["config"]["n_units"] = 2  # 32 px still divides by 4
        bad = tmp_path / "bad.ckpt"
        resign(bad, join_checkpoint(header, blocks))
        assert main(["eval", "--config", str(path), "--checkpoint", str(bad)]) == 3
        assert f"{bad}: parameter 'head1_w' has shape" in capsys.readouterr().err


def write_p6(path, gray=None):
    """A 32 px P6 file: black, or ``gray`` (8-bit samples) in all three channels."""
    samples = bytes(32 * 32) if gray is None else gray
    path.write_bytes(b"P6\n32 32\n255\n" + np.repeat(np.frombuffer(samples, "u1"), 3).tobytes())


@pytest.fixture
def p6_corpus(tmp_path):
    """A corpus whose first real train and test images are P6 files."""
    path, _ = experiment_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    for split in ("train", "test"):
        write_p6(tmp_path / "corpus" / "images" / f"{split}_real_00000.pgm")
    return tmp_path, path


class TestMultiChannelImages:
    """Every command reads a P6 pixmap as its luma graymap."""

    def test_train_reads_p6(self, p6_corpus):
        tmp_path, path = p6_corpus
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "checkpoint.ckpt").exists()

    def test_eval_reads_p6(self, p6_corpus, workspace):
        tmp_path, path = p6_corpus
        ckpt = workspace[0] / "run" / "checkpoint.ckpt"
        assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        assert (tmp_path / "run" / "eval_grid.csv").exists()

    def test_features_reads_p6_with_and_without_checkpoint(self, p6_corpus, workspace):
        tmp_path, _ = p6_corpus
        manifest = tmp_path / "corpus" / "manifest_test.csv"
        out = tmp_path / "features.csv"
        args = ["features", "--manifest", str(manifest), "--out", str(out)]
        ckpt = workspace[0] / "run" / "checkpoint.ckpt"
        assert main(args + ["--checkpoint", str(ckpt)]) == 0
        assert len(out.read_text().splitlines()) == len(manifest.read_text().splitlines())
        assert main(args) == 0

    def test_features_failing_partway_leaves_no_table(self, tmp_path, workspace):
        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = tmp_path / "corpus" / "manifest_test.csv"
        third = manifest.read_text().splitlines()[3].split(",")[0]
        (tmp_path / "corpus" / third).write_bytes(b"P5\n32 32\n255\n" + bytes(10))
        out = tmp_path / "features.csv"
        ckpt = workspace[0] / "run" / "checkpoint.ckpt"
        assert main(["features", "--manifest", str(manifest), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 3
        assert not out.exists()

    def test_spectrum_of_group_mixing_p5_and_p6_returns_3(self, p6_corpus, capsys):
        # the P6 file reads at the group's size; the 16 px P5 file does not
        tmp_path, _ = p6_corpus
        small = tmp_path / "corpus" / "images" / "test_real_00001.pgm"
        small.write_bytes(b"P5\n16 16\n255\n" + bytes(16 * 16))
        assert main(["spectrum", "--manifest", str(tmp_path / "corpus" / "manifest_test.csv"),
                     "--out", str(tmp_path / "spectra")]) == 3
        err = capsys.readouterr().err
        assert "test_real_00001.pgm" in err and "data error" in err

    @pytest.mark.parametrize("residual", [False, True])
    def test_spectrum_of_all_p6_group_matches_its_graymaps(self, tmp_path, capsys, residual):
        path, _ = experiment_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = str(tmp_path / "corpus" / "manifest_test.csv")
        flags = ["--residual"] if residual else []
        capsys.readouterr()
        assert main(["spectrum", "--manifest", manifest, "--out", str(tmp_path / "p5")] + flags) == 0
        p5_rows = capsys.readouterr().out
        for image in (tmp_path / "corpus" / "images").glob("test_real_*.pgm"):
            data = image.read_bytes()
            assert data.startswith(b"P5\n32 32\n255\n")
            write_p6(image, data[len(b"P5\n32 32\n255\n"):])
        assert main(["spectrum", "--manifest", manifest, "--out", str(tmp_path / "p6")] + flags) == 0
        tag = "residual" if residual else "raw"
        assert (tmp_path / "p6" / f"avg_{tag}_real.pgm").exists()
        # a gray pixmap's luma is its gray level, so the report is the graymaps'
        assert capsys.readouterr().out == p5_rows
