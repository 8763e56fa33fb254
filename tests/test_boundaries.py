"""Property: malformed input at any boundary raises an FsfError and nothing else.

Mutated bytes go to the netpbm reader, the manifest reader and the
checkpoint loader (with the checksum recomputed, so the parser behind it is
reached); arbitrary JSON values go into every section of an experiment
config. Warnings count as escapes too.
"""

import json
import struct
import warnings
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsf.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from fsf.cli import load_config
from fsf.errors import FsfError
from fsf.fileio import Manifest, ManifestEntry, read_image, read_manifest, write_manifest, write_pgm
from fsf.model import FractalCNN, ModelConfig
from fsf.simulate import CorpusSpec, PipelineConfig
from fsf.training import TrainConfig

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def only_fsf_errors(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except FsfError:
            pass


def seed_image(path):
    write_pgm(path, np.linspace(0.0, 1.0, 12).reshape(3, 4))


def seed_manifest(path):
    entries = [ManifestEntry("images/r0.pgm", "real", "real", 1),
               ManifestEntry("images/g0.pgm", "generated", "zero", 2)]
    write_manifest(path, Manifest(entries))


def seed_checkpoint(path):
    cfg = ModelConfig(channels=1, n_units=1, input_size=4, residual_kernel=3, head_hidden=1)
    save_checkpoint(path, ModelCheckpoint(cfg, FractalCNN(cfg).copy_params(), {"epoch": 1}))


def resign(blob):
    body = blob[:-4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


BYTE_BOUNDARIES = {
    "image": (seed_image, read_image, bytes),
    "manifest": (seed_manifest, read_manifest, bytes),
    "checkpoint": (seed_checkpoint, load_checkpoint, resign),
}

# (position, bytes removed, bytes inserted); positions wrap around the file.
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 4), st.binary(max_size=4)),
                 min_size=1, max_size=4)


@pytest.mark.parametrize("boundary", sorted(BYTE_BOUNDARIES))
@FUZZ
@given(edits=EDITS)
def test_mutated_bytes_raise_only_fsf_errors(tmp_path, boundary, edits):
    make_seed, reader, finish = BYTE_BOUNDARIES[boundary]
    path = tmp_path / boundary
    make_seed(path)
    blob = path.read_bytes()
    for pos, cut, insert in edits:
        pos %= len(blob) + 1
        blob = blob[:pos] + insert + blob[pos + cut:]
    path.write_bytes(finish(blob) if len(blob) > 4 else blob)
    only_fsf_errors(reader, path)


BASE_CONFIG = {
    "seed": 21,
    "out_dir": "run",
    "corpus": {
        "size": 32,
        "pipelines": [{"kind": "zero_insert", "depth": 2, "base_size": 8, "seed": 31}],
        "n_train_real": 4,
        "n_train_fake": 4,
        "spectral_exponent": [0.5, 1.5],
    },
    "model": {"channels": 4, "n_units": 1, "input_size": 32},
    "train": {"seed": 7, "augment": True},
    "distortions": ["none", "jpeg95", "down0.5", "blur1"],
    "ablate_n": [0, 1],
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["jpeg", "blur", "down"]).flatmap(lambda p: st.text(max_size=4).map(p.__add__)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# Every top-level key and every field of each nested section's dataclass.
SLOTS = [(key,) for key in BASE_CONFIG] + [("corpus", "dir")] + [
    path + (f.name,)
    for path, cls in [(("corpus",), CorpusSpec), (("corpus", "pipelines", 0), PipelineConfig),
                      (("model",), ModelConfig), (("train",), TrainConfig)]
    for f in fields(cls)
]


@FUZZ
@given(slot=st.sampled_from(SLOTS), value=JSON)
def test_config_sections_raise_only_fsf_errors(tmp_path, slot, value):
    config = json.loads(json.dumps(BASE_CONFIG))
    target = config
    for key in slot[:-1]:
        target = target[key]
    target[slot[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    only_fsf_errors(load_config, path)
