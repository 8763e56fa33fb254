import json
import struct
import zlib

import numpy as np
import pytest

from fsf.checkpoint import VERSION, ModelCheckpoint, load_checkpoint, save_checkpoint
from fsf.errors import FormatError
from fsf.model import FractalCNN, ModelConfig


def small_checkpoint(dtype="float32"):
    cfg = ModelConfig(channels=4, n_units=1, input_size=16, head_hidden=8, dtype=dtype)
    model = FractalCNN(cfg, seed=3)
    return ModelCheckpoint(
        config=cfg,
        params=model.copy_params(),
        metadata={"epoch": 5, "seed": 3, "val_loss": 0.125},
    )


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = small_checkpoint()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parameters_round_trip_bit_exactly(self, tmp_path, dtype):
        ckpt = small_checkpoint(dtype)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.config == ckpt.config
        assert back.metadata == ckpt.metadata
        for name, value in ckpt.params.items():
            assert back.params[name].dtype == np.dtype(dtype)
            assert np.array_equal(back.params[name], value)

    def test_logits_identical_after_reload(self, tmp_path):
        ckpt = small_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 16, 1)).astype(np.float32)
        before = ckpt.build_model().predict(x)
        after = load_checkpoint(path).build_model().predict(x)
        assert np.array_equal(before, after)


class TestCorruption:
    def test_flipped_byte_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[0:8] = b"NOTMAGIC"
        # keep the checksum consistent so the magic check itself fires
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError):
            load_checkpoint(path)


def resign(path, body):
    """Write ``body`` with a valid trailing CRC, so only the parser can object."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def split_checkpoint(path):
    """(header dict, parameter-block bytes) of a saved checkpoint."""
    body = path.read_bytes()[:-4]
    (header_len,) = struct.unpack_from("<I", body, 12)
    return json.loads(body[16:16 + header_len]), body[16 + header_len:]


def join_checkpoint(header, blocks, version=VERSION):
    header_bytes = json.dumps(header).encode("utf-8")
    return b"FSFCKPT1" + struct.pack("<II", version, len(header_bytes)) + header_bytes + blocks


class TestMalformedContent:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("config"),
            lambda h: h.pop("metadata"),
            lambda h: h.update(extra=1),
            lambda h: h["config"].update(dropout=0.5),
            lambda h: h["config"].update(channels="a"),
            lambda h: h.update(metadata=[1]),
            # the residual window must be an odd int in 1..input_size; true would be window 1
            *[lambda h, k=k: h["config"].update(residual_kernel=k)
              for k in ("x", 2.5, None, 4, -3, True, 17)],
        ],
        ids=["no_config", "no_metadata", "extra_key", "unknown_config_key",
             "config_type", "metadata_not_object", "kernel_str", "kernel_float",
             "kernel_null", "kernel_even", "kernel_negative", "kernel_bool",
             "kernel_above_input_size"],
    )
    def test_bad_header_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        header, blocks = split_checkpoint(path)
        edit(header)
        resign(path, join_checkpoint(header, blocks))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_probe_passes_unedited(self, tmp_path):
        # the probes above fail for their edit, not for the rewrite
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        resign(path, join_checkpoint(*split_checkpoint(path)))
        assert load_checkpoint(path).config == small_checkpoint().config

    def test_version_1_rejected(self, tmp_path):
        # version 1 kept the residual window in the metadata
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        resign(path, join_checkpoint(*split_checkpoint(path), version=1))
        with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    # small_checkpoint's config: channels 4, n_units 1, head_hidden 8
    @pytest.mark.parametrize(
        "field, value, first",
        [
            ("n_units", 2, r"'head1_w' has shape \(8, 8\), but the config wants shape \(12, 8\)"),
            ("n_units", 0, r"'head1_w' has shape \(8, 8\), but the config wants shape \(4, 8\)"),
            ("head_hidden", 9, r"'head1_b' has shape \(8,\), but the config wants shape \(9,\)"),
            ("channels", 5, r"'fq1_beta' has shape \(4,\), but the config wants shape \(5,\)"),
        ],
    )
    def test_parameters_not_of_the_config_rejected(self, tmp_path, field, value, first):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        header, blocks = split_checkpoint(path)
        header["config"][field] = value
        resign(path, join_checkpoint(header, blocks))
        with pytest.raises(FormatError, match=f"m.ckpt: parameter {first}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, message", [
        ("head2_b", "'head2_b' is missing, but the config wants shape (1,)"),
        (None, "'zz_extra' has shape (2,), but the config has no such parameter"),
    ])
    def test_missing_or_extra_parameter_rejected(self, tmp_path, drop, message):
        ckpt = small_checkpoint()
        if drop is None:
            ckpt.params["zz_extra"] = np.zeros(2, dtype=np.float32)
        else:
            del ckpt.params[drop]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: parameter {message}"

    # The blocks start: u32 count, then u16 name length, name, u8 ndim, u32 dims.
    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b[:-3],
            lambda b: b + bytes(8),
            lambda b: struct.pack("<I", struct.unpack_from("<I", b)[0] + 1) + b[4:],
            lambda b: b[:7 + b[4]] + struct.pack("<I", 10 ** 6) + b[11 + b[4]:],
            lambda b: b[:6] + b"\xff" + b[7:],
            lambda b: b[:-8] + struct.pack("<d", np.nan),
            lambda b: b[:-8] + struct.pack("<d", 1e300),
        ],
        ids=["truncated", "trailing", "extra_count", "overlong_dim", "undecodable_name",
             "nan_value", "beyond_float32"],
    )
    def test_bad_parameter_block_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        header, blocks = split_checkpoint(path)
        resign(path, join_checkpoint(header, edit(blocks)))
        with pytest.raises(FormatError):
            load_checkpoint(path)
