"""Bit-exact model serialization.

Layout (all integers little-endian):

    magic            8 bytes  b"FSFCKPT1"
    version          u32
    header length    u32, then that many bytes of canonical JSON: an
                     object with exactly "config" (asdict of the
                     ModelConfig, the residual window included) and
                     "metadata" (free-form provenance that loading
                     checks is an object and does not read)
    parameter count  u32
    per parameter    u16 name length, name bytes, u8 ndim, u32 dims...,
                     float64 little-endian data (parameters are sorted
                     by name)
    checksum         u32 CRC32 of everything above

Version 1 files kept the residual window in the metadata; they are refused
rather than loaded with a guessed window.  A file whose parameter names or
shapes are not those its config builds is refused too.

Parameters are stored as float64 regardless of the training dtype; the
config records the dtype and loading casts back, so a save/load round trip
reproduces the in-memory model exactly.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FormatError, build, check_type
from .model import FractalCNN, ModelConfig

MAGIC = b"FSFCKPT1"
VERSION = 2


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    params: dict
    metadata: dict = field(default_factory=dict)

    def build_model(self) -> FractalCNN:
        model = FractalCNN(self.config)
        model.load_params({k: np.asarray(v) for k, v in self.params.items()})
        return model


def save_checkpoint(path, checkpoint: ModelCheckpoint) -> None:
    header = {
        "config": asdict(checkpoint.config),
        "metadata": checkpoint.metadata,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    names = sorted(checkpoint.params)
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    chunks.append(struct.pack("<I", len(header_bytes)))
    chunks.append(header_bytes)
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        data = np.ascontiguousarray(checkpoint.params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12:
        raise FormatError(f"{path}: file too short to be a checkpoint")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise FormatError(f"{path}: checksum mismatch; file is corrupt")
    if body[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic {body[:8]!r}")
    pos = 8
    (version,) = struct.unpack_from("<I", body, pos)
    pos += 4
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    try:
        header = json.loads(body[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    pos += header_len
    if not isinstance(header, dict) or set(header) != {"config", "metadata"}:
        raise FormatError(f"{path}: header must be an object with exactly config and metadata")
    config = build(ModelConfig, header["config"], f"{path}: config", FormatError)
    metadata = check_type(header["metadata"], dict, f"{path}: metadata", FormatError)
    params = {}
    try:
        (n_params,) = struct.unpack_from("<I", body, pos)
        pos += 4
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<H", body, pos)
            pos += 2
            name = body[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", body, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", body, pos)
            pos += 4 * ndim
            count = math.prod(shape)
            if name in params or pos + 8 * count > len(body):
                raise FormatError(f"{path}: duplicate or overlong parameter block {name!r:.60}")
            data = np.frombuffer(body, dtype="<f8", count=count, offset=pos).reshape(shape)
            pos += 8 * count
            # NaN fails the comparison; values beyond the dtype's range would cast to inf.
            if not np.all(np.abs(data) <= np.finfo(config.np_dtype).max):
                raise FormatError(f"{path}: parameter {name!r} has non-finite values")
            params[name] = data.astype(config.np_dtype)
    except (struct.error, ValueError) as exc:  # undecodable names, ndim beyond numpy's limit
        raise FormatError(f"{path}: truncated or undecodable parameter block: {exc}") from exc
    if pos != len(body):
        raise FormatError(f"{path}: trailing bytes after parameter blocks")
    expected = config.param_shapes()
    for name in sorted(expected.keys() | params.keys()):
        got, want = params.get(name), expected.get(name)
        if got is None or want is None or got.shape != want:
            found = "is missing" if got is None else f"has shape {got.shape}"
            needs = "has no such parameter" if want is None else f"wants shape {want}"
            raise FormatError(f"{path}: parameter {name!r:.60} {found}, but the config {needs}")
    return ModelCheckpoint(config=config, params=params, metadata=metadata)
