"""Portable pixmap/graymap I/O, corpus manifests, and result tables.

Images are binary netpbm files.  The toolkit writes P5 graymaps and reads
P5 graymaps and P6 pixmaps, both as (H, W) graymaps: a pixmap becomes its
ITU-R BT.601 luma plane.  Sixteen-bit samples are big-endian per the netpbm
convention.  Manifests are UTF-8 CSV with the header
``path,label,pipeline,seed``; paths are stored relative to the manifest file.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, NumericError

LABELS = ("real", "generated")
LUMA = (0.299, 0.587, 0.114)  # ITU-R BT.601 weights of R, G and B


# ---------------------------------------------------------------------------
# Netpbm images
# ---------------------------------------------------------------------------

def write_pgm(path, image: np.ndarray, bits: int = 8) -> None:
    """Write an H x W array with values in [0, 1] as a binary P5 graymap."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise FormatError(f"P5 wants an H x W array, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise NumericError(f"{path}: image has non-finite pixels")
    if bits not in (8, 16):
        raise FormatError(f"sample depth must be 8 or 16 bits, got {bits}")
    maxval = (1 << bits) - 1
    quant = np.clip(np.rint(image * maxval), 0, maxval)
    payload = quant.astype(">u2" if bits == 16 else "u1").tobytes()
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (w, h, maxval))
        fh.write(payload)


def read_image(path) -> np.ndarray:
    """Read a binary P5/P6 file as an H x W float64 graymap in [0, 1].

    A P6 pixmap is read as its luma plane ``pixels @ LUMA``.  A sample above
    the header's maxval is a ``FormatError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, rest = data.split(None, 1)
    except ValueError:
        raise FormatError(f"{path}: empty or truncated netpbm file")
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported magic {magic!r}")
    fields = []
    pos = 0
    while len(fields) < 3:
        while pos < len(rest) and rest[pos:pos + 1].isspace():
            pos += 1
        if rest[pos:pos + 1] == b"#":  # comment line
            end = rest.find(b"\n", pos)
            if end < 0:
                raise FormatError(f"{path}: unterminated header comment")
            pos = end + 1
            continue
        start = pos
        while pos < len(rest) and not rest[pos:pos + 1].isspace():
            pos += 1
        token = rest[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: header field {token!r} is not a decimal number")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise FormatError(f"{path}: image size {w}x{h} has no pixels")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside 1..65535")
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = w * h * channels
    if len(rest) - pos < count * dtype.itemsize:
        raise FormatError(f"{path}: truncated pixel data")
    raw = np.frombuffer(rest, dtype=dtype, count=count, offset=pos)
    if maxval not in (255, 65535) and raw.max() > maxval:  # those two fill their sample type
        raise FormatError(f"{path}: sample {raw.max()} above maxval {maxval}")
    pixels = raw.reshape(h, w, channels).astype(np.float64) / maxval
    return pixels[..., 0] if channels == 1 else pixels @ np.array(LUMA)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["path", "label", "pipeline", "seed"]


@dataclass
class ManifestEntry:
    path: str
    label: str
    pipeline: str
    seed: int


@dataclass
class Manifest:
    entries: list = field(default_factory=list)
    root: str = "."

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry) -> str:
        return os.path.join(self.root, entry.path)

    def validate(self) -> None:
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise DataError("manifest has duplicate paths")
        for e in self.entries:
            if e.label not in LABELS:
                raise DataError(f"manifest label {e.label!r} not in {LABELS}")


def write_manifest(path, manifest: Manifest) -> None:
    manifest.validate()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.path, e.label, e.pipeline, e.seed])


def read_manifest(path) -> Manifest:
    entries = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: unreadable manifest: {exc}") from exc
    if not rows or rows[0] != MANIFEST_HEADER:
        raise FormatError(f"{path}: bad manifest header {rows[0] if rows else None}")
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 4 or not (row[3].isascii() and row[3].isdigit()):
            raise FormatError(f"{path}: malformed manifest row {row}")
        entries.append(ManifestEntry(row[0], row[1], row[2], int(row[3])))
    manifest = Manifest(entries, root=os.path.dirname(os.path.abspath(path)))
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# Result tables (CSV plus aligned-text mirror)
# ---------------------------------------------------------------------------

def write_table(path_csv, header, rows) -> None:
    """Write rows as CSV and an aligned text mirror next to it (.txt)."""
    with open(path_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    txt_path = os.path.splitext(str(path_csv))[0] + ".txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(format_table(header, rows))


def format_table(header, rows) -> str:
    cells = [[str(c) for c in header]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
    return "\n".join(lines) + "\n"
