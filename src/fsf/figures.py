"""Figure and report emission: formation grids, average spectra, feature dumps.

Everything here writes deterministic artifacts (16-bit graymaps for spectrum
views, CSV tables with aligned-text mirrors) so repeated runs with the same
seed produce identical trees.
"""

from __future__ import annotations

import csv
import os

from .checkpoint import ModelCheckpoint
from .errors import DataError, ParameterError
from .fileio import Manifest, read_image, write_pgm, write_table
from .forensics import noise_residual
from .parallel import parallel_map
from .simulate import (
    UPSAMPLE_KINDS,
    PipelineConfig,
    embed_spectral_watermark,
    letter_a_glyph,
    synth_real,
)
from .spectral import (
    average_spectrum,
    export_view,
    quadrant_correlation,
    self_similarity_features,
    spectrum_of,
)
from .training import detector_input


def formation_grid(out_dir, seed: int, base_size: int = 28, stages: int = 3) -> list:
    """Emit the spectrum-replication grid: one row per upsampling kind,
    columns are the origin spectrum plus each upsampling stage.

    The origin image carries a letter-'A' watermark in its spectrum; the
    glyph replicates with every 2x stage.  Returns the caption rows
    (file, pipeline, stage, quadrant_correlation).
    """
    pipes = [PipelineConfig(kind, stages, seed, base_size) for kind in UPSAMPLE_KINDS]
    os.makedirs(out_dir, exist_ok=True)
    base = synth_real(seed, base_size)
    glyph = letter_a_glyph(base_size, base_size // 2 + 1)
    marked = embed_spectral_watermark(base, glyph)

    rows = []
    for pipe in pipes:
        image = marked
        for stage in range(stages + 1):
            if stage > 0:
                image = pipe.upsample(image, stage - 1)
            spectrum = spectrum_of(image)
            corr = quadrant_correlation(spectrum) if stage > 0 else float("nan")
            filename = f"{pipe.kind}_stage{stage}.pgm"
            write_pgm(os.path.join(out_dir, filename), export_view(spectrum), bits=16)
            rows.append([filename, pipe.kind, stage, "" if stage == 0 else f"{corr:.4f}"])
    write_table(os.path.join(out_dir, "captions.csv"),
                ["file", "pipeline", "stage", "quadrant_correlation"], rows)
    return rows


def average_spectrum_report(manifest: Manifest, out_dir, residual: bool = False) -> list:
    """Per-group (label, pipeline) average spectra as 16-bit graymaps.

    Returns report rows (group, images, quadrant_correlation); also written
    as report.csv in ``out_dir``.  A group whose images differ in size or
    have an odd side is a data error that names the file.
    """
    if len(manifest) == 0:
        raise DataError("manifest is empty")
    os.makedirs(out_dir, exist_ok=True)
    groups: dict = {}
    for entry in manifest.entries:
        groups.setdefault(entry.pipeline, []).append(entry)

    def group_average(name):  # one job per group: its spectra sum in order in one process
        entries = groups[name]
        images = [read_image(manifest.resolve(e)) for e in entries]
        for entry, image in zip(entries, images):
            if image.shape != images[0].shape:
                raise DataError(
                    f"{manifest.resolve(entry)} is {image.shape}, but the first image of "
                    f"group {name!r} ({manifest.resolve(entries[0])}) is {images[0].shape}"
                )
        h, w = images[0].shape
        if h % 2 or w % 2:
            raise DataError(f"{manifest.resolve(entries[0])} is {h}x{w}; "
                            "the quadrant split needs even sides")
        return name, average_spectrum(map(noise_residual, images) if residual else images)

    rows = []
    for name, avg in parallel_map(group_average, sorted(groups)):
        tag = "residual" if residual else "raw"
        filename = f"avg_{tag}_{name}.pgm"
        write_pgm(os.path.join(out_dir, filename), export_view(avg), bits=16)
        rows.append([name, len(groups[name]), f"{quadrant_correlation(avg):.4f}", filename])
    write_table(os.path.join(out_dir, "report.csv"),
                ["group", "images", "quadrant_correlation", "file"], rows)
    return rows


def features_export(
    manifest: Manifest,
    out_path,
    levels: int = 2,
    residual: bool = False,
    checkpoint: ModelCheckpoint | None = None,
) -> int:
    """Per-image self-similarity statistics (and learned vectors) as CSV.

    Hand-crafted columns are the per-level fused-quadrant statistics of the
    image spectrum (of the noise residual when ``residual`` is set).  With a
    checkpoint, the model's concatenated level vectors are appended.
    Returns the number of rows written. An image whose sides are not
    divisible by 2**(levels + 1) is a data error that names it.
    """
    if len(manifest) == 0:
        raise DataError("manifest is empty")
    if levels < 0:
        raise ParameterError(f"levels must be >= 0, got {levels}")
    divisor = 1 << (levels + 1)  # every pyramid level is quadrant-split once more
    model = checkpoint.build_model() if checkpoint is not None else None

    header = ["path", "label", "pipeline"]
    header += [f"selfsim_l{i}" for i in range(levels + 1)]
    if model is not None:
        header += [f"svec_{i}" for i in range(checkpoint.config.feature_width)]

    def row(entry):
        image = read_image(manifest.resolve(entry))
        h, w = image.shape
        if h % divisor or w % divisor:
            raise DataError(f"{manifest.resolve(entry)} is {h}x{w}; "
                            f"{levels} levels need sides divisible by {divisor}")
        target = noise_residual(image) if residual else image
        stats = self_similarity_features(spectrum_of(target), levels)
        cells = [entry.path, entry.label, entry.pipeline]
        cells += [f"{s:.8g}" for s in stats]
        if model is not None:
            prepped = detector_input(image, checkpoint.config)
            vec = model.features(prepped[None, :, :, None])[0]
            cells += [f"{v:.8g}" for v in vec]
        return cells

    rows = parallel_map(row, manifest.entries)
    # Written once every row exists, so a failed run leaves no partial table.
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)
