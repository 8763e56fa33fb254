import numpy as np
import pytest

from fsf.errors import DataError, FormatError, NumericError
from fsf.fileio import (
    LUMA,
    Manifest,
    ManifestEntry,
    format_table,
    read_image,
    read_manifest,
    write_manifest,
    write_pgm,
    write_table,
)


class TestNetpbm:
    def test_pgm_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((7, 5))
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_image(path)
        assert back.shape == (7, 5)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_pgm_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((4, 6))
        path = tmp_path / "b.pgm"
        write_pgm(path, img, bits=16)
        back = read_image(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12

    def test_16bit_samples_are_big_endian(self, tmp_path):
        img = np.array([[1.0, 0.0]])
        path = tmp_path / "c.pgm"
        write_pgm(path, img, bits=16)
        payload = path.read_bytes()
        header_end = payload.index(b"65535\n") + len(b"65535\n")
        assert payload[header_end:header_end + 4] == b"\xff\xff\x00\x00"

    def test_ppm_round_trip(self, tmp_path):
        # the toolkit writes no P6, so the files are written by hand: interleaved RGB
        rng = np.random.default_rng(2)
        rgb = rng.random((4, 5, 3))
        for maxval, dtype in ((255, "u1"), (65535, ">u2")):
            path = tmp_path / f"d{maxval}.ppm"
            path.write_bytes(b"P6\n5 4\n%d\n" % maxval + np.rint(rgb * maxval).astype(dtype).tobytes())
            back = read_image(path)
            assert back.shape == (4, 5)
            assert np.max(np.abs(back - rgb @ np.array(LUMA))) <= 0.5 / maxval + 1e-12

    def test_non_finite_pixels_rejected_before_writing(self, tmp_path):
        path = tmp_path / "nan.pgm"
        with pytest.raises(NumericError):
            write_pgm(path, np.array([[0.5, np.nan]]))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(FormatError):
            read_image(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\nabc")
        with pytest.raises(FormatError):
            read_image(path)

    @pytest.mark.parametrize(
        "payload",
        [
            b"P5\n4 x4\n255\n" + bytes(16),  # non-numeric field
            b"P5\n4 4 # no newline",  # unterminated comment
            b"P5\n0 4\n255\n" + bytes(16),  # zero width
            b"P5\n4 4\n0\n" + bytes(16),  # zero maxval
            b"P5\n-1 4\n255\n" + bytes(16),  # negative width
            b"P5\n4 4\n70000\n" + bytes(32),  # maxval above 16 bits
        ],
        ids=["non_numeric", "open_comment", "zero_width", "zero_maxval",
             "negative_width", "maxval_70000"],
    )
    def test_bad_header_rejected(self, tmp_path, payload):
        path = tmp_path / "g.pgm"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_image(path)


class TestManifest:
    def _manifest(self):
        return Manifest(
            [
                ManifestEntry("images/r0.pgm", "real", "real", 1),
                ManifestEntry("images/g0.pgm", "generated", "zero", 2),
            ]
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self._manifest())
        back = read_manifest(path)
        assert len(back) == 2
        assert back.entries[0].path == "images/r0.pgm"
        assert back.entries[1].seed == 2
        assert [e.label for e in back.entries] == ["real", "generated"]

    def test_duplicate_paths_rejected(self, tmp_path):
        m = Manifest([ManifestEntry("a", "real", "real", 1), ManifestEntry("a", "real", "real", 2)])
        with pytest.raises(DataError):
            write_manifest(tmp_path / "m.csv", m)

    def test_bad_label_rejected(self, tmp_path):
        m = Manifest([ManifestEntry("a", "synthetic", "x", 1)])
        with pytest.raises(DataError):
            write_manifest(tmp_path / "m.csv", m)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,class\none,real\n")
        with pytest.raises(FormatError):
            read_manifest(path)

    @pytest.mark.parametrize(
        "payload",
        [
            b"path,label,pipeline,seed\nimages/r0.pgm,real,real,x1\n",
            b"path,label,pipeline,seed\nimages/r\xff.pgm,real,real,1\n",
        ],
        ids=["non_integer_seed", "not_utf8"],
    )
    def test_unreadable_row_rejected(self, tmp_path, payload):
        path = tmp_path / "m.csv"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_manifest(path)


class TestTables:
    def test_csv_and_text_mirror(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ["pipeline", "acc"], [["zero", 0.97], ["near", 0.91]])
        assert path.read_text().splitlines()[0] == "pipeline,acc"
        mirror = (tmp_path / "table.txt").read_text()
        assert "pipeline" in mirror and "zero" in mirror

    def test_alignment(self):
        text = format_table(["a", "long_header"], [["xx", 1]])
        lines = text.splitlines()
        assert lines[0].index("long_header") == lines[2].index("1")
