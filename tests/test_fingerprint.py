import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_prints_one_repeatable_hash_per_output(capsys):
    tool = _load_tool()
    assert tool.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# OPENBLAS_NUM_THREADS=")
    pairs = [line.split(" ") for line in lines[1:]]
    names = [name for name, _ in pairs]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in pairs)
    for section in ("logits", "features", "predict", "grads"):
        assert sum(n.endswith(section) for n in names) == 2 * len(tool.SMOKE_MODELS)
    for name in ("train/history", "train/checkpoint", "corpus/tree",
                 "corpus/features_export", "corpus/average_spectrum_report",
                 "figures/formation_grid"):
        assert name in names
    assert list(tool.fingerprint(smoke=True)) == [tuple(p) for p in pairs]
