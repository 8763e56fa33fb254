import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_memory.py"


def test_smoke_run_prints_every_measure(capsys):
    spec = importlib.util.spec_from_file_location("step_memory", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--size", "16", "--batch", "2", "--channels", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config size=16 batch=2 channels=4 n_units=2 dtype=float32 ")
    values = {name: float(value) for name, value in (line.split(" ") for line in lines[1:])}
    assert list(values) == ["setup_peak_rss_mb", "forward_s", "backward_s", "step_s",
                            "peak_rss_mb", "traced_peak_mb", "predict_traced_peak_mb"]
    assert all(value >= 0 for value in values.values())
    assert values["peak_rss_mb"] >= values["setup_peak_rss_mb"] > 0
    assert values["traced_peak_mb"] > 0  # the traced step's own arrays
    assert 0 < values["predict_traced_peak_mb"] < values["traced_peak_mb"]
