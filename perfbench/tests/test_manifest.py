import json
from pathlib import Path

import tracing

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_traced_metrics_match_manifest_units():
    measured = tracing.Aggregate().metrics()
    for entry in MANIFEST["per_layer"]:
        name = entry["name"]
        if name.startswith("import.") or name == "trace.overhead_s":
            continue  # measured in run.py, not by the tracer
        assert name in measured, name
        assert measured[name][1] == entry["unit"], name
