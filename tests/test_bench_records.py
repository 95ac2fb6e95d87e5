"""Every BENCH_*.json at the repository root holds the raw runs behind a
performance claim.  Each must parse and may name only the workloads and the
metrics that BENCHMARK.json defines."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _values_ok(values: dict, names: set[str]) -> bool:
    return (bool(values) and set(values) <= names
            and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()))


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_names_only_benchmark_workloads_and_metrics(path):
    doc = json.loads(path.read_text())
    claim = doc["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
    assert doc["pairs"]
    for pair in doc["pairs"]:
        assert pair["workload"] in WORKLOADS
        assert isinstance(pair["seed"], int)
        assert pair["first"] in ("parent", "change")
        assert _values_ok(pair["parent"], END_TO_END) and _values_ok(pair["change"], END_TO_END)
    for workload, metrics in doc.get("summary", {}).items():
        assert workload in WORKLOADS and set(metrics) <= END_TO_END
    for trace in doc.get("traces", []):
        assert trace["workload"] in WORKLOADS
        assert isinstance(trace["seed"], int)
        assert trace["side"] in ("parent", "change")
        assert _values_ok(trace["metrics"], PER_LAYER)
