"""Every benchmark record at the repository root is well formed and cited.

A `BENCH_<n>.json` holds the paired runs behind one speed claim.  Each must
parse, hold the shared keys, read correct, name a workload that
`BENCHMARK.json` declares, and be cited in ROADMAP.md's north-star list.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
SHARED_KEYS = {"title", "claim", "parent_sha", "change_sha", "workload", "pairs", "metrics", "correct", "failed"}


def test_records_are_present():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_well_formed_and_cited(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert SHARED_KEYS <= record.keys(), sorted(SHARED_KEYS - record.keys())
    assert record["correct"] is True
    workloads = {workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert record["workload"] in workloads
    assert f"`{path.name}`" in (ROOT / "ROADMAP.md").read_text()
