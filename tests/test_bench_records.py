"""The committed BENCH_*.json records: each parses, carries the fields a
speed claim needs, and names its claim in the terms of BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def test_records_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_its_claim_in_benchmark_terms(path):
    record = json.loads(path.read_text())
    assert {"change", "parent_commit", "layer", "claim", "workloads"} <= set(record)
    assert record["change"] and record["layer"]
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    assert record["claim"]["metric"] in END_TO_END
    assert record["claim"]["workload"] in WORKLOADS
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
