"""BENCHMARK.json declares what run.py prints."""

import json
import os

import workloads


def _declared():
    with open(os.path.join(os.path.dirname(workloads.HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    b = _declared()
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    for key, code in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in b[key]} == code
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
