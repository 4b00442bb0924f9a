"""The benchmark's inputs depend on the seed alone, and BENCHMARK.json names
exactly the metrics the harness prints."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _documents(workload, seed):
    return [workloads.document(s) for s in workloads.instances(workload, seed)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_generates_identical_bytes(workload):
    first = _documents(workload, 1)
    assert first == _documents(workload, 1)
    other = workloads.instances(workload, 2)
    assert [workloads.document(s) for s in other] != first
    # another seed relabels the same corpus: same shapes, new names
    assert sorted(s["size"] for s in other) == \
        sorted(s["size"] for s in workloads.instances(workload, 1))


def test_benchmark_json_matches_harness():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
