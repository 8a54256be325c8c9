"""Stored benchmark trajectories (BENCH_*.json at the repository root).

Each file holds the JSON lines of `bench/run.py` for the parent and the
change of one performance step.  It may name only the workloads and
metrics that BENCHMARK.json declares, so a renamed metric or workload
cannot leave a stale trajectory behind unnoticed.
"""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_bench_files_name_declared_workloads_and_metrics():
    declared = _load(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        bench = _load(path)
        assert bench["runs"] and bench["traced"], path
        for run in bench["runs"]:
            assert run["workload"] in workloads, (path, run["workload"])
            assert run["side"] in ("parent", "change"), path
            names = set(run["result"]["metrics"])
            assert names and names <= end_to_end, (path, names - end_to_end)
        for run in bench["traced"]:
            assert run["workload"] in workloads, (path, run["workload"])
            names = set(run["result"]["metrics"])
            assert names <= end_to_end | per_layer, (path, names - end_to_end - per_layer)
