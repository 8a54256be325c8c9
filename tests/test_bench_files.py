"""Stored benchmark trajectories (BENCH_*.json at the repository root),
and the relalg names the traced benchmark binds.

Each stored file holds the JSON lines of `bench/run.py` for the parent
and the change of one performance step.  It may name only the workloads
and metrics that BENCHMARK.json declares, so a renamed metric or
workload cannot leave a stale trajectory behind unnoticed.

`bench/traced.py` wraps relalg functions and methods by name, so a
renamed or deleted name breaks the traced run; installing and removing
its tracer here catches that in the test suite.
"""

import glob
import importlib
import json
import os
import subprocess
import sys

import relalg.cli  # noqa: F401  (binds every layer, as the tracer's install does)
from relalg import algebra, structures, xi

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


def _relalg_bindings():
    """Every attribute of every relalg module and of the two classes the
    tracer patches, as (owner, name) -> object."""
    owners = [m for k, m in sorted(sys.modules.items()) if k.startswith("relalg")]
    owners += [xi.XiFastChecker, algebra.FiniteRelationAlgebra]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_benchmark_names_exist_and_are_restored(monkeypatch):
    before_modules = set(sys.modules)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    try:
        tracer = importlib.import_module("traced").Tracer()
        for name in [k for k in sys.modules if k.startswith("relalg")]:
            vars(sys.modules[name])  # runs a lazily bound module, as install does
        before = _relalg_bindings()
        tracer.install()
        patched = _relalg_bindings()
        tracer.uninstall()
        after = _relalg_bindings()
    finally:
        for name in ("traced", "workloads", "oracle", "layers"):
            if name not in before_modules:
                sys.modules.pop(name, None)
    changed = {key for key in before if patched[key] is not before[key]}
    assert {
        (xi, "verify_weak"),
        (xi, "eval_bounds_power"),
        (xi, "montecarlo"),
        (xi.XiFastChecker, "check"),
        (structures, "product_rows"),
        (algebra.FiniteRelationAlgebra, "compose_masks"),
    } <= changed
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


FRESH_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import relalg.cli  # noqa: F401
from traced import Tracer

names = [("gf", "field_make"), ("terms", "parse_equation"), ("terms", "falsify")]


def bound():
    return [getattr(sys.modules["relalg." + module], attr) for module, attr in names]


tracer = Tracer()
tracer.install()
wrapped = bound()
tracer.uninstall()
restored = bound()
print(json.dumps([getattr(w, "__wrapped__", None) is r and w is not r
                  for w, r in zip(wrapped, restored)]))
"""


def test_tracer_binds_names_in_a_fresh_interpreter(tmp_path):
    # as bench/traced.py runs it: relalg.cli imported, no module executed
    # beforehand, so a name found only through some earlier side effect fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(relalg.cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_INSTALL, os.path.join(ROOT, "bench")],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [True, True, True]
