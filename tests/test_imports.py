"""Each command runs only the modules on its own code path, and the lazy
package namespace keeps the public API it had when it imported eagerly."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import relalg
from relalg import cli
from relalg.fileformat import save_algebra
from relalg.lpn import build_lpn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(relalg.__file__)))

# The names relalg/__init__.py imported from each module when it imported
# them all eagerly.
PUBLIC = {
    "algebra": [
        "AxiomReport", "Element", "Embedding", "FiniteRelationAlgebra",
        "SubalgebraDescription", "check_axioms", "check_embedding",
        "generate_subalgebra",
    ],
    "errors": ["ParseError", "ResourceBudgetError"],
    "gf": ["FieldSpec", "field_make", "is_prime_power"],
    "lpn": ["build_fused", "build_lpn", "fusion_embedding"],
    "structures": [
        "AtomLabeling", "ImageRelation", "Power", "VerifyReport", "Xi",
        "build_affine", "build_doubled", "build_power", "degree_audit", "image",
        "verify_full", "verify_weak",
    ],
    "terms": [
        "Equation", "equation_length", "eval_term", "falsify", "parse",
        "parse_equation", "parse_term", "print_equation", "print_term",
    ],
    "xi": [
        "BoundReport", "PartitionRecipe", "XiFastChecker", "build_xi",
        "check_xi_fast", "eval_bounds", "eval_bounds_power", "montecarlo",
        "search_weakrep", "sufficiency_thresholds",
    ],
    "complexity": [
        "algebra_size", "beta_lower_bound", "build_gamma_embedding",
        "choose_params", "pigeonhole_pair",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]

# Runs `python -m relalg <argv>` under a trace hook that records every
# module body that executes; a module that is only bound lazily in
# sys.modules runs no body.  Prints {"ran": [...], "bound": [...]} last.
PROBE = """
import json, runpy, sys
ran = set()
def trace(frame, event, arg):
    if frame.f_code.co_name == "<module>":
        ran.add(frame.f_globals.get("__name__"))
sys.argv = ["relalg", *sys.argv[1:]]
sys.settrace(trace)
try:
    runpy.run_module("relalg", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.settrace(None)
bound = [m for m in sys.modules if m.startswith("relalg.")]
print(json.dumps({"ran": sorted(m for m in ran if m.startswith("relalg")),
                  "bound": sorted(bound)}))
"""


def probe(args, cwd, code=PROBE):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    save_algebra(build_lpn(3, 1), str(tmp / "l31.ra"))
    assert cli.main(["affine", "--q", "3", "-o", str(tmp / "aff3.rel")]) == 0
    return tmp


@pytest.mark.parametrize(
    "args, runs, runs_not",
    [
        (["verify", "--full", "aff3.rel"], {"structures", "fileformat"},
         {"terms", "xi", "complexity", "gf"}),
        (["falsify", "l31.ra", "x1;x2 = x2;x1"], {"terms", "fileformat"},
         {"structures", "xi", "gf", "complexity"}),
        (["construct", "--p", "3", "--n", "1", "-o", "out.ra"], {"lpn", "fileformat"},
         {"structures", "xi", "terms", "complexity", "gf"}),
        (["params", "--gamma", "1"], {"complexity"},
         {"fileformat", "structures", "xi", "terms"}),
    ],
    ids=["verify", "falsify", "construct", "params"],
)
def test_command_runs_only_its_layers(inputs, args, runs, runs_not):
    seen = probe(args, inputs)
    ran = {m.removeprefix("relalg.") for m in seen["ran"]}
    assert runs <= ran  # the probe sees lazily executed modules
    assert not ran & runs_not, sorted(ran & runs_not)
    # the skipped layers are still bound, as cli's module attributes
    assert {f"relalg.{m}" for m in runs_not - {"gf"}} <= set(seen["bound"])


# Runs `python -m relalg <argv>` and prints, last, every name in
# sys.modules after the command, listed before the probe imports json.
MODULES_PROBE = """
import runpy, sys
sys.argv = ["relalg", *sys.argv[1:]]
try:
    runpy.run_module("relalg", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")) as fh:
    GOLDEN = json.load(fh)["cases"]


def _first_per_command(json_mode):
    first = {}
    for case in GOLDEN:
        argv = case["argv"]
        if (argv[0] == "--json") == json_mode:
            first.setdefault(argv[json_mode], argv)
    return list(first.values())


STARTUP_ARGVS = _first_per_command(False) + _first_per_command(True)


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """Every file the golden transcript wrote, so each command finds its inputs."""
    tmp = tmp_path_factory.mktemp("golden")
    for case in GOLDEN:
        for path, text in case["files"].items():
            (tmp / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp / path).write_text(text)
    return tmp


@pytest.mark.parametrize("argv", STARTUP_ARGVS, ids=" ".join)
def test_startup_imports_per_command(golden_files, argv):
    # Every command is a fresh process that compiles what it imports:
    # dataclasses (with inspect, ast, dis and tokenize) is never needed,
    # json only to print --json, fractions only for the bound calculus.
    json_mode = argv[0] == "--json"
    loaded = set(probe(argv, golden_files, MODULES_PROBE))
    assert "relalg.cli" in loaded
    assert "dataclasses" not in loaded
    assert ("json" in loaded) == json_mode
    if "fractions" in loaded:
        assert argv[json_mode] in ("bounds", "thresholds", "montecarlo")


def test_bare_import_runs_no_submodule(tmp_path):
    code = PROBE.replace(
        'runpy.run_module("relalg", run_name="__main__", alter_sys=True)', "import relalg"
    )
    seen = probe([], tmp_path, code)
    assert seen == {"ran": ["relalg"], "bound": []}


@pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
def test_public_name_resolves_lazily(monkeypatch, module, name):
    # drop any cached binding so that the lookup goes through __getattr__
    monkeypatch.delitem(vars(relalg), name, raising=False)
    defined = getattr(importlib.import_module(f"relalg.{module}"), name)
    assert name in dir(relalg)
    assert name in relalg.__all__
    assert getattr(relalg, name) is defined
    namespace = {}
    exec(f"from relalg import {name}", namespace)
    assert namespace[name] is defined


def test_public_names_are_exactly_the_old_list():
    assert sorted(relalg.__all__) == sorted(name for _, name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relalg.no_such_name
    with pytest.raises(ImportError):
        exec("from relalg import no_such_name", {})


@pytest.mark.parametrize("module", PUBLIC)
def test_submodules_resolve_from_the_package(monkeypatch, module):
    monkeypatch.delitem(vars(relalg), module, raising=False)
    namespace = {}
    exec(f"from relalg import {module}", namespace)
    assert namespace[module] is sys.modules[f"relalg.{module}"]
    monkeypatch.delitem(vars(relalg), module)
    assert getattr(relalg, module) is sys.modules[f"relalg.{module}"]
    assert module in dir(relalg)
