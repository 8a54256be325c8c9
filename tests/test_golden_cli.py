"""Replay of a recorded command-line transcript.

``golden_cli.json`` holds, for a fixed list of ``relalg`` invocations run
in order in one scratch working directory with relative paths, the argv,
the exit code, the stdout text and the contents of every file the
command wrote.  The list runs twice, once in text mode and once with
``--json``, each in a fresh directory.  Every field must replay exactly.

The invocations cover every subcommand and both branches of each: a
verify PASS and FAIL, a check-axioms FAIL on a hand-written algebra file
that parses but is not associative, degree-audit with and without
--claim-full, search in fast and strict mode, bounds by --m and by
--d/--k, both embed kinds, falsify FALSIFIED, VALID and random (UNKNOWN
on L(3,2), and UNKNOWN and FALSIFIED on the 14-atom L(9,3)), xi
--explicit and --algebra-out, and outputs in a subdirectory so that the
relative paths written into structure files are exercised.

Regenerate the fixture (only when an output change is deliberate):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import functools
import io
import json
import os
import re
import tempfile

import pytest

from relalg import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# a symmetric table that parses but is not associative: (a;a);b = a+b
# but a;(a;b) = e+b
NONASSOC_RA = """\
ra v1
atoms 3 e a b
identity e
symmetric true
comp e e = e
comp e a = a
comp e b = b
comp a a = e+b
comp a b = a
comp b b = a
"""

STEPS = [
    ["construct", "--p", "3", "--n", "2", "-o", "l32.ra"],
    ["fuse", "--p", "3", "--n", "2", "--i", "0", "--j", "1", "-o", "f.ra"],
    ["check-axioms", "l32.ra"],
    ["check-axioms", "nonassoc.ra"],
    ["affine", "--q", "3", "-o", "a3.rel"],
    ["affine", "--q", "3", "-o", "sub/b3.rel", "--algebra-out", "b3alg.ra"],
    ["double", "--q", "3", "-o", "d3.rel"],
    ["double", "--q", "3", "-o", "sub/d3.rel", "--algebra-out", "sub/d3alg.ra"],
    ["power", "--inner", "a3.rel", "-m", "2", "-o", "p2.rel"],
    ["power", "--inner", "a3.rel", "-m", "2", "-o", "sub/p2.rel",
     "--algebra-out", "p2alg.ra"],
    ["power", "--inner", "a3.rel", "-m", "1", "-o", "p1.rel"],
    ["power", "--inner", "p2.rel", "-m", "1", "-o", "pp1.rel"],
    ["xi", "--inner", "a3.rel", "--n", "2", "--seed", "0", "-o", "x.rel"],
    ["xi", "--inner", "a3.rel", "--n", "1", "--seed", "5", "-o", "sub/x1.rel",
     "--explicit", "--algebra-out", "sub/x1alg.ra"],
    ["verify", "--weak", "a3.rel"],
    ["verify", "--full", "sub/b3.rel"],
    ["verify", "--full", "d3.rel"],
    ["verify", "--weak", "p2.rel"],
    ["verify", "--full", "sub/p2.rel"],
    ["verify", "--weak", "x.rel"],
    ["verify", "--full", "sub/x1.rel"],
    ["degree-audit", "a3.rel"],
    ["degree-audit", "a3.rel", "--claim-full"],
    ["degree-audit", "p2.rel", "--claim-full"],
    ["search", "--p", "3", "--n", "2", "--m", "1", "--seeds", "0:4"],
    ["search", "--p", "3", "--n", "1", "--m", "1", "--seeds", "0,1", "--mode", "strict"],
    ["bounds", "--p", "3", "--n", "2", "--m", "1"],
    ["bounds", "--p", "5", "--n", "2", "--d", "50", "--k", "3"],
    ["thresholds", "--p", "3", "--n", "2"],
    ["montecarlo", "--p", "3", "--n", "1", "--m", "1", "--trials", "5", "--seed0", "1"],
    ["subalgebra", "l32.ra", "--gens", "a0"],
    ["pigeonhole", "l32.ra", "--gens", "a0+a1"],
    ["embed", "--kind", "fusion", "--p", "3", "--n", "2", "--i", "0", "--j", "1",
     "--q", "5"],
    ["embed", "--kind", "gamma", "--algebra", "l32.ra", "--gens", "a0+a1",
     "--target-p", "7"],
    ["falsify", "l32.ra", "x1;x1 = x1"],
    ["falsify", "l32.ra", "x1;e = x1"],
    ["falsify", "l32.ra", "x1;x2 = x2;x1", "--mode", "random", "--seed", "3",
     "--trials", "50"],
    ["construct", "--p", "9", "--n", "3", "-o", "l93.ra"],
    ["falsify", "l93.ra", "x1;(x2;x3) = (x1;x2);x3", "--mode", "random",
     "--seed", "7", "--trials", "200"],
    ["falsify", "l93.ra", "x1;(x2&x3) = (x1;x2)&(x1;x3)", "--mode", "random",
     "--seed", "3", "--trials", "100"],
    ["beta", "--m", "2^7"],
    ["beta", "--m", "1000"],
    ["beta", "--m", "2^100000"],
    ["params", "--gamma", "2"],
    ["params", "--gamma", "14"],
]

def _snapshot() -> dict:
    files = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(root, name))
            with open(path, "rb") as fh:
                files[path] = fh.read()
    return files


def _run(argv: list) -> dict:
    before = _snapshot()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    after = _snapshot()
    written = {p: b.decode() for p, b in sorted(after.items()) if before.get(p) != b}
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "files": written}


def transcript(json_mode: bool) -> list:
    """Run STEPS in order in a fresh scratch directory."""
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            os.mkdir("sub")
            with open("nonassoc.ra", "w") as fh:
                fh.write(NONASSOC_RA)
            prefix = ["--json"] if json_mode else []
            return [_run(prefix + step) for step in STEPS]
    finally:
        os.chdir(cwd)


@functools.lru_cache(maxsize=None)
def _replayed(json_mode: bool) -> tuple:
    return tuple(transcript(json_mode))


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)["cases"]


GOLDEN = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize(
    "index",
    range(len(GOLDEN)),
    ids=[re.sub(r"\W+", "-", " ".join(c["argv"])).strip("-") for c in GOLDEN],
)
def test_cli_case_replays(index):
    case = GOLDEN[index]
    json_mode = case["argv"][0] == "--json"
    position = index - (len(STEPS) if json_mode else 0)
    assert _replayed(json_mode)[position] == case


def test_transcript_covers_every_command():
    recorded = {c["argv"][c["argv"][0] == "--json"] for c in GOLDEN}
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert recorded == set(commands)
    assert len(GOLDEN) == 2 * len(STEPS)


if __name__ == "__main__":
    cases = transcript(False) + transcript(True)
    with open(FIXTURE, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")
