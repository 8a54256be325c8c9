"""Replay of recorded XiFastChecker certificates.

``golden_xi_certificates.json`` holds, for a fixed corpus of class
assignments, the fast checker's verdict, condition count and
first-failure certificate (condition, element pair, point pair, detail)
as recorded.  Every field must replay exactly.

Each case names its checker input by a spec, read by build():

    ["search", p, n, m, seed]        the seeded assignment of search_weakrep
                                     over the m-th power of the affine plane
    ["transposed", q, n, seed]       over the affine plane of order q, the
                                     seeded assignment read transposed:
                                     class(x, y') = seeded class of (y, x')
    ["classes", inner, n, rows]      an explicit assignment over an inner
                                     labeling of L(3,0); rows[x][y] is the
                                     class digit of (x, y')
    ["constant", p, n, m, c]         every cross pair in class c, over the
                                     m-th power of the affine plane

where inner is ["labels", base, [[u, v, atom], ...]] or
["power-of", inner, m], the m-th power of another inner spec.  The crafted
cases reach every detail wording the checker can produce but one: a
mixed-class witness "forbidden ... (mirror)" needs theta(1'+A) to be
partial, but whenever the same-class and row mixed-class conditions
hold, any two rows of D share a cross neighbour in some pair of classes,
so theta(1'+A) is the full square and no input reaches it.  Transposing
an assignment swaps rows with columns and the two slope directions,
which is how the "class-... step before slope ..." wording is reached:
the seeded assignment it transposes fails first in the other direction
only.

Regenerate the fixture (only when a certificate change is deliberate):

    PYTHONPATH=src python tests/test_golden_xi_certificates.py
"""

import functools
import json
import os
import re
from itertools import product

import pytest

from relalg import build_affine, build_lpn, build_power
from relalg.structures import AtomLabeling
from relalg.xi import ExplicitPartition, PartitionRecipe, XiFastChecker

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_xi_certificates.json"
)

# labelings of L(3,0) on three points; atom 1 is a0, atom 2 is a1
NO_EDGES = ["labels", 3, []]
ONE_EDGE = ["labels", 3, [[0, 1, 1]]]
PATH = ["labels", 3, [[0, 1, 1], [1, 2, 2]]]
TRIANGLE = ["labels", 3, [[0, 1, 1], [0, 2, 1], [1, 2, 1]]]
EDGE_12 = ["labels", 3, [[1, 2, 1]]]
# the squares of EDGE_12 (union defect at (1, 2), not at (0, 1)) and of
# NO_EDGES (no union defect), on 9 points
EDGE_12_SQUARE = ["power-of", EDGE_12, 2]
NO_EDGES_SQUARE = ["power-of", NO_EDGES, 2]
# 9 x 9 class rows: every cross pair in class 1, and a checkerboard whose
# every row and column meets both classes
ONES_9 = ["1" * 9] * 9
CHECKER_9 = ["".join(str(1 + (x + y) % 2) for y in range(9)) for x in range(9)]

CRAFTED = [
    ["classes", NO_EDGES, 2, ["111", "111", "111"]],  # class-row
    ["classes", NO_EDGES, 2, ["112", "112", "112"]],  # class-column
    ["classes", NO_EDGES, 1, ["111", "111", "111"]],  # same-class forbidden
    ["classes", ONE_EDGE, 2, ["112", "221", "112"]],  # same-class missing
    ["classes", ONE_EDGE, 2, ["121", "121", "212"]],  # same-class missing (mirror)
    ["classes", PATH, 2, ["112", "121", "221"]],  # same-class forbidden (mirror)
    ["classes", ONE_EDGE, 2, ["112", "112", "221"]],  # mixed-class missing
    ["classes", NO_EDGES, 3, ["123", "231", "312"]],  # mixed-class forbidden
    ["transposed", 5, 2, 4],  # mixed-class missing (mirror)
    ["classes", TRIANGLE, 1, ["111", "111", "111"]],  # no slope step into a class
    ["transposed", 17, 2, 0],  # no class step before a slope
    ["constant", 3, 2, 2, 2],  # union defect without a class-(1,2) witness
    ["classes", EDGE_12_SQUARE, 2, ONES_9],  # union defect at (1, 2), no witness
    ["classes", EDGE_12_SQUARE, 2, CHECKER_9],  # union defect at (1, 2), a witness
    ["classes", NO_EDGES_SQUARE, 2, CHECKER_9],  # no union defect
]

WORDINGS = {
    "class-row: point # has no class-# cross edge",
    "class-column: mirror point # has no class-# cross edge",
    "same-class-witness: missing common class-# neighbour",
    "same-class-witness: forbidden common class-# neighbour",
    "same-class-witness: missing common class-# neighbour (mirror)",
    "same-class-witness: forbidden common class-# neighbour (mirror)",
    "mixed-class-witness: missing common (class #, class #) neighbour",
    "mixed-class-witness: forbidden common (class #, class #) neighbour",
    "mixed-class-witness: missing common (class #, class #) neighbour (mirror)",
    "slope-class-witness: no slope-# step into class # for cross pair (#,#')",
    "slope-class-witness: no class-# step before slope # for cross pair (#,#')",
    "union-defect: inner image of e+A does not split for e = #'; pair in "
    "theta(e+A) lacks both theta(e) and a class-(#,#) witness",
    "union-defect: inner image of e+A does not split for e = #'; pair outside "
    "theta(A) has a class-(#,#) witness",
}


def _key(spec):
    return json.dumps(spec)


@functools.lru_cache(maxsize=None)
def _theta(key):
    spec = json.loads(key)
    if spec[0] == "power":
        return build_power(build_affine(spec[1]), spec[2])
    if spec[0] == "power-of":
        return build_power(_theta(_key(spec[1])), spec[2])
    _, base, edges = spec
    return AtomLabeling(build_lpn(3, 0), base, {(u, v): a for u, v, a in edges})


@functools.lru_cache(maxsize=None)
def _checker(key, n):
    return XiFastChecker(_theta(key), n)


def build(spec):
    """(checker, class assignment) for a case spec."""
    kind = spec[0]
    if kind == "search":
        _, p, n, m, seed = spec
        checker = _checker(_key(["power", p, m]), n)
        return checker, PartitionRecipe(seed, n, checker.d)
    if kind == "transposed":
        _, q, n, seed = spec
        checker = _checker(_key(["power", q, 1]), n)
        d = checker.d
        recipe = PartitionRecipe(seed, n, d)
        classes = {(y, x): recipe.class_of(x, y) for x in range(d) for y in range(d)}
        return checker, ExplicitPartition(n, d, classes)
    if kind == "constant":
        _, p, n, m, c = spec
        checker = _checker(_key(["power", p, m]), n)
        d = checker.d
        return checker, ExplicitPartition(n, d, dict.fromkeys(product(range(d), repeat=2), c))
    _, inner, n, rows = spec
    checker = _checker(_key(inner), n)
    classes = {(x, y): int(c) for x, row in enumerate(rows) for y, c in enumerate(row)}
    return checker, ExplicitPartition(n, len(rows), classes)


def record(spec):
    checker, partition = build(spec)
    report = checker.check(partition)
    c = report.certificate
    return {
        "spec": spec,
        "ok": report.ok,
        "condition": c.condition if c else None,
        "elements": list(c.elements) if c else None,
        "point": list(c.point) if c else None,
        "detail": c.detail if c else None,
        "conditions_checked": report.conditions_checked,
    }


def wording(case):
    if case["ok"]:
        return "PASS"
    return case["condition"] + ": " + re.sub(r"\d+", "#", case["detail"])


def corpus():
    """The recorded cases, in order."""
    out = []
    for (p, n, m), count in (
        ((7, 2, 1), 100),
        ((9, 2, 1), 50),
        ((11, 2, 1), 20),
        ((11, 3, 1), 10),
        ((3, 2, 2), 10),
        ((3, 3, 2), 5),
        ((3, 2, 3), 5),
        ((3, 2, 4), 3),
        ((5, 2, 2), 5),
        ((7, 3, 2), 3),
        ((3, 1, 1), 5),
        ((5, 1, 1), 3),
        ((7, 1, 1), 2),
        ((3, 1, 2), 2),
    ):
        out.extend(record(["search", p, n, m, seed]) for seed in range(count))
    out.extend(record(spec) for spec in CRAFTED)
    return out


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)["cases"]


GOLDEN = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[re.sub(r"\W+", "-", _key(c["spec"])).strip("-") for c in GOLDEN]
)
def test_fast_certificate_replays(case):
    assert record(case["spec"]) == case


def test_corpus_reaches_every_wording():
    reached = {wording(c) for c in GOLDEN}
    assert reached == WORDINGS | {"PASS"}


if __name__ == "__main__":
    cases = corpus()
    with open(FIXTURE, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")
    print("wordings reached:")
    for w in sorted({wording(c) for c in cases}):
        print(" ", w)
