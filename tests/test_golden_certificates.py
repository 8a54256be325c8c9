"""Replay of recorded verify_weak/verify_full certificates.

``golden_certificates.json`` holds, for a fixed corpus of structures, the
verdict, pairs_checked and first-failure certificate (clause, element
pair, point pair, detail) that the verifiers produced when the corpus
was recorded.  Every field must replay exactly.

Each case names its structure by a nested build spec, read by build():

    ["affine", q]  ["doubled", q]  ["power", spec, m]  ["xi", spec, n, seed]
    ["corrupt", spec, i]   one off-diagonal edge relabeled (i picks which)
    ["disjoint", spec]     two copies of spec with no edges between them
    ["drop-edge", spec, u, v]    the edge {u, v} left unlabeled
    ["relabel", spec, a, b]      every a-edge relabeled b (a is never used)
    ["atom-order", spec, perm]   atom a of spec's algebra renumbered perm[a]
    ["labels", p, base, [[u, v, atom], ...]]   a labeling of L(p,0)
    ["row-classes", spec, mask]  xi n = 2 over spec, (x, y') in class
                                 1 + bit x of mask

Regenerate the fixture (only when a certificate change is deliberate):

    PYTHONPATH=src python tests/test_golden_certificates.py

The xi part of the corpus scans seeds 0..199 of n = 2 over the affine
planes of order 3, 5 and 7 and keeps the first seed for every detail
wording that occurs, plus seeds 0..3; the script prints the xi compose
wordings that no seed reaches.  The row-classes case reaches "cross block
of y;x": its mask gives every point, through every slope atom, neighbours
in both classes, so image(a);image(t1) covers the cross square while
image(t1);image(a) stays in the rows of class 1.
"""

import functools
import json
import os
import random
import re

import pytest

from relalg import (
    build_affine,
    build_doubled,
    build_lpn,
    build_power,
    build_xi,
    image,
    verify_full,
    verify_weak,
)
from relalg.algebra import FiniteRelationAlgebra, iter_bits
from relalg.structures import AtomLabeling
from relalg.xi import ExplicitPartition

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_certificates.json")

XI_COMPOSE_WORDINGS = (
    "first-copy block of x;y",
    "mirror-copy block of x;y",
    "cross block of x;y",
    "cross block of y;x",
)


def _key(spec):
    return json.dumps(spec)


@functools.lru_cache(maxsize=None)
def _build(key):
    spec = json.loads(key)
    kind, args = spec[0], spec[1:]
    if kind == "affine":
        return build_affine(*args)
    if kind == "doubled":
        return build_doubled(*args)
    if kind == "power":
        return build_power(build(args[0]), args[1])
    if kind == "xi":
        return build_xi(build(args[0]), args[1], args[2])
    if kind == "labels":
        p, base, edges = args
        return AtomLabeling(build_lpn(p, 0), base, {(u, v): a for u, v, a in edges})
    if kind == "row-classes":
        d = build(args[0]).base_size
        classes = {(x, y): 1 + (args[1] >> x & 1) for x in range(d) for y in range(d)}
        return build_xi(build(args[0]), 2, ExplicitPartition(2, d, classes))
    inner = build(args[0])
    alg = inner.algebra
    labels = dict(inner.labels)
    if kind == "corrupt":
        rng = random.Random(f"corrupt {args[1]}")
        u, v = sorted(labels)[rng.randrange(len(labels))]
        old = labels[(u, v)]
        choices = [
            a for a in range(alg.atom_count)
            if a != old and not (1 << a) & alg.identity_mask
        ]
        new = choices[rng.randrange(len(choices))]
        labels[(u, v)], labels[(v, u)] = new, alg.converse[new]
    elif kind == "disjoint":
        d = inner.base_size
        labels.update({(d + u, d + v): a for (u, v), a in inner.labels.items()})
        return AtomLabeling(alg, 2 * d, labels)
    elif kind == "drop-edge":
        u, v = args[1], args[2]
        del labels[(u, v)], labels[(v, u)]
    elif kind == "relabel":
        a, b = args[1], args[2]
        labels = {e: b if x == a else x for e, x in labels.items()}
    elif kind == "atom-order":
        perm = args[1]
        old = sorted(range(alg.atom_count), key=perm.__getitem__)  # old[perm[a]] = a

        def move(mask):
            return sum(1 << perm[a] for a in iter_bits(mask))

        alg = FiniteRelationAlgebra(
            [alg.atom_names[a] for a in old],
            [perm[a] for a in alg.identity_atoms],
            [perm[alg.converse[a]] for a in old],
            [[move(alg.comp[a][b]) for b in old] for a in old],
        )
        labels = {e: perm[a] for e, a in labels.items()}
    else:
        raise ValueError(f"unknown build spec {spec!r}")
    return AtomLabeling(alg, inner.base_size, labels)


def build(spec):
    return _build(_key(spec))


def record(spec, mode):
    report = (verify_full if mode == "full" else verify_weak)(build(spec))
    f = report.failure
    return {
        "spec": spec,
        "mode": mode,
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "clause": f.clause if f else None,
        "elements": list(f.elements) if f else None,
        "point": list(f.point) if f and f.point else None,
        "detail": f.detail if f else None,
    }


def _two_sided_mask(spec):
    """Bits over the points such that every slope-atom neighbourhood of
    every point holds a set and a clear bit."""
    theta = build(spec)
    hoods = [
        row
        for a in range(1, theta.algebra.atom_count)
        for row in image(theta, 1 << a).rows()
    ]
    rng = random.Random("row-classes")
    mask = rng.getrandbits(theta.base_size)
    while True:
        bad = [h for h in hoods if h & mask in (0, h)]
        if not bad:
            return mask
        hood = rng.choice(bad)
        mask ^= 1 << rng.choice([u for u in range(theta.base_size) if hood >> u & 1])


def _wording(detail):
    return detail.split(" (")[0] if detail else None


def corpus():
    """The recorded cases, in order."""
    aff3, aff5 = ["affine", 3], ["affine", 5]
    out = []
    for base in (aff5, ["affine", 7], ["doubled", 5]):
        for i in range(3):
            for mode in ("weak", "full"):
                out.append(record(["corrupt", base, i], mode))
    for mode in ("weak", "full"):
        out.append(record(["power", aff3, 2], mode))
        out.append(record(["disjoint", aff3], mode))
        out.append(record(["drop-edge", aff3, 0, 1], mode))
        out.append(record(["relabel", aff3, 4, 3], mode))
        out.append(record(["labels", 3, 2, [[0, 1, 1]]], mode))
        out.append(record(["xi", ["power", aff3, 2], 1, 4], mode))
    for i in range(2):
        out.append(record(["power", ["corrupt", aff3, i], 2], "weak"))
    out.append(record(["affine", 5], "full"))
    out.append(record(["doubled", 3], "full"))
    out.append(record(["xi", aff5, 1, 11], "weak"))
    out.append(record(["xi", aff3, 1, 0], "full"))
    for i in range(2):
        out.append(record(["xi", ["corrupt", aff5, i], 2, 0], "weak"))
    aff9 = ["affine", 9]
    out.append(record(["row-classes", aff9, _two_sided_mask(aff9)], "weak"))

    reached = set()
    for q in (3, 5, 7):
        seen = {}
        for seed in range(200):
            case = record(["xi", ["affine", q], 2, seed], "weak")
            seen.setdefault(_wording(case["detail"]), case)
            if seed < 4:
                out.append(case)
        reached.update(seen)
        out.extend(c for c in seen.values() if c["spec"][3] >= 4)
    missing = [w for w in XI_COMPOSE_WORDINGS if w not in reached]

    for p, n, m in ((3, 2, 2), (3, 3, 2)):
        for seed in range(16):
            out.append(record(["xi", ["power", ["affine", p], m], n, seed], "weak"))

    # failing powers, named at the power's own point pair: a corrupted cube,
    # squares of failing xi (row-classes mask 1 fails first in C^T, where
    # the xi names the swapped pair and its square the raw one) and a
    # power of a power
    for mode in ("weak", "full"):
        out.append(record(["power", ["corrupt", aff3, 0], 3], mode))
    for seed in range(4):
        out.append(record(["power", ["xi", aff3, 2, seed], 2], "weak"))
    for spec in (["row-classes", aff3, 1], ["power", ["row-classes", aff3, 1], 2]):
        out.append(record(spec, "weak"))
    for mode in ("weak", "full"):
        out.append(record(["power", ["power", ["labels", 3, 2, [[0, 1, 1]]], 2], 2], mode))

    # complement failures of powers and of xi over a power; in the
    # renumbered plane atom 0 is the slope a0 and 1' is atom 2
    for spec in (
        ["power", ["affine", 4], 2],
        ["power", ["doubled", 3], 2],
        ["power", ["atom-order", aff3, [2, 0, 4, 1, 3]], 3],
        ["xi", ["power", ["affine", 4], 2], 1, 0],
    ):
        out.append(record(spec, "full"))
    return out, missing


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)["cases"]


GOLDEN = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize(
    "case",
    GOLDEN,
    ids=[re.sub(r"\W+", "-", f"{_key(c['spec'])} {c['mode']}").strip("-") for c in GOLDEN],
)
def test_certificate_replays(case):
    assert record(case["spec"], case["mode"]) == case


def test_corpus_covers_every_clause_kind():
    clauses = {c["clause"] for c in GOLDEN}
    assert {None, "compose", "complement", "top"} <= clauses


if __name__ == "__main__":
    cases, missing = corpus()
    with open(FIXTURE, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")
    print("xi compose wordings no seed reaches:", ", ".join(missing) or "none")
