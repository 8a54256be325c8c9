import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from relalg import (
    build_affine,
    build_doubled,
    build_lpn,
    build_power,
    degree_audit,
    image,
    verify_full,
    verify_weak,
)
from relalg import structures
from relalg.algebra import FiniteRelationAlgebra
from relalg.errors import ResourceBudgetError
from relalg.structures import (
    AtomLabeling,
    ImageRelation,
    Power,
    Xi,
    _transpose_square,
    bits_to_rows,
    product_rows,
    rows_to_bits,
)

from oracles import network_check
from relalg.xi import PartitionRecipe


def test_affine_label_examples(aff3):
    # points (x1,x2) indexed x1*3+x2; (0,0)-(1,0): slope 0 -> a0
    assert aff3.labels[(0, 3)] == 1
    # (0,0)-(0,2): vertical -> a3
    assert aff3.labels[(0, 2)] == 4
    assert (0, 0) not in aff3.labels


def test_affine_total_and_regular(aff3):
    d = aff3.base_size
    assert d == 9
    for u in range(d):
        for v in range(d):
            if u != v:
                assert (u, v) in aff3.labels
    # q-1 partners per slope atom at every point
    for a in range(1, 5):
        img = image(aff3, 1 << a)
        assert img.degree_range() == (2, 2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_affine_verifies_fully(q):
    s = build_affine(q)
    assert verify_full(s).ok
    assert verify_weak(s).ok
    audit = degree_audit(s, claim_full=True)
    assert audit.ok
    for a, (lo, hi) in audit.degrees.items():
        assert lo == hi == q - 1


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_affine_matches_set_builder_oracle(q):
    # independent construction: R_s = pairs whose difference vector is
    # (j, s*j) for some nonzero j; R_q = vertical differences (0, j)
    from relalg.gf import field_make

    fld = field_make(q)
    s = build_affine(q)
    relations = {}
    for slope in range(q):
        relations[slope] = {
            (fld.add(x1, j), fld.add(x2, fld.mul(slope, j)), x1, x2)
            for j in range(1, q)
            for x1 in range(q)
            for x2 in range(q)
        }
    for x1 in range(q):
        for x2 in range(q):
            for y1 in range(q):
                for y2 in range(q):
                    u, v = x1 * q + x2, y1 * q + y2
                    if u == v:
                        continue
                    label = s.labels[(u, v)]
                    vertical = x1 == y1
                    if vertical:
                        assert label == 1 + q
                    else:
                        matches = [
                            sl for sl in range(q) if (y1, y2, x1, x2) in relations[sl]
                        ]
                        assert matches == [label - 1]


def test_affine_needs_prime_power():
    with pytest.raises(ValueError):
        build_affine(6)
    with pytest.raises(ValueError):
        build_affine(2)


def test_doubled_structure(doubled3):
    assert doubled3.base_size == 18
    t1 = 5  # atom index of t1 in L(3,1)
    assert doubled3.labels[(0, 9)] == t1
    assert doubled3.labels[(9 + 4, 2)] == t1
    aff = build_affine(3)
    for (u, v), a in aff.labels.items():
        assert doubled3.labels[(u, v)] == a
        assert doubled3.labels[(9 + u, 9 + v)] == a
    assert verify_full(doubled3).ok


def test_doubled_degree_audit(doubled3):
    report = degree_audit(doubled3, claim_full=True)
    assert report.ok
    assert report.degrees[5] == (9, 9)  # t1: all cross partners
    for a in range(1, 5):
        assert report.degrees[a] == (2, 2)


def test_degree_audit_rejects_impossible_claim(l32):
    # any alleged full representation of L(3,2) fails: p-1 < 2n-1
    labels = dict(build_doubled(3).labels)
    # relabel into L(3,2) naming (same atom indices for 1',a*,t1)
    s = AtomLabeling(l32, 18, labels)
    report = degree_audit(s, claim_full=True)
    assert not report.ok
    assert "2n-1" in report.detail


def test_image_of_zero_and_identity(aff3):
    assert image(aff3, 0).bits == 0
    ident = image(aff3, 1)
    assert ident.pairs() == [(u, u) for u in range(9)]


def test_power_basics(aff3):
    assert build_power(aff3, 1) is aff3
    p2 = build_power(aff3, 2)
    assert p2.base_size == 81
    assert isinstance(p2, Power)
    with pytest.raises(ValueError):
        build_power(aff3, 0)


def test_power_degree_and_nonadditivity(aff3):
    p2 = build_power(aff3, 2)
    img_a0 = image(p2, 1 << 1)
    assert img_a0.degree_range() == (4, 4)  # (q-1)^m
    union = img_a0.bits | image(p2, 1 << 2).bits
    joint = image(p2, (1 << 1) | (1 << 2)).bits
    assert joint & union == union
    assert joint != union  # mixed-coordinate pairs witness non-additivity
    extra = joint & ~union
    u, v = divmod((extra & -extra).bit_length() - 1, 81)
    # the witness pair mixes an a0 step with an a1 step coordinatewise
    u0, u1 = divmod(u, 9)
    v0, v1 = divmod(v, 9)
    labels = {aff3.labels[(u0, v0)], aff3.labels[(u1, v1)]}
    assert labels == {1, 2}


def test_power_point_encoding_is_coordinatewise(aff3):
    p2 = build_power(aff3, 2)
    rng = random.Random(5)
    img = image(p2, aff3.algebra.top_mask)  # some composite element
    inner_img = image(aff3, aff3.algebra.top_mask)
    for _ in range(200):
        u = rng.randrange(81)
        v = rng.randrange(81)
        u0, u1 = divmod(u, 9)
        v0, v1 = divmod(v, 9)
        expected = inner_img.has(u0, v0) and inner_img.has(u1, v1)
        assert img.has(u, v) == expected


def test_power_functoriality_on_random_elements(aff3):
    p2 = build_power(aff3, 2)
    rng = random.Random(17)
    for _ in range(20):
        mask = rng.randrange(1, aff3.algebra.top_mask + 1)
        img = image(p2, mask)
        inner = image(aff3, mask)
        for _ in range(50):
            u, v = rng.randrange(81), rng.randrange(81)
            u0, u1 = divmod(u, 9)
            v0, v1 = divmod(v, 9)
            assert img.has(u, v) == (inner.has(u0, v0) and inner.has(u1, v1))


def test_power_cube_encoding(aff3):
    p3 = build_power(aff3, 3)
    assert p3.base_size == 729
    rng = random.Random(31)
    inner = image(aff3, 0b10110)
    img = image(p3, 0b10110)
    for _ in range(300):
        u, v = rng.randrange(729), rng.randrange(729)
        coords = [(u // 81, v // 81), (u // 9 % 9, v // 9 % 9), (u % 9, v % 9)]
        assert img.has(u, v) == all(inner.has(a, b) for a, b in coords)


def test_power_weak_but_not_full(aff3):
    p2 = build_power(aff3, 2)
    weak = verify_weak(p2)
    assert weak.ok
    fullr = verify_full(p2)
    assert not fullr.ok
    assert fullr.failure.clause == "complement"
    u, v = fullr.failure.point
    # the certificate pair lies in no atom image: unlabeled in the power
    for a in range(p2.algebra.atom_count):
        assert not image(p2, 1 << a).has(u, v)


def test_lift_product_identity(aff3):
    # boolean product commutes with the coordinatewise lift; independent
    # cross-check of the power composition semantics
    rng = random.Random(3)
    d = 9
    for _ in range(10):
        x = rng.randrange(1, 32)
        y = rng.randrange(1, 32)
        xr = bits_to_rows(image(aff3, x).bits, d)
        yr = bits_to_rows(image(aff3, y).bits, d)
        inner_prod = product_rows(xr, yr)
        p2 = build_power(aff3, 2)
        big_prod = product_rows(
            bits_to_rows(image(p2, x).bits, 81), bits_to_rows(image(p2, y).bits, 81)
        )
        for u in range(81):
            u0, u1 = divmod(u, 9)
            row = 0
            for j0 in range(9):
                if inner_prod[u0] >> j0 & 1:
                    row |= inner_prod[u1] << (j0 * 9)
            assert row == big_prod[u]


def test_verify_catches_bad_two_point_structure(l30):
    # both off-diagonal pairs labeled a0: composition a1;a2 needs a
    # witness chain that two points cannot provide
    s = AtomLabeling(l30, 2, {(0, 1): 1})
    report = verify_weak(s)
    assert not report.ok
    net = network_check(s)
    assert not net.ok


def test_dense_verifier_catches_bad_inner(l30):
    # a power of a broken labeling is broken; the whole-matrix engine
    # must find it
    bad = AtomLabeling(l30, 2, {(0, 1): 1})
    report = verify_weak(build_power(bad, 2))
    assert not report.ok
    assert report.failure.clause in ("compose", "injective", "meet")


def test_verify_budget_guard(aff3):
    with pytest.raises(ResourceBudgetError):
        verify_weak(build_power(aff3, 5))  # base 59049
    with pytest.raises(ResourceBudgetError):
        image(build_power(aff3, 5), 1)
    # 2^18 images of 256x256 bits: refused before any image is built
    with pytest.raises(ResourceBudgetError):
        verify_full(build_affine(16))


def test_labeling_validation(l30):
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 0): 1})  # diagonal
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 1): 0})  # identity label off-diagonal
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 5): 1})  # point outside base
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 1): 99})  # not an atom


def test_structure_values_are_frozen_and_hashable(aff3):
    rel = ImageRelation(3, 0b1)
    power = Power(aff3, 2)
    part = PartitionRecipe(0, 2, aff3.base_size)
    xi = Xi(aff3, 2, part, build_lpn(3, 2))
    for value, name in ((rel, "bits"), (power, "m"), (xi, "n"), (xi, "algebra")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert rel == ImageRelation(3, 0b1) and hash(rel) == hash(ImageRelation(3, 0b1))
    assert rel != (3, 0b1) and rel != ImageRelation(3, 0b11)
    assert power == Power(aff3, 2) and hash(power) == hash(Power(aff3, 2))
    assert power != Power(aff3, 3)
    # Xi values that differ only in their algebra object are equal
    twin = Xi(aff3, 2, part, build_lpn(3, 2))
    assert twin.algebra is not xi.algebra
    assert twin == xi and hash(twin) == hash(xi)
    assert Xi(aff3, 2, PartitionRecipe(0, 2, aff3.base_size), xi.algebra) != xi


def test_image_relation_helpers():
    rel = ImageRelation(3, 0b000_010_001)  # (0,0), (1,1)
    assert rel.has(0, 0) and rel.has(1, 1) and not rel.has(2, 2)
    assert rel.transpose().bits == rel.bits
    rows = [0b010, 0b100, 0b001]
    assert ImageRelation(3, rows_to_bits(rows, 3)).transpose().rows() == [0b100, 0b001, 0b010]
    assert bits_to_rows(rows_to_bits(rows, 3), 3) == rows
    # the pairwise join against the shift loop it replaced, with zero rows
    # at the bottom, inside and on top, and odd and even row counts

    def shift_loop(rows, cols):
        out = 0
        for row in reversed(rows):
            out = (out << cols) | row
        return out

    for d in (1, 2, 7, 81, 729):
        rng = random.Random(d)
        rows = [0 if u % 3 == 0 else rng.getrandbits(d) for u in range(d)]
        rows[-1] = 0
        for case in (rows, [0] * d, rows[: d // 2 + 1], rows[1:], []):
            assert rows_to_bits(case, d) == shift_loop(case, d), (d, len(case))
        assert bits_to_rows(rows_to_bits(rows, d), d) == rows
    # the square transpose against a bit-by-bit reference, on random
    # inputs from empty to full and on the strict upper triangle, which is
    # not symmetric for d >= 2
    rng = random.Random(3)
    for d in (1, 2, 3, 7, 65):
        cells = [(u, v) for u in range(d) for v in range(d)]
        inputs = [
            {cell for cell in cells if rng.random() < density}
            for density in (0, 0.1, 0.5, 1)
        ]
        inputs.append({(u, v) for u, v in cells if u < v})
        for pairs in inputs:
            bits = sum(1 << (u * d + v) for u, v in pairs)
            want = sum(1 << (v * d + u) for u, v in pairs)
            assert _transpose_square(bits, d) == want, (d, len(pairs))


# -- oracle equivalence: network check vs generic verifier ---------------------


def _permuted(s: AtomLabeling, seed: int) -> AtomLabeling:
    perm = list(range(s.base_size))
    random.Random(seed).shuffle(perm)
    labels = {(perm[u], perm[v]): a for (u, v), a in s.labels.items()}
    return AtomLabeling(s.algebra, s.base_size, labels)


def _corrupted(s: AtomLabeling, seed: int) -> AtomLabeling:
    """s with one edge (and its converse) relabeled by another atom."""
    rng = random.Random(seed)
    labels = dict(s.labels)
    edge = rng.choice(sorted(labels))
    others = [
        a
        for a in range(s.algebra.atom_count)
        if a != labels[edge] and not (1 << a) & s.algebra.identity_mask
    ]
    labels[edge] = rng.choice(others)
    del labels[edge[::-1]]
    return AtomLabeling(s.algebra, s.base_size, labels)


def test_network_equals_generic_on_known_structures(aff3, doubled3):
    for s in (aff3, doubled3):
        assert network_check(s).ok == verify_weak(s).ok


def test_network_equals_generic_on_permuted_and_corrupted_planes():
    # seeded point permutations of full representations, and one corrupted
    # edge of each: the oracle must agree on both verdicts
    verdicts = []
    for seed, build in enumerate(
        [lambda q=q: build_affine(q) for q in (3, 4, 5, 7)]
        + [lambda q=q: build_doubled(q) for q in (3, 5)]
    ):
        s = _permuted(build(), seed)
        for t in (s, _corrupted(s, seed)):
            generic = verify_weak(t)
            assert network_check(t).ok == generic.ok
            verdicts.append(generic.ok)
    assert verdicts == [True, False] * 6


@given(st.data())
@settings(max_examples=40)
def test_network_equals_generic_on_random_labelings(data):
    alg = build_lpn(3, 0)
    d = data.draw(st.integers(min_value=1, max_value=6))
    labels = {}
    for u in range(d):
        for v in range(u + 1, d):
            a = data.draw(
                st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
                label=f"edge {u},{v}",
            )
            if a is not None:
                labels[(u, v)] = a
    s = AtomLabeling(alg, d, labels)
    assert network_check(s).ok == verify_weak(s).ok


def test_power_of_verified_structure_stays_weak():
    # permuted copies of the affine structure are still weak reps, and
    # their squares remain weak reps
    rng = random.Random(99)
    base = build_affine(3)
    for _ in range(2):
        perm = list(range(9))
        rng.shuffle(perm)
        labels = {
            (perm[u], perm[v]): a for (u, v), a in base.labels.items()
        }
        s = AtomLabeling(base.algebra, 9, labels)
        assert verify_weak(s).ok
        assert verify_weak(build_power(s, 2)).ok


# -- compose and meet: the atom-pair decision vs element pairs -----------------


def _s3_cayley() -> AtomLabeling:
    """The complex algebra of the symmetric group S3 (neither symmetric nor
    commutative), represented on its own elements: (u, v) has atom u^-1 v."""
    group = sorted(permutations(range(3)))  # group[0] is the identity
    prod = [[group.index(tuple(g[h[i]] for i in range(3))) for h in group] for g in group]
    inv = [row.index(0) for row in prod]
    comp = [[1 << c for c in row] for row in prod]
    alg = FiniteRelationAlgebra([f"g{i}" for i in range(6)], [0], inv, comp)
    labels = {(u, v): prod[inv[u]][v] for u in range(6) for v in range(6) if u != v}
    return AtomLabeling(alg, 6, labels)


def _xi(q: int, n: int, seed: int) -> Xi:
    theta = build_affine(q)
    return Xi(theta, n, PartitionRecipe(seed, n, theta.base_size), build_lpn(q, n))


def _without_atom(q: int, atom: int) -> AtomLabeling:
    """The affine plane with every edge of one slope atom relabeled a0."""
    s = build_affine(q)
    labels = {e: (1 if a == atom else a) for e, a in s.labels.items()}
    return AtomLabeling(s.algebra, s.base_size, labels)


def _two_copies(q: int) -> AtomLabeling:
    """Two affine planes and no cross edge: weak, but image(1) is partial."""
    s = build_affine(q)
    d = s.base_size
    labels = dict(s.labels)
    labels.update({(u + d, v + d): a for (u, v), a in s.labels.items()})
    return AtomLabeling(s.algebra, 2 * d, labels)


def _reference_compose_meet(structure):
    """Compose and meet on every ordered element pair, from their definition.

    The product of two images is product_rows of their rows, compared with
    the image of x;y; their intersection is compared with the image of
    x.y.  Returns (certificate, pairs): the first failing pair as
    (clause, elements, point, x;y) with the point where the verifier names
    it, or None; and the element pairs the verifier decides up to there,
    which are the pairs with y >= x when the algebra is symmetric and
    commutative.
    """
    alg = structure.algebra
    n = alg.top_mask + 1
    half = alg.is_symmetric and alg.is_commutative
    rows = [image(structure, x).rows() for x in range(n)]
    pairs = 0
    for x in range(n):
        for y in range(n):
            pairs += not (half and y < x)
            z = alg.compose_masks(x, y)
            for clause, got, want in (
                ("compose", product_rows(rows[x], rows[y]), rows[z]),
                ("meet", [u & v for u, v in zip(rows[x], rows[y])], rows[x & y]),
            ):
                diff = [g ^ w for g, w in zip(got, want)]
                if any(diff):
                    elements, point = _reported_point(structure, clause, (x, y), diff)
                    return (clause, elements, point, z), pairs
    return None, pairs


def _reported_point(structure, clause, elements, diff_rows):
    """The first differing point pair in the verifier's image layout:
    row-major for labelings; for Xi the blocks D, D', C (pairs (x,y')),
    C^T in that order, with a compose difference in C^T reported as the
    cross-block difference of y;x."""
    d = structure.base_size
    cells = [(u, v) for u in range(d) for v in range(d) if diff_rows[u] >> v & 1]
    if not isinstance(structure, Xi):
        return elements, min(cells)
    h = d // 2
    for block in ((0, 0), (1, 1), (0, 1), (1, 0)):
        inside = [(u, v) for u, v in cells if (u >= h, v >= h) == block]
        if inside and clause == "compose" and block == (1, 0):
            return elements[::-1], min((v, u) for u, v in inside)
        if inside:
            return elements, min(inside)


CASES = {
    "affine 3": lambda: build_affine(3),
    "affine 4": lambda: build_affine(4),
    "affine 5": lambda: build_affine(5),
    "doubled 3": lambda: build_doubled(3),
    "xi n=1 over affine 3": lambda: _xi(3, 1, 0),
    "xi n=1 over affine 4": lambda: _xi(4, 1, 0),
    "xi n=1 over affine 5": lambda: _xi(5, 1, 0),
    "S3 cayley": _s3_cayley,
    "affine 3, one edge corrupted": lambda: _corrupted(build_affine(3), 1),
    "affine 4, one edge corrupted": lambda: _corrupted(build_affine(4), 2),
    "S3 cayley, one edge corrupted": lambda: _corrupted(_s3_cayley(), 3),
    "affine 3 never using a3": lambda: _without_atom(3, 4),
    "two affine 3 planes": lambda: _two_copies(3),
    "xi n=2 over affine 3, seed 0": lambda: _xi(3, 2, 0),
    "xi n=2 over affine 3, seed 1": lambda: _xi(3, 2, 1),
    "xi n=2 over affine 4, seed 2": lambda: _xi(4, 2, 2),
}
# verify_weak and verify_full: None for PASS, else the failing clause
EXPECTED = {
    "affine 3": (None, None),
    "affine 4": (None, None),
    "affine 5": (None, None),
    "doubled 3": (None, None),
    "xi n=1 over affine 3": (None, None),
    "xi n=1 over affine 4": (None, None),
    "xi n=1 over affine 5": (None, None),
    "S3 cayley": (None, None),
    "affine 3, one edge corrupted": ("compose", "compose"),
    "affine 4, one edge corrupted": ("compose", "compose"),
    "S3 cayley, one edge corrupted": ("compose", "compose"),
    "affine 3 never using a3": ("compose", "compose"),
    "two affine 3 planes": (None, "top"),
    "xi n=2 over affine 3, seed 0": ("compose", "compose"),
    "xi n=2 over affine 3, seed 1": ("compose", "compose"),
    "xi n=2 over affine 4, seed 2": ("compose", "compose"),
}
# the reference takes about 15 s on the 65,536 ordered pairs of 50-point
# images of xi over affine 5; the loop-skip test below still runs it
REFERENCE_CASES = sorted(set(CASES) - {"xi n=1 over affine 5"})


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_atom_pair_decision_matches_element_pairs(name):
    s = CASES[name]()
    cert, pairs = _reference_compose_meet(s)
    reports = verify_weak(s), verify_full(s)
    verdicts = tuple(None if r.ok else r.failure.clause for r in reports)
    assert verdicts == EXPECTED[name]
    for report, mode in zip(reports, ("weak", "full")):
        assert report.mode == mode
        assert report.pairs_checked == pairs
        if cert is None:
            assert report.ok or report.failure.clause == "top"
            continue
        clause, elements, point, z = cert
        failure = report.failure
        assert (failure.clause, failure.elements, failure.point) == (
            clause,
            elements,
            point,
        )
        if clause == "compose":
            assert f"= {s.algebra.format_mask(z)})" in failure.detail


@pytest.mark.parametrize("name", sorted(CASES))
def test_additive_pass_skips_the_element_pair_loop(name, monkeypatch):
    # the loop calls _spans twice per element; an Xi layout calls it once
    # to build its images
    s = CASES[name]()
    calls = []
    spans = structures._spans
    monkeypatch.setattr(structures, "_spans", lambda v: calls.append(1) or spans(v))
    report = verify_weak(s)
    setup = 1 if isinstance(s, Xi) else 0
    if report.ok:
        assert len(calls) == setup
    else:
        assert len(calls) > setup


def test_power_pass_runs_the_element_pair_loop(monkeypatch):
    # power images are not additive: the loop runs, one _spans per element
    calls = []
    spans = structures._spans
    monkeypatch.setattr(structures, "_spans", lambda v: calls.append(1) or spans(v))
    s = build_power(build_affine(3), 2)
    assert verify_weak(s).ok
    assert len(calls) == s.algebra.top_mask + 1
