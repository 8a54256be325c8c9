import random

import pytest
from hypothesis import given, settings, strategies as st

from relalg import (
    build_affine,
    build_doubled,
    build_lpn,
    build_power,
    degree_audit,
    image,
    network_check,
    verify_full,
    verify_weak,
)
from relalg.errors import ResourceBudgetError
from relalg.structures import (
    AtomLabeling,
    ImageRelation,
    Power,
    bits_to_rows,
    product_rows,
    rows_to_bits,
    transpose_rows,
)


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


def test_image_relation_helpers():
    rel = ImageRelation(3, 0b000_010_001)  # (0,0), (1,1)
    assert rel.has(0, 0) and rel.has(1, 1) and not rel.has(2, 2)
    assert rel.transpose().bits == rel.bits
    rows = [0b010, 0b100, 0b001]
    assert transpose_rows(rows, 3) == [0b100, 0b001, 0b010]
    assert bits_to_rows(rows_to_bits(rows, 3), 3) == rows
    # against a bit-by-bit reference on empty, wide, tall and sparse shapes
    rng = random.Random(3)
    for height, width in ((0, 4), (1, 1), (3, 7), (7, 3), (64, 65), (130, 2)):
        for density in (0, 0.1, 0.5, 1):
            rows = [
                sum(1 << j for j in range(width) if rng.random() < density)
                for _ in range(height)
            ]
            want = [
                sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
                for j in range(width)
            ]
            assert transpose_rows(rows, width) == want, (height, width, density)


# -- oracle equivalence: network check vs generic verifier ---------------------


def test_network_equals_generic_on_known_structures(aff3, doubled3):
    for s in (aff3, doubled3):
        assert network_check(s).ok == verify_weak(s).ok


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
