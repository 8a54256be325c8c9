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
from relalg.algebra import FiniteRelationAlgebra, iter_bits
from relalg.errors import ResourceBudgetError
from relalg.fileformat import parse_algebra
from relalg.structures import (
    AtomLabeling,
    ImageRelation,
    Power,
    Xi,
    _RowMajor,
    _low_bit,
    _square_product,
    _transpose_square,
    bits_to_rows,
    full_bits,
    product_rows,
    rows_to_bits,
)

from oracles import network_check
from relalg.xi import ExplicitPartition, PartitionRecipe, XiFastChecker


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


def test_affine_refuses_planes_above_max_q():
    # the tests build planes up to q = 16; q = 29 would store 706,440 labels
    assert structures.MAX_AFFINE_Q >= 16
    for q in (structures.MAX_AFFINE_Q + 1, 29, 64, 251):
        with pytest.raises(ResourceBudgetError):
            build_affine(q)


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


@pytest.mark.parametrize("kind", ["labeling", "power", "xi"])
def test_image_refuses_a_mask_outside_the_algebra(kind, aff3):
    s = {
        "labeling": aff3,
        "power": build_power(aff3, 2),
        "xi": _xi(3, 1, 0),
    }[kind]
    top = s.algebra.top_mask
    assert image(s, top).bits
    for mask in (top + 1, 1 << s.algebra.atom_count + 2, -1):
        with pytest.raises(ValueError, match="not an element"):
            image(s, mask)


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
    assert report.failure.clause == "compose"


def test_verify_budget_guard(aff3, l30, monkeypatch):
    # an edgeless labeling of 70,000 points: its 5 atom images, their 25
    # products and 5 images of working rows are about 40 times the budget
    bare = AtomLabeling(l30, 70_000, {})
    # xi n=2 over the 4th power of affine 3 (13,122 points) holds its 34
    # part images, their wide copy, one row of 34 products and the product
    # rows they are cut from, about 5.6 times the budget
    xi_power = _xi_over(build_power(aff3, 4), 2, 0)

    def formed(*args):
        raise AssertionError("an image was formed before the budget refused")

    for name in ("_image_bits", "_image_rows", "_RowMajor"):
        monkeypatch.setattr(structures, name, formed)
    # one whole image of the 5th power of affine 3 (59,049 points) peaks
    # at five images, over the 2^32-bit budget
    with pytest.raises(ResourceBudgetError, match="an image of 59049 points would form"):
        image(build_power(aff3, 5), 1)
    # both verifications are refused before any image is formed
    for structure in (bare, xi_power):
        for verify in (verify_weak, verify_full):
            with pytest.raises(ResourceBudgetError, match="verifying would form"):
                verify(structure)
    # an xi image transposes its cross block through text and peaks at 8
    # images: nine are charged, so xi over the square of affine 11 (29,282
    # points) is refused, though a power of that size would not be
    xi = _xi_over(build_power(build_affine(11), 2), 2, 0)
    with pytest.raises(ResourceBudgetError, match="an image of 29282 points would form"):
        image(xi, 1 << 6)


def test_affine_16_and_its_square_verify_from_atom_pairs():
    # 18 atoms: 2^18 images of affine 16 would be over the budget, its
    # 18^2 atom products are not
    s = build_affine(16)
    for verify in (verify_weak, verify_full):
        report = verify(s)
        assert report.ok and report.pairs_checked == 34_359_869_440
    square = build_power(s, 2)
    assert verify_weak(square).ok
    failure = verify_full(square).failure
    assert (failure.clause, failure.elements, failure.point) == ("complement", (1,), (0, 1))
    assert failure.describe(s.algebra).startswith("complement failed for (1')")


def test_labeling_validation(l30):
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 0): 1})  # diagonal
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 1): 0})  # identity label off-diagonal
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 5): 1})  # point outside base
    with pytest.raises(ValueError):
        AtomLabeling(l30, 3, {(0, 1): 99})  # not an atom


def test_labeling_refuses_two_identity_atoms():
    # the diagonal carries one label, so 1' must be a single atom
    alg = FiniteRelationAlgebra(["e0", "e1"], [0, 1], [0, 1], [[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="one identity atom"):
        AtomLabeling(alg, 2, {})


def test_unused_atom_fails_injective_not_compose():
    # the file table is not checked against the axioms: z composes to 0
    # with every atom, so with no edge carrying it image(z) = image(0)
    # while compose holds; the first collision is (0, z)
    alg = parse_algebra(
        "ra v1\natoms 3 1' e z\nidentity 1'\nsymmetric true\n"
        "comp 1' 1' = 1'\ncomp 1' e = e\ncomp e e = 1'\n"
        "comp 1' z = 0\ncomp e z = 0\ncomp z z = 0\n"
    )
    s = AtomLabeling(alg, 2, {(0, 1): 1})
    for t in (s, build_power(s, 2)):
        for verify in (verify_weak, verify_full):
            report = verify(t)
            assert not report.ok
            assert report.failure[:3] == ("injective", (0, 1 << 2), None)
            assert report.pairs_checked == 36


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
        # the halving split against one shift per row, with stray bits
        # above the last row, which no row keeps
        bits = rng.getrandbits(d * d + 9)
        mask = (1 << d) - 1
        assert bits_to_rows(bits, d) == [bits >> (u * d) & mask for u in range(d)]
    assert bits_to_rows(5, 0) == []
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


def _copies(q: int, n: int = 2) -> AtomLabeling:
    """n affine planes and no cross edge: weak, but image(1) is partial."""
    s = build_affine(q)
    d = s.base_size
    labels = {(u + c * d, v + c * d): a for c in range(n) for (u, v), a in s.labels.items()}
    return AtomLabeling(s.algebra, n * d, labels)


def _row_classes(q: int, mask: int) -> Xi:
    """xi n = 2 over the affine plane, (x, y') in class 1 + bit x of mask;
    mask 1 over affine 3 fails compose first in the C^T block."""
    theta = build_affine(q)
    d = theta.base_size
    classes = {(x, y): 1 + (mask >> x & 1) for x in range(d) for y in range(d)}
    return Xi(theta, 2, ExplicitPartition(2, d, classes), build_lpn(q, 2))


def _half_classes() -> Xi:
    """xi n = 2 over the affine plane of order 4, (x, y') in class 1 when
    the first coordinates of x and y lie in the same half of GF(4).  Every
    line but a vertical one meets both halves, so compose first fails at
    (a4, t1), past the atom pairs of a0."""
    theta = build_affine(4)
    half = [u // 4 >> 1 for u in range(16)]
    classes = {(x, y): 1 + (half[x] ^ half[y]) for x in range(16) for y in range(16)}
    return Xi(theta, 2, ExplicitPartition(2, 16, classes), build_lpn(4, 2))


def _flattened(xi: Xi) -> AtomLabeling:
    """An xi over a labeling as one labeling of its algebra on D + D'."""
    inner, d = xi.inner, xi.inner.base_size
    t0 = xi.algebra.atom_count - xi.n - 1  # class c is atom t0 + c
    labels = {(u + c * d, v + c * d): a for c in (0, 1) for (u, v), a in inner.labels.items()}
    labels.update(
        ((x, d + y), t0 + xi.partition.class_of(x, y)) for x in range(d) for y in range(d)
    )
    return AtomLabeling(xi.algebra, 2 * d, labels)


def _renumbered(s: AtomLabeling, order: list[int]) -> AtomLabeling:
    """s over its algebra with the atoms renumbered: atom i is order[i]."""
    alg = s.algebra
    new = {a: i for i, a in enumerate(order)}

    def move(mask):
        return sum(1 << new[a] for a in iter_bits(mask))

    renumbered = FiniteRelationAlgebra(
        [alg.atom_names[a] for a in order],
        [new[a] for a in alg.identity_atoms],
        [new[alg.converse[a]] for a in order],
        [[move(alg.comp[a][b]) for b in order] for a in order],
    )
    return AtomLabeling(renumbered, s.base_size, {e: new[a] for e, a in s.labels.items()})


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
    # the corrupted edge moved between a0 and a1; with both last, compose
    # first fails at (a2, a0), late in the row of atom 1
    "affine 4, one edge corrupted, its two slopes last": lambda: _renumbered(
        _corrupted(build_affine(4), 2), [0, 3, 4, 5, 1, 2]
    ),
    "xi n=2 over affine 4 with half classes": _half_classes,
    "labeling of xi n=2 over affine 4 with half classes": lambda: _flattened(_half_classes()),
    "S3 cayley, one edge corrupted": lambda: _corrupted(_s3_cayley(), 3),
    "affine 3 never using a3": lambda: _without_atom(3, 4),
    "two affine 3 planes": lambda: _copies(3),
    "xi n=2 over affine 3, seed 0": lambda: _xi(3, 2, 0),
    "xi n=2 over affine 3, seed 1": lambda: _xi(3, 2, 1),
    "xi n=2 over affine 4, seed 2": lambda: _xi(4, 2, 2),
    "square of affine 3": lambda: build_power(build_affine(3), 2),
    "square of affine 3, one edge corrupted": lambda: build_power(
        _corrupted(build_affine(3), 1), 2
    ),
    "square of S3 cayley": lambda: build_power(_s3_cayley(), 2),
    "square of S3 cayley, one edge corrupted": lambda: build_power(
        _corrupted(_s3_cayley(), 3), 2
    ),
    "square of two affine 3 planes": lambda: build_power(_copies(3), 2),
    "square of xi n=2 over affine 3, seed 0": lambda: build_power(_xi(3, 2, 0), 2),
    "square of xi over affine 3 with row classes": lambda: build_power(
        _row_classes(3, 1), 2
    ),
    "square of the square of one a0 edge": lambda: build_power(
        build_power(AtomLabeling(build_lpn(3, 0), 2, {(0, 1): 1}), 2), 2
    ),
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
    "affine 4, one edge corrupted, its two slopes last": ("compose", "compose"),
    "xi n=2 over affine 4 with half classes": ("compose", "compose"),
    "labeling of xi n=2 over affine 4 with half classes": ("compose", "compose"),
    "S3 cayley, one edge corrupted": ("compose", "compose"),
    "affine 3 never using a3": ("compose", "compose"),
    "two affine 3 planes": (None, "top"),
    "xi n=2 over affine 3, seed 0": ("compose", "compose"),
    "xi n=2 over affine 3, seed 1": ("compose", "compose"),
    "xi n=2 over affine 4, seed 2": ("compose", "compose"),
    "square of affine 3": (None, "complement"),
    "square of affine 3, one edge corrupted": ("compose", "compose"),
    "square of S3 cayley": (None, "complement"),
    "square of S3 cayley, one edge corrupted": ("compose", "compose"),
    "square of two affine 3 planes": (None, "top"),
    "square of xi n=2 over affine 3, seed 0": ("compose", "compose"),
    "square of xi over affine 3 with row classes": ("compose", "compose"),
    "square of the square of one a0 edge": ("compose", "compose"),
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
            # compose and meet hold; a power's complement never does
            assert report.ok or report.failure.clause in ("top", "complement")
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


def test_power_decides_on_its_inner_images(monkeypatch):
    # a power, passing or failing, forms no product above its innermost
    # base; a failing one names a point pair where its own product and
    # composed image differ
    sizes = []
    square, product = structures._square_product, structures.product_rows
    monkeypatch.setattr(
        structures, "_square_product", lambda a, b, d: sizes.append(d) or square(a, b, d)
    )
    monkeypatch.setattr(
        structures, "product_rows", lambda x, y: sizes.append(len(x)) or product(x, y)
    )
    failed = 0
    for name in sorted(CASES):
        s = CASES[name]()
        if not isinstance(s, Power):
            continue
        base = s
        while isinstance(base, Power):
            base = base.inner
        sizes.clear()
        report, _ = verify_weak(s), verify_full(s)
        assert sizes and max(sizes) <= base.base_size, name
        if report.ok:
            continue
        failed += 1
        d = s.base_size
        assert report.failure.clause == "compose", name
        x, y = report.failure.elements
        u, v = report.failure.point
        power_product = square(image(s, x).bits, image(s, y).bits, d)
        composed = image(s, s.algebra.compose_masks(x, y))
        assert bool(power_product >> (u * d + v) & 1) != composed.has(u, v), name
    assert failed == 5


def test_power_of_a_power_verifies_as_one_power():
    # (T^2)^2 and T^4 are one relation on the same point indices, so both
    # verify alike; full mode names the power's own point pair
    s3 = _s3_cayley()
    nested, flat = build_power(build_power(s3, 2), 2), build_power(s3, 4)
    for x in (1, 2, 6, s3.algebra.top_mask):
        assert image(nested, x) == image(flat, x)
    for verify in (verify_weak, verify_full):
        assert verify(nested) == verify(flat)
    assert verify_full(flat).failure.clause == "complement"


@pytest.mark.parametrize(
    "q, n, exponents",
    # image() forms whole images of at most 29,308 points (five images within
    # the 2^32-bit budget), so nested powers take a unit exponent
    [(3, 2, (2,)), (3, 2, (3,)), (3, 3, (2,)), (4, 2, (2,)), (4, 3, (2,)),
     (3, 2, (1, 3)), (3, 2, (3, 1)), (4, 2, (1, 2))],
)
def test_power_top_is_named_on_its_innermost_structure(q, n, exponents):
    # the first pair T^m misses has the index of the first pair T misses
    s = _permuted(_copies(q, n), seed=q * n)
    for m in exponents:
        s = Power(s, m)
    report = verify_full(s)
    assert report.failure.clause == "top"
    d = s.base_size
    missing = image(s, s.algebra.top_mask).bits ^ full_bits(d, d)
    assert report.failure.point == divmod(_low_bit(missing), d)


def _slope_first(q: int) -> AtomLabeling:
    """The affine plane with its first two atoms swapped, so that atom 0
    is the slope a0 and 1' is atom 1."""
    return _renumbered(build_affine(q), [1, 0, *range(2, q + 2)])


def _xi_over(inner, n: int, seed: int) -> Xi:
    p, _ = inner.algebra.lpn_params
    return Xi(inner, n, PartitionRecipe(seed, n, inner.base_size), build_lpn(p, n))


# every power here has at most 324 points, so image() forms its images whole
LABEL_ROUTE_CASES = {
    **CASES,
    "xi n=1 over the square of affine 3": lambda: _xi_over(
        build_power(build_affine(3), 2), 1, 0
    ),
    "affine 3, slope atom first": lambda: _slope_first(3),
    "square of affine 3, slope atom first": lambda: build_power(_slope_first(3), 2),
}


@pytest.mark.parametrize("name", sorted(LABEL_ROUTE_CASES))
def test_label_routes_match_whole_images(name):
    # the reference forms whole images with image(): complement is looped
    # over x in 1..2^(k-1)-1, a power's compose point is read off its own
    # product, and degree ranges are counted on its atom images
    s = LABEL_ROUTE_CASES[name]()
    alg, d = s.algebra, s.base_size
    report = verify_full(s)
    failure = report.failure
    if report.ok or failure.clause == "complement":
        want = None
        for x in range(1, 1 << (alg.atom_count - 1)):
            diff = full_bits(d, d) ^ image(s, x).bits ^ image(s, x ^ alg.top_mask).bits
            if diff:
                want = (x,), divmod(_low_bit(diff), d)
                break
        assert want == (None if report.ok else (failure.elements, failure.point))
    elif failure.clause == "compose" and isinstance(s, Power):
        x, y = failure.elements
        product = product_rows(image(s, x).rows(), image(s, y).rows())
        composed = image(s, alg.compose_masks(x, y)).rows()
        u = next(u for u in range(d) if product[u] != composed[u])
        assert failure.point == (u, _low_bit(product[u] ^ composed[u]))
    atoms = [a for a in range(alg.atom_count) if not (1 << a) & alg.identity_mask]
    assert degree_audit(s).degrees == {a: image(s, 1 << a).degree_range() for a in atoms}


@pytest.mark.parametrize("name", sorted(LABEL_ROUTE_CASES))
def test_additive_pass_skips_the_element_pair_loop(name, monkeypatch):
    # an additive structure (a labeling, xi over one, a power of either)
    # is decided on its atom pairs, pass or fail: it never enters the
    # element-pair loop, and outside a power's namer it forms inner images
    # of at most one atom.  Xi over a power scans its element pairs, forms
    # each inner element's image once (its class parts read the empty
    # one) and one wide product pass per x, and caches nothing across x.
    s = LABEL_ROUTE_CASES[name]()
    loops, masks, passes = [], [], []
    for fn, seen in (("_element_pairs", loops), ("_image_bits", masks), ("product_rows", passes)):
        real = getattr(structures, fn)
        monkeypatch.setattr(
            structures, fn, lambda *a, real=real, seen=seen: seen.append(a[-1]) or real(*a)
        )
    reports = verify_weak(s), verify_full(s)
    base = structures._innermost(s)[0]
    if isinstance(base, Xi) and isinstance(base.inner, Power):
        assert reports[0].ok and len(loops) == 2
        assert len(passes) == 2 << s.algebra.atom_count
        top = base.inner.algebra.top_mask
        assert sorted(masks) == sorted([*range(top + 1), *[0] * base.n] * 2)
    else:
        assert loops == []
        assert isinstance(s, Power) or all(m.bit_count() <= 1 for m in masks)


def _three_points(*edges) -> AtomLabeling:
    """A labeling of L(3,0) on three points with a0 on the given edges."""
    return AtomLabeling(build_lpn(3, 0), 3, dict.fromkeys(edges, 1))


# L(p,0) powers whose first union defect is not at (0, 1), or that have none
UNION_DEFECT_CASES = {
    "square of the edge-1-2 labeling": lambda: build_power(_three_points((1, 2)), 2),
    "cube of the edge-1-2 labeling": lambda: build_power(_three_points((1, 2)), 3),
    "square of the edgeless labeling": lambda: build_power(_three_points(), 2),
    "square of the square of affine 3": lambda: build_power(build_power(build_affine(3), 2), 2),
    "square of affine 5": lambda: build_power(build_affine(5), 2),
}


def test_union_defect_rows_match_whole_images():
    # the checker reads a power's union defect off Kronecker rows of its
    # innermost structure; the reference forms image(1) & ~(image(1') |
    # image(A)) whole and takes its lowest set bit
    found = []
    for name, build in sorted({**LABEL_ROUTE_CASES, **UNION_DEFECT_CASES}.items()):
        s = build()
        alg, d = s.algebra, s.base_size
        if alg.lpn_params is None or alg.lpn_params[1] != 0:
            continue
        e = alg.identity_mask
        extra = image(s, alg.top_mask).bits & ~(image(s, e).bits | image(s, alg.top_mask ^ e).bits)
        want = (e, divmod(_low_bit(extra), d)) if extra else None
        assert XiFastChecker(s, 2).union_defect == want, name
        found.append(want)
    assert None in found and (1, (1, 2)) in found and (1, (0, 1)) in found


LABELINGS = [name for name in sorted(CASES) if not name.startswith(("xi", "square"))]


@pytest.mark.parametrize("name", LABELINGS)
def test_labeling_atom_products_equal_square_products(name, monkeypatch):
    s = CASES[name]()
    assert isinstance(s, AtomLabeling)
    d, k = s.base_size, s.algebra.atom_count
    atom_img = [image(s, 1 << a).bits for a in range(k)]
    want = [[_square_product(p, q, d) for q in atom_img] for p in atom_img]
    assert list(map(_RowMajor(s).products, atom_img)) == want
    # and a passing labeling forms no d*d product at all
    calls = []
    monkeypatch.setattr(
        structures, "_square_product", lambda *a: calls.append(a) or _square_product(*a)
    )
    passed = verify_weak(s).ok
    verify_full(s)
    assert calls == [] or not passed
