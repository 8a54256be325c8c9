import math
import random
from fractions import Fraction

import pytest

from relalg import (
    build_affine,
    build_power,
    build_xi,
    check_xi_fast,
    degree_audit,
    eval_bounds,
    eval_bounds_power,
    image,
    montecarlo,
    search_weakrep,
    sufficiency_thresholds,
    verify_full,
    verify_weak,
)
from relalg import structures, xi
from relalg.errors import ResourceBudgetError
from relalg.structures import AtomLabeling, Xi, bits_to_rows, product_rows
from relalg.xi import ExplicitPartition, PartitionRecipe, XiFastChecker, mix64

from oracles import exact_bounds, network_check, whole_product_check


def mix64_reference(z):
    """Independent re-implementation: explicit byte-level wraparound."""
    mask = (1 << 64) - 1

    def mul(a, b):
        return int.from_bytes(
            ((a * b) & mask).to_bytes(8, "little"), "little"
        )

    z &= mask
    z = (z ^ (z >> 30)) & mask
    z = mul(z, 0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) & mask
    z = mul(z, 0x94D049BB133111EB)
    z = (z ^ (z >> 31)) & mask
    return z


def test_mix64_reference_values():
    # first outputs of the standard stream seeded with 0
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert mix64((2 * 0x9E3779B97F4A7C15) % 2**64) == 0x6E789E6AA1B965F4
    for z in (0, 1, 0xDEADBEEF, 2**64 - 1, 0x123456789ABCDEF0):
        assert mix64(z) == mix64_reference(z)


def test_partition_recipe_golden_vector():
    # classes of edges e = x*d+y for x=0, y=0..8 at seed=1, d=9, n=2,
    # computed once from the finalizer definition and cross-checked by
    # two independent mix64 implementations
    r = PartitionRecipe(1, 2, 9)
    assert [r.class_of(0, y) for y in range(9)] == [1, 2, 2, 2, 1, 1, 2, 2, 1]


def test_partition_recipe_bitsets_agree_with_classes(monkeypatch):
    # the block-of-rows lane hash against the per-pair definition, at the
    # seed extremes and at the block edges: d = 1 and 2, the whole square
    # in one block (d*d = 1,024 lanes, or 64) and just past it, where d*d
    # is no multiple of the block, two rows per block and one (d = 32 and
    # 33 under a 64-lane block), and d = 121
    for lanes, sizes in ((xi._FILL_LANES, (1, 2, 32, 33, 121)), (64, (1, 2, 8, 9, 32, 33))):
        monkeypatch.setattr(xi, "_FILL_LANES", lanes)
        for seed in (0, 1, 7, 2**64 - 1):
            for n in (1, 2, 3, 5, 7, 251):
                for d in sizes:
                    r = PartitionRecipe(seed, n, d)
                    want = [0] * n
                    for x in range(d):
                        for y in range(d):
                            want[r.class_of(x, y) - 1] |= 1 << (x * d + y)
                    assert [r.class_bits(i) for i in range(1, n + 1)] == want, (lanes, seed, n, d)
                    _assert_partitions_cross_pairs(r)


def test_explicit_partition_matches_recipe():
    r = PartitionRecipe(5, 2, 9)
    classes = {(x, y): r.class_of(x, y) for x in range(9) for y in range(9)}
    e = ExplicitPartition(2, 9, classes)
    assert [e.class_bits(i) for i in (1, 2)] == [r.class_bits(i) for i in (1, 2)]
    assert {pair: e.class_of(*pair) for pair in classes} == classes
    aff = build_affine(3)
    xa = build_xi(aff, 2, r)
    xb = build_xi(aff, 2, e)
    assert check_xi_fast(xb) == check_xi_fast(xa)
    assert verify_weak(xb) == verify_weak(xa)
    for mask in range(xa.algebra.top_mask + 1):
        assert image(xb, mask).bits == image(xa, mask).bits, mask


def test_explicit_partition_must_be_total():
    with pytest.raises(ValueError):
        ExplicitPartition(2, 3, {(0, 0): 1})


def _assert_partitions_cross_pairs(assignment):
    # each cross pair carries exactly one class: pairwise disjoint bitsets
    # whose union is all d*d pairs
    d, n = assignment.d, assignment.n
    union = 0
    for i in range(1, n + 1):
        bits = assignment.class_bits(i)
        assert not bits & union, i
        union |= bits
    assert union == (1 << d * d) - 1


def test_class_assignments_partition_the_cross_pairs():
    for seed in (0, 3, 2**64 - 1):
        for n in (1, 2, 3, 7):
            for d in (1, 2, 9, 16):
                _assert_partitions_cross_pairs(PartitionRecipe(seed, n, d))
    # class 3 is never used: an empty class still leaves a partition
    table = {(x, y): 1 + (x * y) % 2 for x in range(4) for y in range(4)}
    _assert_partitions_cross_pairs(ExplicitPartition(3, 4, table))


def test_build_xi_validation(aff3, doubled3):
    with pytest.raises(ValueError):
        build_xi(aff3, 0, 1)
    with pytest.raises(ValueError):
        build_xi(doubled3, 2, 1)  # inner must be over L(p,0)
    with pytest.raises(ValueError):
        build_xi(aff3, 2, PartitionRecipe(1, 3, 9))  # n mismatch
    for seed, n in ((1, 0), (-1, 2), (2**64, 2)):
        with pytest.raises(ValueError):
            PartitionRecipe(seed, n, 9)
    # a class index must fit a byte in the fill; no L(p,n) has that many
    # classes, and build_xi names the atom limit, not the fill's
    with pytest.raises(ValueError):
        PartitionRecipe(1, 257, 9).class_bits(1)
    with pytest.raises(ResourceBudgetError):
        build_xi(aff3, 300, 0)


def test_xi_n1_equals_doubling(aff3, doubled3):
    for seed in (0, 1, 99):
        x = build_xi(aff3, 1, seed)
        assert x.base_size == 18
        for mask in range(x.algebra.top_mask + 1):
            assert image(x, mask).bits == image(doubled3, mask).bits
        assert check_xi_fast(x).ok
        assert verify_weak(x).ok
        assert verify_full(x).ok


def test_xi_images_have_block_structure(aff3):
    x = build_xi(aff3, 2, 7)
    a0 = image(x, 1 << 1)
    inner = image(aff3, 1 << 1)
    for u in range(9):
        for v in range(9):
            assert a0.has(u, v) == inner.has(u, v)
            assert a0.has(9 + u, 9 + v) == inner.has(u, v)
            assert not a0.has(u, 9 + v) and not a0.has(9 + u, v)
    t1 = image(x, 1 << 5)
    t2 = image(x, 1 << 6)
    assert t1.bits & t2.bits == 0
    assert not any(t1.has(u, v) for u in range(9) for v in range(9))


def test_fast_checker_matches_generic_small_grid():
    # n = 1 always passes, n >= 2 always fails at these sizes; the proper
    # squares take the verifier's element-pair route of xi over a power
    grid = [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 1, 1), (4, 1, 1), (3, 1, 2), (3, 2, 2), (3, 3, 2)]
    for (p, n, m) in grid:
        theta = build_power(build_affine(p), m)
        checker = XiFastChecker(theta, n)
        for seed in range(8):
            part = PartitionRecipe(seed, n, theta.base_size)
            fast = checker.check(part)
            generic = verify_weak(Xi(theta, n, part, checker.algebra))
            assert fast.ok == generic.ok, (p, n, m, seed)


def _partial(q, keep, seed):
    """affine q with each unordered edge kept with probability keep"""
    rng = random.Random(seed)
    s = build_affine(q)
    kept = {(u, v): a for (u, v), a in s.labels.items() if u < v and rng.random() < keep}
    return AtomLabeling(s.algebra, s.base_size, kept)


def _relabeled(q, seed, count):
    """affine q with count edges, and their converses, given another slope"""
    rng = random.Random(seed)
    s = build_affine(q)
    labels = dict(s.labels)
    for _ in range(count):
        u, v = rng.choice(sorted(labels))
        labels[u, v] = rng.choice([a for a in range(1, q + 2) if a != labels[u, v]])
        del labels[v, u]
    return AtomLabeling(s.algebra, s.base_size, labels)


def _hexagon():
    """L(3,0) on 6 points with the pairs x, y labeled whose difference
    mod 6 is not 0 or 3, and two classes, class 1 where x + y mod 6 is
    below 3: two points share a class-i neighbour exactly when their
    difference is not 3, so W1 holds on a theta(1) short of the square,
    and W14 runs to the end of its product"""
    labels = {(x, y): 1 for x in range(6) for y in range(6) if (x - y) % 6 not in (0, 3)}
    theta = AtomLabeling(build_affine(3).algebra, 6, labels)
    classes = {(x, y): 1 if (x + y) % 6 < 3 else 2 for x in range(6) for y in range(6)}
    return theta, ExplicitPartition(2, 6, classes)


def test_fast_checker_matches_whole_product_reference():
    # stopped products and W14 instances passed as transposes give the
    # reports of products formed whole, on seeds reaching all six
    # outcomes; the partial labelings leave theta(1) and theta(A) short
    # of everything a product reaches, so their products run to the end
    cases = [
        (build_affine(3), (1, 2, 3), range(12)),
        (build_affine(4), (2,), range(12)),
        (build_affine(5), (1, 2), range(32)),
        (build_affine(7), (2,), range(8)),
        (_relabeled(3, 0, 2), (1, 2, 3), range(12)),
        (_relabeled(5, 1, 4), (2,), range(32)),
        (_partial(3, 0.9, 1), (1, 2, 3), range(12)),
        (_partial(5, 0.98, 3), (2,), range(8)),
    ]
    outcomes, stops = set(), set()
    for theta, ns, seeds in cases:
        for n in ns:
            checker = XiFastChecker(theta, n)
            stops.add((checker.top_stop is None, checker.a_stop is None))
            # what lets W14 instances (i, j) with i > j pass unformed
            assert structures._transpose_square(checker.a_bits, theta.base_size) == checker.a_bits
            for seed in seeds:
                part = PartitionRecipe(seed, n, theta.base_size)
                report = checker.check(part)
                assert report == whole_product_check(checker, part), (n, seed)
                outcomes.add(report.certificate.condition if report.certificate else "PASS")
    theta, part = _hexagon()
    checker = XiFastChecker(theta, 2)
    report = checker.check(part)
    assert report == whole_product_check(checker, part)
    assert report.certificate.condition == "mixed-class-witness"
    assert checker.a_stop is None
    assert stops == {(False, False), (True, True)}
    assert outcomes == {
        "PASS",
        "class-row",
        "class-column",
        "same-class-witness",
        "mixed-class-witness",
        "slope-class-witness",
    }


def test_generic_matches_network_oracle_on_flattened_xi():
    # over an atom labeling, xi images are unions of atom images, so the
    # labeling read off the atom images has the same image for every
    # element; network_check shares no code with the verifier
    for q, seeds in ((3, (0, 1, 2)), (5, (0,))):
        theta = build_affine(q)
        for n in (1, 2):
            for seed in seeds:
                x = build_xi(theta, n, seed)
                labels = {}
                for a in range(1, x.algebra.atom_count):
                    for u, v in image(x, 1 << a).pairs():
                        labels[(u, v)] = a
                flat = AtomLabeling(x.algebra, x.base_size, labels)
                generic = verify_weak(x)
                assert generic.ok == (n == 1), (q, n, seed)
                assert network_check(flat).ok == generic.ok, (q, n, seed)


def _replay_certificate(structure, cert):
    """The certificate's element pair must break the composition equality
    at the certificate's point pair, under the generic image semantics."""
    x, y = cert.elements
    alg = structure.algebra
    z = alg.compose_masks(x, y)
    d = structure.base_size
    expected = image(structure, z)
    rx = bits_to_rows(image(structure, x).bits, d)
    ry = bits_to_rows(image(structure, y).bits, d)
    prod = product_rows(rx, ry)
    u, v = cert.point
    return expected.has(u, v) != bool(prod[u] >> v & 1)


def test_fast_checker_certificates_replay(aff3):
    found = 0
    for seed in range(6):
        x = build_xi(aff3, 2, seed)
        report = check_xi_fast(x)
        if not report.ok:
            found += 1
            assert _replay_certificate(x, report.certificate)
            assert not verify_weak(x).ok
    assert found  # at p=3 these seeds are overwhelmingly failing


def test_union_defect_blocks_all_seeds_at_m2(aff3):
    theta = build_power(aff3, 2)
    checker = XiFastChecker(theta, 2)
    assert checker.union_defect is not None
    e, (u, v) = checker.union_defect
    # the defect pair mixes identity and slope coordinates
    for seed in (0, 5, 123456):
        part = PartitionRecipe(seed, 2, 81)
        report = checker.check(part)
        assert not report.ok
        assert report.certificate.condition == "union-defect"
        x = Xi(theta, 2, part, checker.algebra)
        assert _replay_certificate(x, report.certificate)
    # additive inner structures have no defect
    assert XiFastChecker(aff3, 2).union_defect is None


def _never(*args):
    raise AssertionError("an image or a product was formed")


def test_fast_checker_refuses_oversized_base_at_once(aff3, monkeypatch):
    # n = 1 asks for no union defect, so the checker would hold d*d-bit
    # images of the power and form d^3 bits per product: over the 5th power
    # of affine 3 (59,049 points) its relations, and over the square of
    # affine 7 (2,401 points) one product, are over the image budget.  Both
    # are refused before any image or product is formed.
    for name in ("_image_bits", "_square_product", "_transpose_square"):
        monkeypatch.setattr(xi, name, _never)
    monkeypatch.setattr(structures, "_image_bits", _never)
    over = "MiB, over the 512 MiB image budget"
    with pytest.raises(ResourceBudgetError, match="the xi checker on 59049 points .*" + over):
        XiFastChecker(build_power(aff3, 5), 1)
    with pytest.raises(ResourceBudgetError, match="product on 2401 points .*" + over):
        XiFastChecker(build_power(build_affine(7), 2), 1)
    with pytest.raises(ResourceBudgetError, match=over):
        search_weakrep(3, 1, 5, range(1))
    with pytest.raises(ResourceBudgetError, match=over):
        search_weakrep(7, 1, 2, range(1))
    with pytest.raises(ResourceBudgetError, match=over):
        montecarlo(3, 1, 5, trials=1, seed0=0)


def test_union_defect_over_a_power_forms_no_power_image(aff3, monkeypatch):
    # n = 2 over the 5th power of affine 3: the defect is read off the
    # Kronecker rows of affine 3, so no image of the power and no product
    # is formed, and every seed fails at (0, 1)
    sizes = []

    def recording(image_bits):
        return lambda s, mask: sizes.append(s.base_size) or image_bits(s, mask)

    for module in (xi, structures):
        monkeypatch.setattr(module, "_image_bits", recording(module._image_bits))
    monkeypatch.setattr(xi, "_square_product", _never)
    monkeypatch.setattr(xi, "_transpose_square", _never)
    checker = XiFastChecker(build_power(aff3, 5), 2)
    assert checker.d == 3**10
    assert checker.union_defect == (1, (0, 1))
    for seed in range(3):
        report = checker.check(PartitionRecipe(seed, 2, checker.d))
        assert not report.ok and report.certificate.condition == "union-defect"
        assert report.certificate.point == (0, 1)
    assert sizes and max(sizes) == 9
    report = montecarlo(3, 2, 5, trials=3, seed0=0)
    assert (report.failures, report.consistency) == (3, "consistent")
    assert max(sizes) == 9


def test_search_weakrep_deterministic():
    a = search_weakrep(3, 2, 1, range(10))
    b = search_weakrep(3, 2, 1, range(10))
    assert [(r.seed, r.ok, r.condition, r.point) for r in a.results] == [
        (r.seed, r.ok, r.condition, r.point) for r in b.results
    ]


def test_search_weakrep_strict_mode_agrees():
    report = search_weakrep(3, 2, 1, range(5), mode="strict")
    for r in report.results:
        assert r.strict_ok == r.ok
    report = search_weakrep(3, 1, 1, range(3), mode="strict")
    assert all(r.ok and r.strict_ok for r in report.results)


def test_xi_over_power_inner_n1_weak_but_not_full(aff3):
    # n = 1 over a proper power: still a weak representation, but the
    # inner blocks inherit the power's complement defect
    theta = build_power(aff3, 2)
    x = build_xi(theta, 1, 4)
    assert check_xi_fast(x).ok
    assert verify_weak(x).ok
    fullr = verify_full(x)
    assert not fullr.ok
    assert fullr.failure.clause == "complement"


def test_full_representation_transfers_to_xi(aff3):
    # when the inner structure is a full representation and the fast
    # check passes, the doubled structure is a full representation too
    assert verify_full(aff3).ok
    passing = [s for s in range(5) if check_xi_fast(build_xi(aff3, 1, s)).ok]
    assert passing  # n = 1 always passes
    for seed in passing:
        assert verify_full(build_xi(aff3, 1, seed)).ok
    # n = 2: no passing seed exists at desk scale; the transfer property
    # is vacuously covered and the sweep stays honest about it
    assert not [s for s in range(10) if check_xi_fast(build_xi(aff3, 2, s)).ok]


# -- bound calculus -------------------------------------------------------------


def test_eval_bounds_examples():
    r = eval_bounds_power(3, 2, 1)
    assert r.d == 9 and r.k == 2
    assert r.ineq1 is False and r.ineq2 is False
    # exact cross-check of the bound at (p,n,d,k) = (3,2,9,2)
    expected = Fraction(2 * 9 * 8 * 4, 1) * Fraction(3, 4) ** 9 + Fraction(
        2 * 4 * 81 * 2, 1
    ) * Fraction(1, 2) ** 2
    assert exact_bounds(3, 2, 9, 2) == (False, False, expected)
    assert math.isclose(r.failure_bound, float(expected), rel_tol=1e-9)


def test_eval_bounds_minimal_m_regression():
    # no exponent makes both inequalities hold for (p,n) = (3,2): m = 1
    # fails both, and over every proper power UD fails with certainty
    r = eval_bounds_power(3, 2, 1)
    assert (r.m, r.ineq1, r.ineq2, r.mode) == (1, False, False, "log")
    for m in range(2, 8):
        r = eval_bounds_power(3, 2, m)
        assert (r.m, r.d, r.k) == (m, 3 ** (2 * m), 2**m)
        assert (r.ineq1, r.ineq2, r.failure_bound, r.mode) == (None, None, 1.0, "union-defect")


def test_eval_bounds_power_argument_checks():
    with pytest.raises(ValueError, match="m >= 1"):
        eval_bounds_power(3, 2, 0)
    with pytest.raises(ValueError, match="p >= 3"):
        eval_bounds_power(2, 2, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        eval_bounds_power(3, 0, 2)
    # n = 1 has no UD condition: the power keeps the n = 1 verdict
    assert eval_bounds_power(3, 1, 2).mode == "auto"


def test_eval_bounds_n1_not_applicable():
    r = eval_bounds(3, 1, 9, 2)
    assert r.ineq1 is None and r.ineq2 is None
    assert r.failure_bound == 0.0


def test_eval_bounds_log_agrees_with_exact_on_grid():
    points = 0
    for p in (3, 4, 5, 7, 9):
        for n in (2, 3, 4):
            for m in (1, 2, 3, 4):
                d = p ** (2 * m)
                if d > 1 << 21:  # keeps the exact powers cheap
                    continue
                log = eval_bounds(p, n, d, (p - 1) ** m)
                assert (log.ineq1, log.ineq2) == exact_bounds(p, n, d, (p - 1) ** m)[:2]
                points += 1
    assert points >= 30


def test_thresholds_values():
    th = sufficiency_thresholds(3, 2)
    assert th == (3, 2, 64, 1 + 96**2)
    assert th._fields == ("p", "n", "p_ineq1", "p_ineq2")
    with pytest.raises(ValueError):
        sufficiency_thresholds(3, 1)


def test_montecarlo_reports():
    r = montecarlo(3, 1, 1, trials=10, seed0=0)
    assert r.failures == 0 and r.rate == 0.0
    assert r.consistency in ("consistent", "vacuous, consistent")
    r = montecarlo(3, 2, 1, trials=10, seed0=0)
    assert r.analytic_bound >= 1.0
    assert r.consistency == "vacuous, consistent"
    assert 0.0 <= r.wilson_low <= r.rate <= r.wilson_high <= 1.0


def test_montecarlo_union_defect_is_certain_failure(monkeypatch):
    r = montecarlo(3, 2, 2, trials=5, seed0=0)
    assert (r.failures, r.analytic_bound, r.consistency) == (5, 1.0, "consistent")
    # a single passing trial would contradict the certainty
    check = XiFastChecker.check

    def pass_seed_1(self, partition):
        report = check(self, partition)
        return report._replace(ok=True) if partition.seed == 1 else report

    monkeypatch.setattr(XiFastChecker, "check", pass_seed_1)
    r = montecarlo(3, 2, 2, trials=5, seed0=0)
    assert (r.failures, r.consistency) == (4, "INCONSISTENT")


# -- the dichotomy: no passing xi structure is weak but not full -----------------


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3), (7, 4)])
def test_additive_inner_fails_when_2n_exceeds_p(p, n):
    # m = 1: a pass would be a full representation, which the degree
    # bound p - 1 >= 2n - 1 rules out
    assert 2 * n > p
    theta = build_affine(p)
    checker = XiFastChecker(theta, n)
    assert checker.union_defect is None
    assert not any(checker.check(PartitionRecipe(s, n, theta.base_size)).ok for s in range(40))
    audit = degree_audit(build_xi(theta, n, 0), claim_full=True)
    assert not audit.lpn_ok
    assert audit.detail == f"p-1 = {p - 1} < 2n-1 = {2 * n - 1}: no representation exists"


@pytest.mark.parametrize("p,n,m", [(3, 2, 2), (3, 3, 2), (4, 2, 2), (5, 2, 2), (3, 2, 3)])
def test_proper_power_fails_union_defect(p, n, m):
    # m >= 2, n >= 2: every assignment fails UD with e = 1' at (0, 1)
    theta = build_power(build_affine(p), m)
    checker = XiFastChecker(theta, n)
    assert checker.union_defect == (theta.algebra.identity_mask, (0, 1))
    for s in range(40):
        cert = checker.check(PartitionRecipe(s, n, theta.base_size)).certificate
        assert (cert.condition, cert.point) == ("union-defect", (0, 1))
        assert "for e = 1';" in cert.detail
    assert eval_bounds_power(p, n, m).mode == "union-defect"
