"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite must pass.
"""

import math
import time
from relalg import (
    build_affine,
    build_doubled,
    build_lpn,
    build_power,
    check_axioms,
    beta_lower_bound,
    build_gamma_embedding,
    choose_params,
    degree_audit,
    eval_bounds,
    eval_bounds_power,
    image,
    search_weakrep,
    sufficiency_thresholds,
    verify_full,
    verify_weak,
)
from relalg.gf import is_prime_power
from relalg.structures import Xi
from relalg.terms import equation_length, falsify, parse_equation
from relalg.xi import PartitionRecipe, XiFastChecker

import random

from oracles import exact_bounds, random_generators


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_l32_construction():
    t0 = time.perf_counter()
    alg = build_lpn(3, 2)
    axioms = check_axioms(alg)
    elapsed = time.perf_counter() - t0
    ok = (
        alg.atom_count == 7
        and alg.top_mask + 1 == 128
        and axioms.ok
        and elapsed < 1.0
    )
    report(1, ok, f"L(3,2): 7 atoms, 128 elements, axioms pass in {elapsed:.3f}s")


def test_criterion_2_affine_representations():
    t0 = time.perf_counter()
    ok = True
    for q in (3, 4, 5, 7, 8, 9):
        s = build_affine(q)
        if not verify_full(s).ok:
            ok = False
            break
        audit = degree_audit(s, claim_full=True)
        if not audit.ok:
            ok = False
            break
        for lo, hi in audit.degrees.values():
            if (lo, hi) != (q - 1, q - 1):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(2, ok, f"affine q in 3,4,5,7,8,9 all verify fully in {elapsed:.2f}s")


def test_criterion_3_doubling():
    t0 = time.perf_counter()
    s = build_doubled(3)
    result = verify_full(s)
    elapsed = time.perf_counter() - t0
    ok = result.ok and s.base_size == 18 and elapsed < 1.0
    report(3, ok, f"doubled q=3 verifies fully on 18 points in {elapsed:.3f}s")


def test_criterion_4_power_weak_not_full():
    t0 = time.perf_counter()
    s = build_power(build_affine(3), 2)
    weak = verify_weak(s)
    fullr = verify_full(s)
    unlabeled = False
    if not fullr.ok and fullr.failure.point is not None:
        u, v = fullr.failure.point
        unlabeled = not any(
            image(s, 1 << a).has(u, v) for a in range(s.algebra.atom_count)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        s.base_size == 81
        and weak.ok
        and not fullr.ok
        and unlabeled
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"power m=2 on 81 points: weak PASS, full FAIL with unlabeled pair "
        f"{fullr.failure.point} in {elapsed:.2f}s",
    )


def test_criterion_5_oracle_equivalence():
    # every n >= 2 instance FAILs; with one class every cross pair is in
    # it, so an n = 1 combo is one instance, whatever the seed, that PASSes
    combos = [
        (3, 2, 1), (3, 3, 1), (4, 2, 1), (4, 3, 1),
        (5, 2, 1), (5, 3, 1), (3, 2, 2), (3, 3, 2),
        (3, 1, 1), (5, 1, 1), (3, 1, 2),
    ]
    seeds_per_combo = 63
    total = 0
    agreements = 0
    verdicts = set()
    for p, n, m in combos:
        theta = build_power(build_affine(p), m)
        assert 2 * theta.base_size <= 200
        checker = XiFastChecker(theta, n)
        for seed in range(seeds_per_combo if n > 1 else 1):
            part = PartitionRecipe(seed, n, theta.base_size)
            fast = checker.check(part)
            generic = verify_weak(Xi(theta, n, part, checker.algebra))
            total += 1
            agreements += fast.ok == generic.ok
            verdicts.add(generic.ok)
    ok = total >= 500 and agreements == total and verdicts == {True, False}
    report(
        5,
        ok,
        f"fast vs generic verdicts agree on {agreements}/{total} instances, "
        f"PASS and FAIL both seen: {verdicts == {True, False}}",
    )


def test_criterion_6_bounds():
    # (a) the shipped verdicts (log domain, exact re-check inside the guard
    # band) match exact rationals on a 200+ point grid
    grid = []
    for p in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        for m in range(1, 6):
            if p ** (2 * m) > 600_000:
                break
            for n in (2, 3, 4, 5, 6, 7):
                grid.append((p, n, m))
    mismatches = [
        (p, n, m)
        for (p, n, m) in grid
        if (
            (lambda a, b: (a.ineq1, a.ineq2) != b[:2])(
                eval_bounds(p, n, p ** (2 * m), (p - 1) ** m),
                exact_bounds(p, n, p ** (2 * m), (p - 1) ** m),
            )
        )
    ]
    ok_grid = len(grid) >= 200 and not mismatches

    # (b) over a proper power the bound reports the union defect that the
    # checker finds for every assignment: e = 1' at the pair (0, 1)
    ok_union_defect = True
    for p, n, m in [(3, 2, 2), (3, 3, 2), (4, 2, 2), (5, 2, 2), (3, 2, 3)]:
        bound = eval_bounds_power(p, n, m)
        theta = build_power(build_affine(p), m)
        checker = XiFastChecker(theta, n)
        cert = checker.check(PartitionRecipe(0, n, theta.base_size)).certificate
        ok_union_defect &= (
            (bound.ineq1, bound.ineq2, bound.failure_bound, bound.mode)
            == (None, None, 1.0, "union-defect")
            and checker.union_defect == (theta.algebra.identity_mask, (0, 1))
            and (cert.condition, cert.point) == ("union-defect", (0, 1))
        )

    # (c) p beyond both p-thresholds satisfies the inequalities at m = 1
    ok_pbound = True
    for n in (2, 3):
        th = sufficiency_thresholds(3, n)
        p = max(th.p_ineq1, th.p_ineq2) + 1
        while not is_prime_power(p):
            p += 1
        r = eval_bounds(p, n, p * p, p - 1)
        if not (r.ineq1 and r.ineq2):
            ok_pbound = False

    ok = ok_grid and ok_union_defect and ok_pbound
    report(
        6,
        ok,
        f"log=exact on {len(grid)}-point grid"
        + ("" if not mismatches else f" (mismatches: {mismatches[:3]})")
        + f"; union-defect matches the checker: {ok_union_defect}; p-thresholds: {ok_pbound}",
    )


def test_criterion_7_search_report():
    seeds = range(40)  # documented sweep: seeds 0..39 at (p,n) = (3,2)
    verdicts = {}
    for m in (1, 2, 3):
        rep_a = search_weakrep(3, 2, m, seeds)
        rep_b = search_weakrep(3, 2, m, seeds)
        va = [(r.seed, r.ok, r.condition) for r in rep_a.results]
        vb = [(r.seed, r.ok, r.condition) for r in rep_b.results]
        assert va == vb  # deterministic verdicts
        verdicts[m] = va
    completed = all(len(verdicts[m]) == 40 for m in (1, 2, 3))
    n_pass = sum(ok for m in verdicts for _, ok, _ in verdicts[m])
    union_defect = all(c == "union-defect" for m in (2, 3) for _, _, c in verdicts[m])
    ok = completed and n_pass == 0 and union_defect
    report(
        7,
        ok,
        f"sweep (3,2) m=1,2,3 x 40 seeds deterministic; {n_pass} PASS seeds; "
        f"absence is forced: at m=1 by p-1 < 2n-1, at m=2,3 by union-defect on every seed",
    )


def test_criterion_8_gamma_pipeline():
    t0 = time.perf_counter()
    target_for = {1: 7, 2: 11, 3: 13}
    failures = 0
    trials = 0
    for gamma in (1, 2, 3):
        p, n = choose_params(gamma)
        alg = build_lpn(p, n)
        rng = random.Random(424242 + gamma)
        for _ in range(100):
            gens = random_generators(alg, gamma, rng)
            res = build_gamma_embedding(gens, target_for[gamma])
            trials += 1
            if not res.report.ok:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = trials == 300 and failures == 0 and elapsed < 60.0
    report(
        8, ok, f"300/300 generated subalgebras embed (verified) in {elapsed:.2f}s"
    )


def test_criterion_9_equation_machinery():
    alg = build_lpn(3, 2)
    witness = falsify(parse_equation("x1;x1 = x1"), alg)
    ok = witness.falsified

    axiom_equations = [
        "x1+x2 = x2+x1",
        "(x1+x2)+x3 = x1+(x2+x3)",
        "x1&(x1+x2) = x1",
        "x1+x1&x2 = x1",
        "(x1+x2)&x3 = x1&x3+x2&x3",
        "x1;(x2;x3) = (x1;x2);x3",
        "x1;e = x1",
        "x1;(x2+x3) = x1;x2+x1;x3",
        "(x1+x2)~ = x1~+x2~",
        "x1~~ = x1",
        "(x1;x2)~ = x2~;x1~",
        "x1~;-(x1;x2)+-x2 = -x2",
    ]
    for text in axiom_equations:
        if falsify(parse_equation(text), alg).status != "valid":
            ok = False
            break

    ok = ok and equation_length(parse_equation("(x1+x2)&x3 = x1&x3+x2&x3")) == 12
    report(
        9,
        ok,
        "x1;x1=x1 falsified, 12 axiom equations valid, worked length = 12",
    )


def test_criterion_10_beta_bound():
    ok = abs(beta_lower_bound(1 << 7) - math.log2(3)) <= 1e-12

    samples = [1 << k for k in range(7, 400, 13)]
    values = [beta_lower_bound(m) for m in samples]
    ok = ok and values == sorted(values)

    for p in range(3, 98, 2):
        if not is_prime_power(p):
            continue
        exponent = math.ceil((3 * p + 5) / 2)
        if not beta_lower_bound(1 << exponent) < math.log2(p + 1):
            ok = False
    report(
        10,
        ok,
        "beta(2^7) = log2(3) +- 1e-12, monotone, chain inequality holds to p = 97",
    )
