import math
import random

import pytest

from relalg import (
    algebra_size,
    beta_lower_bound,
    build_gamma_embedding,
    build_lpn,
    choose_params,
    eval_term,
    pigeonhole_pair,
)
from relalg.complexity import GammaWitnessPlan
from relalg.gf import is_prime_power
from relalg.terms import parse_equation

from oracles import random_generators


@pytest.mark.parametrize("gamma,expected", [(1, (3, 2)), (2, (5, 3)), (3, (9, 5)), (4, (17, 9))])
def test_choose_params(gamma, expected):
    assert choose_params(gamma) == expected


def test_choose_params_constraints():
    for gamma in range(1, 8):
        p, n = choose_params(gamma)
        assert p % 2 == 1 and is_prime_power(p)
        assert p > (1 << gamma) - 1
        assert n == (p + 1) // 2
        assert 2 * n > p  # certified non-representable
    with pytest.raises(ValueError):
        choose_params(0)


def test_pigeonhole_examples(l32):
    gens = [l32.parse_element("a0+a1")]
    assert pigeonhole_pair(gens) == (0, 1)

    l53 = build_lpn(5, 3)
    gens = [l53.parse_element("a0"), l53.parse_element("a0+a1+t1")]
    # patterns: index 0 (T,T), 1 (F,T), 2..5 (F,F): first equal pair (2,3)
    assert pigeonhole_pair(gens) == (2, 3)


def test_pigeonhole_defining_property(l32):
    rng = random.Random(4)
    for _ in range(50):
        gens = random_generators(l32, 1, rng)
        i, j = pigeonhole_pair(gens)
        assert i != j
        for g in gens:
            has_i = bool(g.bits >> (1 + i) & 1)
            has_j = bool(g.bits >> (1 + j) & 1)
            assert has_i == has_j


def test_pigeonhole_needs_enough_indices(l32):
    # 2^3 = 8 > 4 slope indices: a separating family exists
    gens = [
        l32.parse_element("a0"),
        l32.parse_element("a1"),
        l32.parse_element("a2"),
    ]
    with pytest.raises(ValueError):
        pigeonhole_pair(gens)


def test_gamma_embedding_example(l32):
    res = build_gamma_embedding([l32.parse_element("a0+a1")], 7)
    assert res.report.ok
    assert res.plan.fusion == (0, 1)
    assert res.target.lpn_params == (7, 2)


def test_gamma_witness_plan_validates():
    plan = GammaWitnessPlan(1, 3, 2, (0, 1), 7)
    assert repr(plan) == "GammaWitnessPlan(gamma=1, p=3, n=2, fusion=(0, 1), target_p=7)"
    assert plan == GammaWitnessPlan(1, 3, 2, (0, 1), 7)
    with pytest.raises(ValueError, match=r"2\^gamma < p\+1"):
        GammaWitnessPlan(2, 3, 2, (0, 1), 7)  # 2^2 = p+1
    with pytest.raises(ValueError, match=r"2\^gamma < p\+1"):
        GammaWitnessPlan(3, 5, 3, (0, 1), 7)  # 2^3 > p+1
    with pytest.raises(ValueError, match="n > p/2"):
        GammaWitnessPlan(1, 3, 1, (0, 1), 7)
    with pytest.raises(ValueError, match="at least p"):
        GammaWitnessPlan(1, 5, 3, (0, 1), 3)
    with pytest.raises(AttributeError):
        plan.gamma = 3


def test_gamma_embedding_fixes_bridge_atoms():
    alg = build_lpn(5, 3)
    rng = random.Random(8)
    for _ in range(20):
        gens = random_generators(alg, 2, rng)
        res = build_gamma_embedding(gens, 11)
        assert res.report.ok
        for cell in res.subalgebra.atoms:
            img = res.embedding.apply(cell)
            # bridge part is carried over unchanged
            src_bridge = cell.bits >> (5 + 2)
            dst_bridge = img.bits >> (11 + 2)
            assert src_bridge == dst_bridge


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_gamma_pipeline_random_trials(gamma):
    p, n = choose_params(gamma)
    alg = build_lpn(p, n)
    target_p = {1: 7, 2: 11, 3: 13}[gamma]
    rng = random.Random(100 + gamma)
    for _ in range(25):
        gens = random_generators(alg, gamma, rng)
        res = build_gamma_embedding(gens, target_p)
        assert res.report.ok


def test_falsification_transfers_through_embedding(l32):
    # an equation falsified inside the generated subalgebra is falsified
    # in the target through the embedding
    rng = random.Random(21)
    eq = parse_equation("x1;x1 = x1")
    for _ in range(10):
        gens = random_generators(l32, 1, rng)
        res = build_gamma_embedding(gens, 7)
        masks = sorted(res.subalgebra.element_masks())
        for mask in masks:
            asg = {1: l32.element(mask)}
            lhs = eval_term(eq.lhs, l32, asg)
            rhs = eval_term(eq.rhs, l32, asg)
            if lhs != rhs:
                mapped = {1: res.embedding.apply(l32.element(mask))}
                tl = eval_term(eq.lhs, res.target, mapped)
                tr = eval_term(eq.rhs, res.target, mapped)
                assert tl != tr


def test_algebra_size():
    assert algebra_size(3, 2) == 128
    # 2^(2+p+n): ten atoms for (5,3)
    assert algebra_size(5, 3) == 1024
    assert algebra_size(5, 3) == 1 << build_lpn(5, 3).atom_count
    for p in (3, 5, 7, 9):
        n = (p + 1) // 2
        assert algebra_size(p, n) == 1 << math.ceil((3 * p + 5) / 2)


def test_beta_lower_bound_values():
    assert abs(beta_lower_bound(1 << 7) - math.log2(3)) < 1e-12
    assert abs(beta_lower_bound(1 << 365) - (math.log2(725) - math.log2(3))) < 1e-12
    with pytest.raises(ValueError):
        beta_lower_bound(127)


def test_beta_lower_bound_monotone():
    samples = [1 << k for k in range(7, 100, 7)]
    values = [beta_lower_bound(m) for m in samples]
    assert values == sorted(values)


def test_beta_chain_inequality():
    # at size 2^((3p+5)/2) the bound stays below log2(p+1), for every odd
    # prime power p up to 97
    for p in range(3, 98, 2):
        if not is_prime_power(p):
            continue
        exponent = math.ceil((3 * p + 5) / 2)
        assert beta_lower_bound(1 << exponent) < math.log2(p + 1)
