import pytest
from hypothesis import given, strategies as st

from relalg import algebra, build_lpn, check_axioms, check_embedding, generate_subalgebra
from relalg.algebra import (
    AxiomFailure,
    AxiomReport,
    Embedding,
    EmbeddingFailure,
    EmbeddingReport,
    FiniteRelationAlgebra,
)
from relalg.errors import ResourceBudgetError

from oracles import full_subalgebra, generate_subalgebra_naive


def test_element_boolean_ops(l32):
    x = l32.parse_element("a0+a1")
    y = l32.parse_element("a1+t1")
    assert (x & y) == l32.parse_element("a1")
    assert (~l32.zero) == l32.one
    assert (x | y) == l32.parse_element("a0+a1+t1")
    assert l32.parse_element("a0+t1").converse() == l32.parse_element("a0+t1")


def test_element_mixed_algebra_rejected(l32, l30):
    with pytest.raises(ValueError):
        l32.parse_element("a0").join(l30.parse_element("a0"))
    with pytest.raises(ValueError):
        l32.parse_element("a0").compose(l30.parse_element("a1"))


def test_compose_identity(l32):
    a0 = l32.parse_element("a0")
    assert a0.compose(l32.identity) == a0
    assert l32.identity.compose(a0) == a0


def test_parse_element_errors(l32):
    with pytest.raises(ValueError):
        l32.parse_element("b7")
    assert l32.parse_element("0") == l32.zero


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3)])
def test_axioms_pass(p, n):
    report = check_axioms(build_lpn(p, n))
    assert report.ok
    assert report.associativity_ok and report.peircean_ok


def test_axioms_catch_injected_fault(l32):
    comp = [list(row) for row in l32.comp]
    a0 = 1  # atom index of a0
    comp[a0][a0] = 1 << 2  # corrupt a0;a0 to a1
    broken = FiniteRelationAlgebra(
        l32.atom_names, [0], range(l32.atom_count), comp
    )
    report = check_axioms(broken)
    assert not report.ok
    assert report.first_failure is not None
    assert report.first_failure.family in ("identity", "peircean", "associativity")
    assert report.first_failure.atoms  # witness triple/pair present


def test_check_axioms_refuses_more_than_max_atoms(monkeypatch):
    # 81 atoms: refused at once, where the check would take over 15 s
    with pytest.raises(ResourceBudgetError, match="refuses more than 80"):
        check_axioms(build_lpn(algebra.MAX_AXIOM_ATOMS - 1, 0))
    monkeypatch.setattr(algebra, "MAX_AXIOM_ATOMS", 7)
    assert check_axioms(build_lpn(3, 2)).ok  # 7 atoms
    with pytest.raises(ResourceBudgetError):
        check_axioms(build_lpn(4, 2))


_E, _A, _B = 1, 2, 4  # atoms e (the identity), a and b of the tables below


@pytest.mark.parametrize(
    "names,comp,flags,failure",
    [
        # e;a = a but a;e = e+a
        ("ea", [[_E, _A], [_E | _A, _E | _A]], (True, False, False, False),
         ("identity", (1,), "1';a = a, a;1' = e+a")),
        # symmetric, but a;b = a and b;a = b
        ("eab", [[_E, _A, _B], [_A, _E | _A | _B, _A], [_B, _B, _E | _A | _B]],
         (False, True, False, False),
         ("converse", (1, 2), "(a;b)~ = a but b~;a~ = b")),
        # a;a = 0: a <= e;a, but e is not below a;a
        ("ea", [[_E, _A], [_A, 0]], (True, True, True, False),
         ("peircean", (0, 1, 1), "c<=a;b:True b<=a~;c:True a<=c;b~:False")),
        # a;a = e+a, b;b = e+b, a;b = 0: (a;a);b = b but a;(a;b) = 0
        ("eab", [[_E, _A, _B], [_A, _E | _A, 0], [_B, 0, _E | _B]],
         (False, True, True, True),
         ("associativity", (1, 1, 2), "(a;b);c = b but a;(b;c) = 0")),
    ],
)
def test_axiom_report_certificates(names, comp, flags, failure):
    alg = FiniteRelationAlgebra(names, [0], range(len(names)), comp)
    assert check_axioms(alg) == AxiomReport(alg, *flags, AxiomFailure(*failure))


def test_embedding_report_certificates(l30, l32):
    full32, full30 = full_subalgebra(l32), full_subalgebra(l30)
    ident = {a.bits: a.bits for a in full32.atoms}
    bit = {name: l32.atom_by_name(name).bits for name in l32.atom_names}
    z3 = FiniteRelationAlgebra(  # the group Z3, where r~ = s
        ["e", "r", "s"], [0], [0, 2, 1], [[_E, _A, _B], [_A, _B, _E], [_B, _E, _A]]
    )
    l31 = build_lpn(3, 1)
    cases = [
        (full32, l32, {**ident, bit["a2"]: 0}, ("injective", (3,), "atom image is zero")),
        (full32, l32, {**ident, bit["a1"]: bit["a0"]},
         ("meet", (1, 2), "distinct atom images overlap")),
        (full32, l32, {**ident, bit["1'"]: bit["a0"], bit["a0"]: bit["1'"]},
         ("identity", (), "1' maps to a0")),
        (full_subalgebra(z3), l30,
         {_E: 1, _A: l30.parse_element("a0").bits, _B: l30.parse_element("a1+a2+a3").bits},
         ("converse", (1,), "converse not preserved")),
        (full32, l32, {**ident, bit["a0"]: bit["t1"], bit["t1"]: bit["a0"]},
         ("compose", (1, 1), "f(u;v) = 1'+t1 but f(u);f(v) = 1'+a0+a1+a2+a3")),
        (full30, l31, {1 << i: l31.atom_by_name(nm).bits for i, nm in enumerate(l30.atom_names)},
         ("top", (), "1 maps to 1'+a0+a1+a2+a3")),
    ]
    for dom, target, images, failure in cases:
        report = check_embedding(Embedding(dom, target, images))
        assert report == EmbeddingReport(False, EmbeddingFailure(*failure))
    assert check_embedding(Embedding(full32, l32, ident)) == EmbeddingReport(True, None)


def test_subalgebra_of_identity(l32):
    sub = generate_subalgebra(l32, [l32.identity])
    masks = sorted(a.bits for a in sub.atoms)
    assert masks == [l32.identity_mask, l32.top_mask ^ l32.identity_mask]
    assert sub.size == 4


def test_subalgebra_single_slope_generator(l32):
    # independent oracle: materialize the closure and take minimal elements
    gens = [l32.parse_element("a0")]
    closure, naive_atoms = generate_subalgebra_naive(l32, gens)
    sub = generate_subalgebra(l32, gens)
    assert sorted(a.bits for a in sub.atoms) == sorted(a.bits for a in naive_atoms)
    # frozen from the oracle: 1', a0, and everything else in one atom
    assert sorted(l32.format_mask(a.bits) for a in sub.atoms) == [
        "1'",
        "a0",
        "a1+a2+a3+t1+t2",
    ]
    assert sub.element_masks() == closure


def test_subalgebra_fused_generators():
    # generators of the fused subalgebra span exactly its carrier
    alg = build_lpn(3, 2)
    gens = [
        alg.parse_element("a0+a1"),
        alg.parse_element("a2"),
        alg.parse_element("a3"),
        alg.parse_element("t1"),
        alg.parse_element("t2"),
    ]
    sub = generate_subalgebra(alg, gens)
    assert sorted(alg.format_mask(a.bits) for a in sub.atoms) == [
        "1'",
        "a0+a1",
        "a2",
        "a3",
        "t1",
        "t2",
    ]


@given(
    st.integers(min_value=3, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_subalgebra_matches_naive_oracle(p, n, data):
    alg = build_lpn(p, n)
    n_gens = data.draw(st.integers(min_value=1, max_value=2))
    gens = [
        alg.element(data.draw(st.integers(min_value=1, max_value=alg.top_mask)))
        for _ in range(n_gens)
    ]
    _, naive_atoms = generate_subalgebra_naive(alg, gens, max_size=1 << 14)
    sub = generate_subalgebra(alg, gens)
    assert sorted(a.bits for a in sub.atoms) == sorted(a.bits for a in naive_atoms)


@given(st.data())
def test_subalgebra_closed_under_operations(data):
    alg = build_lpn(3, 2)
    gens = [alg.element(data.draw(st.integers(min_value=1, max_value=alg.top_mask)))]
    sub = generate_subalgebra(alg, gens)
    elems = [alg.element(m) for m in sub.element_masks()]
    for x in elems[:10]:
        assert sub.contains(~x)
        assert sub.contains(x.converse())
        for y in elems[:10]:
            assert sub.contains(x | y)
            assert sub.contains(x & y)
            assert sub.contains(x @ y)


def test_element_masks_refuses_more_than_max_listed_atoms(monkeypatch):
    with pytest.raises(ResourceBudgetError, match="too large to list"):
        full_subalgebra(build_lpn(19, 0)).element_masks()  # 21 atoms
    monkeypatch.setattr(algebra, "MAX_LISTED_ATOMS", 7)
    assert len(full_subalgebra(build_lpn(3, 2)).element_masks()) == 128
    with pytest.raises(ResourceBudgetError):
        full_subalgebra(build_lpn(4, 2)).element_masks()


def test_check_embedding_identity(l32):
    dom = full_subalgebra(l32)
    emb = Embedding(dom, l32, {a.bits: a.bits for a in dom.atoms})
    assert check_embedding(emb).ok


def test_check_embedding_detects_collapse(l32):
    dom = full_subalgebra(l32)
    images = {a.bits: a.bits for a in dom.atoms}
    images[l32.parse_element("a1").bits] = l32.parse_element("a0").bits  # collapse
    report = check_embedding(Embedding(dom, l32, images))
    assert not report.ok
    assert report.failure.clause in ("meet", "injective")


def test_check_embedding_requires_images_to_cover_top(l30):
    # the namesake atoms of L(3,0) in L(3,1) miss t1: 1' is preserved and so
    # is every product, but the complement of 1' maps to A instead of A+T
    l31 = build_lpn(3, 1)
    images = {1 << i: l31.atom_by_name(nm).bits for i, nm in enumerate(l30.atom_names)}
    report = check_embedding(Embedding(full_subalgebra(l30), l31, images))
    assert not report.ok
    assert report.failure.clause == "top"
    assert report.failure.detail == "1 maps to 1'+a0+a1+a2+a3"


def test_check_embedding_requires_total_atom_map(l32):
    dom = full_subalgebra(l32)
    images = {a.bits: a.bits for a in dom.atoms}
    del images[1]
    with pytest.raises(ValueError):
        check_embedding(Embedding(dom, l32, images))


def test_embedding_apply_outside_domain(l32):
    sub = generate_subalgebra(l32, [l32.identity])
    emb = Embedding(sub, l32, {a.bits: a.bits for a in sub.atoms})
    with pytest.raises(ValueError):
        emb.apply(l32.parse_element("a0"))


# -- element-level laws, checked on random elements ---------------------------

_small_algebras = [build_lpn(3, 0), build_lpn(3, 2), build_lpn(4, 1)]


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_compose_additive_and_monotone(ai, xm, ym, zm):
    alg = _small_algebras[ai]
    x = alg.element(xm % (alg.top_mask + 1))
    y = alg.element(ym % (alg.top_mask + 1))
    z = alg.element(zm % (alg.top_mask + 1))
    assert (x | y) @ z == (x @ z) | (y @ z)
    assert x @ (y | z) == (x @ y) | (x @ z)
    if x <= y:
        assert x @ z <= y @ z


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0), st.integers(min_value=0))
def test_de_morgan_and_converse_laws(ai, xm, ym):
    alg = _small_algebras[ai]
    x = alg.element(xm % (alg.top_mask + 1))
    y = alg.element(ym % (alg.top_mask + 1))
    assert ~(x | y) == (~x) & (~y)
    assert x.converse().converse() == x
    assert (x @ y).converse() == y.converse() @ x.converse()


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_compose_associative_on_elements(ai, xm, ym, zm):
    alg = _small_algebras[ai]
    x = alg.element(xm % (alg.top_mask + 1))
    y = alg.element(ym % (alg.top_mask + 1))
    z = alg.element(zm % (alg.top_mask + 1))
    assert (x @ y) @ z == x @ (y @ z)
    assert x @ alg.identity == x
