import pytest

from relalg import (
    build_affine,
    build_fused,
    build_lpn,
    build_xi,
    check_axioms,
    degree_audit,
    fusion_embedding,
)
from relalg import lpn
from relalg.errors import ResourceBudgetError
from relalg.fileformat import load_algebra, save_algebra


def reference_table(p, n):
    """Independent construction of the composition rules, atom by atom.

    Atom order 1', a0..ap, t1..tn; masks built directly from the five
    displayed product rules plus the identity row.
    """
    k = p + n + 2
    ident = 1
    a = lambda i: 1 << (1 + i)
    t = lambda j: 1 << (p + 2 + j)  # j in 0..n-1
    a_all = 0
    for i in range(p + 1):
        a_all |= a(i)
    t_all = 0
    for j in range(n):
        t_all |= t(j)

    table = {}
    for x in range(k):
        table[(0, x)] = 1 << x
        table[(x, 0)] = 1 << x
    for i in range(p + 1):
        for j in range(p + 1):
            if i == j:
                table[(1 + i, 1 + j)] = ident | a(i)
            else:
                table[(1 + i, 1 + j)] = (a_all & ~a(i)) & ~a(j)
    for i in range(p + 1):
        for j in range(n):
            table[(1 + i, p + 2 + j)] = t_all
            table[(p + 2 + j, 1 + i)] = t_all
    for i in range(n):
        for j in range(n):
            table[(p + 2 + i, p + 2 + j)] = (ident | a_all) if i == j else a_all
    return table


@pytest.mark.parametrize("p", range(3, 10))
@pytest.mark.parametrize("n", range(0, 5))
def test_table_matches_reference_and_axioms(p, n):
    alg = build_lpn(p, n)
    assert alg.atom_count == p + n + 2
    ref = reference_table(p, n)
    for x in range(alg.atom_count):
        for y in range(alg.atom_count):
            assert alg.comp[x][y] == ref[(x, y)], (p, n, x, y)
    assert check_axioms(alg).ok


def test_l32_shape(l32):
    assert l32.atom_count == 7
    assert l32.top_mask + 1 == 128
    assert l32.atom_names == ("1'", "a0", "a1", "a2", "a3", "t1", "t2")


def test_displayed_rows(l32):
    get = l32.parse_element
    assert get("t1") @ get("t2") == get("a0+a1+a2+a3")
    assert get("t1") @ get("t1") == get("1'+a0+a1+a2+a3")
    assert get("a0") @ get("a0") == get("1'+a0")
    # the slope block composes within 1'+A (bridge atoms never appear:
    # t <= a0;a1 would force a0 <= a1;t = T through the cycle law)
    assert get("a0") @ get("a1") == get("a2+a3")
    assert get("a0") @ get("t1") == get("t1+t2")
    l41 = build_lpn(4, 1)
    assert l41.parse_element("a2") @ l41.parse_element("t1") == l41.parse_element("t1")


def test_additive_expansion(l32):
    get = l32.parse_element
    assert get("t1+t2") @ get("t1") == get("1'+a0+a1+a2+a3")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bridge_block_rows(n):
    alg = build_lpn(3, n)
    T = alg.parse_element("+".join(f"t{k}" for k in range(1, n + 1)))
    A = alg.parse_element("a0+a1+a2+a3")
    if n == 1:
        assert T @ T == alg.identity | A
    else:
        assert A <= T @ T


@pytest.mark.parametrize("p,n", [(3, 0), (3, 2), (5, 3), (9, 4)])
def test_symmetric_implies_commutative_table(p, n):
    alg = build_lpn(p, n)
    assert alg.is_symmetric and alg.is_commutative


def test_build_lpn_parameter_errors():
    with pytest.raises(ValueError):
        build_lpn(2, 0)
    with pytest.raises(ValueError):
        build_lpn(3, -1)


# -- fusion --------------------------------------------------------------------


def test_fused_products_match_displayed_rules():
    fused = build_fused(3, 2, 0, 1)
    alg = fused.algebra
    g = alg.parse_element
    assert g("a0a1") @ g("a0a1") == g("1'+a0a1+a2+a3")
    assert g("a0a1") @ g("a2") == g("a0a1+a3")  # A minus a2, in fused atoms
    assert g("a0a1") @ g("t1") == g("t1+t2")
    assert fused.inclusion_report.ok


def test_fused_inclusion_functoriality():
    fused = build_fused(4, 2, 1, 3)
    alg, parent = fused.algebra, fused.parent
    inc = fused.inclusion
    for x in range(alg.atom_count):
        for y in range(alg.atom_count):
            via_fused = inc.apply(alg.element(alg.comp[x][y]))
            via_parent = inc.apply(alg.atom(x)) @ inc.apply(alg.atom(y))
            assert via_fused == via_parent


def test_fused_atoms_partition_parent_top():
    fused = build_fused(5, 1, 0, 4)
    seen = fused.parent.zero
    for i in range(fused.algebra.atom_count):
        img = fused.inclusion.apply(fused.algebra.atom(i))
        assert (seen & img) == fused.parent.zero
        seen = seen | img
    assert seen == fused.parent.one


def test_fusion_parameter_errors():
    with pytest.raises(ValueError):
        build_fused(3, 2, 1, 1)
    with pytest.raises(ValueError):
        build_fused(3, 2, 0, 9)
    with pytest.raises(ValueError):
        fusion_embedding(3, 2, 0, 1, 2)


def test_fusion_embedding_examples():
    # degenerate case: q = p gives the inclusion map
    fe = fusion_embedding(3, 2, 0, 1, 3)
    assert fe.report.ok
    fused_atom = fe.fused.algebra.atom_by_name("a0a1")
    assert fe.embedding.apply(fused_atom) == fe.target.parse_element("a0+a1")

    fe = fusion_embedding(3, 2, 0, 1, 5)
    assert fe.report.ok
    fused_atom = fe.fused.algebra.atom_by_name("a0a1")
    assert fe.embedding.apply(fused_atom) == fe.target.parse_element("a0+a1+a4+a5")
    for name in ("a2", "a3", "t1", "t2"):
        atom = fe.fused.algebra.atom_by_name(name)
        assert fe.embedding.apply(atom) == fe.target.atom_by_name(name)

    fe = fusion_embedding(3, 0, 0, 1, 7)
    assert fe.report.ok


def test_fusion_embedding_composes():
    # extending p -> q and then q -> q' equals extending p -> q' directly
    first = fusion_embedding(3, 1, 0, 1, 5)
    second = fusion_embedding(5, 1, 0, 1, 8)
    direct = fusion_embedding(3, 1, 0, 1, 8)

    def through_second(elem):
        # decompose an element of L(5,1) into atoms of the second fused
        # algebra (its carrier contains every image of the first step)
        fused5 = second.fused
        out = second.target.zero
        for idx in range(fused5.algebra.atom_count):
            cell = fused5.inclusion.apply(fused5.algebra.atom(idx))
            if cell.bits & elem.bits:
                assert cell.bits & elem.bits == cell.bits
                out = out | second.embedding.apply(fused5.algebra.atom(idx))
        return out

    for idx in range(first.fused.algebra.atom_count):
        composed = through_second(first.embedding.apply(first.fused.algebra.atom(idx)))
        straight = direct.embedding.apply(direct.fused.algebra.atom(idx))
        assert composed.bits == straight.bits


@pytest.mark.parametrize(
    "p,n,expected",
    [(3, 2, True), (3, 1, False), (5, 3, True), (9, 4, False), (9, 5, True)],
)
def test_notrap_flag(p, n, expected):
    # 2n > p certifies that L(p,n) has no representation: a full claim on
    # a structure whose slope degrees are all p-1 fails exactly then
    audit = degree_audit(build_xi(build_affine(p), n, 0), claim_full=True)
    assert ("no representation exists" in audit.detail) is expected
    assert audit.ok is not expected


def test_build_lpn_refuses_more_than_max_atoms(tmp_path, monkeypatch):
    limit = lpn.MAX_LPN_ATOMS
    assert build_lpn(limit - 2, 0).atom_count == limit
    assert build_lpn(61, 5).atom_count == 68
    for p, n in ((limit - 1, 0), (200, limit - 201), (3000, 1), (10**12, 0)):
        with pytest.raises(ResourceBudgetError, match="atoms; the limit is"):
            build_lpn(p, n)
    # a file is recognized as L(p,n) whatever the limit
    save_algebra(build_lpn(9, 3), str(tmp_path / "l93.ra"))
    monkeypatch.setattr(lpn, "MAX_LPN_ATOMS", 10)
    with pytest.raises(ResourceBudgetError):
        build_lpn(9, 3)
    assert load_algebra(str(tmp_path / "l93.ra")).lpn_params == (9, 3)
