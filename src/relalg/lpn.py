"""The L(p,n) family of symmetric integral relation algebras.

L(p,n), for p >= 3 and n >= 0, has atoms 1', a0..ap ("slope" atoms, one
per direction of an affine plane of order p) and t1..tn ("bridge" atoms,
which in representations connect two disjoint copies of a base set).
Writing A = a0+...+ap and T = t1+...+tn, atom composition is

    ai;ai = 1' + ai
    ai;aj = A - ai - aj          (i != j)
    ai;tk = T
    tk;tk = 1' + A
    tk;tl = A                    (k != l)

with 1' the identity.  For n = 0 there are no bridge atoms, T = 0 and
A is the diversity element, so only the first two rules apply.

Note the ai;aj row: it contains no bridge atoms.  The variant with
tk <= ai;aj fails the triangle law (tk <= ai;aj would force ai <= aj;tk
= T by the Peircean cycle condition), so the slope block composes within
1' + A; check_axioms on the built table confirms this.

L^ij(p,n) is the subalgebra obtained by fusing ai and aj into the single
atom ai+aj; its products are joins of its atoms:

    (ai+aj);(ai+aj) = 1' + A
    (ai+aj);ak      = A - ak      (k != i,j)
    (ai+aj);tl      = T

For q >= p, mapping ai+aj to ai+aj+a(p+1)+...+aq and fixing all other
atoms extends additively to an embedding of L^ij(p,n) into L(q,n).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    Embedding,
    EmbeddingReport,
    FiniteRelationAlgebra,
    SubalgebraDescription,
    check_embedding,
)
from .errors import ResourceBudgetError


# Largest L(p,n), in atoms, that build_lpn makes.  The table and the
# file grow with the square of the atom count: at 256 atoms (p = 254,
# n = 0) `relalg construct` takes 3.6 s, peaks at 130 MB and writes a
# 38 MB file, while p = 3000 (3,002 atoms) ran out of memory under a
# 1.5 GB address-space limit.  Every algebra the paper's chain needs
# here (targets up to q = 61, n <= 5) has under 70 atoms.
MAX_LPN_ATOMS = 256


def build_lpn(p: int, n: int) -> FiniteRelationAlgebra:
    """Construct L(p,n).  Atom order: 1', a0..ap, t1..tn.

    Refuses (ResourceBudgetError) more than MAX_LPN_ATOMS atoms before
    allocating anything.
    """
    if p < 3:
        raise ValueError(f"p must be at least 3, got {p}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    k = p + n + 2
    if k > MAX_LPN_ATOMS:
        raise ResourceBudgetError(f"L({p},{n}) has {k} atoms; the limit is {MAX_LPN_ATOMS}")
    names = ["1'"] + [f"a{i}" for i in range(p + 1)] + [f"t{j}" for j in range(1, n + 1)]
    return FiniteRelationAlgebra(
        names,
        identity_atoms=[0],
        converse=range(k),
        comp=_lpn_table(p, n),
        lpn_params=(p, n),
        name=f"L({p},{n})",
    )


def _lpn_table(p: int, n: int) -> list[list[int]]:
    """The composition table of L(p,n), with no size limit, so that a
    loaded file of any size can be compared with it."""
    k = p + n + 2
    ident = 1
    a_mask = ((1 << (p + 1)) - 1) << 1
    t_mask = ((1 << n) - 1) << (p + 2)

    def a(i: int) -> int:
        return 1 << (1 + i)

    comp = [[0] * k for _ in range(k)]
    for x in range(k):
        comp[0][x] = 1 << x
        comp[x][0] = 1 << x
    for i in range(p + 1):
        for j in range(p + 1):
            if i == j:
                comp[1 + i][1 + j] = ident | a(i)
            else:
                comp[1 + i][1 + j] = a_mask & ~a(i) & ~a(j)
    for i in range(p + 1):
        for kk in range(n):
            comp[1 + i][p + 2 + kk] = t_mask
            comp[p + 2 + kk][1 + i] = t_mask
    for kk in range(n):
        for ll in range(n):
            if kk == ll:
                comp[p + 2 + kk][p + 2 + ll] = ident | a_mask
            else:
                comp[p + 2 + kk][p + 2 + ll] = a_mask
    return comp


class FusedAlgebra(NamedTuple):
    """L^ij(p,n) together with its inclusion into L(p,n)."""

    algebra: FiniteRelationAlgebra
    parent: FiniteRelationAlgebra
    i: int
    j: int
    inclusion: Embedding
    inclusion_report: EmbeddingReport


def build_fused(p: int, n: int, i: int, j: int) -> FusedAlgebra:
    """Construct L^ij(p,n) with ai, aj merged into one atom.

    Atom order: 1', the fused atom (named e.g. ``a0a1``), remaining ak in
    index order, t1..tn.  The composition table is computed inside
    L(p,n) through the inclusion and re-expressed in fused atoms, which
    also certifies that the fused atom set really spans a subalgebra.
    """
    if i == j:
        raise ValueError("fusion needs two distinct slope indices")
    if not (0 <= i <= p and 0 <= j <= p):
        raise ValueError(f"fusion indices must lie in 0..{p}")
    i, j = min(i, j), max(i, j)
    parent = build_lpn(p, n)

    def parent_a(idx: int) -> int:
        return 1 << (1 + idx)

    atom_masks = [parent.identity_mask, parent_a(i) | parent_a(j)]
    names = ["1'", f"a{i}a{j}"]
    for kk in range(p + 1):
        if kk not in (i, j):
            atom_masks.append(parent_a(kk))
            names.append(f"a{kk}")
    for kk in range(1, n + 1):
        atom_masks.append(1 << (p + 1 + kk))
        names.append(f"t{kk}")

    k = len(atom_masks)

    def decompose(parent_mask: int) -> int:
        out = 0
        rest = parent_mask
        for idx, m in enumerate(atom_masks):
            if m & parent_mask:
                if m & parent_mask != m:
                    raise AssertionError("fused atom set does not span a subalgebra")
                out |= 1 << idx
                rest &= ~m
        if rest:
            raise AssertionError("fused atom set does not span a subalgebra")
        return out

    comp = [
        [decompose(parent.compose_masks(atom_masks[x], atom_masks[y])) for y in range(k)]
        for x in range(k)
    ]
    fused = FiniteRelationAlgebra(
        names,
        identity_atoms=[0],
        converse=range(k),
        comp=comp,
        name=f"L^{i}{j}({p},{n})",
    )

    domain = SubalgebraDescription(fused, tuple(fused.atom(x) for x in range(k)))
    inclusion = Embedding(
        domain,
        parent,
        {1 << x: atom_masks[x] for x in range(k)},
    )
    report = check_embedding(inclusion)
    return FusedAlgebra(fused, parent, i, j, inclusion, report)


class FusionEmbedding(NamedTuple):
    fused: FusedAlgebra
    target: FiniteRelationAlgebra
    embedding: Embedding
    report: EmbeddingReport


def fusion_embedding(p: int, n: int, i: int, j: int, q: int) -> FusionEmbedding:
    """Verified embedding of L^ij(p,n) into L(q,n), q >= p.

    The fused atom maps to ai+aj+a(p+1)+...+aq; every other atom maps to
    its namesake.  With q = p this is the inclusion into L(p,n).
    """
    if q < p:
        raise ValueError(f"target parameter q={q} must be at least p={p}")
    fused = build_fused(p, n, i, j)
    target = build_lpn(q, n)
    i, j = fused.i, fused.j

    def target_atom(name: str) -> int:
        return target.atom_by_name(name).bits

    images: dict[int, int] = {}
    for idx, name in enumerate(fused.algebra.atom_names):
        if name == f"a{i}a{j}":
            img = target_atom(f"a{i}") | target_atom(f"a{j}")
            for kk in range(p + 1, q + 1):
                img |= target_atom(f"a{kk}")
        else:
            img = target_atom(name)
        images[1 << idx] = img

    domain = SubalgebraDescription(
        fused.algebra,
        tuple(fused.algebra.atom(x) for x in range(fused.algebra.atom_count)),
    )
    emb = Embedding(domain, target, images)
    report = check_embedding(emb)
    return FusionEmbedding(fused, target, emb, report)
