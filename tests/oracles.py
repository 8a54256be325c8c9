"""Reference implementations that the tests compare the library against.

Each one shares no code with the path it checks:

* network_check decides weak representability of an atom labeling from
  labeled triangles and witness points, against structures.verify_weak.
* generate_subalgebra_naive closes the generators under every operation,
  against algebra.generate_subalgebra's partition refinement.
* exact_bounds decides inequalities (1) and (2) of the xi bound calculus
  in exact rationals, against xi.eval_bounds's log-domain route.
* whole_product_check forms every condition instance of the xi fast
  checker whole, row by row with product_rows, against
  xi.XiFastChecker.check's stopped and transposed products.

The two helpers at the end build inputs: full_subalgebra and
random_generators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from relalg.algebra import (
    Element,
    FiniteRelationAlgebra,
    SubalgebraDescription,
)
from relalg.errors import ResourceBudgetError
from relalg.structures import (
    AtomLabeling,
    ClassAssignment,
    VerifyFailure,
    VerifyReport,
    bits_to_rows,
    product_rows,
)
from relalg.xi import XiCertificate, XiCheckReport, XiFastChecker


def network_check(structure: AtomLabeling) -> VerifyReport:
    """Atom-level check equivalent to verify_weak for atom labelings.

    Conditions: (t1) every two-edge path closes into a labeled triangle
    whose third label sits below the composition of the other two; (t2)
    paths returning to their start need the identity below the
    composition; (s1) every labeled pair (u,v) with label below a;b has a
    witness w with (u,w) labeled a and (w,v) labeled b; (s2) every point
    has, for every atom a with 1' <= a;a~, an outgoing a-edge.  Together
    with the constructor's converse consistency these are exactly the
    weak-representation clauses, restricted to atoms and extended by
    additivity.
    """
    alg = structure.algebra
    if len(alg.identity_atoms) != 1:
        raise ValueError("network check expects an integral algebra")
    d = structure.base_size
    k = alg.atom_count
    conv = alg.converse
    ident = next(iter(alg.identity_atoms))
    nb = [[0] * k for _ in range(d)]
    for (u, v), a in structure.labels.items():
        nb[u][a] |= 1 << v
    for u in range(d):
        nb[u][ident] |= 1 << u  # diagonal is implicitly identity-labeled

    def fail(clause, elements, point, detail):
        return VerifyReport(
            False, "weak", VerifyFailure(clause, elements, point, detail), 0
        )

    for (u, v), a in structure.labels.items():
        for w in range(d):
            if w == u or w == v:
                continue
            buw = None
            for b in range(k):
                if nb[u][b] >> w & 1:
                    buw = b
                    break
            if buw is None:
                continue
            bwv = None
            for b in range(k):
                if nb[w][b] >> v & 1:
                    bwv = b
                    break
            if bwv is None:
                continue
            if not alg.comp[buw][bwv] >> a & 1:
                return fail(
                    "network-triangle",
                    (1 << buw, 1 << bwv, 1 << a),
                    (u, v),
                    f"label not below composition via point {w}",
                )

    # paths u -> w -> u: composition must contain the identity (auto in a
    # relation algebra, but checked so the oracle stands alone)
    for u in range(d):
        for a in range(k):
            row = nb[u][a]
            while row:
                low = row & -row
                w = low.bit_length() - 1
                row ^= low
                b = None
                for bb in range(k):
                    if nb[w][bb] >> u & 1:
                        b = bb
                        break
                if b is not None and not alg.comp[a][b] & alg.identity_mask:
                    return fail(
                        "network-triangle",
                        (1 << a, 1 << b),
                        (u, u),
                        "identity not below closing composition",
                    )

    for (u, v), g in structure.labels.items():
        for a in range(k):
            row_a = nb[u][a]
            for b in range(k):
                if not alg.comp[a][b] >> g & 1:
                    continue
                if not row_a & nb[v][conv[b]]:
                    return fail(
                        "network-saturation",
                        (1 << a, 1 << b, 1 << g),
                        (u, v),
                        "no witness point for a;b above the label",
                    )

    for u in range(d):
        for a in range(k):
            if alg.comp[a][conv[a]] & alg.identity_mask and not nb[u][a]:
                return fail(
                    "network-saturation",
                    (1 << a,),
                    (u, u),
                    "point has no outgoing edge with this label",
                )

    return VerifyReport(True, "weak", None, 0)


def generate_subalgebra_naive(
    algebra: FiniteRelationAlgebra, gens: Sequence[Element], *, max_size: int = 4096
) -> tuple[frozenset[int], tuple[Element, ...]]:
    """Direct fixpoint closure; independent oracle for generate_subalgebra.

    Materializes the carrier, so only usable on small algebras.  Returns
    the carrier masks and the atoms (minimal nonzero elements, found via
    pairwise meets, smallest bitmask first).
    """
    closure = {0, algebra.top_mask, algebra.identity_mask}
    closure.update(g.bits for g in gens)
    frontier = set(closure)
    while frontier:
        fresh: set[int] = set()
        current = list(closure)
        for x in frontier:
            fresh.add(x ^ algebra.top_mask)
            fresh.add(algebra.converse_mask(x))
            for y in current:
                fresh.add(x | y)
                fresh.add(x & y)
                fresh.add(algebra.compose_masks(x, y))
                fresh.add(algebra.compose_masks(y, x))
        fresh -= closure
        closure |= fresh
        frontier = fresh
        if len(closure) > max_size:
            raise ResourceBudgetError("naive closure exceeded budget")
    atoms = []
    for x in sorted(closure):
        if x == 0:
            continue
        minimal = x
        for y in closure:
            if y and y & x == y and y < minimal:
                minimal = y
        if minimal == x:
            atoms.append(Element(algebra, x))
    return frozenset(closure), tuple(atoms)


def exact_bounds(p: int, n: int, d: int, k: int) -> tuple[bool, bool, Fraction]:
    """Inequalities (1) and (2) and the failure bound of the xi module
    docstring, in big rationals throughout (n >= 2)."""
    r1 = Fraction(n * n, n * n - 1) ** d
    ineq1 = r1 > 4 * n * n * d * (d - 1)
    r2 = Fraction(n, n - 1) ** k
    ineq2 = r2 > 4 * (p + 1) * n * d * d
    bound = Fraction(2 * d * (d - 1) * n * n) / r1 + Fraction(2 * (p + 1) * d * d * n) / r2
    return ineq1, ineq2, bound


def whole_product_check(checker: XiFastChecker, partition: ClassAssignment) -> XiCheckReport:
    """XiFastChecker.check on an inner structure with no union defect,
    each instance's product formed over all d middle points: no stop, and
    each W14 instance (i, j) formed for itself.  The first row where a
    product differs from its target names the certificate, as in the
    module docstring of xi; the inner images are the checker's own."""
    d, n = checker.d, checker.n
    t = [1 << (checker.p + 2 + i) for i in range(n)]
    r = [bits_to_rows(partition.class_bits(i + 1), d) for i in range(n)]
    c = [[sum((row >> y & 1) << x for x, row in enumerate(ri)) for y in range(d)] for ri in r]

    def fail(condition, elements, point, detail, checked):
        return XiCheckReport(False, XiCertificate(condition, elements, point, detail), checked)

    for i in range(n):
        if 0 in r[i]:
            x = r[i].index(0)
            why = f"point {x} has no class-{i + 1} cross edge"
            return fail("class-row", (t[i], t[i]), (x, x), why, 2 * d * i + x + 1)
        if 0 in c[i]:
            y = c[i].index(0)
            why = f"mirror point {y} has no class-{i + 1} cross edge"
            return fail("class-column", (t[i], t[i]), (d + y, d + y), why, 2 * d * i + d + y + 1)
    top, a = bits_to_rows(checker.top_bits, d), bits_to_rows(checker.a_bits, d)
    full = [(1 << d) - 1] * d
    instances = []
    for i in range(n):
        what = f"{{what}} common class-{i + 1} neighbour"
        instances.append((r[i], c[i], top, "same-class-witness", (t[i], t[i]), (0, 0), what))
        instances.append(
            (c[i], r[i], top, "same-class-witness", (t[i], t[i]), (d, d), what + " (mirror)")
        )
    for i in range(n):
        for j in range(n):
            if i != j:
                what = f"{{what}} common (class {i + 1}, class {j + 1}) neighbour"
                w14 = a, "mixed-class-witness", (t[i], t[j])
                instances.append((r[i], c[j], *w14, (0, 0), what))
                instances.append((c[i], r[j], *w14, (d, d), what + " (mirror)"))
    for q, (aq, aqt) in enumerate(checker.atom_bits):
        sq, aq, aqt = 1 << (1 + q), bits_to_rows(aq, d), bits_to_rows(aqt, d)
        for l in range(n):
            pair = "for cross pair ({x},{y}')"
            w2 = full, "slope-class-witness"
            into = f"no slope-{q} step into class {l + 1} {pair}"
            before = f"no class-{l + 1} step before slope {q} {pair}"
            instances.append((aq, r[l], *w2, (sq, t[l]), (0, d), into))
            instances.append((r[l], aqt, *w2, (t[l], sq), (0, d), before))
    checked = 2 * n * d
    for left, right, target, condition, elements, (dx, dy), detail in instances:
        for x, (row, want) in enumerate(zip(product_rows(left, right), target)):
            if row != want:
                y = ((row ^ want) & -(row ^ want)).bit_length() - 1
                what = "missing" if want >> y & 1 else "forbidden"
                why = detail.format(what=what, x=x, y=y)
                return fail(condition, elements, (dx + x, dy + y), why, checked + x * d + y + 1)
        checked += d * d
    return XiCheckReport(True, None, checked)


def full_subalgebra(algebra: FiniteRelationAlgebra) -> SubalgebraDescription:
    """The improper subalgebra whose atoms are all atoms of the algebra."""
    atoms = tuple(algebra.atom(i) for i in range(algebra.atom_count))
    return SubalgebraDescription(algebra, atoms)


def random_generators(
    algebra: FiniteRelationAlgebra, gamma: int, rng: random.Random
) -> list[Element]:
    """gamma random nonzero elements, for pipeline trials."""
    return [
        algebra.element(rng.randrange(1, algebra.top_mask + 1)) for _ in range(gamma)
    ]
