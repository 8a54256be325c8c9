"""Finite symmetric integral relation algebras as explicit data.

An algebra is given by its atoms: a list of names, the set of identity
atoms, a converse permutation, and a composition table mapping each atom
pair to an element.  Elements are sets of atoms, stored as int bitmasks
(bit i set = atom i present), so all boolean operations are single int
operations and composition extends additively from the atom table.

Axiom checking works at atom level.  Associativity, the identity law and
the involution laws are all preserved by additive extension, so checking
them on atoms (triples/pairs) decides them for all elements.  The triangle
law  x~;complement(x;y) <= complement(y)  is equivalent, over atom
structures, to the Peircean condition on atom triples

    c <= a;b  <=>  b <= a~;c  <=>  a <= c;b~

(one-line proof: both are equivalent to the statement that the set of
"forbidden triangles" is closed under the cyclic moves (a,b,c) ->
(a~,c,b) -> (c,b~,a); the triangle law asserts exactly that membership of
c in a;b is invariant under these moves, and every element-level instance
expands additively into atom-level instances).  check_axioms verifies the
Peircean condition exhaustively on atom triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ResourceBudgetError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Element:
    """A subset of the atoms of a fixed algebra.

    Value semantics: two elements are equal iff they live in the same
    algebra and have the same atom set.  Boolean operations are | & ~,
    relative multiplication is ``compose`` (also the @ operator), and
    ``converse`` maps atoms through the algebra's converse permutation.
    """

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: "FiniteRelationAlgebra", bits: int):
        if not 0 <= bits <= algebra.top_mask:
            raise ValueError(f"element mask {bits:#x} out of range for {algebra}")
        self.algebra = algebra
        self.bits = bits

    def _same(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("operands belong to different algebras")

    def join(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.bits | other.bits)

    def meet(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.bits & other.bits)

    def complement(self) -> "Element":
        return Element(self.algebra, self.bits ^ self.algebra.top_mask)

    def converse(self) -> "Element":
        return Element(self.algebra, self.algebra.converse_mask(self.bits))

    def compose(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.algebra.compose_masks(self.bits, other.bits))

    __or__ = join
    __and__ = meet
    __invert__ = complement
    __matmul__ = compose

    def __le__(self, other: "Element") -> bool:
        self._same(other)
        return self.bits & ~other.bits == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def atoms(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __repr__(self) -> str:
        return f"<{self.algebra.format_mask(self.bits)}>"


class FiniteRelationAlgebra:
    """Atom table of a finite relation algebra.

    ``comp[a][b]`` is the bitmask of the element a;b for atoms a, b.
    ``converse`` is a permutation of atom indices (identity for symmetric
    algebras).  Instances are immutable after construction and safe to
    share: element-level composition and converse are computed from the
    atom tables on every call, and nothing is cached on the instance.
    """

    def __init__(
        self,
        atom_names: Sequence[str],
        identity_atoms: Iterable[int],
        converse: Sequence[int],
        comp: Sequence[Sequence[int]],
        *,
        lpn_params: tuple[int, int] | None = None,
        name: str | None = None,
    ):
        self.atom_names = tuple(atom_names)
        self.atom_count = len(self.atom_names)
        self.top_mask = (1 << self.atom_count) - 1
        self.identity_atoms = frozenset(identity_atoms)
        self.identity_mask = 0
        for i in self.identity_atoms:
            self.identity_mask |= 1 << i
        self.converse = tuple(converse)
        self.comp = tuple(tuple(row) for row in comp)
        self.lpn_params = lpn_params
        self.name = name or f"RA({','.join(self.atom_names)})"
        self._validate()
        self._name_to_index = {nm: i for i, nm in enumerate(self.atom_names)}
        self.is_symmetric = all(self.converse[i] == i for i in range(self.atom_count))
        self.is_commutative = all(
            self.comp[a][b] == self.comp[b][a]
            for a in range(self.atom_count)
            for b in range(a)
        )

    def _validate(self) -> None:
        k = self.atom_count
        if k == 0:
            raise ValueError("algebra needs at least one atom")
        if len(set(self.atom_names)) != k:
            raise ValueError("duplicate atom names")
        if not self.identity_atoms:
            raise ValueError("identity element must be a nonempty atom set")
        if sorted(self.converse) != list(range(k)):
            raise ValueError("converse is not a permutation of atoms")
        for i in range(k):
            if self.converse[self.converse[i]] != i:
                raise ValueError("converse is not an involution")
        for i in self.identity_atoms:
            if self.converse[i] != i:
                raise ValueError("converse must fix identity atoms")
        if len(self.comp) != k or any(len(row) != k for row in self.comp):
            raise ValueError("composition table must be atom_count x atom_count")
        for row in self.comp:
            for mask in row:
                if not 0 <= mask <= self.top_mask:
                    raise ValueError("composition table entry out of range")

    # -- element factories ------------------------------------------------

    def element(self, bits: int) -> Element:
        return Element(self, bits)

    def atom(self, i: int) -> Element:
        return Element(self, 1 << i)

    @property
    def zero(self) -> Element:
        return Element(self, 0)

    @property
    def one(self) -> Element:
        return Element(self, self.top_mask)

    @property
    def identity(self) -> Element:
        return Element(self, self.identity_mask)

    def atom_by_name(self, name: str) -> Element:
        try:
            return Element(self, 1 << self._name_to_index[name])
        except KeyError:
            raise ValueError(f"unknown atom name {name!r}") from None

    def parse_element(self, text: str) -> Element:
        """Parse an atom sum such as ``a0+t1``; ``0`` is the zero element."""
        text = text.strip()
        if text == "0":
            return self.zero
        bits = 0
        for part in text.split("+"):
            part = part.strip()
            if part not in self._name_to_index:
                raise ValueError(f"unknown atom name {part!r}")
            bits |= 1 << self._name_to_index[part]
        return Element(self, bits)

    def format_mask(self, bits: int) -> str:
        if bits == 0:
            return "0"
        return "+".join(self.atom_names[i] for i in iter_bits(bits))

    # -- mask-level operations --------------------------------------------

    def compose_masks(self, x: int, y: int) -> int:
        """x;y as the OR of the atom products a;b over a in x and b in y."""
        out = 0
        comp = self.comp
        ys = list(iter_bits(y))
        for a in iter_bits(x):
            row = comp[a]
            for b in ys:
                out |= row[b]
        return out

    def converse_mask(self, x: int) -> int:
        if self.is_symmetric:
            return x
        out = 0
        for a in iter_bits(x):
            out |= 1 << self.converse[a]
        return out

    def elements(self) -> Iterator[Element]:
        for bits in range(self.top_mask + 1):
            yield Element(self, bits)

    def __repr__(self) -> str:
        return self.name


# -- axiom checking --------------------------------------------------------


@dataclass
class AxiomFailure:
    family: str
    atoms: tuple[int, ...]
    detail: str


@dataclass
class AxiomReport:
    algebra: FiniteRelationAlgebra
    associativity_ok: bool
    identity_ok: bool
    converse_ok: bool
    peircean_ok: bool
    first_failure: AxiomFailure | None

    @property
    def ok(self) -> bool:
        return (
            self.associativity_ok
            and self.identity_ok
            and self.converse_ok
            and self.peircean_ok
        )

    def summary(self) -> str:
        if self.ok:
            return "all axioms pass (additivity holds by construction)"
        f = self.first_failure
        names = ",".join(self.algebra.atom_names[i] for i in f.atoms)
        return f"FAIL {f.family} at atoms ({names}): {f.detail}"


def check_axioms(algebra: FiniteRelationAlgebra) -> AxiomReport:
    """Exhaustively verify the relation algebra axioms on atoms.

    Families checked: associativity on all atom triples, the identity law
    on atoms, converse involution together with (a;b)~ = b~;a~ on atom
    pairs, and the triangle law via the Peircean atom-triple condition.
    Additivity holds by construction of the atomwise extension.  Both
    left and right additivity are built in, so either reading of the
    one-sided additivity axiom is covered.
    """
    k = algebra.atom_count
    comp = algebra.comp
    conv = algebra.converse
    first: AxiomFailure | None = None

    identity_ok = True
    ident = algebra.identity_mask
    for a in range(k):
        left = algebra.compose_masks(ident, 1 << a)
        right = algebra.compose_masks(1 << a, ident)
        if left != 1 << a or right != 1 << a:
            identity_ok = False
            if first is None:
                first = AxiomFailure(
                    "identity",
                    (a,),
                    f"1';{algebra.atom_names[a]} = {algebra.format_mask(left)}, "
                    f"{algebra.atom_names[a]};1' = {algebra.format_mask(right)}",
                )
            break

    converse_ok = True
    for a in range(k):
        if conv[conv[a]] != a:
            converse_ok = False
            if first is None:
                first = AxiomFailure("converse", (a,), "converse not involutive")
            break
    if converse_ok:
        for a in range(k):
            for b in range(k):
                lhs = algebra.converse_mask(comp[a][b])
                rhs = comp[conv[b]][conv[a]]
                if lhs != rhs:
                    converse_ok = False
                    if first is None:
                        first = AxiomFailure(
                            "converse",
                            (a, b),
                            f"(a;b)~ = {algebra.format_mask(lhs)} but "
                            f"b~;a~ = {algebra.format_mask(rhs)}",
                        )
                    break
            if not converse_ok:
                break

    peircean_ok = True
    for a in range(k):
        for b in range(k):
            ab = comp[a][b]
            for c in range(k):
                in_ab = bool(ab >> c & 1)
                in_ac = bool(comp[conv[a]][c] >> b & 1)
                in_cb = bool(comp[c][conv[b]] >> a & 1)
                if in_ab != in_ac or in_ab != in_cb:
                    peircean_ok = False
                    if first is None:
                        first = AxiomFailure(
                            "peircean",
                            (a, b, c),
                            f"c<=a;b:{in_ab} b<=a~;c:{in_ac} a<=c;b~:{in_cb}",
                        )
                    break
            if not peircean_ok:
                break
        if not peircean_ok:
            break

    # the 2k^3 products below repeat their mask pairs (about 45k distinct
    # of 138k on L(31,8)); the memo lives only for this call
    memo: dict[int, int] = {}

    def compose(x: int, y: int) -> int:
        key = x << k | y  # one int key: a tuple key costs more memory
        out = memo.get(key)
        if out is None:
            out = memo[key] = algebra.compose_masks(x, y)
        return out

    associativity_ok = True
    for a in range(k):
        for b in range(k):
            ab = comp[a][b]
            for c in range(k):
                lhs = compose(ab, 1 << c)
                rhs = compose(1 << a, comp[b][c])
                if lhs != rhs:
                    associativity_ok = False
                    if first is None:
                        first = AxiomFailure(
                            "associativity",
                            (a, b, c),
                            f"(a;b);c = {algebra.format_mask(lhs)} but "
                            f"a;(b;c) = {algebra.format_mask(rhs)}",
                        )
                    break
            if not associativity_ok:
                break
        if not associativity_ok:
            break

    return AxiomReport(
        algebra, associativity_ok, identity_ok, converse_ok, peircean_ok, first
    )


# -- subalgebra generation --------------------------------------------------


@dataclass
class SubalgebraDescription:
    """A subalgebra described by its atoms (minimal nonzero elements).

    The carrier is the set of all unions of the atom cells.  ``contains``
    and ``element_masks`` derive it on demand, so even subalgebras whose
    carrier is the full parent algebra stay cheap to represent.
    """

    algebra: FiniteRelationAlgebra
    atoms: tuple[Element, ...]

    def contains(self, x: Element | int) -> bool:
        bits = x.bits if isinstance(x, Element) else x
        for cell in self.atoms:
            inter = bits & cell.bits
            if inter and inter != cell.bits:
                return False
            bits &= ~cell.bits
        return bits == 0

    def element_masks(self, *, max_atoms: int = 20) -> frozenset[int]:
        if len(self.atoms) > max_atoms:
            raise ResourceBudgetError(
                f"subalgebra has {len(self.atoms)} atoms; carrier too large to list"
            )
        masks = [0]
        for cell in self.atoms:
            masks += [m | cell.bits for m in masks]
        return frozenset(masks)

    @property
    def size(self) -> int:
        return 1 << len(self.atoms)


def generate_subalgebra(
    algebra: FiniteRelationAlgebra, gens: Sequence[Element]
) -> SubalgebraDescription:
    """Least subalgebra containing ``gens`` (and 0, 1, 1').

    Works by stable partition refinement on the atom set: start from the
    partition induced by membership patterns in the generators and the
    identity element, then split cells until every composition of two
    cells is a union of cells and every cell is converse-closed.  The
    boolean span of the resulting cells is exactly the closure of the
    generators under 0, 1, 1', +, ., complement, converse and ;, and the
    cells are its atoms.  This avoids materializing carriers that can
    have 2^16 or more elements.
    """
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.algebra is not algebra:
            raise ValueError("generator belongs to a different algebra")

    k = algebra.atom_count
    patterns: dict[tuple[bool, ...], int] = {}
    for i in range(k):
        key = tuple(bool(g.bits >> i & 1) for g in gens) + (
            bool(algebra.identity_mask >> i & 1),
        )
        patterns[key] = patterns.get(key, 0) | (1 << i)
    cells = sorted(patterns.values())

    def split_by(mask: int) -> bool:
        nonlocal cells
        changed = False
        new_cells = []
        for cell in cells:
            inter = cell & mask
            if inter and inter != cell:
                new_cells.append(inter)
                new_cells.append(cell & ~mask)
                changed = True
            else:
                new_cells.append(cell)
        if changed:
            cells = sorted(new_cells)
        return changed

    stable = False
    while not stable:
        stable = True
        for u in list(cells):
            if split_by(algebra.converse_mask(u)):
                stable = False
                break
            for v in list(cells):
                if split_by(algebra.compose_masks(u, v)):
                    stable = False
                    break
            if not stable:
                break

    atoms = tuple(Element(algebra, cell) for cell in sorted(cells))
    return SubalgebraDescription(algebra, atoms)


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


# -- embeddings --------------------------------------------------------------


@dataclass
class EmbeddingFailure:
    clause: str
    atoms: tuple[int, ...]
    detail: str


@dataclass
class EmbeddingReport:
    ok: bool
    failure: EmbeddingFailure | None = None


@dataclass
class Embedding:
    """Additive map between algebras, given by its values on domain atoms.

    ``domain`` is a subalgebra description of the source algebra; the map
    sends each domain atom to an element of ``target`` and extends by
    additivity.
    """

    domain: SubalgebraDescription
    target: FiniteRelationAlgebra
    atom_images: dict[int, int]

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.domain.algebra:
            raise ValueError("element not in the embedding's source algebra")
        if not self.domain.contains(x):
            raise ValueError("element not in the embedding's domain subalgebra")
        out = 0
        for cell in self.domain.atoms:
            if cell.bits & x.bits:
                out |= self.atom_images[cell.bits]
        return Element(self.target, out)


def check_embedding(embedding: Embedding) -> EmbeddingReport:
    """Verify that the additive extension is an algebra embedding.

    Checks, on domain atoms and atom pairs: images nonzero and pairwise
    disjoint (injectivity plus meet preservation), image of the identity,
    converse preservation, composition preservation, and last that the
    images cover the target's top, so that complements are preserved.
    Join preservation holds by the additive definition.
    """
    dom = embedding.domain
    src = dom.algebra
    tgt = embedding.target
    images = embedding.atom_images
    for cell in dom.atoms:
        if cell.bits not in images:
            raise ValueError(
                f"embedding not defined on domain atom {src.format_mask(cell.bits)}"
            )

    for idx, cell in enumerate(dom.atoms):
        if images[cell.bits] == 0:
            return EmbeddingReport(
                False, EmbeddingFailure("injective", (idx,), "atom image is zero")
            )
        for jdx in range(idx):
            other = dom.atoms[jdx]
            if images[cell.bits] & images[other.bits]:
                return EmbeddingReport(
                    False,
                    EmbeddingFailure(
                        "meet", (jdx, idx), "distinct atom images overlap"
                    ),
                )

    ident_image = 0
    for cell in dom.atoms:
        if cell.bits & src.identity_mask:
            ident_image |= images[cell.bits]
    if ident_image != tgt.identity_mask:
        return EmbeddingReport(
            False,
            EmbeddingFailure(
                "identity", (), f"1' maps to {tgt.format_mask(ident_image)}"
            ),
        )

    def image_of_mask(bits: int) -> int:
        out = 0
        for cell in dom.atoms:
            if cell.bits & bits:
                out |= images[cell.bits]
        return out

    for idx, cell in enumerate(dom.atoms):
        lhs = image_of_mask(src.converse_mask(cell.bits))
        rhs = tgt.converse_mask(images[cell.bits])
        if lhs != rhs:
            return EmbeddingReport(
                False, EmbeddingFailure("converse", (idx,), "converse not preserved")
            )

    for idx, u in enumerate(dom.atoms):
        for jdx, v in enumerate(dom.atoms):
            lhs = image_of_mask(src.compose_masks(u.bits, v.bits))
            rhs = tgt.compose_masks(images[u.bits], images[v.bits])
            if lhs != rhs:
                return EmbeddingReport(
                    False,
                    EmbeddingFailure(
                        "compose",
                        (idx, jdx),
                        f"f(u;v) = {tgt.format_mask(lhs)} but "
                        f"f(u);f(v) = {tgt.format_mask(rhs)}",
                    ),
                )

    top_image = image_of_mask(src.top_mask)
    if top_image != tgt.top_mask:
        return EmbeddingReport(
            False,
            EmbeddingFailure("top", (), f"1 maps to {tgt.format_mask(top_image)}"),
        )

    return EmbeddingReport(True)


def full_subalgebra(algebra: FiniteRelationAlgebra) -> SubalgebraDescription:
    """The improper subalgebra whose atoms are all atoms of the algebra."""
    atoms = tuple(algebra.atom(i) for i in range(algebra.atom_count))
    return SubalgebraDescription(algebra, atoms)
