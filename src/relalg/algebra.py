"""Finite symmetric integral relation algebras as explicit data.

An algebra is given by its atoms: a list of names, the set of identity
atoms, a converse permutation, and a composition table mapping each atom
pair to an element.  Elements are sets of atoms, stored as int bitmasks
(bit i set = atom i present), so all boolean operations are single int
operations and composition extends additively from the atom table.

Axiom checking works at atom level.  Associativity, the identity law and
the converse law (a;b)~ = b~;a~ are all preserved by additive extension,
so checking them on atoms (triples/pairs) decides them for all elements;
the converse family checks only that law, since an algebra whose
converse is not an involution is refused when it is built.  The triangle
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

from itertools import chain, product, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ResourceBudgetError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Frozen:
    """Immutable value whose fields are its ``__slots__``, passed in order.

    Equality needs the same class and equal ``_key()`` (every field unless
    a subclass narrows it), hashing is over ``_key()``, and the repr names
    every field.  Plain methods, so a subclass costs no code generation.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), Frozen._key(self)  # every field, for copy and pickle


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

    def twin_blocks(self) -> tuple[int, ...]:
        """The atoms partitioned into blocks of twins, as masks in order
        of their least atom.

        Atoms a and b are twins when the transposition (a b) is an
        automorphism: it maps identity atoms to identity atoms, commutes
        with converse, and maps every table entry a';b' to the entry at
        the swapped pair.  The automorphisms form a group, and (a c) =
        (a b)(b c)(a b), so twinship is an equivalence and each atom is
        tested against the least atom of each block.  On L(p,n) the
        blocks are {1'}, the slopes and the bridges.
        """
        blocks: list[int] = []
        for b in range(self.atom_count):
            for i, block in enumerate(blocks):
                if self._twins((block & -block).bit_length() - 1, b):
                    blocks[i] |= 1 << b
                    break
            else:
                blocks.append(1 << b)
        return tuple(blocks)

    def _twins(self, a: int, b: int) -> bool:
        """Whether the transposition (a b) is an automorphism."""
        k, comp, conv = self.atom_count, self.comp, self.converse
        pair = 1 << a | 1 << b
        swap = list(range(k))
        swap[a], swap[b] = b, a

        def move(mask: int) -> int:
            return mask ^ pair if (mask >> a ^ mask >> b) & 1 else mask

        return (
            (a in self.identity_atoms) == (b in self.identity_atoms)
            and all(conv[swap[x]] == swap[conv[x]] for x in range(k))
            and all(
                list(map(move, comp[x])) == [comp[swap[x]][y] for y in swap]
                for x in range(k)
            )
        )

    def __repr__(self) -> str:
        return self.name


# -- axiom checking --------------------------------------------------------


class AxiomFailure(NamedTuple):
    family: str
    atoms: tuple[int, ...]
    detail: str


class AxiomReport(NamedTuple):
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


# check_axioms takes time about k^4 in the atom count k: 7.4 s at 68 atoms
# (L(61,5)) and 16.8 s at 80 (L(78,0)); the README has the measurements
MAX_AXIOM_ATOMS = 80


def check_axioms(algebra: FiniteRelationAlgebra) -> AxiomReport:
    """Exhaustively verify the relation algebra axioms on atoms.

    Families checked, in this order: the identity law on atoms,
    (a;b)~ = b~;a~ on atom pairs (that converse is an involution is
    refused when the algebra is built), the triangle law via the Peircean
    atom-triple condition, and associativity on all atom triples.  A
    family holds when its scan finds no failure, and ``first_failure`` is
    the first failure of the first family that has one.  Additivity holds
    by construction of the atomwise extension.  Both left and right
    additivity are built in, so either reading of the one-sided
    additivity axiom is covered.  More than MAX_AXIOM_ATOMS atoms are
    refused (ResourceBudgetError) before any work.
    """
    k = algebra.atom_count
    if k > MAX_AXIOM_ATOMS:
        raise ResourceBudgetError(
            f"algebra has {k} atoms; check_axioms refuses more than {MAX_AXIOM_ATOMS}"
        )
    comp = algebra.comp
    conv = algebra.converse
    fmt = algebra.format_mask

    # one generator per family, yielding its failures in scan order

    def identity():
        for a in range(k):
            left = algebra.compose_masks(algebra.identity_mask, 1 << a)
            right = algebra.compose_masks(1 << a, algebra.identity_mask)
            if left != 1 << a or right != 1 << a:
                name = algebra.atom_names[a]
                detail = f"1';{name} = {fmt(left)}, {name};1' = {fmt(right)}"
                yield AxiomFailure("identity", (a,), detail)

    def converse():
        for a, b in product(range(k), repeat=2):
            lhs = algebra.converse_mask(comp[a][b])
            rhs = comp[conv[b]][conv[a]]
            if lhs != rhs:
                detail = f"(a;b)~ = {fmt(lhs)} but b~;a~ = {fmt(rhs)}"
                yield AxiomFailure("converse", (a, b), detail)

    def peircean():
        for a, b in product(range(k), repeat=2):
            ab, row, cb = comp[a][b], comp[conv[a]], conv[b]
            for c in range(k):
                in_ab = bool(ab >> c & 1)
                in_ac = bool(row[c] >> b & 1)
                in_cb = bool(comp[c][cb] >> a & 1)
                if in_ab != in_ac or in_ab != in_cb:
                    detail = f"c<=a;b:{in_ab} b<=a~;c:{in_ac} a<=c;b~:{in_cb}"
                    yield AxiomFailure("peircean", (a, b, c), detail)

    # the 2k^3 products below repeat their mask pairs (about 45k distinct
    # of 138k on L(31,8)); the memo lives only for this call
    memo: dict[int, int] = {}

    def compose(x: int, y: int) -> int:
        key = x << k | y  # one int key: a tuple key costs more memory
        out = memo.get(key)
        if out is None:
            out = memo[key] = algebra.compose_masks(x, y)
        return out

    def associativity():
        for a, b in product(range(k), repeat=2):
            ab, bc = comp[a][b], comp[b]
            for c in range(k):
                lhs = compose(ab, 1 << c)
                rhs = compose(1 << a, bc[c])
                if lhs != rhs:
                    detail = f"(a;b);c = {fmt(lhs)} but a;(b;c) = {fmt(rhs)}"
                    yield AxiomFailure("associativity", (a, b, c), detail)

    families = (identity, converse, peircean, associativity)
    first = [next(family(), None) for family in families]
    identity_ok, converse_ok, peircean_ok, associativity_ok = (f is None for f in first)
    failure = next(filter(None, first), None)
    return AxiomReport(
        algebra, associativity_ok, identity_ok, converse_ok, peircean_ok, failure
    )


# -- subalgebra generation --------------------------------------------------


MAX_LISTED_ATOMS = 20  # element_masks lists at most 2^20 elements


class SubalgebraDescription(NamedTuple):
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

    def element_masks(self) -> frozenset[int]:
        if len(self.atoms) > MAX_LISTED_ATOMS:
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

    def splitting_masks():
        # each cell's converse, then its products with every cell, in
        # order, as far as they split some cell
        for u in cells:
            products = map(algebra.compose_masks, repeat(u), cells)
            for mask in chain([algebra.converse_mask(u)], products):
                for cell in cells:
                    if 0 != cell & mask != cell:
                        yield mask

    while (mask := next(splitting_masks(), None)) is not None:
        cells = sorted(part for c in cells for part in (c & mask, c & ~mask) if part)

    atoms = tuple(Element(algebra, cell) for cell in cells)
    return SubalgebraDescription(algebra, atoms)


# -- embeddings --------------------------------------------------------------


class EmbeddingFailure(NamedTuple):
    clause: str
    atoms: tuple[int, ...]
    detail: str


class EmbeddingReport(NamedTuple):
    ok: bool
    failure: EmbeddingFailure | None = None


class Embedding(NamedTuple):
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
    Join preservation holds by the additive definition.  The report
    carries the first failure found, clauses and atoms in this order.
    """
    src = embedding.domain.algebra
    tgt = embedding.target
    fmt = tgt.format_mask
    try:  # (atom, image) for each domain atom, in order
        pairs = [(c.bits, embedding.atom_images[c.bits]) for c in embedding.domain.atoms]
    except KeyError as missing:
        name = src.format_mask(missing.args[0])
        raise ValueError(f"embedding not defined on domain atom {name}") from None

    def image_of_mask(bits: int) -> int:
        out = 0
        for cell, img in pairs:
            if cell & bits:
                out |= img
        return out

    # the clauses in the order above, yielding their failures
    def failures():
        for idx, (_, img) in enumerate(pairs):
            if img == 0:
                yield EmbeddingFailure("injective", (idx,), "atom image is zero")
            for jdx in range(idx):
                if img & pairs[jdx][1]:
                    detail = "distinct atom images overlap"
                    yield EmbeddingFailure("meet", (jdx, idx), detail)
        ident = image_of_mask(src.identity_mask)
        if ident != tgt.identity_mask:
            yield EmbeddingFailure("identity", (), f"1' maps to {fmt(ident)}")
        for idx, (cell, img) in enumerate(pairs):
            if image_of_mask(src.converse_mask(cell)) != tgt.converse_mask(img):
                yield EmbeddingFailure("converse", (idx,), "converse not preserved")
        for idx, (u, fu) in enumerate(pairs):
            for jdx, (v, fv) in enumerate(pairs):
                lhs = image_of_mask(src.compose_masks(u, v))
                rhs = tgt.compose_masks(fu, fv)
                if lhs != rhs:
                    detail = f"f(u;v) = {fmt(lhs)} but f(u);f(v) = {fmt(rhs)}"
                    yield EmbeddingFailure("compose", (idx, jdx), detail)
        top = image_of_mask(src.top_mask)
        if top != tgt.top_mask:
            yield EmbeddingFailure("top", (), f"1 maps to {fmt(top)}")

    failure = next(failures(), None)
    return EmbeddingReport(failure is None, failure)
