"""Labeled structures over finite bases and the representation verifiers.

A labeled structure assigns every algebra element a binary relation on a
finite base.  Three kinds exist:

* AtomLabeling: a partial symmetric edge coloring of the base by atoms
  (diagonal implicitly colored by the identity); element images extend
  additively.
* Power: the m-th coordinatewise power of an inner structure.  A pair of
  m-tuples is in the image of x iff every coordinate pair is in the inner
  image of x.  Power images are deliberately NOT additive: the image of
  a0+a1 also contains pairs whose coordinates mix a0 and a1 edges.
* Xi: two mirrored copies D, D' of an inner structure for L(p,0), with
  every cross pair (x,y') assigned one of n bridge classes, each class
  held as one row-major d*d bitset over D x D'.  The image of b is (b
  restricted to 1'+A) on both copies, plus the cross pairs of the classes
  i with ti <= b, in both orientations.

verify_weak checks that the element-to-relation map respects 0, meet,
identity, converse and relative multiplication and is injective (the
weak signature: unions and complements unconstrained, so the image of
the top element need not cover the base square).  verify_full adds the
two remaining clauses: image(1) is the full square and images respect
complement.  Both verdicts come with a first-failure certificate naming
the clause, the element pair and a witness point pair.

One clause loop, _verify, decides both.  It runs zero, identity,
converse, then compose and meet (below), then injective, and
for verify_full top and complement.  It compares whole images, held as
int bitsets in a fixed layout per kind: row-major d*d for AtomLabeling
and Power; for Xi four d*d blocks D | D' | C | C^T (first copy, mirror
copy, cross pairs (x,y'), pairs (y',x)), so that a failure names the
block it was found in.  Products of images are formed in one of two
ways, chosen from the structure:

* additive images (AtomLabeling, and Xi over an AtomLabeling) are
  unions of atom images, and both the matrix product and composition
  distribute over unions, so the k^2 atom-pair products are formed once
  and each pair's product is a union of them, grown one atom of y at a
  time;
* the other kinds (Power, and Xi over a Power) form the product of each
  pair; Xi caches the products of inner-element and class-set parts.

For additive images compose and meet are decided on the atom pairs:
both sides of each clause distribute over the atoms of x and y, so when
every atom pair (a,b) has image(a).image(b) = image(a;b) and distinct
atoms have disjoint images, every element pair holds.  Otherwise, and
for the other kinds, compose and meet compare expected and computed
relations element pair by element pair up to the first failure; the
shared subcomputations are exact identities of boolean matrix algebra.
pairs_checked counts the element pairs decided either way, so a verdict,
its certificate and its count do not depend on the route.

Transposition is additive, so converse is checked on the atoms of
additive images, on the inner elements of other Xi images (their bridge
blocks are transposes of each other by construction) and on every
element of a Power.  For symmetric
commutative algebras the ordered pair (y,x) check is the transpose of
the (x,y) check once converse respect is established, so the pair loop
runs over unordered pairs; the verdict is unchanged.  Before building
any image, verification refuses (ResourceBudgetError) when the images of
all 2^k elements would exceed 2^29 bytes.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .algebra import Element, FiniteRelationAlgebra, Frozen, iter_bits
from .errors import ResourceBudgetError
from .lpn import build_lpn

DEFAULT_VERIFY_MAX_BASE = 4096
DEFAULT_IMAGE_MAX_BASE = 8192


# -- bit-matrix helpers ------------------------------------------------------


def diag_bits(d: int) -> int:
    out = 0
    for u in range(d):
        out |= 1 << (u * d + u)
    return out


def full_bits(rows: int, cols: int) -> int:
    return (1 << (rows * cols)) - 1


def bits_to_rows(bits: int, d: int) -> list[int]:
    mask = (1 << d) - 1
    return [(bits >> (u * d)) & mask for u in range(d)]


def rows_to_bits(rows: list[int], cols: int) -> int:
    """Row u at bit u*cols.  Neighbouring rows join pairwise, halving the
    list each round, so building the d*d-bit result copies each bit
    log2(d) times, not once per later row."""
    while len(rows) > 1:
        joined = [lo | hi << cols for lo, hi in zip(rows[::2], rows[1::2])]
        rows = joined + rows[-1:] if len(rows) & 1 else joined
        cols *= 2
    return rows[0] if rows else 0


def product_rows(xrows: list[int], yrows: list[int]) -> list[int]:
    """Boolean matrix product: (x o y)[u] = union of y-rows hit by x[u]."""
    out = []
    for row in xrows:
        acc = 0
        while row:
            low = row & -row
            acc |= yrows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


class ImageRelation(Frozen):
    """A binary relation on 0..d-1, stored as a row-major d*d bitset."""

    __slots__ = ("d", "bits")
    d: int
    bits: int

    def has(self, u: int, v: int) -> bool:
        return bool(self.bits >> (u * self.d + v) & 1)

    def rows(self) -> list[int]:
        return bits_to_rows(self.bits, self.d)

    def transpose(self) -> "ImageRelation":
        return ImageRelation(self.d, _transpose_square(self.bits, self.d))

    def pairs(self) -> list[tuple[int, int]]:
        return [divmod(i, self.d) for i in iter_bits(self.bits)]

    def degree_range(self) -> tuple[int, int]:
        counts = [row.bit_count() for row in self.rows()]
        return min(counts), max(counts)


# -- structure kinds ---------------------------------------------------------


class AtomLabeling:
    """Partial symmetric atom labeling of a complete graph on the base.

    ``labels`` maps ordered off-diagonal pairs to atom indices; reversed
    pairs carry the converse atom and missing reversed pairs are filled
    in.  The diagonal is implicitly labeled by the identity.
    """

    kind = "atom-labeling"

    def __init__(
        self,
        algebra: FiniteRelationAlgebra,
        base_size: int,
        labels: dict[tuple[int, int], int],
    ):
        if base_size < 1:
            raise ValueError("base must be nonempty")
        self.algebra = algebra
        self.base_size = base_size
        full: dict[tuple[int, int], int] = {}
        for (u, v), a in labels.items():
            if not (0 <= u < base_size and 0 <= v < base_size):
                raise ValueError(f"edge ({u},{v}) outside base 0..{base_size - 1}")
            if u == v:
                raise ValueError("diagonal pairs are implicitly identity-labeled")
            if not 0 <= a < algebra.atom_count:
                raise ValueError(f"label {a} is not an atom index")
            if (1 << a) & algebra.identity_mask:
                raise ValueError("off-diagonal identity label")
            ca = algebra.converse[a]
            if full.setdefault((u, v), a) != a:
                raise ValueError(f"conflicting labels for edge ({u},{v})")
            if full.setdefault((v, u), ca) != ca:
                raise ValueError(f"edge ({u},{v}) conflicts with its converse")
        self.labels = full
        self._atom_bits: list[int] | None = None

    def atom_image_bits(self) -> list[int]:
        if self._atom_bits is None:
            d = self.base_size
            bits = [0] * self.algebra.atom_count
            for (u, v), a in self.labels.items():
                bits[a] |= 1 << (u * d + v)
            dg = diag_bits(d)
            for i in self.algebra.identity_atoms:
                bits[i] |= dg
            self._atom_bits = bits
        return self._atom_bits


class Power(Frozen):
    """Coordinatewise m-th power of an inner structure (build_power
    collapses m = 1 to the inner structure itself; a file's m = 1 power
    line loads as the inner structure)."""

    __slots__ = ("inner", "m")
    inner: "LabeledStructure"
    m: int

    @property
    def kind(self) -> str:
        return "power"

    @property
    def algebra(self) -> FiniteRelationAlgebra:
        return self.inner.algebra

    @property
    def base_size(self) -> int:
        return self.inner.base_size**self.m


class Xi(Frozen):
    """Doubled structure with randomly classed cross edges.

    ``inner`` is a structure for L(p,0) on base D; the Xi base is D
    followed by its mirror copy D' (indices offset by inner.base_size).
    ``partition`` assigns each (x,y') in D x D' a class 1..n; ``algebra``
    is L(p,n), left out of equality and hashing.
    """

    __slots__ = ("inner", "n", "partition", "algebra")
    inner: "LabeledStructure"
    n: int
    partition: "ClassAssignment"
    algebra: FiniteRelationAlgebra

    def _key(self) -> tuple:
        return self.inner, self.n, self.partition

    @property
    def kind(self) -> str:
        return "xi"

    @property
    def base_size(self) -> int:
        return 2 * self.inner.base_size


LabeledStructure = Union[AtomLabeling, Power, Xi]


class ClassAssignment:
    """Interface for Xi cross-edge classings (see xi module for impls).

    class_bits(i) is class i as a row-major d*d bitset: bit x*d + y is
    set iff class_of(x, y) == i.  It is the only form the images and
    the checkers read.
    """

    n: int
    d: int

    def class_of(self, x: int, y: int) -> int:
        raise NotImplementedError

    def class_bits(self, i: int) -> int:
        raise NotImplementedError


# -- images ------------------------------------------------------------------


def image(
    structure: LabeledStructure,
    x: Element | int,
    *,
    max_base: int = DEFAULT_IMAGE_MAX_BASE,
) -> ImageRelation:
    """The relation assigned to element x by the structure."""
    mask = x.bits if isinstance(x, Element) else x
    if isinstance(x, Element) and x.algebra is not structure.algebra:
        raise ValueError("element belongs to a different algebra")
    d = structure.base_size
    if d > max_base:
        raise ResourceBudgetError(
            f"base {d} exceeds image budget {max_base}; raise max_base to override"
        )
    return ImageRelation(d, _image_bits(structure, mask))


def _image_bits(structure: LabeledStructure, mask: int) -> int:
    if isinstance(structure, AtomLabeling):
        atom_bits = structure.atom_image_bits()
        out = 0
        for a in iter_bits(mask):
            out |= atom_bits[a]
        return out
    if isinstance(structure, Power):
        rows = _power_rows(structure, mask)
        return rows_to_bits(rows, structure.base_size)
    if isinstance(structure, Xi):
        return _xi_bits(structure, mask)
    raise TypeError(f"not a labeled structure: {structure!r}")


def _image_rows(structure: LabeledStructure, mask: int) -> list[int]:
    if isinstance(structure, Power):
        return _power_rows(structure, mask)
    return bits_to_rows(_image_bits(structure, mask), structure.base_size)


def _lift_once(hi_rows: list[int], lo_rows: list[int], lo_width: int) -> list[int]:
    """Rows of the coordinate-pair lift: pair (uh,ul) relates to (vh,vl)
    iff uh~vh in hi and ul~vl in lo.  Point index is uh*d_lo + ul (first
    coordinate most significant)."""
    out = []
    for hi in hi_rows:
        spread = []
        row = hi
        while row:
            low = row & -row
            spread.append((low.bit_length() - 1) * lo_width)
            row ^= low
        for lo in lo_rows:
            acc = 0
            for shift in spread:
                acc |= lo << shift
            out.append(acc)
    return out


def _power_rows(structure: Power, mask: int) -> list[int]:
    base_rows = _image_rows(structure.inner, mask)
    d = structure.inner.base_size
    rows = base_rows
    for _ in range(structure.m - 1):
        rows = _lift_once(rows, base_rows, d)
    return rows


def _xi_bits(structure: Xi, mask: int) -> int:
    """Rows [M C] on D, then [C^T M] on D': M the inner image of the
    element's 1'+A part, C the union of its bridge classes."""
    p, _ = structure.inner.algebra.lpn_params
    d = structure.inner.base_size
    m_rows = _image_rows(structure.inner, mask & ((1 << (p + 2)) - 1))
    c = 0
    for i in iter_bits(mask >> (p + 2)):
        c |= structure.partition.class_bits(i + 1)
    c_rows = bits_to_rows(c, d)
    ct_rows = bits_to_rows(_transpose_square(c, d), d)
    big = [m | row << d for m, row in zip(m_rows, c_rows)]
    big += [row | m << d for m, row in zip(m_rows, ct_rows)]
    return rows_to_bits(big, 2 * d)


# -- verification ------------------------------------------------------------


class VerifyFailure(NamedTuple):
    clause: str
    elements: tuple[int, ...]
    point: tuple[int, int] | None
    detail: str

    def describe(self, algebra: FiniteRelationAlgebra) -> str:
        elems = ", ".join(algebra.format_mask(m) for m in self.elements)
        at = f" at point pair {self.point}" if self.point else ""
        return f"{self.clause} failed for ({elems}){at}: {self.detail}"


class VerifyReport(NamedTuple):
    ok: bool
    mode: str
    failure: VerifyFailure | None
    pairs_checked: int

    def summary(self, algebra: FiniteRelationAlgebra | None = None) -> str:
        if self.ok:
            return f"PASS ({self.mode}, {self.pairs_checked} element pairs)"
        if algebra is not None:
            return f"FAIL ({self.mode}): {self.failure.describe(algebra)}"
        return f"FAIL ({self.mode}): {self.failure.clause}"


def verify_weak(
    structure: LabeledStructure, *, max_base: int = DEFAULT_VERIFY_MAX_BASE
) -> VerifyReport:
    return _verify(structure, full=False, max_base=max_base)


def verify_full(
    structure: LabeledStructure, *, max_base: int = DEFAULT_VERIFY_MAX_BASE
) -> VerifyReport:
    return _verify(structure, full=True, max_base=max_base)


def _verify(structure: LabeledStructure, *, full: bool, max_base: int) -> VerifyReport:
    d = structure.base_size
    if d > max_base:
        raise ResourceBudgetError(f"base {d} exceeds verification budget {max_base}")
    alg = structure.algebra
    k = alg.atom_count
    n_elems = 1 << k
    # every clause reads every element image; refuse before building them
    if n_elems * d * d // 8 > 1 << 29:
        raise ResourceBudgetError(
            f"verifying {n_elems} images of {d}x{d} bits needs too much memory"
        )
    layout = (_XiBlocks if isinstance(structure, Xi) else _RowMajor)(structure)
    img = layout.img
    mode = "full" if full else "weak"
    pairs = 0

    def fail(clause, elements, diff=0, z=None):
        failure = layout.failure(clause, elements, diff, z)
        return VerifyReport(False, mode, failure, pairs)

    if img[0]:
        return fail("zero", (0,))
    ident = img[alg.identity_mask]
    if ident != layout.diag:
        return fail("identity", (alg.identity_mask,), ident ^ layout.diag)
    for x in layout.converse_elements:
        diff = layout.transpose(img[x]) ^ img[alg.converse_mask(x)]
        if diff:
            return fail("converse", (x,), diff)

    comp = alg.comp
    additive = layout.additive
    decided = False
    if additive:
        atom_img = [img[1 << a] for a in range(k)]
        atom_prod = [[layout.product(p, q) for q in atom_img] for p in atom_img]
        # both sides of each clause distribute over the atoms of x and y:
        # image(x).image(y) is the union of atom_prod[a][b] and image(x;y)
        # the union of img[a;b], while image(x) & image(y) is image(x.y)
        # once distinct atoms have disjoint images.  Every element pair
        # then holds; otherwise the loop finds the first one that fails.
        decided = all(
            atom_prod[a][b] == img[comp[a][b]] for a in range(k) for b in range(k)
        ) and not any(atom_img[a] & atom_img[b] for a in range(k) for b in range(a))
    # unordered-pair reduction: sound once images are symmetric and the
    # composition table commutes (then the (y,x) check is the transpose
    # of the (x,y) check)
    half = alg.is_symmetric and alg.is_commutative
    if decided:
        pairs = n_elems * (n_elems + 1) // 2 if half else n_elems * n_elems
    for x in range(0 if decided else n_elems):
        start = x if half else 0
        ys = range(start, n_elems)
        xs = list(iter_bits(x))
        # x;y, and for additive images image(x).image(y), distribute over
        # the atoms of y
        zs = _spans([_join(comp[a][b] for a in xs) for b in range(k)])[start:]
        if additive:
            prods = _spans([_join(atom_prod[a][b] for a in xs) for b in range(k)])[start:]
        else:
            prods = [layout.pair_product(x, y) for y in ys]
        composed = list(map(img.__getitem__, zs))
        meets = list(map(img[x].__and__, img[start:]))
        met = list(map(img.__getitem__, map(x.__and__, ys)))
        if prods != composed or meets != met:
            i = next(
                i for i in range(len(ys)) if prods[i] != composed[i] or meets[i] != met[i]
            )
            pairs += i + 1
            if prods[i] != composed[i]:
                diff = prods[i] ^ composed[i]
                return fail("compose", (x, ys[i]), diff, alg.format_mask(zs[i]))
            return fail("meet", (x, ys[i]), meets[i] ^ met[i])
        pairs += len(ys)

    seen: dict[int, int] = {}
    for x, bits in enumerate(img):
        other = seen.setdefault(bits, x)
        if other != x:
            return fail("injective", (other, x))

    if full:
        top = img[alg.top_mask]
        if top != layout.full:
            return fail("top", (alg.top_mask,), top ^ layout.full)
        for x in range(n_elems):
            diff = layout.full ^ img[x] ^ img[x ^ alg.top_mask]
            if diff:
                return fail("complement", (x,), diff)

    return VerifyReport(True, mode, None, pairs)


def _join(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _spans(values: list[int]) -> list[int]:
    """out[y] = union of values[b] over the set bits b of y."""
    out = [0]
    for v in values:
        out += [o | v for o in out]
    return out


def _low_bit(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _transpose_square(bits: int, d: int) -> int:
    """Transpose of a row-major d*d bitset."""
    if not bits:
        return 0
    s = format(bits, "b").zfill(d * d)[::-1]  # s[u*d+v] is bit (u,v)
    return int("".join([s[v::d] for v in range(d)])[::-1], 2)


def _square_product(a: int, b: int, d: int) -> int:
    """Boolean product of two row-major d*d bitsets.

    (a >> v) & column keeps bit u*d for every u with (u,v) in a; times
    row v of b, that puts a copy of the row on each such row u, and the
    copies sit in disjoint d-bit rows, so nothing carries.
    """
    if not a or not b:
        return 0
    row = (1 << d) - 1
    column = full_bits(d, d) // row
    out = 0
    for v in range(d):
        bv = b >> (v * d) & row
        if bv:
            out |= (a >> v & column) * bv
    return out


_DETAILS = {
    "zero": "image of 0 is nonempty",
    "identity": "image of 1' is not exactly the diagonal",
    "converse": "transpose of image(x) is not image of converse(x)",
    "compose": "image of x;y differs from the matrix product (x;y = {z})",
    "meet": "image of x.y differs from intersection of images",
    "injective": "two elements share an image",
    "top": "image of 1 does not cover the base square",
    "complement": "image of complement(x) is not the complement of image(x)",
}


class _RowMajor:
    """Images of AtomLabeling and Power structures as row-major d*d bitsets.

    Labeling images are unions of atom images (additive); power images
    are not, so their products are formed pair by pair.
    """

    def __init__(self, structure: AtomLabeling | Power):
        d = self.d = structure.base_size
        k = structure.algebra.atom_count
        self.additive = isinstance(structure, AtomLabeling)
        self.img = [_image_bits(structure, x) for x in range(1 << k)]
        self.diag = diag_bits(d)
        self.full = full_bits(d, d)
        # transposition is additive, so atoms decide converse for additive images
        self.converse_elements = (
            [1 << a for a in range(k)] if self.additive else range(1 << k)
        )

    def transpose(self, bits: int) -> int:
        return _transpose_square(bits, self.d)

    def product(self, xbits: int, ybits: int) -> int:
        return _square_product(xbits, ybits, self.d)

    def pair_product(self, x: int, y: int) -> int:
        return self.product(self.img[x], self.img[y])

    def failure(self, clause, elements, diff, z) -> VerifyFailure:
        detail = _DETAILS[clause]
        if clause == "converse" and self.additive:
            detail = "transpose of atom image is not the converse atom's image"
        point = divmod(_low_bit(diff), self.d) if diff else None
        return VerifyFailure(clause, elements, point, detail.format(z=z))


_XI_DETAILS = {
    "identity": "inner image of 1' is not exactly the diagonal",
    "converse": "inner image is not symmetric",
    "compose": tuple(
        f"{block} (= {{z}}) differs from the matrix product"
        for block in (
            "first-copy block of x;y",
            "mirror-copy block of x;y",
            "cross block of x;y",
            "cross block of y;x",
        )
    ),
    "meet": ("inner block of x.y differs from intersection",) * 2
    + ("cross block of x.y differs from intersection",) * 2,
    "complement": ("inner block of complement(x) is not the complement",) * 2
    + ("cross block of complement(x) is not the complement",) * 2,
}
# (row, column) offset, in copies of D, of each block of the xi layout
_XI_OFFSETS = ((0, 0), (1, 1), (0, 1), (1, 0))


class _XiBlocks:
    """Images of an Xi structure as four d*d blocks, D | D' | C | C^T.

    Bit b*d*d + u*d + v of an image is pair (u,v) of block b: D is the
    first copy, D' the mirror copy, C the cross pairs (x,y') and C^T the
    pairs (y',x).  The image of e + s, with e in the inner algebra and s
    a set of bridge classes, is M(e) in both D and D', the union C(s) of
    the class bitsets (ClassAssignment.class_bits, already in the layout
    of a block) in C and its transpose in C^T.  Over an AtomLabeling all
    images are additive.  Otherwise the product of two images is the
    union of the products of their inner and bridge parts, cached by
    part pair (inner elements and class sets, not element pairs).
    """

    def __init__(self, structure: Xi):
        alg = structure.algebra
        if not (alg.is_symmetric and alg.is_commutative):
            raise ValueError("xi verification requires a symmetric commutative algebra")
        inner = structure.inner
        d = self.d = inner.base_size
        dd = self.dd = d * d
        self.square = full_bits(d, d)
        self.inner_top = inner.algebra.top_mask
        self.additive = isinstance(inner, AtomLabeling)
        inner_parts = [
            m | m << dd
            for m in (_image_bits(inner, e) for e in range(self.inner_top + 1))
        ]
        class_parts = [
            c << 2 * dd | _transpose_square(c, d) << 3 * dd
            for c in map(structure.partition.class_bits, range(1, structure.n + 1))
        ]
        self.img = [m | c for c in _spans(class_parts) for m in inner_parts]
        dg = diag_bits(d)
        self.diag = dg | dg << dd
        self.full = full_bits(4, dd)
        # the bridge blocks of every image are transposes of each other, so
        # the inner elements decide converse
        self.converse_elements = (
            [1 << a for a in range(alg.atom_count)]
            if self.additive
            else range(self.inner_top + 1)
        )
        self._part_products: dict[tuple[int, int], int] = {}

    def _blocks(self, bits: int) -> list[int]:
        return [bits >> (b * self.dd) & self.square for b in range(4)]

    def transpose(self, bits: int) -> int:
        d, dd = self.d, self.dd
        t = [_transpose_square(b, d) for b in self._blocks(bits)]
        return t[0] | t[1] << dd | t[3] << 2 * dd | t[2] << 3 * dd

    def product(self, xbits: int, ybits: int) -> int:
        """Block product; D' = D in every image, so the D'.D' term is D.D."""
        d, dd = self.d, self.dd
        m1, _, c1, t1 = self._blocks(xbits)
        m2, _, c2, t2 = self._blocks(ybits)
        mm = _square_product(m1, m2, d)
        first = mm | _square_product(c1, t2, d)
        mirror = mm | _square_product(t1, c2, d)
        cross = _square_product(m1, c2, d) | _square_product(c1, m2, d)
        back = _square_product(t1, m2, d) | _square_product(m1, t2, d)
        return first | mirror << dd | cross << 2 * dd | back << 3 * dd

    def pair_product(self, x: int, y: int) -> int:
        out = 0
        for g in (x & self.inner_top, x & ~self.inner_top):
            for h in (y & self.inner_top, y & ~self.inner_top):
                if g and h:
                    got = self._part_products.get((g, h))
                    if got is None:
                        got = self.product(self.img[g], self.img[h])
                        self._part_products[(g, h)] = got
                    out |= got
        return out

    def failure(self, clause, elements, diff, z) -> VerifyFailure:
        detail = _XI_DETAILS.get(clause, _DETAILS[clause])
        if not diff:
            return VerifyFailure(clause, elements, None, detail)
        d = self.d
        block, local = divmod(_low_bit(diff), self.dd)
        if not isinstance(detail, str):
            detail = detail[block].format(z=z)
        if clause == "compose" and block == 3:
            # reported as the cross-block check of y;x, whose difference
            # is the transpose of this block's
            elements = elements[::-1]
            local = _low_bit(_transpose_square(self._blocks(diff)[3], d))
            block = 2
        u, v = divmod(local, d)
        du, dv = _XI_OFFSETS[block]
        return VerifyFailure(clause, elements, (du * d + u, dv * d + v), detail)


# -- constructions -----------------------------------------------------------


def build_affine(q: int) -> AtomLabeling:
    """Affine-plane labeling of L(q,0) on the q^2 points of GF(q)^2.

    Point (x1,x2) has index x1*q + x2.  A pair of distinct points gets
    the slope atom a_s of the line through them (s = dy/dx as a field
    index), or a_q for vertical lines (dx = 0).  Every point then has
    exactly q-1 partners per slope atom.
    """
    if q < 3:
        raise ValueError("affine construction needs q >= 3")
    from .gf import field_make  # the only user of gf here

    fld = field_make(q)
    alg = build_lpn(q, 0)
    # The label depends on the difference (dy1, dy2) = v - u alone: label
    # each difference once, at index dy1*q + dy2, and look the pairs up.
    by_difference = [1 + q] * q  # dy1 = 0: vertical
    for dy1 in range(1, q):
        inv = fld.inv(dy1)
        by_difference += [1 + fld.mul(dy2, inv) for dy2 in range(q)]
    sub = [[fld.sub(y, x) for y in range(q)] for x in range(q)]  # sub[x][y] = y - x
    labels: dict[tuple[int, int], int] = {}
    for x1 in range(q):
        for x2 in range(q):
            u = x1 * q + x2
            row = [by_difference[d1 * q + d2] for d1 in sub[x1] for d2 in sub[x2]]
            for v, a in enumerate(row):
                if v != u:
                    labels[u, v] = a
    return AtomLabeling(alg, q * q, labels)


def build_doubled(q: int) -> AtomLabeling:
    """Two affine copies with all cross pairs labeled t1: a representation
    of L(q,1) on 2q^2 points.  Mirror points are offset by q^2."""
    affine = build_affine(q)
    d = affine.base_size
    alg = build_lpn(q, 1)
    t1 = alg.atom_count - 1
    labels: dict[tuple[int, int], int] = {}
    for (u, v), a in affine.labels.items():
        labels[(u, v)] = a
        labels[(d + u, d + v)] = a
    for u in range(d):
        for v in range(d):
            labels[(u, d + v)] = t1
    return AtomLabeling(alg, 2 * d, labels)


def build_power(structure: LabeledStructure, m: int) -> LabeledStructure:
    """Coordinatewise power; m = 1 returns the structure unchanged."""
    if m < 1:
        raise ValueError("power exponent must be at least 1")
    if m == 1:
        return structure
    return Power(structure, m)


# -- degree audit ------------------------------------------------------------


class DegreeAuditReport(NamedTuple):
    degrees: dict[int, tuple[int, int]]  # atom index -> (min, max) row degree
    claim_full: bool
    lpn_ok: bool | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.lpn_ok is not False


def degree_audit(
    structure: LabeledStructure, *, claim_full: bool = False
) -> DegreeAuditReport:
    """Per-atom neighbour counts, plus the full-representation criterion.

    In any full representation of L(p,n) every point has exactly p-1
    neighbours per slope atom, and p-1 >= 2n-1 must hold; a structure
    claiming to represent L(p,n) with 2n > p therefore always fails.
    """
    alg = structure.algebra
    degrees: dict[int, tuple[int, int]] = {}
    for a in range(alg.atom_count):
        if (1 << a) & alg.identity_mask:
            continue
        degrees[a] = image(structure, 1 << a).degree_range()

    lpn_ok: bool | None = None
    detail = "no full-representation claim checked"
    if claim_full:
        if alg.lpn_params is None:
            raise ValueError("degree audit claim requires an L(p,n) algebra")
        p, n = alg.lpn_params
        lpn_ok = True
        detail = f"all slope degrees equal p-1 = {p - 1} and p-1 >= 2n-1 = {2 * n - 1}"
        for i in range(1, p + 2):
            lo, hi = degrees[i]
            if lo != p - 1 or hi != p - 1:
                lpn_ok = False
                detail = (
                    f"slope atom {alg.atom_names[i]} has degree range "
                    f"{lo}..{hi}, expected exactly {p - 1}"
                )
                break
        if lpn_ok and p - 1 < 2 * n - 1:
            lpn_ok = False
            detail = f"p-1 = {p - 1} < 2n-1 = {2 * n - 1}: no representation exists"
    return DegreeAuditReport(degrees, claim_full, lpn_ok, detail)
