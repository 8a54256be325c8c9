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

Every structure is an element labelling: it gives each point pair (u,v)
at most one label f(u,v), and the image of x is {(u,v) : f(u,v) <= x}.
An AtomLabeling labels an edge with its atom, the diagonal with 1' and
an unlisted pair not at all; a Power labels a pair of tuples with the
join of its coordinates' labels; an Xi labels D and D' with the inner
label and each cross pair with one class atom (the classes partition
D x D', see ClassAssignment).  Zero and meet hold for any labelling.
Identity and converse hold because the constructors put 1', the one
identity atom, on the diagonal, refuse an identity label off it, and put
the converse atom on each reversed pair; powers and xi inherit all
three.  So only compose can fail in weak mode, plus top and complement
in full mode, and injective when some atom labels no pair: x and y
share an image exactly when every atom in just one of them labels no
pair, so the first collision is (0, a) for the least such atom a.
In an integral algebra compose fails first (1' <= a;a^ needs image(a)
nonempty), but a file table is not checked against the axioms.

Complement holds or first fails at x = 1.  Once compose, injective and
top hold, every pair has one label and every atom labels some pair, so
complement fails at x exactly when a label meets both x and -x, which
needs a non-atom label.  AtomLabeling, and Xi over one, carry atoms only.
In a power (m, k >= 2) atom 0 in one coordinate and another atom in a
second give a non-atom label holding atom 0; an Xi over a power carries
its 1'+a, and 1' is atom 0 of L(p,n).  So x = 1, the least x with the
top atom clear (x and -x fail alike), fails there.  The rule reads atom
0, not 1': a file algebra may order its atoms otherwise.  The point is
the first pair, in layout order, that image(1) and image(-1) both miss.

One clause loop, _verify, decides compose, injective, and for
verify_full top and complement, in that order.  It compares images held
as int bitsets in one layout, row-major over the base, for every kind
(_RowMajor): for an Xi that is D then D' (rows [M C] on D, [C^T M] on
D', the layout image() returns), and a failure there is named at the
first differing pair in block order D, D', C, C^T (_xi_failure).  A
Power is scanned on its innermost structure, whose first failing
clause, ordered element pair and top point are the power's (see
Power); its compose and complement points are found one row of the
power at a time.  Every reader of images charges what a step would form
to one budget of 2^32 bits, _charge, before the step: verify the images
it holds of the innermost structure, image() its measured peak, and the
xi fast checker its relations and products.

The layout holds each structure's parts, and the image of x is the join
of x's parts, formed when read.  Images of AtomLabeling, and of Xi over
an AtomLabeling, are unions of atom images (additive): their parts are
the k atom images.  Both sides of compose distribute over atoms:
image(x).image(y) is the union of image(a).image(b), and image(x;y) of
image(a;b), over the atoms a of x and b of y.  So a failing element pair
holds a failing atom pair, and if (a,b) is the first failing atom pair,
row-major, every pair of an x below 1<<a holds (its atoms precede a), as
does (1<<a, y) for y below 1<<b.  Compose is thus decided on the k^2
atom pairs (one product_rows pass per atom), the first failing element
pair in scan order is (1<<a, 1<<b), and pairs_checked has a closed form:
no element image is formed even to name a failure.  Xi over a Power is
not additive: its parts are the images of its 2^(p+2) inner elements
and of its n classes, and it compares element pairs one by one.  When
the scan reaches x it forms image(x).part for every part in one
product_rows pass, joins those over the parts of each y, and drops them:
nothing is kept across x.  For symmetric commutative algebras every
image is symmetric, so the (y,x) check is the transpose of the (x,y)
check and only pairs with y >= x are scanned; (b,a) fails with (a,b),
so b >= a.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Union

from .algebra import Element, FiniteRelationAlgebra, Frozen, iter_bits
from .errors import ResourceBudgetError
from .lpn import build_lpn

IMAGE_BUDGET_BITS = 1 << 32
# Largest plane order build_affine takes; it stores q^2 (q^2 - 1) labels.
# `affine --q 27` takes 1.8 s and 151 MB peak, `double --q 27` 7.3 s and
# 552 MB; `affine --q 31` takes 3.3 s and 269 MB.
MAX_AFFINE_Q = 27


# -- bit-matrix helpers ------------------------------------------------------


def _charge(bits: int, what: str) -> None:
    """Refuse a step of image work that would form over 2^32 bits."""
    if bits > IMAGE_BUDGET_BITS:
        mib = -(-bits >> 23)
        raise ResourceBudgetError(f"{what} would form {mib} MiB, over the 512 MiB image budget")


def full_bits(rows: int, cols: int) -> int:
    return (1 << (rows * cols)) - 1


def bits_to_rows(bits: int, d: int) -> list[int]:
    """Row u is bits u*d .. u*d+d-1.  Blocks above 64 rows are halved, so
    a bit is copied about log2(d) times, not once per earlier row."""
    mask = (1 << d) - 1

    def split(block: int, rows: int) -> list[int]:
        if rows <= 64:
            return [(block >> (u * d)) & mask for u in range(rows)]
        half = rows // 2
        return split(block & ((1 << half * d) - 1), half) + split(block >> half * d, rows - half)

    return split(bits, d)


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
    in.  The diagonal is implicitly labeled by the identity, so an
    algebra with more than one identity atom is refused.
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
        if len(algebra.identity_atoms) != 1:
            raise ValueError("the diagonal needs an algebra with one identity atom")
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
        """Each atom's image, its d rows filled one label at a time and
        then joined, so a label copies one row, not a whole image."""
        if self._atom_bits is None:
            d = self.base_size
            rows = [[0] * d for _ in range(self.algebra.atom_count)]
            for (u, v), a in self.labels.items():
                rows[a][u] |= 1 << v
            for i in self.algebra.identity_atoms:
                rows[i] = [1 << u for u in range(d)]
            self._atom_bits = [rows_to_bits(r, d) for r in rows]
        return self._atom_bits


class Power(Frozen):
    """Coordinatewise m-th power of an inner structure (build_power
    collapses m = 1 to the inner structure itself; a file's m = 1 power
    line loads as the inner structure).

    The image of x is the m-fold Kronecker power T^m of the inner image
    T = theta(x).  Kronecker powers commute with the boolean product, and
    S^m = T^m only when S = T (a pair (u,v) of T puts
    ((u,..,u),(v,..,v)) in T^m, and that fixes every other coordinate).
    The empty and the full relation are powers of their own kind, so
    compose, injective and top, the clauses besides complement that can
    fail (see the module docstring), hold for the power exactly when they
    hold for the inner structure, element by element: verification scans
    the innermost structure, and a failure there is the power's.  Top is
    named at the innermost indices, as T^m first misses
    ((0,..,0,u),(0,..,0,v)) for the first pair (u,v) T misses (an Xi first
    misses a pair of D).  Complement does not factor (T^m and theta(-x)^m
    both miss the pairs of tuples that mix them), which is why a power is a
    weak representation only.
    """

    __slots__ = ("inner", "m")
    inner: "LabeledStructure"
    m: int

    def __init__(self, inner: "LabeledStructure", m: int):
        # One image of a power above 2^16 points alone is over the image
        # budget (_charge); d^m >= 2^((bits(d) - 1) m) refuses it unformed.
        d = inner.base_size
        if m * (d.bit_length() - 1) > 16 or d**m > 1 << 16:
            raise ResourceBudgetError(
                f"one image of a power of a {d}-point structure above 2^16 points "
                "is over the 512 MiB image budget"
            )
        super().__init__(inner, m)

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
    the checkers read.  class_bits(1..n) partition D x D': they are
    pairwise disjoint and their union is every cross pair, so each cross
    pair carries exactly one class atom (the verifier relies on it).
    """

    n: int
    d: int

    def class_of(self, x: int, y: int) -> int:
        raise NotImplementedError

    def class_bits(self, i: int) -> int:
        raise NotImplementedError


# -- images ------------------------------------------------------------------


def image(structure: LabeledStructure, x: Element | int) -> ImageRelation:
    """The relation assigned to element x by the structure.  A whole image
    peaks at 4 to 5 images of D^2 bits, an xi's at 8 (its cross block is
    transposed through text), and that is charged first."""
    mask = x.bits if isinstance(x, Element) else x
    if isinstance(x, Element) and x.algebra is not structure.algebra:
        raise ValueError("element belongs to a different algebra")
    if not 0 <= mask <= structure.algebra.top_mask:
        raise ValueError(f"mask {mask} is not an element of {structure.algebra}")
    d = structure.base_size
    _charge((9 if isinstance(structure, Xi) else 5) * d * d, f"an image of {d} points")
    return ImageRelation(d, _image_bits(structure, mask))


def _image_bits(structure: LabeledStructure, mask: int) -> int:
    if isinstance(structure, AtomLabeling):
        return _join(map(structure.atom_image_bits().__getitem__, iter_bits(mask)))
    if isinstance(structure, Power):
        return rows_to_bits(_image_rows(structure, mask), structure.base_size)
    if isinstance(structure, Xi):
        return _xi_bits(structure, mask)
    raise TypeError(f"not a labeled structure: {structure!r}")


def _image_rows(structure: LabeledStructure, mask: int) -> list[int]:
    base, m = _innermost(structure)
    rows = bits_to_rows(_image_bits(base, mask), base.base_size)
    return rows if m == 1 else list(_power_rows(rows, base.base_size, m))


def _innermost(structure: LabeledStructure) -> tuple[LabeledStructure, int]:
    """(base, m): the structure is the m-th power of base, not a Power."""
    base, m = structure, 1
    while isinstance(base, Power):
        base, m = base.inner, m * base.m
    return base, m


def _power_rows(base_rows: list[int], d: int, m: int) -> Iterator[int]:
    """Rows of the m-fold Kronecker power of a relation on d points, in
    order, each formed when read: row (u1..um) is R[u1] x .. x R[um], the
    first coordinate most significant.  spread * R[um] copies R[um] into
    the slots at v*d for each v of the row above, without carries."""
    if m == 1:
        yield from base_rows
        return
    for hi in _power_rows(base_rows, d, m - 1):
        spread = _join(1 << v * d for v in iter_bits(hi))
        yield from (spread * lo for lo in base_rows)


def _first_row(sides: list[list[int]], d: int, m: int, combine) -> tuple[int, int] | None:
    """The first point (u, v), row-major, where combine(*rows) is set, for
    rows u of the m-th Kronecker powers of sides (rows on d points)."""
    combined = map(combine, *(_power_rows(side, d, m) for side in sides))
    return next(((u, _low_bit(bits)) for u, bits in enumerate(combined) if bits), None)


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


def verify_weak(structure: LabeledStructure) -> VerifyReport:
    return _verify(structure, full=False)


def verify_full(structure: LabeledStructure) -> VerifyReport:
    return _verify(structure, full=True)


def _verify(structure: LabeledStructure, *, full: bool) -> VerifyReport:
    # a power is decided on its innermost structure.  Its layout holds P
    # part images and their wide copy; if additive (P = k atoms) it then
    # holds the k^2 atom products, else one row of P products at a time,
    # the P images of product rows they are cut from and four working
    # images (see _RowMajor)
    alg, k = structure.algebra, structure.algebra.atom_count
    base, m = _innermost(structure)
    if isinstance(base, Xi) and isinstance(base.inner, Power):
        held = 4 * (base.inner.algebra.top_mask + 1 + base.n) + 4
    else:
        held = k * k + 2 * k
    _charge(base.base_size**2 * held, "verifying")
    mode = "full" if full else "weak"
    scanned = _RowMajor(base)
    name = scanned.failure if m == 1 else functools.partial(_power_failure, base, m)
    report = _verify_weak_clauses(scanned, name, alg, mode)
    if not (full and report.ok):
        return report
    # top, then complement, which holds or first fails at x = 1 (see the
    # module docstring); a clause that holds is named with no point
    img, top = scanned.image, alg.top_mask
    failure = scanned.failure("top", (top,), img(top) ^ scanned.full, None)
    if failure.point is None:
        failure = name("complement", (1,), scanned.full ^ img(1) ^ img(top ^ 1), None)
    return report if failure.point is None else report._replace(ok=False, failure=failure)


def _verify_weak_clauses(layout, name, alg: FiniteRelationAlgebra, mode: str) -> VerifyReport:
    """compose and injective, the weak clauses that can fail (see the
    module docstring), on a layout's images, in that order, up to the
    first failure, which name(clause, elements, diff, z) names from the
    raw clause and ordered element pair."""
    k = alg.atom_count
    n_elems = 1 << k
    # unordered-pair reduction: images are symmetric, so when the
    # composition table commutes the (y,x) check is the transpose of the
    # (x,y) check
    half = alg.is_symmetric and alg.is_commutative
    if layout.additive:
        # the first failing atom pair (a, b) is the first failing element
        # pair, (1<<a, 1<<b) (see the module docstring)
        prods = list(map(layout.products, layout.parts))
        route = ((1 << a, 1 << b, prods[a][b], alg.comp[a][b]) for a in range(k) for b in range(k))
    else:
        route = _element_pairs(layout, alg.comp, half)
    for x, y, product, z in route:
        diff = product ^ layout.image(z)
        if diff:
            # the pairs of each x' < x (n_elems - x' of them when half),
            # then those of x from start up to y
            start = x if half else 0
            pairs = x * n_elems - start * (x - 1) // 2 + y - start + 1
            failure = name("compose", (x, y), diff, alg.format_mask(z))
            return VerifyReport(False, mode, failure, pairs)
    pairs = n_elems * (n_elems + 1) // 2 if half else n_elems * n_elems
    # x and y share an image exactly when every atom in just one of them
    # labels no pair, so the first collision is 0 with the least such atom
    for a in range(k):
        if not layout.image(1 << a):
            return VerifyReport(False, mode, name("injective", (0, 1 << a), 0, None), pairs)
    return VerifyReport(True, mode, None, pairs)


def _element_pairs(layout, comp: list[list[int]], half: bool) -> Iterator[tuple]:
    """(x, y, image(x).image(y), x;y) for the element pairs in scan order:
    the route of xi over a power.  When the scan reaches x it forms
    image(x).part for every part in one pass, joins them over the parts of
    each y, and drops them before the next x."""
    k = len(comp)
    for x in range(1 << k):
        xs = list(iter_bits(x))
        # x;y distributes over the atoms of y
        zs = [_join(comp[a][b] for a in xs) for b in range(k)]
        prods = layout.products(layout.image(x))
        for y in range(x if half else 0, 1 << k):
            yield x, y, layout.join(prods, y), _join(map(zs.__getitem__, iter_bits(y)))
        del prods  # before the next x forms its own


def _join(masks) -> int:
    out = 0
    for m in masks:
        out |= m
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
    "compose": "image of x;y differs from the matrix product (x;y = {z})",
    "injective": "two elements share an image",
    "top": "image of 1 does not cover the base square",
    "complement": "image of complement(x) is not the complement of image(x)",
}


class _RowMajor:
    """Images of an innermost structure (an AtomLabeling or an Xi) as
    row-major d*d bitsets, each the join of its element's parts, formed
    when read.

    The parts of a labeling, and of an Xi over one, are its k atom images
    (additive).  Those of an Xi over a Power are the images of its
    2^(p+2) inner elements, then of its n classes: element e + s, with e
    in the inner algebra and s a set of classes, has part e and the parts
    of the classes in s.
    """

    def __init__(self, structure: AtomLabeling | Xi):
        d = self.d = structure.base_size
        self.full = full_bits(d, d)
        self.xi = isinstance(structure, Xi)
        self.inner_top = None
        if not self.xi:
            self.parts = structure.atom_image_bits()
        else:
            alg = structure.algebra
            if not (alg.is_symmetric and alg.is_commutative):
                raise ValueError("xi verification requires a symmetric commutative algebra")
            masks = [1 << a for a in range(alg.atom_count)]
            if isinstance(structure.inner, Power):
                top = self.inner_top = structure.inner.algebra.top_mask
                masks = [*range(top + 1), *masks[top.bit_length() :]]
            self.parts = [_xi_bits(structure, e) for e in masks]
        self.additive = self.inner_top is None
        rows = [bits_to_rows(bits, d) for bits in self.parts]
        self.wide = [rows_to_bits(list(side), d) for side in zip(*rows)]

    def join(self, values: list[int], x: int) -> int:
        """The join of values, one per part, over the parts of x."""
        top = self.inner_top
        if top is not None:  # part x & top, then the parts of x's classes
            x = 1 << (x & top) | x >> top.bit_length() << top + 1
        return _join(map(values.__getitem__, iter_bits(x)))

    def image(self, x: int) -> int:
        return self.join(self.parts, x)

    def products(self, bits: int) -> list[int]:
        """bits . part for every part, in one pass over the point pairs:
        row w of `wide` holds row w of every part side by side, so
        product_rows of bits' rows against it holds row u of bits . part
        for every part at once, at bit j*d for part j."""
        d = self.d
        row = (1 << d) - 1
        prod = product_rows(bits_to_rows(bits, d), self.wide)
        slots = range(0, len(self.parts) * d, d)
        return [rows_to_bits([r >> s & row for r in prod], d) for s in slots]

    def failure(self, clause, elements, diff, z) -> VerifyFailure:
        if self.xi:
            return _xi_failure(self.d // 2, clause, elements, diff, z)
        point = divmod(_low_bit(diff), self.d) if diff else None
        return VerifyFailure(clause, elements, point, _DETAILS[clause].format(z=z))


def _power_failure(base, m: int, clause, elements, _diff, z) -> VerifyFailure:
    """A failure of base's m-th power, named from the raw clause and
    elements.  Its point is the first, row-major, in the XOR of the m-th
    Kronecker powers of the clause's sides, or None."""
    failure = VerifyFailure(clause, elements, None, _DETAILS[clause].format(z=z))
    theta = functools.partial(_image_rows, base)
    d, alg = base.base_size, base.algebra
    if clause == "compose":
        x, y = elements
        sides = [product_rows(theta(x), theta(y)), theta(alg.compose_masks(x, y))]
    elif clause == "complement":
        (x,) = elements
        sides = [theta(x), theta(x ^ alg.top_mask), [(1 << d) - 1] * d]
    else:
        return failure  # injective names no point
    point = _first_row(sides, d, m, lambda *rows: functools.reduce(int.__xor__, rows))
    return failure._replace(point=point)


_XI_DETAILS = {
    "compose": tuple(
        f"{block} (= {{z}}) differs from the matrix product"
        for block in (
            "first-copy block of x;y",
            "mirror-copy block of x;y",
            "cross block of x;y",
            "cross block of y;x",
        )
    ),
    # each cross pair carries one class atom (ClassAssignment), and x
    # holds it or not, so a complement difference lies in D and D'
    "complement": "inner block of complement(x) is not the complement",
}


def _xi_failure(d: int, clause, elements, diff, z) -> VerifyFailure:
    """A failure of an Xi on D + D' (d points each), named at the first
    pair of the row-major diff in block order D, D', C = D x D', C^T,
    row-major within a block."""
    detail = _XI_DETAILS.get(clause, _DETAILS[clause])
    if not diff:
        return VerifyFailure(clause, elements, None, detail)
    rows, mask = bits_to_rows(diff, 2 * d), (1 << d) - 1
    for block, (top, left) in enumerate(((0, 0), (d, d), (0, d), (d, 0))):
        found = [r >> left & mask for r in rows[top : top + d]]
        if any(found):
            break
    if not isinstance(detail, str):
        detail = detail[block].format(z=z)
    if clause == "compose" and block == 3:
        # reported as the cross-block check of y;x, whose difference is
        # the transpose of this block's: its first pair, column-major
        v = min(_low_bit(r) for r in found if r)
        u = next(u for u, r in enumerate(found) if r >> v & 1)
        return VerifyFailure(clause, elements[::-1], (v, d + u), detail)
    u = next(u for u, r in enumerate(found) if r)
    return VerifyFailure(clause, elements, (top + u, left + _low_bit(found[u])), detail)


# -- constructions -----------------------------------------------------------


def build_affine(q: int) -> AtomLabeling:
    """Affine-plane labeling of L(q,0) on the q^2 points of GF(q)^2.

    Point (x1,x2) has index x1*q + x2.  A pair of distinct points gets
    the slope atom a_s of the line through them (s = dy/dx as a field
    index), or a_q for vertical lines (dx = 0).  Every point then has
    exactly q-1 partners per slope atom.  q above MAX_AFFINE_Q is refused
    (ResourceBudgetError) before any work.
    """
    if q < 3:
        raise ValueError("affine construction needs q >= 3")
    if q > MAX_AFFINE_Q:
        raise ResourceBudgetError(f"affine plane of order {q}; the limit is {MAX_AFFINE_Q}")
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
    Why, for n >= 1: take x t1 y.  Each point w of x's plane (w 1'+A x)
    has w (1'+A);t1 y, and (1'+A);t1 = T, so w lies in some
    S_l = {w : w tl y}, and in exactly one, because each pair carries one
    atom.  A line of slope ai in the plane is a class of 1'+ai: its p
    points are a point w and w's p-1 ai-neighbours.  For w on it, w T y
    and T = ai;tl, so some other point of the line lies in S_l; applied
    again at that point, the rest of the line meets S_l a second time.
    So every line meets each of the n disjoint S_l at least twice:
    p >= 2n, which is p-1 >= 2n-1.

    A power is audited on its innermost structure: row U of its image of
    an atom is the Kronecker product of inner rows, so degrees multiply.
    """
    alg = structure.algebra
    base, m = _innermost(structure)
    degrees: dict[int, tuple[int, int]] = {}
    for a in range(alg.atom_count):
        if (1 << a) & alg.identity_mask:
            continue
        lo, hi = image(base, 1 << a).degree_range()
        degrees[a] = lo**m, hi**m

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
