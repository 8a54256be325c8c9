"""Seeded random doubled structures, their fast checker, and bound calculus.

Construction.  Given a weak representation theta of L(p,0) over a base D
of size d, build a structure for L(p,n) on D and a mirror copy D' by
keeping theta on both copies and assigning every cross pair (x,y') one
of n bridge classes T_1..T_n.  Class assignment is either explicit or
derived from a 64-bit seed: class(x,y') = 1 + (mix64(seed XOR ((x*d+y+1)
* 0x9E3779B97F4A7C15)) mod n), where mix64 is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31                      (all operations mod 2^64)

Indexed hashing makes the assignment random-access, order-independent
and bit-exact across implementations; the modulo bias is at most 2^-60.

Exact pass conditions.  Images in the doubled structure have block form
[[M, C], [C^T, M]] with M the inner image of the element's 1'+A part and
C the union of its bridge classes.  Writing Z_i[x] for the class-i
partners of x in D' and Zc_i[y'] for those of y' in D (row x and column
y of class i's d*d bitset), expanding the composition equality
image(x;y) = image(x).image(y) blockwise over all element pairs and
discarding the conditions that hold automatically (inner
weak-representation identities, monotone instances implied by
atom-level ones, transposed duplicates) leaves exactly:

* UD(e), structural, n >= 2: the inner image of e+A must equal the
  union of the images of e and of A, for every inner element e.  The
  block equation for the pair (e+t_1, 1'+t_2) forces pairs in
  theta(e+A) outside theta(e) to be covered by cross witnesses of two
  distinct classes, while the pair (t_1,t_2) forbids such witnesses off
  theta(A); both demands are met only when theta(e+A) splits.  Additive
  inner structures always satisfy UD; coordinatewise powers with m >= 2
  never do (a pair mixing an identity coordinate with a slope
  coordinate lies in the image of 1'+A but in neither part), so no class
  assignment at all passes over a proper power.  The checker reports
  this with a concrete unlabeled pair.
* W1(i), from the pair (t_i,t_i): theta(1'+A) must equal the set of
  pairs with a common class-i neighbour, on D (rows) and on D' (columns);
  the diagonal instances say every row and column meets every class.
* W14(i,j), i != j, n >= 2, from the pair (t_i,t_j): theta(A) must
  equal the set of pairs (x,y) with some z' of class i at x and class j
  at y; "equal", not "contain", so unlabeled pairs must have NO such
  common neighbour.
* W2(q,l), from the pairs (a_q,t_l) and (t_l,a_q): every cross pair
  (x,y') needs a witness w in D with (x,w) in theta(a_q) and class(w,y')
  = l, and mirrored a witness w' in D' with class(x,w') = l and (w',y')
  in the mirrored image of a_q.

check_xi_fast evaluates each family instance as one d x d boolean
product.  With R_i the class-i cross pairs as a row-major d*d bitset
(bit (x,y) set iff class(x,y') = i) and C_i = R_i^T, W1(i) is
R_i.C_i = theta(1'+A) on D and C_i.R_i = theta(1'+A) on D'; W14(i,j) is
R_i.C_j = theta(A) and C_i.R_j = theta(A); W2(q,l) is A_q.R_l = full and
R_l.A_q^T = full, with A_q the image of a_q.  A_q^T = A_q: a labeling
carries the converse atom on every reversed pair, a slope atom of L(p,0)
is its own converse, and a power's images are Kronecker products of
such images, which keep that symmetry.  So R_l.A_q is formed in place
of R_l.A_q^T.  Each product is compared with its target; the lowest
set bit of the difference is the first failing pair in x-major order,
which fixes the certificate and the number of conditions counted as
checked.  Two identities spare work without changing any of that:

* Stop rule.  A product is a union over the middle points, so it only
  grows as they are added.  When the target holds every pair the
  product can reach, the product is complete once it equals the target,
  and the remaining middle points are skipped.  W1 and W2 products can
  reach the full square; a W14 product reaches no diagonal pair, since
  no cross pair carries two classes, so its bound is the square off the
  diagonal.  A target short of that bound gets the whole product.
* W14 transpose.  R_j.C_i = (R_i.C_j)^T and C_j.R_i = (C_i.R_j)^T, and
  instance (i,j) comes before (j,i) when i < j.  Instance (j,i) is
  reached only if (i,j) passed, that is, only if both of its products
  equalled theta(A), so both products of (j,i) are theta(A)^T.  That is
  theta(A) itself: A is its own converse, and a labeling carries the
  converse atom on every reversed pair (a power with n >= 2 stops at
  its union defect first).  So (j,i) passes, and no product is formed
  for it.

Equality of its verdict with verify_weak over seeded instances is an
acceptance property of the package.

Bound calculus.  Over an additive theta (m = 1) UD holds, and for a
random assignment the probability that some W1 or W2 witness is missing
is below

    2*d*(d-1)*n^2*((n^2-1)/n^2)^d  +  2*(p+1)*d^2*n*((n-1)/n)^k

where k lower-bounds the per-point slope degree of theta.  The two
summands are below 1/2 each exactly when

    (n^2/(n^2-1))^d > 4*n^2*d*(d-1)        (1)
    (n/(n-1))^k     > 4*(p+1)*n*d^2        (2)

eval_bounds decides (1), (2) and the failure bound in the log domain
with an exact big-rational re-check inside a relative guard band.  At
m = 1 (d = p^2, k = p-1), (1) holds once p > 16 n^2 and (2) once
p > 1 + (48 n)^2; these are what sufficiency_thresholds reports.  That
regime holds only representable algebras: there 2n <= p, and a pass
over an additive theta is a full representation.  Over a proper power
(m >= 2) with n >= 2 failure is certain, since UD fails for every
assignment: points 0 and 1 differ in one coordinate only, so the pair
(0, 1) lies in theta(1'+A) but in neither theta(1') nor theta(A), and
the checker names it with e = 1', read off the power's rows without an
image of the power.  eval_bounds_power reports exactly that, with
failure probability 1 and mode "union-defect", and evaluates neither
inequality.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, NamedTuple, Sequence

from .lpn import build_lpn
from .structures import (
    ClassAssignment,
    LabeledStructure,
    Xi,
    _charge,
    _first_row,
    _image_bits,
    _image_rows,
    _innermost,
    _low_bit,
    _square_product,
    _transpose_square,
    bits_to_rows,
    build_affine,
    build_power,
    full_bits,
    rows_to_bits,
    verify_weak,
)

U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# pairs PartitionRecipe._fill hashes per block of whole rows (128 bits each)
_FILL_LANES = 1024


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= U64
    z ^= z >> 30
    z = (z * _MIX1) & U64
    z ^= z >> 27
    z = (z * _MIX2) & U64
    z ^= z >> 31
    return z


class PartitionRecipe(ClassAssignment):
    """Seed-derived class assignment on D x D'.

    class_of hashes one pair; class_bits hashes every pair once, on first
    use, into one row-major d*d bitset per class (see _fill).  A class
    index is kept in one byte there, so class_bits refuses n above 256;
    no L(p,n) has more than 251 bridge classes.
    """

    def __init__(self, seed: int, n: int, d: int):
        if n < 1:
            raise ValueError("need at least one class")
        if not 0 <= seed <= U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.n = n
        self.d = d
        self._bits: list[int] | None = None

    def class_of(self, x: int, y: int) -> int:
        e = (x * self.d + y + 1) * _GOLDEN & U64
        return 1 + mix64(self.seed ^ e) % self.n

    def class_bits(self, i: int) -> int:
        if self._bits is None:
            self._bits = self._fill()
        return self._bits[i - 1]

    def _fill(self) -> list[int]:
        """Hash a block of whole rows at a time: at most _FILL_LANES
        pairs, or one row where a row is longer, so the packed ints stay
        small at any d.

        Lane j of a packed int holds pair x0*d + j of the block in the
        low 64 of its 128 bits, and every shift and product is masked
        back to those low halves, so a lane never spills into the next.
        The SplitMix64 value v = h*2^32 + l of a lane is reduced mod n in
        the lane: w = h*(2^32 mod n) + l < 2^32*n is congruent to v, and
        with M = ceil(2^64 / n) the low 64 bits f of w*M give w mod n =
        (f*n) >> 64, which is exact while w*(M*n - 2^64) < 2^64; here it
        is below 2^32*n*n <= 2^48.  The residue lands in the low byte of
        its lane; one bytes.translate per class turns the block's low
        bytes into that class's bits.  Each class joins its blocks as a
        binary counter does, two runs of 2^j blocks into one, so it holds
        a few wide ints rather than one small int per block, and the
        memory freed between blocks is not cut up by small ones.
        """
        n, d = self.n, self.d
        if n > 256:
            raise ValueError("class_bits needs at most 256 classes")
        blocks = -(-d // max(1, _FILL_LANES // d))
        rows = -(-d // blocks)  # the fewest blocks, evened out
        lanes = rows * d
        ones = int.from_bytes((b"\1" + bytes(15)) * lanes, "little")  # 1 in every lane
        low = ones * U64
        # lane j holds (j + 1) * golden, from the sum of (j + 1) * X^j, which
        # is (lanes * X^lanes - ones) / (X - 1) at X = 2^128; each block
        # steps every lane on by `lanes` pairs
        e = ((lanes << 128 * lanes) - ones) // ((1 << 128) - 1) * _GOLDEN & low
        step, salt = ones * (lanes * _GOLDEN & U64), ones * self.seed
        unfold, magic = (1 << 32) - (1 << 32) % n, -(-(1 << 64) // n)
        zeros = b"0" * 256
        tables = [zeros[:i] + b"1" + zeros[i + 1 :] for i in range(n)]
        # per class, runs of 2^j blocks joined as in binary counting
        parts: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for x0 in range(0, d, rows):
            z = e ^ salt
            e = e + step & low
            z ^= z >> 30 & low
            z = z * _MIX1 & low
            z ^= z >> 27 & low
            z = z * _MIX2 & low
            z ^= z >> 31 & low
            w = z - (z >> 32 & low) * unfold
            z = (w * magic & low) * n >> 64
            # low bytes, last lane first, cut to the block's rows
            digits = z.to_bytes(16 * lanes, "big")[15::16][-min(rows, d - x0) * d :]
            for part, table in zip(parts, tables):
                bits, width = int(digits.translate(table), 2), len(digits)
                while part and part[-1][1] == width:
                    below, _ = part.pop()
                    bits, width = below | bits << width, 2 * width
                part.append((bits, width))
        out = []
        for part in parts:
            bits = 0
            while part:
                below, width = part.pop()
                bits = below | bits << width
            out.append(bits)
        return out


class ExplicitPartition(ClassAssignment):
    """Class assignment given by a full table of cross edges, kept as one
    row-major d*d bitset per class."""

    def __init__(self, n: int, d: int, classes: dict[tuple[int, int], int]):
        if n < 1:
            raise ValueError("need at least one class")
        self.n = n
        self.d = d
        rows = [[0] * d for _ in range(n)]
        seen = 0
        for (x, y), i in classes.items():
            if not (0 <= x < d and 0 <= y < d):
                raise ValueError(f"cross edge ({x},{y}) outside base")
            if not 1 <= i <= n:
                raise ValueError(f"class {i} outside 1..{n}")
            rows[i - 1][x] |= 1 << y
            seen += 1
        if seen != d * d:
            raise ValueError("explicit partition must cover every cross pair")
        self._bits = [rows_to_bits(r, d) for r in rows]

    def class_of(self, x: int, y: int) -> int:
        return next(i for i, c in enumerate(self._bits, 1) if c >> (x * self.d + y) & 1)

    def class_bits(self, i: int) -> int:
        return self._bits[i - 1]


def build_xi(theta: LabeledStructure, n: int, partition: ClassAssignment | int) -> Xi:
    """Assemble the doubled structure for L(p,n) over a weak rep of L(p,0).

    ``partition`` is a ClassAssignment or a seed.  That the inner
    structure is a weak representation is the caller's responsibility.
    """
    if n < 1:
        raise ValueError("need n >= 1 bridge classes")
    params = theta.algebra.lpn_params
    if params is None or params[1] != 0:
        raise ValueError("inner structure must be over an L(p,0) algebra")
    p = params[0]
    if isinstance(partition, int):
        partition = PartitionRecipe(partition, n, theta.base_size)
    if partition.n != n or partition.d != theta.base_size:
        raise ValueError("partition shape does not match structure")
    return Xi(theta, n, partition, build_lpn(p, n))


# -- fast witness checker ----------------------------------------------------


class XiCertificate(NamedTuple):
    condition: str
    elements: tuple[int, int]  # element pair of L(p,n) whose product check breaks
    point: tuple[int, int]  # point pair in the doubled base
    detail: str


class XiCheckReport(NamedTuple):
    ok: bool
    certificate: XiCertificate | None
    conditions_checked: int

    def summary(self) -> str:
        if self.ok:
            return f"PASS ({self.conditions_checked} witness conditions)"
        c = self.certificate
        return f"FAIL {c.condition} at {c.point}: {c.detail}"


class XiFastChecker:
    """Product checker with inner images shared across class assignments.

    Precondition: the inner structure is a weak representation (its own
    verification is a separate, generic concern).  The checker evaluates
    the exact condition set derived in the module docstring on the
    partition's class bitsets R_i and their transposes C_i: after the
    class-row and class-column scans (the rows of R_i and of C_i), each
    condition family instance is one d x d boolean product compared with
    its target, and the lowest set bit of their difference is the first
    failing (x, y) in x-major order.  A product stops as soon as it
    equals a target that holds all it can reach (top_stop, a_stop), the
    W14 instances (i, j) with i > j pass without a product, as the
    transposes of (j, i), and the second W2 product takes the slope image
    A_q for its transpose (the module docstring proves all three).  A union
    defect forms no image; otherwise the d*d-bit relations held and the
    d^3 bits that one product forms (d shifted copies of an image) are
    charged first.
    """

    def __init__(self, theta: LabeledStructure, n: int):
        params = theta.algebra.lpn_params
        if params is None or params[1] != 0:
            raise ValueError("inner structure must be over an L(p,0) algebra")
        self.theta = theta
        self.n = n
        self.p = params[0]
        self.d = d = theta.base_size
        inner = theta.algebra
        self.algebra = build_lpn(self.p, n)
        self._t_shift = self.p + 2
        top, e = inner.top_mask, inner.identity_mask

        # structural union-defect check: theta(e+A) must split as
        # theta(e) | theta(A) for every inner element e (needed iff n >= 2;
        # labeling images are unions of atom images, so they always split).
        # e+A is A, which splits, when 1' is not in e, and 1 when it is.
        # Every image kind is monotone, so for each e that contains 1',
        # theta(e) | theta(A) contains theta(1') | theta(A) while
        # theta(e+A) = theta(1): e = 1', the least such e, alone decides.
        # A power's defect is read off Kronecker rows of its innermost images.
        self.union_defect: tuple[int, tuple[int, int]] | None = None
        base, m = _innermost(theta)
        if n >= 2 and m > 1:
            sides = [_image_rows(base, mask) for mask in (top, e, top ^ e)]
            point = _first_row(sides, base.base_size, m, lambda t, i, a: t & ~(i | a))
            if point is not None:
                self.union_defect = (e, point)
        # a union defect fails every partition before any image is needed
        if self.union_defect is None:
            _charge((self.p + 2 * n + 4) * d * d, f"the xi checker on {d} points")
            _charge(d**3, f"each xi checker product on {d} points")
            self.top_bits = _image_bits(theta, top)
            self.a_bits = _image_bits(theta, top ^ e)
            self.full = full_bits(d, d)
            # the W1 and W14 targets, as stops where they are all that a
            # product can reach: everything, and everything off the diagonal
            off_diagonal = self.full ^ ((1 << (d + 1) * d) - 1) // ((1 << d + 1) - 1)
            self.top_stop = self.top_bits if self.top_bits == self.full else None
            self.a_stop = self.a_bits if self.a_bits == off_diagonal else None
            # A_q for every slope atom a_q, its own transpose
            self.atom_bits = [_image_bits(theta, 1 << (1 + q)) for q in range(self.p + 1)]

    def _element(self, inner_mask: int, classes: Sequence[int]) -> int:
        out = inner_mask
        for i in classes:
            out |= 1 << (self._t_shift + i - 1)
        return out

    def _families(self, r: list[int], c: list[int]):
        """Every product instance in certificate order: (product, target,
        condition, elements, point offset, detail template), each product
        formed only when the caller asks for its instance.

        r[i] holds R_i, the (x, y') pairs of class i+1 as a row-major
        d*d bitset, and c[i] its transpose C_i.  The templates take
        {what}, {x} and {y}.
        """
        d, top, a, full = self.d, self.top_bits, self.a_bits, self.full
        top_stop, a_stop = self.top_stop, self.a_stop
        on_d, on_mirror, cross = (0, 0), (d, d), (0, d)
        t = [self._element(0, [i + 1]) for i in range(self.n)]
        # W1: common same-class neighbours realize exactly theta(1'+A)
        for i, ti in enumerate(t):
            what = f"{{what}} common class-{i + 1} neighbour"
            w1 = top, "same-class-witness", (ti, ti)
            yield _square_product(r[i], c[i], d, top_stop), *w1, on_d, what
            yield _square_product(c[i], r[i], d, top_stop), *w1, on_mirror, what + " (mirror)"
        # W14: distinct-class common neighbours realize exactly theta(A)
        for i, j in permutations(range(self.n), 2):
            what = f"{{what}} common (class {i + 1}, class {j + 1}) neighbour"
            w14 = a, "mixed-class-witness", (t[i], t[j])
            if i > j:  # theta(A)^T = theta(A), as instance (j, i) passed
                yield a, *w14, on_d, what
                yield a, *w14, on_mirror, what + " (mirror)"
            else:
                yield _square_product(r[i], c[j], d, a_stop), *w14, on_d, what
                yield _square_product(c[i], r[j], d, a_stop), *w14, on_mirror, what + " (mirror)"
        # W2: every cross pair reaches every class through every slope atom
        for q, aq in enumerate(self.atom_bits):
            sq = 1 << (1 + q)
            for l, tl in enumerate(t):
                pair = "for cross pair ({x},{y}')"
                w2 = full, "slope-class-witness"
                into = f"no slope-{q} step into class {l + 1} {pair}"
                before = f"no class-{l + 1} step before slope {q} {pair}"
                yield _square_product(aq, r[l], d, full), *w2, (sq, tl), cross, into
                yield _square_product(r[l], aq, d, full), *w2, (tl, sq), cross, before

    def check(self, partition: ClassAssignment) -> XiCheckReport:
        if partition.n != self.n or partition.d != self.d:
            raise ValueError("partition shape does not match checker")
        n, d = self.n, self.d

        def fail(condition, elements, point, detail, checked):
            certificate = XiCertificate(condition, elements, point, detail)
            return XiCheckReport(False, certificate, checked)

        # structural: no class assignment can fix a union defect (decided
        # before materializing the class bitsets; only the certificate's
        # replay branch needs the classes of two rows)
        if self.union_defect is not None:
            e, (x, y) = self.union_defect
            classes = ((partition.class_of(x, z), partition.class_of(y, z)) for z in range(d))
            if (1, 2) in classes:
                elems = (self._element(0, [1]), self._element(0, [2]))
                why = "pair outside theta(A) has a class-(1,2) witness"
            else:  # e is 1'
                elems = (self._element(e, [1]), self._element(e, [2]))
                why = "pair in theta(e+A) lacks both theta(e) and a class-(1,2) witness"
            name = self.theta.algebra.format_mask(e)
            why = f"inner image of e+A does not split for e = {name}; {why}"
            return fail("union-defect", elems, (x, y), why, 0)

        r = [partition.class_bits(i + 1) for i in range(n)]
        c = [_transpose_square(bits, d) for bits in r]

        # W3: every row of D and every column of D' meets every class
        for i in range(n):
            ti = self._element(0, [i + 1])
            zrow = bits_to_rows(r[i], d)
            if 0 in zrow:
                x = zrow.index(0)
                why = f"point {x} has no class-{i + 1} cross edge"
                return fail("class-row", (ti, ti), (x, x), why, 2 * d * i + x + 1)
            zcol = bits_to_rows(c[i], d)
            if 0 in zcol:
                y = zcol.index(0)
                why = f"mirror point {y} has no class-{i + 1} cross edge"
                return fail("class-column", (ti, ti), (d + y, d + y), why, 2 * d * i + d + y + 1)

        # W1, W14, W2: one d x d product per instance, against its target
        checked = 2 * n * d
        for product, target, condition, elements, (dx, dy), detail in self._families(r, c):
            diff = product ^ target
            if diff:
                x, y = divmod(_low_bit(diff), d)
                what = "missing" if target >> (x * d + y) & 1 else "forbidden"
                why = detail.format(what=what, x=x, y=y)
                return fail(condition, elements, (dx + x, dy + y), why, checked + x * d + y + 1)
            checked += d * d

        return XiCheckReport(True, None, checked)


def check_xi_fast(structure: Xi) -> XiCheckReport:
    """One-shot fast check; reuse XiFastChecker for seed sweeps."""
    checker = XiFastChecker(structure.inner, structure.n)
    return checker.check(structure.partition)


# -- probability bound calculus ----------------------------------------------


class BoundReport(NamedTuple):
    p: int
    n: int
    d: int
    k: int
    m: int | None
    ineq1: bool | None  # None: not applicable (n = 1, or union-defect)
    ineq2: bool | None
    failure_bound: float
    # "log", "log+exact" when a re-check decided, "auto" for n = 1,
    # "union-defect" when UD fails for every assignment (m >= 2, n >= 2)
    mode: str


_GUARD = 1e-9
_EXACT_LIMIT = 1 << 21  # largest exponent for which exact powers stay cheap


def _decide(log_lhs: float, log_rhs: float, exact) -> tuple[bool, bool]:
    """(verdict, needed_exact) comparing lhs > rhs from logs, with exact
    fallback inside the guard band."""
    gap = log_lhs - log_rhs
    if abs(gap) > _GUARD * max(abs(log_lhs), abs(log_rhs), 1.0):
        return gap > 0, False
    pair = exact()
    if pair is None:  # borderline beyond the exact cap: keep the log verdict
        return gap > 0, False
    lhs, rhs = pair
    return lhs > rhs, True


def eval_bounds(p: int, n: int, d: int, k: int) -> BoundReport:
    """Decide inequalities (1) and (2) and the failure-probability bound.

    Both sides of each inequality are compared as logarithms; inside a
    relative guard band of 1e-9 the comparison is redone in exact
    rationals (for exponents up to 2^21), and ``mode`` then reads
    "log+exact".  The failure bound is a float from the same logarithms.
    """
    if p < 3 or n < 1 or d < 1 or k < 0:
        raise ValueError("need p >= 3, n >= 1, d >= 1, k >= 0")
    if n == 1:
        return BoundReport(p, n, d, k, None, None, None, 0.0, "auto")
    from fractions import Fraction  # only the bound calculus needs it

    log1_lhs = d * -math.log1p(-1 / (n * n))
    log1_rhs = math.log(4 * n * n) + math.log(d) + math.log(max(d - 1, 1))
    log2_lhs = k * -math.log1p(-1 / n) if k else 0.0
    log2_rhs = math.log(4 * (p + 1) * n) + 2 * math.log(d)

    def exact1():
        if d > _EXACT_LIMIT:
            return None
        return Fraction(n * n, n * n - 1) ** d, Fraction(4 * n * n * d * (d - 1))

    def exact2():
        if k > _EXACT_LIMIT:
            return None
        return Fraction(n, n - 1) ** k, Fraction(4 * (p + 1) * n * d * d)

    ineq1, e1 = _decide(log1_lhs, log1_rhs, exact1)
    ineq2, e2 = _decide(log2_lhs, log2_rhs, exact2)

    if d == 1:
        term1 = 0.0
    else:
        term1 = math.exp(
            min(math.log(2 * d * n * n) + math.log(d - 1) - log1_lhs, 700.0)
        )
    term2 = math.exp(min(math.log(2 * (p + 1) * n) + 2 * math.log(d) - log2_lhs, 700.0))
    bound = term1 + term2
    return BoundReport(p, n, d, k, None, ineq1, ineq2, bound, "log+exact" if e1 or e2 else "log")


def eval_bounds_power(p: int, n: int, m: int) -> BoundReport:
    """The bound at the m-th power of the affine structure: d = p^(2m),
    k = (p-1)^m.  For m >= 2 and n >= 2, UD fails for every assignment
    (certificate e = 1' at pair (0, 1)), so failure is certain."""
    if m < 1:
        raise ValueError("need m >= 1")
    d, k = p ** (2 * m), (p - 1) ** m
    if m == 1 or n < 2 or p < 3:  # eval_bounds refuses p < 3 and n < 1
        return eval_bounds(p, n, d, k)._replace(m=m)
    return BoundReport(p, n, d, k, m, None, None, 1.0, "union-defect")


class Thresholds(NamedTuple):
    p: int
    n: int
    p_ineq1: int  # 16 n^2
    p_ineq2: int  # 1 + (48 n)^2


def sufficiency_thresholds(p: int, n: int) -> Thresholds:
    """Parameters beyond which both inequalities hold at m = 1.

    p above both thresholds makes (1) and (2) true at d = p^2, k = p-1.
    Every such p has 2n <= p, so the regime holds only representable
    algebras; over proper powers UD fails and no threshold exists.
    """
    if p < 3 or n < 2:
        raise ValueError("thresholds need p >= 3 and n >= 2")
    return Thresholds(p, n, 16 * n * n, 1 + (48 * n) ** 2)


# -- search driver and Monte Carlo -------------------------------------------


class SeedResult(NamedTuple):
    seed: int
    ok: bool
    condition: str | None
    point: tuple[int, int] | None
    strict_ok: bool | None = None


class SearchReport(NamedTuple):
    p: int
    n: int
    m: int
    d: int
    mode: str
    results: list[SeedResult]

    @property
    def passes(self) -> list[int]:
        return [r.seed for r in self.results if r.ok]

    def summary_lines(self) -> list[str]:
        lines = [
            f"search p={self.p} n={self.n} m={self.m} base=2*{self.d} mode={self.mode}"
        ]
        for r in self.results:
            verdict = "PASS" if r.ok else f"FAIL {r.condition} at {r.point}"
            if r.strict_ok is not None:
                verdict += f" (generic verifier: {'PASS' if r.strict_ok else 'FAIL'})"
            lines.append(f"seed {r.seed}: {verdict}")
        n_pass = len(self.passes)
        lines.append(f"{n_pass}/{len(self.results)} seeds pass")
        return lines


def search_weakrep(
    p: int,
    n: int,
    m: int,
    seeds: Iterable[int],
    *,
    mode: str = "fast",
) -> SearchReport:
    """Sweep seeds for a weak representation of L(p,n) on 2*p^(2m) points.

    Builds the m-th power of the affine structure once, then checks the
    seeded class assignments.  strict mode re-verifies every verdict with
    the generic verifier (within its base budget) and raises if the two
    ever disagree.
    """
    if mode not in ("fast", "strict"):
        raise ValueError("mode must be 'fast' or 'strict'")
    theta = build_power(build_affine(p), m)
    checker = XiFastChecker(theta, n)
    results = []
    for seed in seeds:
        partition = PartitionRecipe(seed, n, theta.base_size)
        report = checker.check(partition)
        strict_ok = None
        if mode == "strict":
            structure = Xi(theta, n, partition, checker.algebra)
            generic = verify_weak(structure)
            strict_ok = generic.ok
            if generic.ok != report.ok:
                raise AssertionError(
                    f"fast/generic disagreement at seed {seed}: "
                    f"fast={report.summary()} generic={generic.summary(checker.algebra)}"
                )
        results.append(
            SeedResult(
                seed,
                report.ok,
                None if report.ok else report.certificate.condition,
                None if report.ok else report.certificate.point,
                strict_ok,
            )
        )
    return SearchReport(p, n, m, theta.base_size, mode, results)


class MonteCarloReport(NamedTuple):
    p: int
    n: int
    m: int
    trials: int
    failures: int
    rate: float
    wilson_low: float
    wilson_high: float
    analytic_bound: float
    consistency: str


def montecarlo(
    p: int, n: int, m: int, trials: int, seed0: int
) -> MonteCarloReport:
    """Empirical failure rate of seeded assignments vs the analytic bound.

    One-sided consistency: the Wilson 95% lower confidence bound on the
    failure probability must not exceed the analytic upper bound; when
    the bound is >= 1 the comparison is vacuous (and reported as such).
    Where union-defect makes failure certain, the run is consistent
    exactly when every trial failed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    theta = build_power(build_affine(p), m)
    checker = XiFastChecker(theta, n)
    failures = 0
    for t in range(trials):
        partition = PartitionRecipe((seed0 + t) & U64, n, theta.base_size)
        if not checker.check(partition).ok:
            failures += 1
    rate = failures / trials
    z = 1.959963984540054  # 95% two-sided normal quantile
    denom = 1 + z * z / trials
    center = rate + z * z / (2 * trials)
    spread = z * math.sqrt(rate * (1 - rate) / trials + z * z / (4 * trials * trials))
    low = min(max(0.0, (center - spread) / denom), rate)
    high = max(min(1.0, (center + spread) / denom), rate)
    bound = eval_bounds_power(p, n, m)
    analytic = bound.failure_bound
    if bound.mode == "union-defect":  # failure is certain
        consistency = "consistent" if failures == trials else "INCONSISTENT"
    elif analytic >= 1.0:
        consistency = "vacuous, consistent"
    elif low <= analytic:
        consistency = "consistent"
    else:
        consistency = "INCONSISTENT"
    return MonteCarloReport(
        p, n, m, trials, failures, rate, low, high, analytic, consistency
    )
