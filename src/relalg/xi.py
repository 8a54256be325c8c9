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
R_l.A_q^T = full.  Each product is compared whole with its target; the
lowest set bit of the difference is the first failing pair in x-major
order, which fixes the certificate and the number of conditions counted
as checked.  Equality of its verdict with verify_weak over seeded
instances is an acceptance property of the package.

Bound calculus.  For a random assignment the probability that some W1 or
W2 witness is missing is below

    2*d*(d-1)*n^2*((n^2-1)/n^2)^d  +  2*(p+1)*d^2*n*((n-1)/n)^k

where k lower-bounds the per-point slope degree of theta.  The two
summands are below 1/2 each exactly when

    (n^2/(n^2-1))^d > 4*n^2*d*(d-1)        (1)
    (n/(n-1))^k     > 4*(p+1)*n*d^2        (2)

eval_bounds decides (1), (2) and the failure bound in the log domain
with an exact big-rational re-check inside a relative guard band.  For
theta the m-th power of the affine structure, d = p^(2m), k = (p-1)^m;
(1) holds once m > log_p(16 n^2), and (2) once m > 2 log_(p-1)(24 n) and
m > (1/3) log_(p-1)(4n(p+1)).  Fixing m = 1 (d = p^2, k = p-1), (1)
holds once p > 16 n^2 and (2) once p > 1 + (48 n)^2.  These thresholds
are what sufficiency_thresholds reports; the regime they describe is far
beyond what can be materialized, which is why they are checked
symbolically rather than by building structures.
"""

from __future__ import annotations

import math
import sys
from itertools import permutations
from typing import Iterable, NamedTuple, Sequence

from .errors import ResourceBudgetError
from .lpn import build_lpn
from .structures import (
    DEFAULT_IMAGE_MAX_BASE,
    AtomLabeling,
    ClassAssignment,
    LabeledStructure,
    Xi,
    _image_bits,
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
# the low 64-bit word of every 128-bit lane, in lane order
_LANE_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


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
    use, into one row-major d*d bitset per class.
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
        """Hash one row of D at a time: lane y of a packed int holds the
        SplitMix64 state of (x, y') in the low 64 of its 128 bits, and
        every shift and product is masked back to those low halves, so a
        lane never spills into the next."""
        n, d = self.n, self.d
        ones = sum(1 << (128 * y) for y in range(d))
        low = ones * U64
        index = sum((y + 1) << (128 * y) for y in range(d))  # x*d + y + 1 at x = 0
        step = ones * d
        salt = ones * self.seed
        bits = [1 << y for y in range(d)]
        by_x = []
        for x in range(d):
            z = (index * _GOLDEN & low) ^ salt
            index += step
            z ^= z >> 30 & low
            z = z * _MIX1 & low
            z ^= z >> 27 & low
            z = z * _MIX2 & low
            z ^= z >> 31 & low
            words = memoryview(z.to_bytes(16 * d, sys.byteorder)).cast("Q")
            row = [0] * n
            for bit, v in zip(bits, words[_LANE_WORDS]):
                row[v % n] |= bit
            by_x.append(row)
        return [rows_to_bits(list(rows), d) for rows in zip(*by_x)]


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
    condition family instance is one d x d boolean product compared
    whole with its target, and the lowest set bit of their difference is
    the first failing (x, y) in x-major order.  An inner base above DEFAULT_IMAGE_MAX_BASE points is
    refused with ResourceBudgetError before any image is built.
    """

    def __init__(self, theta: LabeledStructure, n: int):
        params = theta.algebra.lpn_params
        if params is None or params[1] != 0:
            raise ValueError("inner structure must be over an L(p,0) algebra")
        if theta.base_size > DEFAULT_IMAGE_MAX_BASE:
            raise ResourceBudgetError(
                f"base {theta.base_size} exceeds image budget {DEFAULT_IMAGE_MAX_BASE}"
            )
        self.theta = theta
        self.n = n
        self.p = params[0]
        self.d = theta.base_size
        d = self.d
        inner = theta.algebra
        self.algebra = build_lpn(self.p, n)
        self._t_shift = self.p + 2

        self.top_bits = _image_bits(theta, inner.top_mask)
        a_mask = inner.top_mask ^ inner.identity_mask
        self.a_bits = _image_bits(theta, a_mask)
        self.full = full_bits(d, d)
        # (A_q, A_q^T) for every slope atom a_q
        self.atom_bits = []
        for q in range(self.p + 1):
            aq = _image_bits(theta, 1 << (1 + q))
            self.atom_bits.append((aq, _transpose_square(aq, d)))

        # structural union-defect scan: theta(e+A) must split as
        # theta(e) | theta(A) for every inner element e (needed iff n >= 2;
        # labeling images are unions of atom images, so they always split).
        # e+A is A, which splits, when 1' is not in e, and 1 when it is.
        self.union_defect: tuple[int, tuple[int, int]] | None = None
        if n >= 2 and not isinstance(theta, AtomLabeling):
            for e in range(inner.top_mask + 1):
                if not e & inner.identity_mask:
                    continue
                extra = self.top_bits & ~(_image_bits(theta, e) | self.a_bits)
                if extra:
                    low = extra & -extra
                    self.union_defect = (e, divmod(low.bit_length() - 1, d))
                    break

    def _element(self, inner_mask: int, classes: Sequence[int]) -> int:
        out = inner_mask
        for i in classes:
            out |= 1 << (self._t_shift + i - 1)
        return out

    def _families(self, r: list[int], c: list[int]):
        """Every product instance in certificate order: (left, right,
        target, condition, elements, point offset, detail template).

        r[i] holds R_i, the (x, y') pairs of class i+1 as a row-major
        d*d bitset, and c[i] its transpose C_i.  The templates take
        {what}, {x} and {y}.
        """
        d, top, a, full = self.d, self.top_bits, self.a_bits, self.full
        on_d, on_mirror, cross = (0, 0), (d, d), (0, d)
        t = [self._element(0, [i + 1]) for i in range(self.n)]
        # W1: common same-class neighbours realize exactly theta(1'+A)
        for i, ti in enumerate(t):
            what = f"{{what}} common class-{i + 1} neighbour"
            yield r[i], c[i], top, "same-class-witness", (ti, ti), on_d, what
            yield c[i], r[i], top, "same-class-witness", (ti, ti), on_mirror, what + " (mirror)"
        # W14: distinct-class common neighbours realize exactly theta(A)
        for i, j in permutations(range(self.n), 2):
            what = f"{{what}} common (class {i + 1}, class {j + 1}) neighbour"
            yield r[i], c[j], a, "mixed-class-witness", (t[i], t[j]), on_d, what
            yield c[i], r[j], a, "mixed-class-witness", (t[i], t[j]), on_mirror, (
                what + " (mirror)"
            )
        # W2: every cross pair reaches every class through every slope atom
        for q, (aq, aqt) in enumerate(self.atom_bits):
            sq = 1 << (1 + q)
            for l, tl in enumerate(t):
                pair = "for cross pair ({x},{y}')"
                yield aq, r[l], full, "slope-class-witness", (sq, tl), cross, (
                    f"no slope-{q} step into class {l + 1} {pair}"
                )
                yield r[l], aqt, full, "slope-class-witness", (tl, sq), cross, (
                    f"no class-{l + 1} step before slope {q} {pair}"
                )

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
            t1 = self._element(0, [1])
            has_witness = any(
                partition.class_of(x, z) == 1 and partition.class_of(y, z) == 2
                for z in range(d)
            )
            if has_witness:
                elems = (t1, self._element(0, [2]))
                why = "pair outside theta(A) has a class-(1,2) witness"
            else:
                elems = (
                    self._element(e, [1]),
                    self._element(self.theta.algebra.identity_mask, [2]),
                )
                why = "pair in theta(e+A) lacks both theta(e) and a class-(1,2) witness"
            return fail(
                "union-defect",
                elems,
                (x, y),
                f"inner image of e+A does not split for e = "
                f"{self.theta.algebra.format_mask(e)}; {why}",
                0,
            )

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

        # W1, W14, W2: one d x d product per instance, compared whole
        checked = 2 * n * d
        for left, right, target, condition, elements, (dx, dy), detail in self._families(r, c):
            diff = _square_product(left, right, d) ^ target
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
    ineq1: bool | None  # None: not applicable (n = 1)
    ineq2: bool | None
    failure_bound: float
    mode: str  # "log", "log+exact" when a re-check decided, "auto" for n = 1

    @property
    def both_hold(self) -> bool:
        return bool(self.ineq1 and self.ineq2)


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


def eval_bounds(p: int, n: int, d: int, k: int, *, m: int | None = None) -> BoundReport:
    """Decide inequalities (1) and (2) and the failure-probability bound.

    Both sides of each inequality are compared as logarithms; inside a
    relative guard band of 1e-9 the comparison is redone in exact
    rationals (for exponents up to 2^21), and ``mode`` then reads
    "log+exact".  The failure bound is a float from the same logarithms.
    """
    if p < 3 or n < 1 or d < 1 or k < 0:
        raise ValueError("need p >= 3, n >= 1, d >= 1, k >= 0")
    if n == 1:
        return BoundReport(p, n, d, k, m, None, None, 0.0, "auto")
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
    return BoundReport(p, n, d, k, m, ineq1, ineq2, bound, "log+exact" if e1 or e2 else "log")


def eval_bounds_power(p: int, n: int, m: int) -> BoundReport:
    """eval_bounds at the m-th power of the affine structure: d = p^(2m),
    k = (p-1)^m."""
    if m < 1:
        raise ValueError("need m >= 1")
    return eval_bounds(p, n, p ** (2 * m), (p - 1) ** m, m=m)


class Thresholds(NamedTuple):
    p: int
    n: int
    m_ineq1: float  # log_p(16 n^2)
    m_ineq2_growth: float  # 2 log_(p-1)(24 n)
    m_ineq2_start: float  # (1/3) log_(p-1)(4 n (p+1))
    p_ineq1: int  # 16 n^2
    p_ineq2: int  # 1 + (48 n)^2

    @property
    def m_all(self) -> float:
        return max(self.m_ineq1, self.m_ineq2_growth, self.m_ineq2_start)


def sufficiency_thresholds(p: int, n: int) -> Thresholds:
    """Exponents and parameters beyond which both inequalities hold.

    Any integer m above all three m-thresholds makes (1) and (2) true at
    d = p^(2m), k = (p-1)^m; and p above both p-thresholds makes them
    true already at m = 1 (d = p^2, k = p-1).
    """
    if p < 3 or n < 2:
        raise ValueError("thresholds need p >= 3 and n >= 2")
    lp = math.log(p)
    lp1 = math.log(p - 1)
    return Thresholds(
        p,
        n,
        math.log(16 * n * n) / lp,
        2 * math.log(24 * n) / lp1,
        math.log(4 * n * (p + 1)) / (3 * lp1),
        16 * n * n,
        1 + (48 * n) ** 2,
    )


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
    analytic = eval_bounds_power(p, n, m).failure_bound
    if analytic >= 1.0:
        consistency = "vacuous, consistent"
    elif low <= analytic:
        consistency = "consistent"
    else:
        consistency = "INCONSISTENT"
    return MonteCarloReport(
        p, n, m, trials, failures, rate, low, high, analytic, consistency
    )
