"""Relation-algebra terms and equations: grammar, evaluation, falsification.

Concrete grammar (whitespace insignificant):

    equation := term "=" term
    term     := sum
    sum      := meet ("+" meet)*          loosest
    meet     := comp ("&" comp)*
    comp     := unary (";" unary)*        tightest binary
    unary    := "-" unary | primary "~"*
    primary  := "0" | "1" | "e" | VAR | "(" sum ")"
    VAR      := "x" digits   (index >= 1)

"-" is complement, postfix "~" is converse and binds tighter than "-",
"e" is the identity constant.  Binary operators are left-associative.
Terms nest at most MAX_TERM_DEPTH levels: building a deeper node raises
ValueError, and the parser refuses a deeper term with a ParseError, so
no term deeper than the limit exists and every term prints to text the
parser accepts.
The canonical printer emits binary operators without spaces, a single
" = " in equations, and parentheses only where precedence requires, so
print(parse(s)) == s on canonical strings and parse(print(t)) == t.

Equation length counts operation symbols and variable occurrences; the
constants 0, 1, e count as operation symbols of arity 0 and "=" is not
counted (so distributivity of & over + written with three variables has
length 12).  This convention is a documented choice; only the worked
value 12 pins it.

Only equations are supported; encode an inequality u <= v as u+v = v.
"""

from __future__ import annotations

import random
from itertools import cycle, product, repeat
from operator import and_, or_, xor
from typing import Callable, NamedTuple, Sequence, Union

from .algebra import Element, FiniteRelationAlgebra, Frozen, iter_bits
from .errors import ParseError, ResourceBudgetError

DEFAULT_FALSIFY_BUDGET = 1 << 24


class _TermNode(Frozen):
    """Immutable, and equal when class and fields are: Not(x) != Conv(x).
    A node deeper than MAX_TERM_DEPTH, its depth counted as it is built,
    raises ValueError, so every recursion over a term stays shallow."""

    __slots__ = ("depth",)

    def __init__(self, *fields):
        below = [f.depth for f in fields if isinstance(f, _TermNode)]
        depth = 1 + max(below, default=0)
        if depth > MAX_TERM_DEPTH:
            raise ValueError(f"term nests deeper than {MAX_TERM_DEPTH} levels")
        super().__init__(*fields)
        object.__setattr__(self, "depth", depth)


class Var(_TermNode):
    __slots__ = ("index",)
    index: int


class Const(_TermNode):
    __slots__ = ("name",)
    name: str  # "0", "1", or "e"


class Not(_TermNode):
    __slots__ = ("arg",)
    arg: "Term"


class Conv(_TermNode):
    __slots__ = ("arg",)
    arg: "Term"


class Join(_TermNode):
    __slots__ = ("left", "right")
    left: "Term"
    right: "Term"


class Meet(_TermNode):
    __slots__ = ("left", "right")
    left: "Term"
    right: "Term"


class Comp(_TermNode):
    __slots__ = ("left", "right")
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Not, Conv, Join, Meet, Comp]


class Equation(Frozen):
    __slots__ = ("lhs", "rhs")
    lhs: Term
    rhs: Term


# -- parsing -----------------------------------------------------------------


# A term nests at most this many levels, counted on its tree: x1 has
# depth 1, -x1 and x1;x1 depth 2, and x1;x1;...;x1 with k operands depth
# k, with or without parentheses.  Comparing, hashing, repr, printing and
# compiling recurse once per level, so a node refuses a deeper term when
# it is built, and the parser refuses more than this many pending "(" and
# prefix "-" (a printed term of depth d has fewer than d), each with a
# ParseError at the offending token.  Both keep every step inside the
# default recursion limit.
MAX_TERM_DEPTH = 150

# binary operators: symbol -> (binding level, node); all left-associative
_BINARY = {"+": (1, Join), "&": (2, Meet), ";": (3, Comp)}


class _Parser:
    """Recursive descent, building nodes through ``build`` so that a term
    past the depth limit is refused at the token that nests it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.pending = 0  # "(" and prefix "-" entered and not yet closed

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def check(self, depth: int, at: int) -> int:
        """``depth``, unless it passes the limit at the token at ``at``."""
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nests deeper than {MAX_TERM_DEPTH} levels", at)
        return depth

    def build(self, node: type, at: int, *fields) -> Term:
        """node(*fields), or the node's refusal as a ParseError at ``at``."""
        try:
            return node(*fields)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None

    def parse_binary(self, level: int = 1) -> Term:
        """Operators binding at ``level`` or tighter."""
        t = self.parse_unary()
        while True:
            op = _BINARY.get(self.peek())
            if op is None or op[0] < level:
                return t
            at = self.pos
            self.pos += 1
            t = self.build(op[1], at, t, self.parse_binary(op[0] + 1))

    def parse_unary(self) -> Term:
        if self.take("-"):
            at = self.pos - 1
            self.pending = self.check(self.pending + 1, at)
            t = self.build(Not, at, self.parse_unary())
            self.pending -= 1
            return t
        t = self.parse_primary()
        while self.take("~"):
            t = self.build(Conv, self.pos - 1, t)
        return t

    def parse_primary(self) -> Term:
        ch = self.peek()
        if ch == "(":
            self.pending = self.check(self.pending + 1, self.pos)
            self.pos += 1
            t = self.parse_binary()
            self.pending -= 1
            if not self.take(")"):
                raise self.error("expected ')'")
            return t
        if ch and ch in "01e":
            self.pos += 1
            return Const(ch)
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            if self.pos == start:
                raise self.error("variable needs a numeric index")
            index = int(self.text[start : self.pos])
            if index < 1:
                raise self.error("variable indices start at 1")
            return Var(index)
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_binary()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input after term")
    return t


def parse_equation(text: str) -> Equation:
    p = _Parser(text)
    lhs = p.parse_binary()
    if not p.take("="):
        raise p.error("expected '=' between terms")
    rhs = p.parse_binary()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input after equation")
    return Equation(lhs, rhs)


def parse(text: str) -> Term | Equation:
    """Parse an equation if the text contains '=', else a term."""
    return parse_equation(text) if "=" in text else parse_term(text)


# -- printing ----------------------------------------------------------------

# binding strength: atoms 6, postfix ~ 5, prefix - 4, ; 3, & 2, + 1
_LEVEL = {Var: 6, Const: 6, Conv: 5, Not: 4, Comp: 3, Meet: 2, Join: 1}
_SYMBOL = {Join: "+", Meet: "&", Comp: ";"}


def print_term(t: Term) -> str:
    return _print(t, 0)


def _print(t: Term, min_level: int) -> str:
    """t in a place that binds at least ``min_level``."""
    level = _LEVEL[type(t)]
    if isinstance(t, Var):
        text = f"x{t.index}"
    elif isinstance(t, Const):
        text = t.name
    elif isinstance(t, Not):
        text = "-" + _print(t.arg, 4)
    elif isinstance(t, Conv):
        text = _print(t.arg, 5) + "~"
    else:  # left-associative: the same level is allowed on the left
        text = _print(t.left, level) + _SYMBOL[type(t)] + _print(t.right, level + 1)
    return f"({text})" if level < min_level else text


def print_equation(eq: Equation) -> str:
    return f"{print_term(eq.lhs)} = {print_term(eq.rhs)}"


# -- structural info ---------------------------------------------------------


def _children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Not, Conv)):
        return (t.arg,)
    if isinstance(t, (Join, Meet, Comp)):
        return (t.left, t.right)
    return ()


def _nodes(*roots: Term) -> list[Term]:
    """Every distinct node of the terms once, by identity, children before
    parents.  A term built in code can share subterms, so its tree can be
    exponentially larger than its distinct nodes; each walk here visits
    the nodes, not the tree."""
    seen: set[int] = set()
    out: list[Term] = []

    def visit(t: Term) -> None:
        if id(t) not in seen:
            seen.add(id(t))
            for c in _children(t):
                visit(c)
            out.append(t)

    for t in roots:
        visit(t)
    return out


def _variable_sets(*roots: Term) -> dict[int, frozenset[int]]:
    """The variables of every distinct node of the terms, by node id."""
    sets: dict[int, frozenset[int]] = {}
    for t in _nodes(*roots):
        below = (sets[id(c)] for c in _children(t))
        sets[id(t)] = frozenset((t.index,)) if isinstance(t, Var) else frozenset().union(*below)
    return sets


def variables(t: Term | Equation) -> set[int]:
    roots = (t.lhs, t.rhs) if isinstance(t, Equation) else (t,)
    sets = _variable_sets(*roots)
    return set().union(*(sets[id(r)] for r in roots))


def term_length(t: Term) -> int:
    """Nodes of the tree, counted with repeats from each distinct node's count."""
    counts: dict[int, int] = {}
    for s in _nodes(t):
        counts[id(s)] = 1 + sum(counts[id(c)] for c in _children(s))
    return counts[id(t)]


def equation_length(eq: Equation) -> int:
    """Total operation symbols plus variable occurrences; '=' not counted."""
    return term_length(eq.lhs) + term_length(eq.rhs)


# -- evaluation --------------------------------------------------------------
#
# A term compiles to one step per distinct subterm, vals[slot] =
# fn(vals[a], vals[b]), with slots 0..m-1 holding the variables in index
# order.  Each step sits at the level of the last variable its subterm
# uses, and a search reruns a level's steps only when that variable
# changes.  Composition and converse come from a kernel: falsify builds
# one per call, and eval_term calls the algebra's compose_masks and
# converse_mask, which keep no state.  falsify decides
# an equation whose sides preserve joins on {0} and the atoms alone (the
# atom rule, below), through the same compiler and kernel, and otherwise
# scans one assignment prefix per orbit of the atom symmetries (the orbit
# rule, below).

# Composition kernels.  falsify looks x;y up in half tables of 16-bit
# masks for 1 to 16 atoms (_HalfTable) and runs the atom-pair loop
# (_Direct) beyond, where masks outgrow 16 bits.  A full 2^k x 2^k table
# would read a row in one slice, but its build grows as 4^k entries
# against about 4 * 2^k here, and would be most of a short search from
# about 7 atoms on.


class _Direct:
    """comp(x, y) = x;y and conv(x) = x~ on masks, from the algebra's
    compose_masks and converse_mask with no table, extended to whole rows
    and columns of the composition table and to vectors.  _HalfTable
    replaces comp and conv and the extensions it speeds up."""

    def __init__(self, algebra: FiniteRelationAlgebra):
        self.size = algebra.top_mask + 1
        self.comp = algebra.compose_masks
        self.conv = algebra.converse_mask

    def row(self, c: int) -> list[int]:
        """c;y for every element y."""
        comp = self.comp
        return [comp(c, y) for y in range(self.size)]

    def column(self, c: int) -> list[int]:
        """x;c for every element x."""
        comp = self.comp
        return [comp(x, c) for x in range(self.size)]

    def pair(self, xs: list[int], ys: list[int]) -> list[int]:
        return list(map(self.comp, xs, ys))

    def conv_all(self, xs: list[int]) -> list[int]:
        return list(map(self.conv, xs))


def _or_table(rows: Sequence[Sequence[int]]) -> Sequence[int]:
    """Flat array whose block x is the OR of rows[i] over the bits i of x.

    Built by doubling: the blocks with bit i set are the blocks below 2^i
    ORed with rows[i], one C-level pass per bit.
    """
    # imported here: the array extension adds about 150 KB to the resident
    # size of every process that loads it, and only falsify builds tables
    from array import array

    out = array("H", [0] * len(rows[0]))
    for row in rows:
        out += array("H", map(or_, out, cycle(row)))
    return out


def _block(comp: Sequence[Sequence[int]]) -> Sequence[int]:
    """table[a << w | b] = a;b for masks over atoms with products comp."""
    return _or_table([_or_table([[m] for m in row]) for row in comp])


class _HalfTable(_Direct):
    """blocks[i][j][a << w | b] = (a << i*w);(b << j*w) over the low w =
    ceil(k/2) atoms (i, j = 0) and the high ones, padded with an empty
    atom when k is odd.  x;y is the OR of four lookups, and a row or
    column of the full table spreads two half vectors, each the OR of two
    slices."""

    def __init__(self, algebra: FiniteRelationAlgebra):
        k, self.size = algebra.atom_count, algebra.top_mask + 1
        w = self.w = (k + 1) // 2
        m = self.m = (1 << w) - 1
        pad = (0,) * (2 * w - k)  # the empty atom, when k is odd
        rows = [row + pad for row in algebra.comp] + [(0,) * 2 * w] * len(pad)
        halves = (slice(0, w), slice(w, 2 * w))
        self.blocks = [[_block([r[j] for r in rows[i]]) for j in halves] for i in halves]
        (t00, t01), (t10, t11) = self.blocks
        self.conv = _or_table([[1 << c] for c in algebra.converse]).__getitem__

        def comp(x: int, y: int) -> int:
            low = x & m
            lo, hi, yl, yh = low << w, x ^ low, y & m, y >> w
            return t00[lo | yl] | t01[lo | yh] | t10[hi | yl] | t11[hi | yh]

        self.comp = comp

    def row(self, c: int) -> list[int]:
        w = self.w
        return self._spread(c, zip(*self.blocks), lambda t, a: t[a << w : (a + 1) << w])

    def column(self, c: int) -> list[int]:
        return self._spread(c, self.blocks, lambda t, b: t[b :: 1 << self.w])

    def _spread(self, c: int, pairs, part: Callable) -> list[int]:
        """v[z] = low[z & m] | high[z >> w], where each (t0, t1) in pairs
        gives a half vector part(t0, low half of c) | part(t1, high half)."""
        m, w = self.m, self.w
        low, high = (list(map(or_, part(t0, c & m), part(t1, c >> w))) for t0, t1 in pairs)
        return [h | l for h in high[: self.size >> w] for l in low]


def _kernel(algebra: FiniteRelationAlgebra) -> _Direct:
    """Half tables while masks fit their 16-bit entries, else the atom-pair loop."""
    return _HalfTable(algebra) if algebra.atom_count <= 16 else _Direct(algebra)


def _lift(op: Callable[[int, int], int], xv: bool, yv: bool) -> Callable:
    """op on masks, mapped over whichever operands are vectors."""
    if xv and yv:
        return lambda xs, ys: list(map(op, xs, ys))
    if xv:
        return lambda xs, c: list(map(op, xs, repeat(c)))
    if yv:
        return lambda c, ys: list(map(op, repeat(c), ys))
    return op


def _gather(table: list[int], index: list[int]) -> list[int]:
    return list(map(table.__getitem__, index))


class _Node(NamedTuple):
    slot: int
    level: int  # -1: evaluated at compile time
    vector: bool  # holds a list over the vector variable


# one top node for every complement, so no id in _compile's memo is that
# of a node that has died
_TOP = Const("1")


def _compile(
    roots: Sequence[Term],
    order: list[int],
    algebra: FiniteRelationAlgebra,
    kernel: _Direct,
    vector: bool = False,
) -> tuple[list, list[list[tuple]], list[int]]:
    """Compile terms over the variables ``order`` into levelled steps.

    Returns (vals, levels, slots): vals with the variable-free slots
    filled in, levels[i] the steps (slot, fn, a, b) to rerun when order[i]
    changes, children before parents, and the result slot of each root.

    With ``vector`` the last variable holds the list of all elements and
    sets no level: a subterm that uses it is a vector, rerun when an
    earlier variable changes.  c;y over that variable is the table row of
    c and x;c its column, each hoisted to the level of c and gathered at
    the indices the other operand gives.  A root that does not use the
    variable is broadcast to a list, so both sides compare as lists.
    """
    size = algebra.top_mask + 1
    inner = len(order) - 1 if vector and order else None
    vals: list = [0] * len(order)
    if inner is not None:
        vals[inner] = list(range(size))
    levels: list[list[tuple]] = [[] for _ in order]
    position = {v: i for i, v in enumerate(order)}
    constants = {"0": 0, "1": algebra.top_mask, "e": algebra.identity_mask}
    seen: dict[int, _Node] = {}  # by node id, so each distinct node compiles once
    shared: dict = {}  # by class and operand slots, so equal subterms share a slot

    def add(fn, x: _Node, y: _Node, vector: bool) -> _Node:
        level = max(x.level, y.level)
        vals.append(None)
        slot = len(vals) - 1
        if level < 0:
            vals[slot] = fn(vals[x.slot], vals[y.slot])
        else:
            levels[level].append((slot, fn, x.slot, y.slot))
        return _Node(slot, level, vector)

    def node(t: Term) -> _Node:
        out = seen.get(id(t))
        if out is None:
            below = [node(c) for c in _children(t)]
            key = (type(t), *(b.slot for b in below)) if below else t
            out = shared.get(key)
            if out is None:
                out = shared[key] = make(t, *below)
            seen[id(t)] = out
        return out

    def make(t: Term, x: _Node | None = None, y: _Node | None = None) -> _Node:
        if isinstance(t, Var):
            i = position[t.index]
            return _Node(i, -1, True) if i == inner else _Node(i, i, False)
        if isinstance(t, Const):
            vals.append(constants[t.name])
            return _Node(len(vals) - 1, -1, False)
        if isinstance(t, Not):  # x xor top
            return add(_lift(xor, x.vector, False), x, node(_TOP), x.vector)
        if isinstance(t, Conv):
            conv = kernel.conv_all if x.vector else kernel.conv
            return add(lambda v, _: conv(v), x, x, x.vector)
        if isinstance(t, (Join, Meet)):
            op = or_ if isinstance(t, Join) else and_
            return add(_lift(op, x.vector, y.vector), x, y, x.vector or y.vector)
        if x.vector and y.vector:
            return add(kernel.pair, x, y, True)
        if x.vector:  # x;c for each x: the column of c
            column = add(lambda c, _: kernel.column(c), y, y, True)
            return column if x.slot == inner else add(_gather, column, x, True)
        if y.vector:  # c;y for each y: the row of c
            row = add(lambda c, _: kernel.row(c), x, x, True)
            return row if y.slot == inner else add(_gather, row, y, True)
        return add(kernel.comp, x, y, False)

    slots = []
    for root in roots:
        r = node(root)
        if inner is not None and not r.vector:
            r = add(lambda c, _: [c] * size, r, r, True)
        slots.append(r.slot)
    return vals, levels, slots


def _run(vals: list, steps: list[tuple]) -> None:
    for slot, fn, a, b in steps:
        vals[slot] = fn(vals[a], vals[b])


def eval_term(
    t: Term, algebra: FiniteRelationAlgebra, assignment: dict[int, Element]
) -> Element:
    """Evaluate a term under a variable assignment.

    Uses ``algebra.compose_masks`` as its kernel, so it stays an
    independent check on the composition tables ``falsify`` builds.
    """
    order = sorted(variables(t))
    kernel = _Direct(algebra)
    vals, levels, (root,) = _compile((t,), order, algebra, kernel)
    for i, v in enumerate(order):
        if v not in assignment:
            raise ValueError(f"unbound variable x{v}")
        vals[i] = assignment[v].bits
    for steps in levels:
        _run(vals, steps)
    return algebra.element(vals[root])


# -- falsification search ----------------------------------------------------


# The atom rule.  Composition and converse act atomwise for every table,
# so each is additive in each argument, and + is a join.  A side therefore
# preserves nonempty joins in a variable x when x stands under no "-" and
# no "&", and no ";" has x in both operands (there (a+b);(a+b) would add
# the cross products a;b and b;a).  When both sides preserve joins in
# every variable, write each nonzero value as the join of its atoms and
# expand one variable at a time: either side's value under an assignment
# is the join of its values under the assignments of 0 and single atoms
# below it.  So the equation holds exactly when it holds on the (k+1)^m
# assignments over {0} and the k atoms.  falsify evaluates those first,
# and when none separates the sides it returns what the full search
# would: "valid" with tried = |A|^m, or in random mode, where it takes
# the rule only when (k+1)^m <= trials, "unknown" with tried = trials.
# Otherwise, including when an atom assignment separates the sides, the
# full search runs, so every witness and count is the one it finds.  The
# rule could also report "valid" in random mode and decide past the
# exhaustive budget; neither is done, so every verdict stays the one the
# full search gives.

# The orbit rule.  A permutation of the atoms that fixes the identity
# atoms, commutes with converse and maps each table entry a;b to the
# entry at the permuted pair is an automorphism: it commutes with every
# operation and fixes 0, 1 and e, so an equation has the same truth value
# on an assignment and on its image.  Any two atoms of one twin block
# (FiniteRelationAlgebra.twin_blocks) may be swapped, so every permutation
# within the blocks is one, and each orbit of assignments under them
# either falsifies throughout or nowhere.  Call x_i canonical when, in
# each block of the partition that x_1..x_(i-1) refine (a block B splits
# into B&x and B-x), its set bits sit on the lowest atoms.  The least
# member of an orbit in scan order is canonical in every variable:
# among masks with the same number of bits in each block the one on the
# lowest atoms is least (compare the highest bit where two differ), and a
# permutation within the refined blocks fixes x_1..x_(i-1), which are
# unions of those blocks, so a smaller x_i would give a smaller member.
# The exhaustive scan therefore walks only canonical prefixes
# x_1..x_(m-1), in scan order, and keeps the last variable a vector of
# every element.  The scan's first falsifier F is the least member of
# its orbit, so its prefix is canonical, and no prefix before it holds a
# falsifier: the walk stops at F with the same last value, and tried =
# F's position in the full scan + 1, as before.  When no canonical prefix
# holds one, no assignment does, so "valid" keeps tried = |A|^m.  A table
# with no twins has one-atom blocks, where every value is canonical, so
# the same walk is the full scan.  The budget still counts |A|^m.


def _preserves_joins(t: Term) -> bool:
    """Whether t preserves nonempty joins in each of its variables, by
    the atom rule's syntactic test."""
    sets = _variable_sets(t)
    for s in _nodes(t):
        if isinstance(s, (Not, Meet)) and sets[id(s)]:
            return False
        if isinstance(s, Comp) and sets[id(s.left)] & sets[id(s.right)]:
            return False
    return True


class FalsifyResult(NamedTuple):
    """A verdict, its first witness, and in ``tried`` the assignments the
    verdict covers: the witness's position in the scan or draw order, or
    every assignment (exhaustive) or draw (random) when there is none.
    Under the atom rule and the orbit rule fewer are evaluated than
    ``tried`` counts."""

    status: str  # "falsified" | "valid" | "unknown"
    assignment: dict[int, Element] | None
    tried: int
    seed: int | None = None

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"

    def witness_text(self, algebra: FiniteRelationAlgebra) -> str:
        if not self.assignment:
            return self.status.upper()
        parts = [
            f"x{v}={algebra.format_mask(e.bits)}"
            for v, e in sorted(self.assignment.items())
        ]
        return " ".join(parts)


def falsify(
    eq: Equation,
    algebra: FiniteRelationAlgebra,
    *,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 1000,
    budget: int = DEFAULT_FALSIFY_BUDGET,
) -> FalsifyResult:
    """Search for an assignment separating the two sides of an equation.

    Exhaustive mode scans assignments lexicographically (variables in
    index order, elements in increasing bitset value) and returns the
    first witness, or "valid" after a complete scan; it refuses to start
    when |algebra|^(variable count) exceeds the budget.  Random mode
    draws seeded assignments and returns "unknown" if none falsifies; it
    refuses to start when ``trials`` exceeds the budget.  An equation
    whose sides preserve joins is first decided on {0} and the atoms (the
    atom rule above).  Exhaustive mode evaluates only the assignments
    whose prefix is the least of its orbit under the twin-atom swaps (the
    orbit rule above), and returns the witness the full scan would find.
    ``tried`` counts the assignments the verdict covers, not those
    evaluated, and so does the budget.  Both modes evaluate through a kernel
    built once per call, of at most four tables of 2^16 entries, so memory
    is fixed before the search starts.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    order = sorted(variables(eq))
    size = algebra.top_mask + 1
    if mode == "exhaustive" and size ** len(order) > budget:
        raise ResourceBudgetError(
            f"exhaustive search needs {size ** len(order)} assignments, "
            f"budget is {budget}"
        )
    if mode == "random" and trials > budget:
        raise ResourceBudgetError(f"random search asks for {trials} trials, budget is {budget}")
    kernel = _kernel(algebra)

    def witness(masks) -> dict[int, Element]:
        return {v: algebra.element(m) for v, m in zip(order, masks)}

    # The atom rule and random draws evaluate one assignment at a time.
    vals, levels, (lhs, rhs) = _compile((eq.lhs, eq.rhs), order, algebra, kernel)
    steps = [step for level in levels for step in level]

    def separates(masks) -> bool:
        vals[: len(order)] = masks
        _run(vals, steps)
        return vals[lhs] != vals[rhs]

    points = [0] + [1 << a for a in range(algebra.atom_count)]
    if (
        _preserves_joins(eq.lhs)
        and _preserves_joins(eq.rhs)
        and (mode == "exhaustive" or len(points) ** len(order) <= trials)
        and not any(map(separates, product(points, repeat=len(order))))
    ):
        if mode == "random":
            return FalsifyResult("unknown", None, trials, seed)
        return FalsifyResult("valid", None, size ** len(order))

    if mode == "random":
        rng = random.Random(seed)
        for t in range(trials):
            if separates([rng.randrange(size) for _ in order]):
                return FalsifyResult("falsified", witness(vals), t + 1, seed)
        return FalsifyResult("unknown", None, trials, seed)

    # Exhaustive: the last variable is a vector, so each prefix of the
    # others stands for `size` assignments, in scan order, and only the
    # canonical prefixes are walked (the orbit rule).
    vals, levels, (lhs, rhs) = _compile(
        (eq.lhs, eq.rhs), order, algebra, kernel, vector=True
    )
    if not order:
        if vals[lhs] != vals[rhs]:
            return FalsifyResult("falsified", {}, 1)
        return FalsifyResult("valid", None, 1)
    depth = len(order) - 1
    values_of: dict[tuple[int, ...], list[int]] = {}  # canonical values by partition

    def first_falsifier(level: int, partition: tuple[int, ...]) -> int | None:
        """The last value of the scan's first falsifier whose prefix
        extends vals[:level], walking canonical values over the twin
        blocks ``partition`` refines; None when there is none."""
        if level == depth:
            left, right = vals[lhs], vals[rhs]
            return None if left == right else next(j for j in range(size) if left[j] != right[j])
        values = values_of.get(partition)
        if values is None:
            values = values_of[partition] = _canonical_values(partition)
        for value in values:
            vals[level] = value
            _run(vals, levels[level])
            refined = partition  # one atom per block refines no further
            if level + 1 < depth and len(partition) < algebra.atom_count:
                refined = tuple(part for b in partition for part in (b & value, b & ~value) if part)
            j = first_falsifier(level + 1, refined)
            if j is not None:
                return j
        return None

    j = first_falsifier(0, algebra.twin_blocks())
    if j is None:
        return FalsifyResult("valid", None, size ** len(order))
    masks = vals[:depth] + [j]
    position = 0  # of the witness in the scan of all size^m assignments
    for mask in masks:
        position = position * size + mask
    return FalsifyResult("falsified", witness(masks), position + 1)


def _canonical_values(partition: tuple[int, ...]) -> list[int]:
    """Every value whose bits in each block sit on its lowest atoms, in
    increasing order: (s+1) choices for a block of s atoms."""
    values = [0]
    for block in partition:
        lows = [0]
        for a in iter_bits(block):
            lows.append(lows[-1] | 1 << a)
        values = [v | low for v in values for low in lows]
    return sorted(values)
