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
Terms nest at most MAX_TERM_DEPTH levels; the parser refuses deeper ones,
and comparing, hashing, repr, eval_term and falsify refuse deeper terms
built in code.
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
from operator import and_, lshift, or_, xor
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .algebra import Element, FiniteRelationAlgebra, Frozen
from .errors import ParseError, ResourceBudgetError

DEFAULT_FALSIFY_BUDGET = 1 << 24


class _TermNode(Frozen):
    """Immutable, and equal when class and fields are: Not(x) != Conv(x).
    Comparing, hashing, repr, copy and pickle recurse once per level, so
    they raise ValueError past MAX_TERM_DEPTH, a depth counted when the
    node is built."""

    __slots__ = ("depth",)

    def __init__(self, *fields):
        super().__init__(*fields)
        below = [f.depth for f in fields if isinstance(f, _TermNode)]
        object.__setattr__(self, "depth", 1 + max(below, default=0))

    def _key(self) -> tuple:
        if self.depth > MAX_TERM_DEPTH:
            raise ValueError(f"term nests deeper than {MAX_TERM_DEPTH} levels")
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(self.__slots__, self._key())])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()


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
# k, with or without parentheses.  Comparing, hashing, repr and compiling
# recurse once per level, so the parser refuses a deeper term,
# and more than this many pending "(" and prefix "-" (a printed term of
# depth d has fewer than d), with a ParseError at the offending token.
# Both keep every step inside the default recursion limit.  A term built
# in code counts its depth as it is built, and each of those steps
# raises ValueError on it past this depth.
MAX_TERM_DEPTH = 150

# binary operators: symbol -> (binding level, node); all left-associative
_BINARY = {"+": (1, Join), "&": (2, Meet), ";": (3, Comp)}


class _Parser:
    """Recursive descent, checking each node's depth where it is built."""

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

    def parse_binary(self, level: int = 1) -> Term:
        """Operators binding at ``level`` or tighter."""
        t = self.parse_unary()
        while True:
            op = _BINARY.get(self.peek())
            if op is None or op[0] < level:
                return t
            at = self.pos
            self.pos += 1
            t = op[1](t, self.parse_binary(op[0] + 1))
            self.check(t.depth, at)

    def parse_unary(self) -> Term:
        if self.take("-"):
            at = self.pos - 1
            self.pending = self.check(self.pending + 1, at)
            t = Not(self.parse_unary())
            self.pending -= 1
            self.check(t.depth, at)
            return t
        t = self.parse_primary()
        while self.take("~"):
            t = Conv(t)
            self.check(t.depth, self.pos - 1)
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
    out = []
    todo: list = [(t, 0)]  # text, and (term, least level its place binds)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, min_level = item
        level = _LEVEL[type(t)]
        if isinstance(t, Var):
            parts = [f"x{t.index}"]
        elif isinstance(t, Const):
            parts = [t.name]
        elif isinstance(t, Not):
            parts = ["-", (t.arg, 4)]
        elif isinstance(t, Conv):
            parts = [(t.arg, 5), "~"]
        else:  # left-associative: the same level is allowed on the left
            parts = [(t.left, level), _SYMBOL[type(t)], (t.right, level + 1)]
        if level < min_level:
            parts = ["(", *parts, ")"]
        todo += reversed(parts)
    return "".join(out)


def print_equation(eq: Equation) -> str:
    return f"{print_term(eq.lhs)} = {print_term(eq.rhs)}"


# -- structural info ---------------------------------------------------------


def _nodes(*roots: Term) -> Iterator[Term]:
    """Every node of the terms, from a stack rather than by recursion, so
    terms built in code walk at any depth."""
    todo = list(roots)
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, (Not, Conv)):
            todo.append(t.arg)
        elif isinstance(t, (Join, Meet, Comp)):
            todo += (t.right, t.left)


def variables(t: Term | Equation) -> set[int]:
    roots = (t.lhs, t.rhs) if isinstance(t, Equation) else (t,)
    return {s.index for s in _nodes(*roots) if isinstance(s, Var)}


def term_length(t: Term) -> int:
    return sum(1 for _ in _nodes(t))


def equation_length(eq: Equation) -> int:
    """Total operation symbols plus variable occurrences; '=' not counted."""
    return term_length(eq.lhs) + term_length(eq.rhs)


# -- evaluation --------------------------------------------------------------
#
# A term compiles to one step per distinct subterm, vals[slot] =
# fn(vals[a], vals[b]), with slots 0..m-1 holding the variables in index
# order.  Each step sits at the level of the last variable its subterm
# uses, and a search reruns a level's steps only when that variable
# changes.  Composition and converse come from a kernel: falsify builds a
# table-driven one per call, and eval_term calls the algebra's
# compose_masks and converse_mask, which keep no state.

# Entry limit of the composition tables of 16-bit masks.  The full 2^k x 2^k
# table fits up to k = 10 atoms and the four 2^w x 2^w half tables, w =
# ceil(k/2), up to k = 16, where masks outgrow 16 bits; beyond that
# falsify uses the atom-pair loop.
_TABLE_ENTRIES = 1 << 20


class _Direct:
    """comp(x, y) = x;y and conv(x) = x~ on masks, from the algebra's
    compose_masks and converse_mask with no table, extended to whole rows
    and columns of the composition table and to vectors.  The table
    kernels below replace comp and conv and the extensions they speed up."""

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


class _Table(_Direct):
    """The full table: table[x << k | y] = x;y."""

    def __init__(self, algebra: FiniteRelationAlgebra):
        self.size = algebra.top_mask + 1
        self.k = algebra.atom_count
        self.table = _block(algebra.comp)
        self.view = memoryview(self.table)
        self.conv = _or_table([[1 << c] for c in algebra.converse]).__getitem__

    def comp(self, x: int, y: int) -> int:
        return self.table[x << self.k | y]

    def row(self, c: int) -> list[int]:
        return self.view[c * self.size : (c + 1) * self.size].tolist()

    def column(self, c: int) -> list[int]:
        return self.view[c :: self.size].tolist()

    def pair(self, xs: list[int], ys: list[int]) -> list[int]:
        keys = map(or_, map(lshift, xs, repeat(self.k)), ys)
        return list(map(self.table.__getitem__, keys))


class _HalfTable(_Direct):
    """blocks[i][j][a << w | b] = (a << i*w);(b << j*w) over the low w =
    ceil(k/2) atoms (i, j = 0) and the high ones, whose b side is padded
    with empty atoms when k is odd.  x;y is the OR of four lookups, and a row or column of
    the full table spreads two half vectors, each the OR of two slices."""

    def __init__(self, algebra: FiniteRelationAlgebra):
        k, self.size = algebra.atom_count, algebra.top_mask + 1
        w = self.w = (k + 1) // 2
        m = self.m = (1 << w) - 1
        rows = [row + (0,) * (2 * w - k) for row in algebra.comp]
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
    """The largest composition kernel whose tables fit _TABLE_ENTRIES."""
    k = algebra.atom_count
    if 1 << 2 * k <= _TABLE_ENTRIES:
        return _Table(algebra)
    if k <= 16 and 4 << 2 * ((k + 1) // 2) <= _TABLE_ENTRIES:
        return _HalfTable(algebra)
    return _Direct(algebra)


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
    A term deeper than MAX_TERM_DEPTH raises ValueError when its root is
    hashed, before any step is built.
    """
    size = algebra.top_mask + 1
    inner = len(order) - 1 if vector and order else None
    vals: list = [0] * len(order)
    if inner is not None:
        vals[inner] = list(range(size))
    levels: list[list[tuple]] = [[] for _ in order]
    position = {v: i for i, v in enumerate(order)}
    constants = {"0": 0, "1": algebra.top_mask, "e": algebra.identity_mask}
    memo: dict[Term, _Node] = {}

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
        if t in memo:
            return memo[t]
        if isinstance(t, Var):
            i = position[t.index]
            out = _Node(i, -1, True) if i == inner else _Node(i, i, False)
        elif isinstance(t, Const):
            vals.append(constants[t.name])
            out = _Node(len(vals) - 1, -1, False)
        elif isinstance(t, Not):  # x xor top
            x = node(t.arg)
            out = add(_lift(xor, x.vector, False), x, node(Const("1")), x.vector)
        elif isinstance(t, Conv):
            x = node(t.arg)
            conv = kernel.conv_all if x.vector else kernel.conv
            out = add(lambda v, _: conv(v), x, x, x.vector)
        elif isinstance(t, (Join, Meet)):
            x, y = node(t.left), node(t.right)
            op = or_ if isinstance(t, Join) else and_
            out = add(_lift(op, x.vector, y.vector), x, y, x.vector or y.vector)
        else:
            x, y = node(t.left), node(t.right)
            if x.vector and y.vector:
                out = add(kernel.pair, x, y, True)
            elif x.vector:  # x;c for each x: the column of c
                column = add(lambda c, _: kernel.column(c), y, y, True)
                out = column if x.slot == inner else add(_gather, column, x, True)
            elif y.vector:  # c;y for each y: the row of c
                row = add(lambda c, _: kernel.row(c), x, x, True)
                out = row if y.slot == inner else add(_gather, row, y, True)
            else:
                out = add(kernel.comp, x, y, False)
        memo[t] = out
        return out

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


class FalsifyResult(NamedTuple):
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
    draws seeded assignments and returns "unknown" if none falsifies.
    Both evaluate through a kernel built once per call within
    _TABLE_ENTRIES, so memory is fixed before the search starts.
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
    kernel = _kernel(algebra)

    def witness(masks) -> dict[int, Element]:
        return {v: algebra.element(m) for v, m in zip(order, masks)}

    if mode == "random":
        vals, levels, (lhs, rhs) = _compile((eq.lhs, eq.rhs), order, algebra, kernel)
        steps = [step for level in levels for step in level]
        rng = random.Random(seed)
        for t in range(trials):
            vals[: len(order)] = [rng.randrange(size) for _ in order]
            _run(vals, steps)
            if vals[lhs] != vals[rhs]:
                return FalsifyResult("falsified", witness(vals), t + 1, seed)
        return FalsifyResult("unknown", None, trials, seed)

    # Exhaustive: the last variable is a vector, so each prefix of the
    # others stands for `size` assignments, in scan order.
    vals, levels, (lhs, rhs) = _compile(
        (eq.lhs, eq.rhs), order, algebra, kernel, vector=True
    )
    if not order:
        if vals[lhs] != vals[rhs]:
            return FalsifyResult("falsified", {}, 1)
        return FalsifyResult("valid", None, 1)
    depth = len(order) - 1
    for prefix, combo in enumerate(product(range(size), repeat=depth)):
        # the odometer moved its last digit and each digit before it that wrapped
        first = depth - 1
        while first > 0 and combo[first] == 0:
            first -= 1
        for level in range(max(first, 0), depth):
            vals[level] = combo[level]
            _run(vals, levels[level])
        left, right = vals[lhs], vals[rhs]
        if left != right:
            j = next(j for j in range(size) if left[j] != right[j])
            return FalsifyResult(
                "falsified", witness(combo + (j,)), prefix * size + j + 1
            )
    return FalsifyResult("valid", None, size ** len(order))
