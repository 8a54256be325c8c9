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

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Union

from .algebra import Element, FiniteRelationAlgebra
from .errors import ParseError, ResourceBudgetError

DEFAULT_FALSIFY_BUDGET = 1 << 24


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    name: str  # "0", "1", or "e"


@dataclass(frozen=True)
class Not:
    arg: "Term"


@dataclass(frozen=True)
class Conv:
    arg: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Comp:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Not, Conv, Join, Meet, Comp]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


# -- parsing -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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

    def parse_sum(self) -> Term:
        t = self.parse_meet()
        while self.take("+"):
            t = Join(t, self.parse_meet())
        return t

    def parse_meet(self) -> Term:
        t = self.parse_comp()
        while self.take("&"):
            t = Meet(t, self.parse_comp())
        return t

    def parse_comp(self) -> Term:
        t = self.parse_unary()
        while self.take(";"):
            t = Comp(t, self.parse_unary())
        return t

    def parse_unary(self) -> Term:
        if self.take("-"):
            return Not(self.parse_unary())
        t = self.parse_primary()
        while self.take("~"):
            t = Conv(t)
        return t

    def parse_primary(self) -> Term:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            t = self.parse_sum()
            if not self.take(")"):
                raise self.error("expected ')'")
            return t
        if ch and ch in "01e":
            self.pos += 1
            return Const(ch)
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
    t = p.parse_sum()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input after term")
    return t


def parse_equation(text: str) -> Equation:
    p = _Parser(text)
    lhs = p.parse_sum()
    if not p.take("="):
        raise p.error("expected '=' between terms")
    rhs = p.parse_sum()
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


def _print_term(t: Term, min_level: int) -> str:
    level = _LEVEL[type(t)]
    if isinstance(t, Var):
        s = f"x{t.index}"
    elif isinstance(t, Const):
        s = t.name
    elif isinstance(t, Not):
        s = "-" + _print_term(t.arg, 4)
    elif isinstance(t, Conv):
        s = _print_term(t.arg, 5) + "~"
    else:
        op = {Join: "+", Meet: "&", Comp: ";"}[type(t)]
        s = (
            _print_term(t.left, level)  # left-associative: same level allowed
            + op
            + _print_term(t.right, level + 1)
        )
    return f"({s})" if level < min_level else s


def print_term(t: Term) -> str:
    return _print_term(t, 0)


def print_equation(eq: Equation) -> str:
    return f"{print_term(eq.lhs)} = {print_term(eq.rhs)}"


# -- structural info ---------------------------------------------------------


def variables(t: Term | Equation) -> set[int]:
    if isinstance(t, Equation):
        return variables(t.lhs) | variables(t.rhs)
    if isinstance(t, Var):
        return {t.index}
    if isinstance(t, Const):
        return set()
    if isinstance(t, (Not, Conv)):
        return variables(t.arg)
    return variables(t.left) | variables(t.right)


def term_length(t: Term) -> int:
    if isinstance(t, (Var, Const)):
        return 1
    if isinstance(t, (Not, Conv)):
        return 1 + term_length(t.arg)
    return 1 + term_length(t.left) + term_length(t.right)


def equation_length(eq: Equation) -> int:
    """Total operation symbols plus variable occurrences; '=' not counted."""
    return term_length(eq.lhs) + term_length(eq.rhs)


# -- evaluation --------------------------------------------------------------


def eval_term(
    t: Term, algebra: FiniteRelationAlgebra, assignment: dict[int, Element]
) -> Element:
    """Evaluate a term under a variable assignment."""
    return algebra.element(_compile(t, algebra)(_assignment_masks(t, assignment)))


def _assignment_masks(t: Term, assignment: dict[int, Element]) -> dict[int, int]:
    masks = {}
    for v in variables(t):
        if v not in assignment:
            raise ValueError(f"unbound variable x{v}")
        masks[v] = assignment[v].bits
    return masks


def _compile(
    t: Term, algebra: FiniteRelationAlgebra
) -> Callable[[dict[int, int]], int]:
    """Compile a term to a mask-level evaluator (used by the search loop)."""
    top = algebra.top_mask
    comp = algebra.compose_masks
    conv = algebra.converse_mask
    if isinstance(t, Var):
        idx = t.index
        return lambda env: env[idx]
    if isinstance(t, Const):
        val = {"0": 0, "1": top, "e": algebra.identity_mask}[t.name]
        return lambda env: val
    if isinstance(t, Not):
        f = _compile(t.arg, algebra)
        return lambda env: f(env) ^ top
    if isinstance(t, Conv):
        f = _compile(t.arg, algebra)
        return lambda env: conv(f(env))
    f = _compile(t.left, algebra)
    g = _compile(t.right, algebra)
    if isinstance(t, Join):
        return lambda env: f(env) | g(env)
    if isinstance(t, Meet):
        return lambda env: f(env) & g(env)
    return lambda env: comp(f(env), g(env))


# -- falsification search ----------------------------------------------------


@dataclass
class FalsifyResult:
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
    """
    vars_sorted = sorted(variables(eq))
    lhs = _compile(eq.lhs, algebra)
    rhs = _compile(eq.rhs, algebra)
    size = algebra.top_mask + 1

    if mode == "exhaustive":
        total = size ** len(vars_sorted)
        if total > budget:
            raise ResourceBudgetError(
                f"exhaustive search needs {total} assignments, budget is {budget}"
            )
        tried = 0
        env: dict[int, int] = {}
        for combo in itertools.product(range(size), repeat=len(vars_sorted)):
            tried += 1
            for v, m in zip(vars_sorted, combo):
                env[v] = m
            if lhs(env) != rhs(env):
                assignment = {
                    v: algebra.element(m) for v, m in zip(vars_sorted, combo)
                }
                return FalsifyResult("falsified", assignment, tried)
        return FalsifyResult("valid", None, tried)

    if mode == "random":
        rng = random.Random(seed)
        env = {}
        for t in range(trials):
            combo = [rng.randrange(size) for _ in vars_sorted]
            for v, m in zip(vars_sorted, combo):
                env[v] = m
            if lhs(env) != rhs(env):
                assignment = {
                    v: algebra.element(m) for v, m in zip(vars_sorted, combo)
                }
                return FalsifyResult("falsified", assignment, t + 1, seed)
        return FalsifyResult("unknown", None, trials, seed)

    raise ValueError(f"unknown mode {mode!r}")
