"""Known answers for the benchmark, computed without importing relalg.

Everything here is derived from the facts stated in PAPER.md: the atom
order and the five composition rules of L(p,n), the affine-plane labeling
over a prime field, and the term grammar of `relalg falsify`.  The
benchmark uses these to judge the program's verdicts, so a wrong answer
from the code under test cannot also bend the check.
"""

from __future__ import annotations

import re


# -- the L(p,n) atom structure ---------------------------------------------


def lpn_atom_names(p: int, n: int) -> list[str]:
    return ["1'"] + [f"a{i}" for i in range(p + 1)] + [f"t{k}" for k in range(1, n + 1)]


def lpn_comp_table(p: int, n: int) -> list[list[int]]:
    """Atom composition of L(p,n) from the five rules of PAPER.md."""
    k = p + n + 2
    ident = 1
    a_all = ((1 << (p + 1)) - 1) << 1
    t_all = ((1 << n) - 1) << (p + 2)
    slope = [1 << (1 + i) for i in range(p + 1)]
    table = [[0] * k for _ in range(k)]
    for x in range(k):
        table[0][x] = table[x][0] = 1 << x  # 1' is the identity
    for i, ai in enumerate(slope):
        for j, aj in enumerate(slope):
            table[1 + i][1 + j] = ident | ai if i == j else a_all & ~ai & ~aj
        for j in range(n):
            table[1 + i][p + 2 + j] = table[p + 2 + j][1 + i] = t_all
    for i in range(n):
        for j in range(n):
            table[p + 2 + i][p + 2 + j] = ident | a_all if i == j else a_all
    return table


class Lpn:
    """Element-level operations of L(p,n) on atom bitmasks."""

    def __init__(self, p: int, n: int):
        self.names = lpn_atom_names(p, n)
        self.top = (1 << len(self.names)) - 1
        self.table = lpn_comp_table(p, n)
        self._memo: dict[tuple[int, int], int] = {}

    def compose(self, x: int, y: int) -> int:
        key = (x, y)
        out = self._memo.get(key)
        if out is None:
            out = 0
            for a in range(len(self.names)):
                if x >> a & 1:
                    for b in range(len(self.names)):
                        if y >> b & 1:
                            out |= self.table[a][b]
            self._memo[key] = out
        return out

    def parse_mask(self, text: str) -> int:
        if text == "0":
            return 0
        return sum(1 << self.names.index(part) for part in text.split("+"))


# -- terms -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(x\d+|[01e()+&;~=-])")


def parse_equation(text: str):
    """Parse `term = term` into nested tuples; grammar as in README.md."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad term text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    at = [0]

    def peek():
        return tokens[at[0]] if at[0] < len(tokens) else ""

    def take(tok):
        if peek() == tok:
            at[0] += 1
            return True
        return False

    def binary(op, sub):
        def parse():
            t = sub()
            while take(op):
                t = (op, t, sub())
            return t
        return parse

    def unary():
        if take("-"):
            return ("-", unary())
        t = primary()
        while take("~"):
            t = ("~", t)
        return t

    def primary():
        tok = peek()
        at[0] += 1
        if tok == "(":
            t = join()
            if not take(")"):
                raise ValueError("expected ')'")
            return t
        if tok in ("0", "1", "e"):
            return ("const", tok)
        if tok.startswith("x"):
            return ("var", int(tok[1:]))
        raise ValueError(f"unexpected token {tok!r}")

    comp = binary(";", unary)
    meet = binary("&", comp)
    join = binary("+", meet)
    lhs = join()
    if not take("="):
        raise ValueError("expected '='")
    rhs = join()
    if peek():
        raise ValueError("trailing input")
    return lhs, rhs


def term_vars(t) -> set[int]:
    if t[0] == "var":
        return {t[1]}
    if t[0] == "const":
        return set()
    return set().union(*(term_vars(s) for s in t[1:]))


def evaluate(t, alg: Lpn, env: dict[int, int]) -> int:
    op = t[0]
    if op == "var":
        return env[t[1]]
    if op == "const":
        return {"0": 0, "1": alg.top, "e": 1}[t[1]]
    if op == "-":
        return alg.top ^ evaluate(t[1], alg, env)
    if op == "~":  # L(p,n) is symmetric: every atom is its own converse
        return evaluate(t[1], alg, env)
    x, y = evaluate(t[1], alg, env), evaluate(t[2], alg, env)
    if op == "+":
        return x | y
    if op == "&":
        return x & y
    return alg.compose(x, y)


def first_witness(equation: str, alg: Lpn, limit: int):
    """Lexicographically first falsifying assignment within `limit` tries.

    Returns (tried, {var: mask}) or None; the scan order is the one
    `relalg falsify` documents: variables by index, elements by mask.
    """
    lhs, rhs = parse_equation(equation)
    names = sorted(term_vars(lhs) | term_vars(rhs))
    size = alg.top + 1
    for tried in range(1, limit + 1):
        rest, env = tried - 1, {}
        for v in reversed(names):
            rest, env[v] = divmod(rest, size)
        if rest:
            return None
        if evaluate(lhs, alg, env) != evaluate(rhs, alg, env):
            return tried, env
    return None


# -- affine planes over prime fields -----------------------------------------


def affine_label(q: int, u: int, v: int) -> int:
    """Atom index of the pair (u,v) in the affine plane over GF(q), q prime.

    Point (x1,x2) has index x1*q + x2; the pair lies on a line of slope
    s = dy/dx, labeled a_s (atom 1+s), or a_q when dx = 0; the diagonal
    is the identity (atom 0).
    """
    if u == v:
        return 0
    (x1, x2), (y1, y2) = divmod(u, q), divmod(v, q)
    dx, dy = (y1 - x1) % q, (y2 - x2) % q
    slope = q if dx == 0 else dy * pow(dx, q - 2, q) % q
    return 1 + slope


def failure_bound(p: int, n: int, d: int, k: int) -> float:
    """Union bound on a missing W1 or W2 witness (relalg.xi docstring)."""
    return 2 * d * (d - 1) * n * n * ((n * n - 1) / (n * n)) ** d + 2 * (
        p + 1
    ) * d * d * n * ((n - 1) / n) ** k
