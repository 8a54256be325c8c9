import copy
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import relalg
from relalg import build_lpn, check_axioms, check_embedding, generate_subalgebra, terms
from relalg.algebra import Embedding, FiniteRelationAlgebra
from relalg.errors import ParseError, ResourceBudgetError
from relalg.fileformat import save_algebra
from relalg.terms import (
    MAX_TERM_DEPTH,
    Comp,
    Const,
    Conv,
    Equation,
    Join,
    Meet,
    Not,
    Var,
    equation_length,
    eval_term,
    falsify,
    parse,
    parse_equation,
    parse_term,
    print_equation,
    print_term,
    variables,
)

from oracles import full_subalgebra


def test_parse_identity_law():
    eq = parse("x1 ; e = x1")
    assert eq == Equation(Comp(Var(1), Const("e")), Var(1))


def test_parse_de_morgan():
    eq = parse("-(x1 + x2) = -x1 & -x2")
    assert eq == Equation(
        Not(Join(Var(1), Var(2))), Meet(Not(Var(1)), Not(Var(2)))
    )


def test_parse_triangle_law_shape():
    eq = parse("x1~ ; -(x1 ; x2) + -x2 = -x2")
    assert eq == Equation(
        Join(Comp(Conv(Var(1)), Not(Comp(Var(1), Var(2)))), Not(Var(2))),
        Not(Var(2)),
    )


def test_precedence_loosest_to_tightest():
    # + is loosest, then &, then ;
    t = parse_term("x1+x2&x3;x4")
    assert t == Join(Var(1), Meet(Var(2), Comp(Var(3), Var(4))))


def test_term_nodes_compare_by_class_and_fields():
    x = Var(1)
    # as tuples these would be equal: each pair holds the same fields
    assert Not(x) != Conv(x)
    assert Join(x, x) != Meet(x, x) and Meet(x, x) != Comp(x, x)
    assert Not(x) == Not(Var(1)) and hash(Not(x)) == hash(Not(Var(1)))
    assert repr(Not(x)) == "Not(arg=Var(index=1))"
    nodes = [(x, "index"), (Const("e"), "name"), (Not(x), "arg"), (Conv(x), "arg"),
             (Join(x, x), "left"), (Meet(x, x), "right"), (Comp(x, x), "left"),
             (Equation(x, x), "rhs")]
    for node, name in nodes:
        with pytest.raises(AttributeError):
            setattr(node, name, x)


def test_unary_binding():
    assert parse_term("-x1~") == Not(Conv(Var(1)))
    assert parse_term("(-x1)~") == Conv(Not(Var(1)))
    assert parse_term("x1~~") == Conv(Conv(Var(1)))
    assert parse_term("--x1") == Not(Not(Var(1)))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_term("x1 + ")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_term("(x1")
    with pytest.raises(ParseError):
        parse_term("x0")
    with pytest.raises(ParseError):
        parse_equation("x1 + x2")
    with pytest.raises(ParseError):
        parse_term("x1 ? x2")


def _right_comp(depth):
    text = "x1;x1" if depth > 1 else "x1"
    for _ in range(depth - 2):
        text = f"x1;({text})"
    return text


# Terms of a given tree depth; "parens" has depth 1 under `depth` pairs of
# parentheses, which the parser's own recursion counts against the limit.
DEEP = {
    "comp-chain": lambda d: "x1" + ";x1" * (d - 1),  # left-associative, no parentheses
    "join-chain": lambda d: "x1" + "+x2" * (d - 1),
    "converse": lambda d: "x1" + "~" * (d - 1),
    "complement": lambda d: "-" * (d - 1) + "x1",
    "right-comp": _right_comp,
    "mixed": lambda d: "-" * (d - 4) + "(x1;(x2+x1~))",
    "parens": lambda d: "(" * d + "x1" + ")" * d,
}


def _tree_depth(t):
    """Nodes on the longest root-to-leaf path, without recursion."""
    deepest, stack = 0, [(t, 1)]
    while stack:
        t, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(t, (Not, Conv)):
            stack.append((t.arg, depth + 1))
        elif isinstance(t, (Join, Meet, Comp)):
            stack += [(t.left, depth + 1), (t.right, depth + 1)]
    return deepest


@pytest.mark.parametrize("shape", DEEP)
def test_term_at_depth_limit_is_accepted(shape):
    text = DEEP[shape](MAX_TERM_DEPTH)
    t = parse(text)
    assert _tree_depth(t) == (1 if shape == "parens" else MAX_TERM_DEPTH)
    printed = print_term(t)
    assert printed == ("x1" if shape == "parens" else text)
    assert parse(printed) == t
    eq = parse_equation(f"{text} = x1")
    assert equation_length(eq) == sum(map(text.count, "x-~;+&")) + 1
    l31 = build_lpn(3, 1)
    result = falsify(eq, l31)
    if result.falsified:
        assert eval_term(t, l31, result.assignment) != result.assignment[1]
    else:
        assert result.status == "valid"


@pytest.mark.parametrize("shape", DEEP)
def test_term_past_depth_limit_is_refused(shape):
    text = DEEP[shape](MAX_TERM_DEPTH + 1)
    with pytest.raises(ParseError, match="deeper than") as err:
        parse(f"{text} = x1")
    assert text[err.value.position] in "(-~;+&"  # the operator one level too deep


@pytest.mark.parametrize(
    "lhs",
    [
        "(" * 900 + "x1" + ")" * 900,
        "x1" + ";x1" * 3000,
        "x1" + "~" * 2000,
        "-" * 3000 + "x1",
        *(DEEP[shape](MAX_TERM_DEPTH + 1) for shape in DEEP),
    ],
    ids=["900-parens", "3000-comps", "2000-converses", "3000-complements",
         *(f"{shape}-limit+1" for shape in DEEP)],
)
def test_cli_refuses_deep_term_with_parse_error(tmp_path, lhs):
    save_algebra(build_lpn(3, 1), str(tmp_path / "l31.ra"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(relalg.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "relalg", "falsify", "l31.ra", f"{lhs} = x1"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 3
    assert out.stderr.startswith("parse error: term nests deeper than")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text", ["x\u00b2 = x1", "x1 = x\uff11", "x\u0661", "x1\u00b2"])
def test_variable_index_takes_ascii_digits_only(text):
    # superscript, fullwidth and Arabic-Indic digits are not indices
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "canonical",
    [
        "x1;e = x1",
        "-(x1+x2) = -x1&-x2",
        "x1~;-(x1;x2)+-x2 = -x2",
        "(x1+x2)&x3 = x1&x3+x2&x3",
        "x1;(x2;x3) = x1;x2;x3",
        "(-x1)~ = -x1~",
        "0+1&e = e",
    ],
)
def test_print_parse_round_trip_on_canonical_strings(canonical):
    assert print_equation(parse_equation(canonical)) == canonical


_terms = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=1, max_value=3).map(Var),
        st.sampled_from(["0", "1", "e"]).map(Const),
        _terms.map(Not),
        _terms.map(Conv),
        st.tuples(_terms, _terms).map(lambda lr: Join(*lr)),
        st.tuples(_terms, _terms).map(lambda lr: Meet(*lr)),
        st.tuples(_terms, _terms).map(lambda lr: Comp(*lr)),
    )
)


@given(_terms)
def test_parse_print_round_trip_on_asts(t):
    assert parse_term(print_term(t)) == t


@given(_terms, _terms)
def test_equation_round_trip(lhs, rhs):
    eq = Equation(lhs, rhs)
    assert parse_equation(print_equation(eq)) == eq


def _code_built(depth):
    """Left and right Comp chains and Not and Conv chains of a tree depth."""
    x = Var(1)
    left = right = neg = conv = x
    for _ in range(depth - 1):
        left, right, neg, conv = Comp(left, x), Comp(x, right), Not(neg), Conv(conv)
    return {"left-comp": left, "right-comp": right, "complement": neg, "converse": conv}


def test_walks_terms_built_past_the_depth_limit():
    # built in code, not parsed: 1,501 operands or 1,500 unary levels
    k = 1500
    built = _code_built(k + 1)
    for shape, text, length in (
        ("left-comp", "x1" + ";x1" * k, 2 * k + 1),
        ("right-comp", "x1;(" * (k - 1) + "x1;x1" + ")" * (k - 1), 2 * k + 1),
        ("complement", "-" * k + "x1", k + 1),
        ("converse", "x1" + "~" * k, k + 1),
    ):
        t = built[shape]
        assert print_term(t) == text
        assert equation_length(Equation(t, Var(2))) == length + 1
        assert variables(t) == {1}
        assert variables(Equation(Var(2), t)) == {1, 2}


@pytest.mark.parametrize("shape", ["left-comp", "right-comp", "complement", "converse"])
def test_code_built_terms_compare_hash_and_repr_or_refuse(shape):
    # two separately built equal terms, so == walks both
    a, b = _code_built(MAX_TERM_DEPTH)[shape], _code_built(MAX_TERM_DEPTH)[shape]
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.depth == MAX_TERM_DEPTH
    # copy and pickle round-trip, and rebuild the depth they do not store
    eq = Equation(a, Var(2))
    for twin in (copy.deepcopy(eq), pickle.loads(pickle.dumps(eq))):
        assert twin == eq and twin.lhs is not a and twin.lhs.depth == MAX_TERM_DEPTH
    for depth in (MAX_TERM_DEPTH + 1, 1501):
        a, b = _code_built(depth)[shape], _code_built(depth)[shape]
        assert a.depth == depth
        for op in (hash, repr, lambda t: t == b, lambda t: {t}, copy.deepcopy, pickle.dumps,
                   lambda t: pickle.dumps(Equation(Var(1), t))):
            with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
                op(a)


@pytest.mark.parametrize("shape", ["left-comp", "right-comp", "complement", "converse"])
def test_evaluation_refuses_code_built_terms_past_the_depth_limit(shape):
    l31 = build_lpn(3, 1)
    a0 = {1: l31.parse_element("a0")}
    t = _code_built(MAX_TERM_DEPTH)[shape]
    assert eval_term(t, l31, a0).algebra is l31
    result = falsify(Equation(t, Var(1)), l31)
    assert result.status == "valid" or eval_term(t, l31, result.assignment) != result.assignment[1]
    assert falsify(Equation(Var(1), t), l31, mode="random", trials=5).tried >= 1
    for depth in (MAX_TERM_DEPTH + 1, 1501):
        t = _code_built(depth)[shape]
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
            eval_term(t, l31, a0)
        for eq in (Equation(t, Var(1)), Equation(Var(1), t)):
            for mode in ("exhaustive", "random"):
                with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
                    falsify(eq, l31, mode=mode)


def test_equation_length_examples():
    assert equation_length(parse_equation("(x1+x2)&x3 = x1&x3 + x2&x3")) == 12
    assert equation_length(parse_equation("x1 = x1")) == 2
    # constants count as operation symbols, '=' does not: x1, ;, e | x1
    assert equation_length(parse_equation("x1;e = x1")) == 4
    assert equation_length(parse_equation("x1~ = -0")) == 4


# -- evaluation ----------------------------------------------------------------


def test_eval_examples(l32):
    a0 = l32.parse_element("a0")
    t1 = l32.parse_element("t1")
    assert eval_term(parse_term("x1;e"), l32, {1: a0}) == a0
    assert eval_term(parse_term("x1;x1"), l32, {1: t1}) == l32.parse_element(
        "1'+a0+a1+a2+a3"
    )
    with pytest.raises(ValueError):
        eval_term(parse_term("x1;x2"), l32, {1: a0})


@given(_terms, st.data())
def test_eval_is_homomorphic_in_structure(t, data):
    alg = build_lpn(3, 1)
    vs = sorted(variables(t)) or [1]
    asg = {
        v: alg.element(data.draw(st.integers(min_value=0, max_value=alg.top_mask)))
        for v in vs
    }
    if isinstance(t, (Join, Meet, Comp)):
        left = eval_term(t.left, alg, asg)
        right = eval_term(t.right, alg, asg)
        whole = eval_term(t, alg, asg)
        op = {Join: "join", Meet: "meet", Comp: "compose"}[type(t)]
        assert whole == getattr(left, op)(right)
    elif isinstance(t, Not):
        assert eval_term(t, alg, asg) == ~eval_term(t.arg, alg, asg)
    elif isinstance(t, Conv):
        assert eval_term(t, alg, asg) == eval_term(t.arg, alg, asg).converse()


@given(st.data())
def test_eval_absorbs_into_generated_subalgebra(data):
    # assignments into a generated subalgebra evaluate inside it
    from relalg import generate_subalgebra

    alg = build_lpn(3, 2)
    gen = alg.element(data.draw(st.integers(min_value=1, max_value=alg.top_mask)))
    sub = generate_subalgebra(alg, [gen])
    masks = sorted(sub.element_masks())
    t = data.draw(_terms)
    asg = {
        v: alg.element(masks[data.draw(st.integers(min_value=0, max_value=len(masks) - 1))])
        for v in sorted(variables(t)) or [1]
    }
    assert sub.contains(eval_term(t, alg, asg))


# -- falsification -------------------------------------------------------------


def test_falsify_first_witness_is_frozen(l32):
    # scan order: elements by increasing bitset value; masks 0 (zero) and
    # 1 (identity) satisfy x;x = x, mask 2 (a0) is the first failure
    res = falsify(parse_equation("x1;x1 = x1"), l32)
    assert res.falsified
    assert res.assignment[1] == l32.parse_element("a0")
    assert res.tried == 3


def test_falsify_keeps_complement_and_converse_apart():
    # the compile memo is keyed by node: were Not(x1) == Conv(x1), both
    # sides would share one slot and the equation would read as valid
    l31 = build_lpn(3, 1)
    res = falsify(parse_equation("-x1 = x1~"), l31)
    assert res.falsified and res.tried == 1
    assert res.witness_text(l31) == "x1=0"


def test_falsify_axioms_valid(l32):
    assert falsify(parse_equation("x1;e = x1"), l32).status == "valid"
    l41 = build_lpn(4, 1)
    assert falsify(parse_equation("x1+x2 = x2+x1"), l41).status == "valid"


def test_falsify_budget_error(l32):
    with pytest.raises(ResourceBudgetError):
        falsify(parse_equation("x1;x2;x3;x4 = x4;x3;x2;x1"), l32)


def test_falsify_random_mode_deterministic(l32):
    eq = parse_equation("x1;x1 = x1")
    a = falsify(eq, l32, mode="random", seed=11, trials=50)
    b = falsify(eq, l32, mode="random", seed=11, trials=50)
    assert a.assignment == b.assignment and a.tried == b.tried
    valid = falsify(parse_equation("x1;e = x1"), l32, mode="random", seed=3, trials=20)
    assert valid.status == "unknown"


def _evaluate(t, alg, asg):
    """Recursive evaluation on masks with the algebra's compose_masks and
    converse_mask and bit operations: no code shared with terms' compiler."""
    if isinstance(t, Var):
        return asg[t.index]
    if isinstance(t, Const):
        return {"0": 0, "1": alg.top_mask, "e": alg.identity_mask}[t.name]
    if isinstance(t, Not):
        return alg.top_mask ^ _evaluate(t.arg, alg, asg)
    if isinstance(t, Conv):
        return alg.converse_mask(_evaluate(t.arg, alg, asg))
    left, right = _evaluate(t.left, alg, asg), _evaluate(t.right, alg, asg)
    if isinstance(t, Join):
        return left | right
    if isinstance(t, Meet):
        return left & right
    return alg.compose_masks(left, right)


def _nested_loop_oracle(eq, alg):
    """Independent exhaustive check by plain nested loops over masks:
    (status, first witness masks, assignments tried)."""
    vs = sorted(variables(eq))
    tried = 0
    for combo in itertools.product(range(alg.top_mask + 1), repeat=len(vs)):
        tried += 1
        asg = dict(zip(vs, combo))
        if _evaluate(eq.lhs, alg, asg) != _evaluate(eq.rhs, alg, asg):
            return "falsified", asg, tried
    return "valid", None, tried


def _outcome(res):
    witness = None if res.assignment is None else {
        v: e.bits for v, e in res.assignment.items()
    }
    return res.status, witness, res.tried


@given(_terms, _terms)
def test_falsify_matches_nested_loop_oracle(lhs, rhs):
    alg = build_lpn(3, 0)
    eq = Equation(lhs, rhs)
    if len(variables(eq)) > 2:
        return  # keep the oracle affordable
    assert _outcome(falsify(eq, alg)) == _nested_loop_oracle(eq, alg)


def _complex_algebra_s3():
    """Cm(S3): atoms are the six permutations of {0,1,2}, a;b the product
    and a~ the inverse, so the algebra is neither commutative nor symmetric."""
    perms = sorted(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(perms)}

    def inverse(g):
        return tuple(sorted(range(3), key=g.__getitem__))

    comp = [[1 << index[tuple(g[h[i]] for i in range(3))] for h in perms] for g in perms]
    alg = FiniteRelationAlgebra(
        [f"g{i}" for i in range(6)],
        [index[(0, 1, 2)]],
        [index[inverse(g)] for g in perms],
        comp,
        name="Cm(S3)",
    )
    assert not alg.is_commutative and not alg.is_symmetric
    return alg


# (p, n, equation, status): every variable count sees both verdicts
_STAGED_CASES = [
    (3, 0, "-0 = 1", "valid"),
    (3, 1, "e = 1", "falsified"),
    (3, 0, "x1;e = x1", "valid"),
    (3, 1, "x1~ = x1", "valid"),
    (3, 0, "x1;x1 = x1", "falsified"),
    (3, 1, "e&x1 = x1;0", "falsified"),
    (3, 0, "x1~;-(x1;x2)+-x2 = -x2", "valid"),
    (3, 1, "x1;x2 = x2;x1", "valid"),
    (3, 0, "x2;x1 = x1", "falsified"),
    (3, 1, "x1&-x2 = x2;e", "falsified"),
    (3, 0, "x1;(x2;x3) = (x1;x2);x3", "valid"),
    (3, 0, "x3&x1 = x3;x2", "falsified"),
    (3, 1, "x1;(x2&x3) = (x1;x2)&(x1;x3)", "falsified"),
    (3, 1, "-x3~;x1 = x2+x3", "falsified"),
]


@pytest.mark.parametrize("p,n,text,status", _STAGED_CASES)
def test_staged_falsify_matches_nested_loop(p, n, text, status):
    alg = build_lpn(p, n)
    eq = parse_equation(text)
    got = _outcome(falsify(eq, alg))
    assert got[0] == status
    assert got == _nested_loop_oracle(eq, alg)


# x2 is the vector variable, so x2;x1, x2~;x1 and x2~;x1~ take the column path
_S3_CASES = [
    ("e~ = e", "valid"),
    ("1;1 = e", "falsified"),
    ("x1~~ = x1", "valid"),
    ("x1;x1~ = x1~;x1", "falsified"),
    ("(x1;x2)~ = x2~;x1~", "valid"),
    ("x2;x1 = x1;x2", "falsified"),
    ("x2~;x1 = (x1~;x2)~", "valid"),
    ("x1;x2;x3 = x3;x2;x1", "falsified"),
]


@pytest.mark.parametrize("entries,kind", [(1 << 20, "_Table"), (1000, "_HalfTable"), (100, "_Direct")])
@pytest.mark.parametrize("text,status", _S3_CASES)
def test_staged_falsify_noncommutative(monkeypatch, entries, kind, text, status):
    alg = _complex_algebra_s3()
    monkeypatch.setattr(terms, "_TABLE_ENTRIES", entries)
    assert type(terms._kernel(alg)).__name__ == kind
    eq = parse_equation(text)
    got = _outcome(falsify(eq, alg))
    assert got[0] == status
    assert got == _nested_loop_oracle(eq, alg)


@pytest.mark.parametrize("kind", [terms._Table, terms._HalfTable])
def test_kernel_tables_match_compose_masks(kind):
    alg = _complex_algebra_s3()
    kernel = kind(alg)
    elements = range(alg.top_mask + 1)
    for c in elements:
        assert kernel.row(c) == [alg.compose_masks(c, y) for y in elements]
        assert kernel.column(c) == [alg.compose_masks(x, c) for x in elements]
        assert kernel.conv(c) == alg.converse_mask(c)
    assert kernel.pair(list(elements), list(reversed(elements))) == [
        alg.compose_masks(x, alg.top_mask - x) for x in elements
    ]


def _random_table_algebra(k, seed):
    """k atoms with a seeded composition table, neither commutative nor
    symmetric: the kernels only OR table entries, so no axiom is needed."""
    rng = random.Random(seed)
    converse = [0] + [i + 1 if i % 2 else i - 1 for i in range(1, k)]  # 1<->2, 3<->4, ...
    if k % 2 == 0:
        converse[-1] = k - 1
    comp = [[rng.randrange(1 << k) for _ in range(k)] for _ in range(k)]
    alg = FiniteRelationAlgebra([f"g{i}" for i in range(k)], [0], converse, comp)
    assert not alg.is_commutative and not alg.is_symmetric
    return alg


# 11, 14, 15 and 16 atoms, and 13 atoms that tell x;y from y;x
_HALF_TABLE_ALGEBRAS = {
    "L(7,2)": lambda: build_lpn(7, 2),
    "L(9,3)": lambda: build_lpn(9, 3),
    "L(11,2)": lambda: build_lpn(11, 2),
    "L(11,3)": lambda: build_lpn(11, 3),
    "noncommutative-13": lambda: _random_table_algebra(13, 5),
}


@pytest.mark.parametrize("name", list(_HALF_TABLE_ALGEBRAS))
def test_half_table_kernel_matches_compose_masks(name):
    # odd atom counts pad the high half; the top elements use its last atoms
    alg = _HALF_TABLE_ALGEBRAS[name]()
    atoms = alg.atom_count
    kernel = terms._kernel(alg)
    assert type(kernel) is terms._HalfTable
    top = alg.top_mask
    rng = random.Random(atoms)
    xs = [0, 1, top, top >> 1, 1 << atoms - 1] + [rng.randrange(top + 1) for _ in range(300)]
    ys = [top, 1 << atoms - 1, 0, 1, top >> 1] + [rng.randrange(top + 1) for _ in range(300)]
    assert [kernel.comp(x, y) for x, y in zip(xs, ys)] == list(map(alg.compose_masks, xs, ys))
    assert kernel.pair(xs, ys) == list(map(alg.compose_masks, xs, ys))
    assert kernel.conv_all(xs) == list(map(alg.converse_mask, xs))
    # every element on 11 atoms, a sample on more
    points = range(top + 1) if atoms == 11 else [0, 1, top, top >> 1] + [
        rng.randrange(top + 1) for _ in range(200)
    ]
    for c in xs[:5] + xs[-2:]:
        row, column = kernel.row(c), kernel.column(c)
        assert len(row) == len(column) == top + 1
        assert [row[y] for y in points] == [alg.compose_masks(c, y) for y in points]
        assert [column[x] for x in points] == [alg.compose_masks(x, c) for x in points]


def _random_oracle(eq, alg, seed, trials):
    """Random mode replayed with eval_term on the same RNG stream."""
    vs = sorted(variables(eq))
    rng = random.Random(seed)
    for t in range(trials):
        asg = {v: alg.element(rng.randrange(alg.top_mask + 1)) for v in vs}
        if eval_term(eq.lhs, alg, asg) != eval_term(eq.rhs, alg, asg):
            return "falsified", {v: e.bits for v, e in asg.items()}, t + 1
    return "unknown", None, trials


def _state(alg):
    """A deep copy of everything the algebra instance holds."""
    return copy.deepcopy(vars(alg))


def test_algebra_state_unchanged_by_every_operation(monkeypatch):
    alg = _complex_algebra_s3()
    before = _state(alg)
    x, y = alg.element(0b000110), alg.element(0b101001)
    eq = parse_equation("(x1;x2)~ = x1~;x2~")
    operations = [
        lambda: check_axioms(alg),
        lambda: generate_subalgebra(alg, [x]),
        lambda: check_embedding(
            Embedding(full_subalgebra(alg), alg, {1 << i: 1 << i for i in range(6)})
        ),
        lambda: x.compose(y),
        lambda: x.converse(),
        lambda: eval_term(eq.lhs, alg, {1: x, 2: y}),
    ]
    for op in operations:
        op()
        assert vars(alg) == before
    for entries, kind in [(1 << 20, terms._Table), (1000, terms._HalfTable), (100, terms._Direct)]:
        monkeypatch.setattr(terms, "_TABLE_ENTRIES", entries)
        assert type(terms._kernel(alg)) is kind
        assert falsify(eq, alg).falsified
        assert falsify(eq, alg, mode="random", seed=1, trials=50).falsified
        assert vars(alg) == before


def test_random_falsify_leaves_algebra_unchanged():
    alg = build_lpn(9, 3)
    assert isinstance(terms._kernel(alg), terms._HalfTable)
    eq = parse_equation("x1;(x2;x3) = (x1;x2);x3")
    before = _state(alg)
    res = falsify(eq, alg, mode="random", seed=5, trials=300)
    assert vars(alg) == before
    assert _outcome(res) == _random_oracle(eq, alg, 5, 300)


@pytest.mark.parametrize(
    "text,seed,status",
    [("x1;(x2;x3) = (x1;x2);x3", 7, "unknown"), ("x1;(x2&x3) = (x1;x2)&(x1;x3)", 3, "falsified")],
)
def test_random_falsify_on_half_tables_matches_oracle(text, seed, status):
    alg = build_lpn(9, 3)
    eq = parse_equation(text)
    got = _outcome(falsify(eq, alg, mode="random", seed=seed, trials=200))
    assert got[0] == status
    assert status == "unknown" or got[2] > 1  # a witness found after misses
    assert got == _random_oracle(eq, alg, seed, 200)


@pytest.mark.parametrize(
    "text,status", [("x2;(x1&e) = x2&x1;x2", "falsified"), ("x1;x2 = x2;x1", "valid")]
)
def test_exhaustive_falsify_on_half_tables_matches_oracle(text, status):
    # L(7,2) has 2^11 elements, so x2 runs over rows and columns of the
    # half tables for each x1
    alg = build_lpn(7, 2)
    assert type(terms._kernel(alg)) is terms._HalfTable
    eq = parse_equation(text)
    got = _outcome(falsify(eq, alg))
    assert got[0] == status
    if status == "falsified":
        assert got[2] > alg.top_mask + 1  # past the first row
        assert got == _nested_loop_oracle(eq, alg)
        return
    # the full nested loop is 2^22 assignments, about 30 s: check every x2
    # for a seeded sample of x1, and the reason the law holds
    assert got == ("valid", None, (alg.top_mask + 1) ** 2) and alg.is_commutative
    rng = random.Random(72)
    for x1 in [0, alg.top_mask] + [rng.randrange(alg.top_mask + 1) for _ in range(30)]:
        for x2 in range(alg.top_mask + 1):
            asg = {1: x1, 2: x2}
            assert _evaluate(eq.lhs, alg, asg) == _evaluate(eq.rhs, alg, asg)


@pytest.mark.parametrize("text", ["x1;(x2;x3) = (x1;x2);x3", "x1;x2 = x2"])
def test_random_falsify_direct_kernel_above_row_limit(text):
    alg = build_lpn(13, 2)  # 17 atoms: masks no longer fit 16-bit table entries
    assert alg.atom_count == 17
    assert type(terms._kernel(alg)) is terms._Direct
    eq = parse_equation(text)
    before = _state(alg)
    res = falsify(eq, alg, mode="random", seed=2, trials=40)
    assert vars(alg) == before
    assert _outcome(res) == _random_oracle(eq, alg, 2, 40)


def test_falsify_budget_refused_before_tables(l32, monkeypatch):
    def no_tables(algebra):
        raise AssertionError("kernel built for a search over budget")

    monkeypatch.setattr(terms, "_kernel", no_tables)
    with pytest.raises(ResourceBudgetError):
        falsify(parse_equation("x1;x2;x3;x4 = x4;x3;x2;x1"), l32)


def test_falsify_rejects_negative_trials(l32):
    with pytest.raises(ValueError):
        falsify(parse_equation("x1 = x1"), l32, mode="random", trials=-5)
