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


# one level of a chain, by name: the node that wraps t, with x1 as other operand
_WRAP = {
    "left-comp": lambda t: Comp(t, Var(1)),
    "right-comp": lambda t: Comp(Var(1), t),
    "left-meet": lambda t: Meet(t, Var(1)),
    "right-meet": lambda t: Meet(Var(1), t),
    "left-join": lambda t: Join(t, Var(1)),
    "right-join": lambda t: Join(Var(1), t),
    "complement": Not,
    "converse": Conv,
}


def _code_built(depth, *shape):
    """x1 wrapped depth - 1 times, cycling through the wrappers named."""
    t = Var(1)
    for _, wrap in zip(range(depth - 1), itertools.cycle(_WRAP[name] for name in shape)):
        t = wrap(t)
    return t


def test_walks_terms_built_at_the_depth_limit():
    # built in code, not parsed: 150 operands or 149 unary levels
    k = MAX_TERM_DEPTH - 1
    for shape, text, length in (
        ("left-comp", "x1" + ";x1" * k, 2 * k + 1),
        ("right-comp", "x1;(" * (k - 1) + "x1;x1" + ")" * (k - 1), 2 * k + 1),
        ("complement", "-" * k + "x1", k + 1),
        ("converse", "x1" + "~" * k, k + 1),
    ):
        t = _code_built(k + 1, shape)
        assert print_term(t) == text
        assert equation_length(Equation(t, Var(2))) == length + 1
        assert variables(t) == {1}
        assert variables(Equation(Var(2), t)) == {1, 2}


@pytest.mark.parametrize("shape", _WRAP)
def test_nodes_past_the_depth_limit_are_refused_when_built(shape):
    at_limit = _code_built(MAX_TERM_DEPTH, shape)
    assert at_limit.depth == MAX_TERM_DEPTH
    for t in (at_limit, _code_built(MAX_TERM_DEPTH, "complement")):
        with pytest.raises(ValueError, match=f"^term nests deeper than {MAX_TERM_DEPTH} levels$"):
            _WRAP[shape](t)
    with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
        _code_built(1501, shape)
    with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
        Equation(Var(1), _WRAP[shape](at_limit))


@pytest.mark.parametrize("outer", _WRAP)
def test_every_depth_limit_shape_prints_to_text_that_parses_back(outer):
    # each wrapper alone and alternating with each other one, so every
    # level of some term needs parentheses or a prefix "-"
    for inner in _WRAP:
        t = _code_built(MAX_TERM_DEPTH, outer, inner)
        assert t.depth == MAX_TERM_DEPTH
        assert parse_term(print_term(t)) == t
        eq = Equation(t, _code_built(MAX_TERM_DEPTH, inner, outer))
        assert parse_equation(print_equation(eq)) == eq


@pytest.mark.parametrize("shape", ["left-comp", "right-comp", "complement", "converse"])
def test_code_built_terms_compare_hash_and_repr_or_refuse(shape):
    # two separately built equal terms, so == walks both
    a, b = _code_built(MAX_TERM_DEPTH, shape), _code_built(MAX_TERM_DEPTH, shape)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.depth == MAX_TERM_DEPTH
    # copy and pickle round-trip, and rebuild the depth they do not store
    eq = Equation(a, Var(2))
    for twin in (copy.deepcopy(eq), pickle.loads(pickle.dumps(eq))):
        assert twin == eq and twin.lhs is not a and twin.lhs.depth == MAX_TERM_DEPTH
    # a deeper term cannot be built, so there is nothing past the limit to compare
    for depth in (MAX_TERM_DEPTH + 1, 1501):
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
            _code_built(depth, shape)


@pytest.mark.parametrize("shape", ["left-comp", "right-comp", "complement", "converse"])
def test_evaluation_refuses_code_built_terms_past_the_depth_limit(shape):
    l31 = build_lpn(3, 1)
    a0 = {1: l31.parse_element("a0")}
    t = _code_built(MAX_TERM_DEPTH, shape)
    assert eval_term(t, l31, a0).algebra is l31
    result = falsify(Equation(t, Var(1)), l31)
    assert result.status == "valid" or eval_term(t, l31, result.assignment) != result.assignment[1]
    assert falsify(Equation(Var(1), t), l31, mode="random", trials=5).tried >= 1
    # past the limit the refusal comes when the term is built, before any
    # evaluation or search could start
    for depth in (MAX_TERM_DEPTH + 1, 1501):
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
            _code_built(depth, shape)


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


@pytest.mark.parametrize("kind", ["_HalfTable", "_Direct"])
@pytest.mark.parametrize("text,status", _S3_CASES)
def test_staged_falsify_noncommutative(monkeypatch, kind, text, status):
    alg = _complex_algebra_s3()
    if kind == "_Direct":
        monkeypatch.setattr(terms, "_kernel", terms._Direct)
    assert type(terms._kernel(alg)).__name__ == kind
    eq = parse_equation(text)
    got = _outcome(falsify(eq, alg))
    assert got[0] == status
    assert got == _nested_loop_oracle(eq, alg)


def _random_table_algebra(k, seed):
    """k atoms with a seeded composition table, from 3 atoms on neither
    commutative nor symmetric: the kernels only OR table entries, so no
    axiom is needed."""
    rng = random.Random(seed)
    converse = [0] + [i + 1 if i % 2 else i - 1 for i in range(1, k)]  # 1<->2, 3<->4, ...
    if k % 2 == 0:
        converse[-1] = k - 1
    comp = [[rng.randrange(1 << k) for _ in range(k)] for _ in range(k)]
    alg = FiniteRelationAlgebra([f"g{i}" for i in range(k)], [0], converse, comp)
    assert k < 3 or not (alg.is_commutative or alg.is_symmetric)
    return alg


@pytest.mark.parametrize("atoms", range(1, 17))
def test_kernel_matches_compose_masks(atoms):
    # odd atom counts pad the high half; the top elements use its last atoms
    alg = _random_table_algebra(atoms, atoms)
    kernel = terms._kernel(alg)
    assert type(kernel) is terms._HalfTable
    top = alg.top_mask
    rng = random.Random(atoms)
    sample = [0, 1, top, top >> 1, 1 << atoms - 1] + [rng.randrange(top + 1) for _ in range(200)]
    # every element up to 11 atoms, a sample above
    xs = list(range(top + 1)) if atoms <= 11 else sample
    ys = rng.sample(xs, len(xs))
    assert list(map(kernel.comp, xs, ys)) == list(map(alg.compose_masks, xs, ys))
    assert kernel.pair(xs, ys) == list(map(alg.compose_masks, xs, ys))
    assert list(map(kernel.conv, xs)) == list(map(alg.converse_mask, xs))
    assert kernel.conv_all(xs) == list(map(alg.converse_mask, xs))
    for c in sample[:5] + sample[-3:]:
        row, column = kernel.row(c), kernel.column(c)
        assert len(row) == len(column) == top + 1
        assert [row[y] for y in xs] == [alg.compose_masks(c, y) for y in xs]
        assert [column[x] for x in xs] == [alg.compose_masks(x, c) for x in xs]


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
    assert type(terms._kernel(alg)) is terms._HalfTable
    for kernel in (terms._kernel, terms._Direct):
        monkeypatch.setattr(terms, "_kernel", kernel)
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


# -- the atom rule -------------------------------------------------------------


def test_atom_rule_syntactic_test():
    joins = terms._preserves_joins
    assert not joins(parse_term("x1;x1"))
    assert not joins(parse_term("x1&e")) and not joins(parse_term("x1&x2"))
    assert not joins(parse_term("-x1")) and not joins(parse_term("x2;-(x1;e)"))
    eq = parse_equation("x1;(x2+x3) = x1;x2+x1;x3")  # x1 repeated under +
    assert joins(eq.lhs) and joins(eq.rhs)
    # variable-free subterms are constants: "-" and "&" over them are taken
    assert joins(parse_term("(x1;-0)~+x2;(e&1)"))
    assert joins(parse_term("x1;x2~;(x3+x3)"))


def _additive_term(rng, names, depth):
    """A random term that preserves joins in every variable: no "-" or
    "&", and each ";" splits its variables between its operands."""
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(names)) if names and rng.random() < 0.8 else Const(rng.choice("01e"))
    kind = rng.choice("~+;;")
    if kind == "~":
        return Conv(_additive_term(rng, names, depth - 1))
    if kind == "+":
        return Join(_additive_term(rng, names, depth - 1), _additive_term(rng, names, depth - 1))
    shuffled = rng.sample(names, len(names))
    cut = rng.randint(0, len(names))
    return Comp(_additive_term(rng, shuffled[:cut], depth - 1),
                _additive_term(rng, shuffled[cut:], depth - 1))


def _any_term(rng, names, depth):
    """A random term over every operation."""
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(names)) if rng.random() < 0.8 else Const(rng.choice("01e"))
    kind = rng.choice("-~+&;")
    if kind in "-~":
        return {"-": Not, "~": Conv}[kind](_any_term(rng, names, depth - 1))
    node = {"+": Join, "&": Meet, ";": Comp}[kind]
    return node(_any_term(rng, names, depth - 1), _any_term(rng, names, depth - 1))


def _rewrite(rng, t):
    """t under laws of relation algebras that keep joins preserved: +
    commutes, ; associates, u;v = (v~;u~)~, (u+v)~ = u~+v~, x = x;e and
    x = x+0.  Valid on every L(p,n); the laws about ; and e need not hold
    in a random table."""
    if isinstance(t, Var):
        return rng.choice([t, Comp(t, Const("e")), Join(t, Const("0"))])
    if isinstance(t, Const):
        return t
    if isinstance(t, Conv):
        arg = _rewrite(rng, t.arg)
        if isinstance(arg, Join) and rng.random() < 0.5:
            return Join(Conv(arg.left), Conv(arg.right))
        return Conv(arg)
    left, right = _rewrite(rng, t.left), _rewrite(rng, t.right)
    if isinstance(t, Join):
        return Join(right, left) if rng.random() < 0.5 else Join(left, right)
    roll = rng.random()
    if roll < 0.3:
        return Conv(Comp(Conv(right), Conv(left)))
    if roll < 0.6 and isinstance(right, Comp):
        return Comp(Comp(left, right.left), right.right)
    return Comp(left, right)


# L(3,0..2) have 32 to 128 elements, so the nested-loop oracle takes at
# most two variables there; the random tables of 3 and 4 atoms take three
_ATOM_RULE_ALGEBRAS = {
    "L(3,0)": (lambda: build_lpn(3, 0), [1, 2]),
    "L(3,1)": (lambda: build_lpn(3, 1), [1, 2]),
    "L(3,2)": (lambda: build_lpn(3, 2), [1, 2]),
    "noncommutative-3": (lambda: _random_table_algebra(3, 1), [1, 2, 3]),
    "noncommutative-4": (lambda: _random_table_algebra(4, 2), [1, 2, 3]),
}


@pytest.mark.parametrize("name", list(_ATOM_RULE_ALGEBRAS))
def test_atom_rule_matches_oracles(name):
    # 64 trials take the rule in random mode at (k+1)^m <= 64, which holds
    # for every variable count on L(3,0..2) and the 3-atom table, and up
    # to two variables on the 4-atom table
    build, names = _ATOM_RULE_ALGEBRAS[name]
    alg = build()
    rng = random.Random(name)
    seen = set()
    for i in range(24):
        if i % 3 == 0:
            eq = Equation(_any_term(rng, names, 3), _any_term(rng, names, 3))
        else:
            lhs = _additive_term(rng, names, 3)
            rhs = _rewrite(rng, lhs) if i % 3 == 1 else _additive_term(rng, names, 3)
            eq = Equation(lhs, rhs)
        additive = terms._preserves_joins(eq.lhs) and terms._preserves_joins(eq.rhs)
        assert additive or i % 3 == 0
        got = _outcome(falsify(eq, alg))
        assert got == _nested_loop_oracle(eq, alg), print_equation(eq)
        seed = rng.randrange(1 << 16)
        random_got = _outcome(falsify(eq, alg, mode="random", seed=seed, trials=64))
        assert random_got == _random_oracle(eq, alg, seed, 64), print_equation(eq)
        seen.add((additive, got[0]))
    assert {(True, "valid"), (True, "falsified")} <= seen


def test_atom_rule_evaluates_at_most_the_atom_assignments(l32, monkeypatch):
    # associativity on L(3,2): 8^3 assignments over 0 and the 7 atoms
    # stand for the 128^3 a scan would evaluate
    calls, run = [], terms._run

    def counted(vals, steps):
        calls.append(len(steps))
        return run(vals, steps)

    monkeypatch.setattr(terms, "_run", counted)
    eq = parse_equation("x1;(x2;x3) = (x1;x2);x3")
    assert _outcome(falsify(eq, l32)) == ("valid", None, 128 ** 3)
    assert 0 < len(calls) <= 8 ** 3
    calls.clear()
    result = falsify(eq, l32, mode="random", seed=4, trials=8 ** 3)
    assert _outcome(result) == ("unknown", None, 8 ** 3) and result.seed == 4
    assert 0 < len(calls) <= 8 ** 3
    # one trial short of the atom assignments, random mode draws them all
    calls.clear()
    assert falsify(eq, l32, mode="random", seed=4, trials=8 ** 3 - 1).tried == 8 ** 3 - 1
    assert len(calls) == 8 ** 3 - 1


def test_random_falsify_budget_refused_before_any_draw(l32, monkeypatch):
    def no_draws(seed):
        raise AssertionError("random search started over budget")

    monkeypatch.setattr(terms.random, "Random", no_draws)
    eq = parse_equation("x1;x1 = x1")
    with pytest.raises(ResourceBudgetError, match="11 trials, budget is 10"):
        falsify(eq, l32, mode="random", trials=11, budget=10)
    with pytest.raises(ResourceBudgetError):
        falsify(eq, l32, mode="random", trials=terms.DEFAULT_FALSIFY_BUDGET + 1)
    # at the budget the additive law is decided on its 8 atom assignments
    assert falsify(parse_equation("x1;e = x1"), l32, mode="random", trials=10, budget=10).tried == 10


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: build_lpn(3, 0), "-x1;1 = 1"),  # fails at x1 = 1 alone
        (lambda: _random_table_algebra(3, 1), "(x1~&e)~ = x1&x1~"),
        (_complex_algebra_s3, "x1;x1~+e = e"),  # atoms of Cm(S3) are functions
    ],
    ids=["complement", "meet", "repeated-comp"],
)
def test_atom_rule_refuses_laws_of_the_atoms_alone(build, text):
    # each side breaks the rule in one way, and the law holds on every
    # assignment over 0 and the atoms but not on all
    alg, eq = build(), parse_equation(text)
    points = [0] + [1 << a for a in range(alg.atom_count)]
    for x1 in points:
        assert _evaluate(eq.lhs, alg, {1: x1}) == _evaluate(eq.rhs, alg, {1: x1})
    got = _outcome(falsify(eq, alg))
    assert got[0] == "falsified" and got == _nested_loop_oracle(eq, alg)
    random_got = _outcome(falsify(eq, alg, mode="random", seed=0, trials=200))
    assert random_got[0] == "falsified" and random_got == _random_oracle(eq, alg, 0, 200)


# -- the orbit rule ------------------------------------------------------------


def _swap_is_automorphism(alg, a, b):
    """(a b) maps 1' to 1', commutes with converse and preserves a;b on
    every element pair: an element-level check, sharing no code with
    twin_blocks."""
    def swap(mask):
        bits = [mask >> i & 1 for i in range(alg.atom_count)]
        bits[a], bits[b] = bits[b], bits[a]
        return sum(bit << i for i, bit in enumerate(bits))

    elements = range(alg.top_mask + 1)
    return (
        swap(alg.identity_mask) == alg.identity_mask
        and all(swap(alg.converse_mask(x)) == alg.converse_mask(swap(x)) for x in elements)
        and all(
            swap(alg.compose_masks(x, y)) == alg.compose_masks(swap(x), swap(y))
            for x in elements
            for y in elements
        )
    )


def _blocks_by_swaps(alg):
    """The atoms grouped by automorphic transpositions with a smaller atom."""
    blocks = []
    for b in range(alg.atom_count):
        home = next((i for i, block in enumerate(blocks)
                     if _swap_is_automorphism(alg, (block & -block).bit_length() - 1, b)), None)
        if home is None:
            blocks.append(1 << b)
        else:
            blocks[home] |= 1 << b
    return tuple(blocks)


def _with_entry(alg, a, b, mask):
    comp = [list(row) for row in alg.comp]
    comp[a][b] = mask
    return FiniteRelationAlgebra(alg.atom_names, alg.identity_atoms, alg.converse, comp)


@pytest.mark.parametrize("p,n", [(3, 0), (3, 1), (3, 2), (4, 1), (5, 3), (9, 3)])
def test_twin_blocks_of_lpn_are_identity_slopes_and_bridges(p, n):
    alg = build_lpn(p, n)
    slopes = "+".join(f"a{i}" for i in range(p + 1))
    bridges = "+".join(f"t{j}" for j in range(1, n + 1))
    expected = ["1'", slopes] + ([bridges] if n else [])
    assert [alg.format_mask(b) for b in alg.twin_blocks()] == expected


def test_twin_blocks_split_where_a_broken_entry_denies_a_swap():
    l31, l32 = build_lpn(3, 1), build_lpn(3, 2)
    # a1;a2 gains 1': (a0 a3) still fixes that entry, every other swap of
    # slopes moves it
    broken = _with_entry(l31, 2, 3, l31.comp[2][3] | 1)
    names = [broken.format_mask(b) for b in broken.twin_blocks()]
    assert names == ["1'", "a0+a3", "a1", "a2", "t1"]
    # t1;t1 loses 1': the bridges split, the slopes stay together
    broken = _with_entry(l32, 5, 5, l32.comp[5][5] & ~1)
    names = [broken.format_mask(b) for b in broken.twin_blocks()]
    assert names == ["1'", "a0+a1+a2+a3", "t1", "t2"]
    # a0;a0 gains t1: a0 and each bridge lose their twins
    broken = _with_entry(l32, 1, 1, l32.comp[1][1] | 1 << 5)
    names = [broken.format_mask(b) for b in broken.twin_blocks()]
    assert names == ["1'", "a0", "a1+a2+a3", "t1", "t2"]


def _with_converse_and_identity(alg, converse, identity_atoms):
    return FiniteRelationAlgebra(alg.atom_names, identity_atoms, converse, alg.comp)


def test_twin_blocks_split_where_converse_or_identity_denies_a_swap():
    # same table as L(3,1); only the converse or the identity atoms change
    l31 = build_lpn(3, 1)
    paired = _with_converse_and_identity(l31, [0, 2, 1, 3, 4, 5], l31.identity_atoms)
    names = [paired.format_mask(b) for b in paired.twin_blocks()]
    assert names == ["1'", "a0+a1", "a2+a3", "t1"]
    marked = _with_converse_and_identity(l31, l31.converse, [0, 1])
    names = [marked.format_mask(b) for b in marked.twin_blocks()]
    assert names == ["1'", "a0", "a1+a2+a3", "t1"]
    for alg in (paired, marked):
        assert alg.twin_blocks() == _blocks_by_swaps(alg)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_lpn(3, 1),
        lambda: _with_entry(build_lpn(3, 1), 2, 3, 0b1001),
        lambda: _with_entry(build_lpn(3, 2), 6, 5, 0),
        lambda: _random_table_algebra(4, 2),
        _complex_algebra_s3,
    ],
    ids=["L(3,1)", "broken-slopes", "broken-bridges", "noncommutative-4", "Cm(S3)"],
)
def test_twin_blocks_match_element_level_swaps(build):
    alg = build()
    assert alg.twin_blocks() == _blocks_by_swaps(alg)


def _valid_rewrite(rng, t):
    """t under laws that hold in every table: Boolean laws, ; distributes
    over + on the right, and converse permutes the atoms, so it commutes
    with complement."""
    if isinstance(t, (Var, Const)):
        return Meet(t, Join(t, Var(1))) if rng.random() < 0.2 else t
    if isinstance(t, Not):
        arg = _valid_rewrite(rng, t.arg)
        if isinstance(arg, Conv) and rng.random() < 0.5:
            return Conv(Not(arg.arg))
        return Not(arg)
    if isinstance(t, Conv):
        return Conv(_valid_rewrite(rng, t.arg))
    left, right = _valid_rewrite(rng, t.left), _valid_rewrite(rng, t.right)
    if isinstance(t, Meet):
        return Not(Join(Not(left), Not(right))) if rng.random() < 0.5 else Meet(right, left)
    if isinstance(t, Join):
        return Join(right, left)
    if isinstance(right, Join) and rng.random() < 0.7:
        return Join(Comp(left, right.left), Comp(left, right.right))
    return Comp(left, right)


# the nested-loop oracle takes two variables on the 32- to 128-element
# algebras and three on the random tables of 3 and 4 atoms, which have no
# twins, so there the walk must be the scan
_ORBIT_RULE_ALGEBRAS = {
    "L(3,0)": (lambda: build_lpn(3, 0), [1, 2]),
    "L(3,1)": (lambda: build_lpn(3, 1), [1, 2]),
    "L(3,2)": (lambda: build_lpn(3, 2), [1, 2]),
    "L(4,1)": (lambda: build_lpn(4, 1), [1, 2]),
    "noncommutative-3": (lambda: _random_table_algebra(3, 1), [1, 2, 3]),
    "noncommutative-4": (lambda: _random_table_algebra(4, 2), [1, 2, 3]),
}

# terms that vanish at x1 = 0, 1' and single slopes on L(p,n), so a law
# they break is falsified only past prefixes that the orbit rule skips
# (x1 = a0+a1 or t1, say)
_LATE = ["x1;x1&-(x1+e)", "x1&-(x1;x1)", "x1;x2&-(x1+x2+e)", "x1~;x2&-(x2;x1~)"]


@pytest.mark.parametrize("name", list(_ORBIT_RULE_ALGEBRAS))
def test_orbit_rule_matches_nested_loop_oracle(name):
    build, names = _ORBIT_RULE_ALGEBRAS[name]
    alg = build()
    rng = random.Random(name)
    seen = set()
    for i in range(16):
        u, v = _any_term(rng, names, 2), _any_term(rng, names, 2)
        lhs = Join(u, Not(v)) if i % 4 == 3 else Meet(u, v)
        if i % 4 == 0:
            eq = Equation(lhs, _any_term(rng, names, 3))
        elif i % 4 == 2:
            eq = Equation(Join(lhs, parse_term(_LATE[i // 4])), _valid_rewrite(rng, lhs))
        else:
            eq = Equation(lhs, _valid_rewrite(rng, lhs))
        got = _outcome(falsify(eq, alg))
        assert got == _nested_loop_oracle(eq, alg), print_equation(eq)
        seen.add(got[0])
    assert seen == {"valid", "falsified"}


@pytest.mark.parametrize("p,n", [(3, 0), (3, 1)])
@pytest.mark.parametrize("text", ["x1;x2&-(x1+x2+e) = x3&-x3", "x1;x2&-(x1+x2+e)&x3 = x3&-x3"])
def test_orbit_rule_refines_the_blocks_by_each_variable(p, n, text):
    # the first witness has x1 = a0 and x2 = a1, and x2 is canonical only
    # in the blocks x1 refines: {a0} and {a1, a2, a3}
    alg, eq = build_lpn(p, n), parse_equation(text)
    got = _outcome(falsify(eq, alg))
    assert got[0] == "falsified" and (got[1][1], got[1][2]) == (0b10, 0b100)
    assert got == _nested_loop_oracle(eq, alg)


def test_orbit_rule_refines_the_one_block_of_two_twins():
    # a1;a2 gains 1', so a0 and a3 are the only twins.  The left side is
    # x2 when x1 holds a slope and x2 is a single slope other than x1
    # with no 1' in x2;W or W;x2, W the slopes outside x1 and x2: first
    # x1 = a0, x2 = a3, which is canonical only once x1 splits {a0, a3}
    l31 = build_lpn(3, 1)
    alg = _with_entry(l31, 2, 3, l31.comp[2][3] | 1)
    w = "-(x2+x1+e)"
    eq = parse_equation(
        f"x2&-(x1+e)&-(1;(e&(x2;{w}+{w};x2));1)&-(1;(x2;x2&-(x2+e));1)&1;(x1&-e);1 = x3&-x3"
    )
    got = _outcome(falsify(eq, alg))
    assert got == ("falsified", {1: 0b10, 2: 0b10000, 3: 0}, 9217)
    assert got == _nested_loop_oracle(eq, alg)


def test_orbit_rule_runs_the_vector_level_once_per_canonical_prefix(monkeypatch):
    # Dedekind's law on L(3,1): x1 takes 1' or not, t1 or not, and 0-4 of
    # the slopes; x2 then takes its canonical values over the refined
    # blocks, 35 slope choices over every x1, so 4 * 35 * 4 = 560 of the
    # 64^2 prefixes, and the x1 level runs 2 * 5 * 2 = 20 times
    calls, run = [], terms._run

    def counted(vals, steps):
        calls.append(id(steps))
        return run(vals, steps)

    monkeypatch.setattr(terms, "_run", counted)
    eq = parse_equation("(x1;x2)&x3 + (x1;(x2&(x1~;x3)))&x3 = (x1;(x2&(x1~;x3)))&x3")
    assert _outcome(falsify(eq, build_lpn(3, 1))) == ("valid", None, 64 ** 3)
    assert sorted(map(calls.count, set(calls))) == [20, 560]


def test_shared_subterms_are_walked_once():
    # t = t+t over x1 at the depth limit: a tree of 2^150 - 1 nodes made
    # of 150 distinct ones.  Printing it would not end, so every assertion
    # reads a value, never the term.
    l31 = build_lpn(3, 1)
    t = Var(1)
    for _ in range(MAX_TERM_DEPTH - 1):
        t = Join(t, t)
    inner = t.left  # one level below the limit
    depth, found, length = t.depth, variables(t), equation_length(Equation(t, Var(2)))
    assert (depth, found, length) == (MAX_TERM_DEPTH, {1}, 2 ** 150)
    additive = [terms._preserves_joins(s) for s in (t, Meet(inner, inner), Not(inner))]
    assert additive == [True, False, False]
    a0 = l31.parse_element("a0")
    value = eval_term(t, l31, {1: a0}).bits
    assert value == a0.bits
    # the atom rule decides t = x1; the scan decides the other two
    outcomes = [
        _outcome(falsify(Equation(lhs, Var(1)), l31)) for lhs in (t, Meet(inner, inner), Not(inner))
    ]
    assert outcomes == [("valid", None, 64), ("valid", None, 64), ("falsified", {1: 0}, 1)]
    drawn = falsify(Equation(Var(1), t), l31, mode="random", trials=5).status
    assert drawn == "unknown"
