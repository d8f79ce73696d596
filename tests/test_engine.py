"""Resolution engine: answers, selection rules, depth limits."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck import engine
from queenscheck.engine import (
    SELECTION_RULES,
    Answer,
    SearchTruncated,
    SolveOptions,
    solve,
    solve_answers,
)
from queenscheck.herbrand import tp_fixpoint
from queenscheck.parser import parse_program, parse_query, parse_term
from queenscheck.queens import initial_query, nqueens_program
from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    Program,
    Query,
    Signature,
    Var,
    apply_subst,
    clause_template,
    format_query,
    format_term,
    match_template,
    term_vars,
)
from conftest import time_limit
from unify_oracle import mgu


def test_zero_row_query_single_answer_unbound():
    answers = solve_answers(nqueens_program(), parse_query("pqs(0, X, Y, Z)"))
    assert len(answers) == 1
    ans = answers[0]
    # nothing forced the variables: each binding is a fresh distinct variable
    images = [t for _, t in ans.substitution]
    assert all(isinstance(t, Var) for t in images)
    assert len(set(images)) == len(images)
    inst = ans.instantiated_query.atoms[0]
    vs = term_vars(inst.args)
    assert len(vs) == 3 and len(set(vs)) == 3


def test_answers_subsume_two_queens_shape():
    # the open column list admits infinitely many answers; a depth limit
    # keeps the stream finite while still reaching the small ones
    answers = solve_answers(
        nqueens_program(),
        parse_query("pqs(s(s(0)), Cs, Us, Ds)"),
        SolveOptions(depth_limit=12),
    )
    expected = parse_query("pqs(2,[1,_,2,_],[_,_,2|_],[_,_,1,2|_])").atoms[0]
    # some answer subsumes the expected shape: the shape is an instance of
    # the answer atom (the shape's own variables act as fresh constants,
    # since a slot may take a variable but a compound never matches one)
    def subsumes(answer):
        vs, tpl, _ = clause_template(Clause(answer.instantiated_query.atoms[0]))
        return match_template(tpl, expected, [None] * len(vs)) is not None

    assert any(subsumes(a) for a in answers)


def test_undeclared_predicate_rejected():
    with pytest.raises(ValueError):
        solve_answers(nqueens_program(), parse_query("nosuch(X)"))
    with pytest.raises(ValueError):
        list(solve(nqueens_program(), parse_query("pqs(0,X)")))


def test_empty_query_rejected():
    from queenscheck.terms import Query
    with pytest.raises(ValueError):
        list(solve(nqueens_program(), Query(())))


def test_depth_limit_truncation_marker():
    p = parse_program("loop(X) :- loop(X).")
    items = list(solve(p, parse_query("loop(0)"), SolveOptions(depth_limit=5)))
    assert len(items) == 1
    assert isinstance(items[0], SearchTruncated)
    assert items[0].branches_cut == 1


def test_answer_limit():
    p = parse_program("p(a). p(b). p(c).")
    items = list(solve(p, parse_query("p(X)"), SolveOptions(answer_limit=2)))
    assert len(items) == 2 and all(isinstance(i, Answer) for i in items)


def test_answer_order_is_clause_source_order():
    p = parse_program("p(a). p(b).")
    answers = solve_answers(p, parse_query("p(X)"))
    got = [apply_subst(dict(a.substitution), Var("X")) for a in answers]
    assert [format_term(t) for t in got] == ["a", "b"]


def test_selection_rules_same_answer_set():
    q = parse_query("pqs(s(s(s(s(0)))), [A,B,C,D], Us, Ds)")
    sets = []
    for rule in ("leftmost", "rightmost", "fair"):
        answers = solve_answers(nqueens_program(), q, SolveOptions(selection_rule=rule))
        sets.append({format_query(a.instantiated_query) for a in answers})
    assert sets[0] == sets[1] == sets[2]


def test_invalid_options():
    with pytest.raises(ValueError):
        SolveOptions(selection_rule="bogus")
    with pytest.raises(ValueError):
        SolveOptions(depth_limit=0)


def test_answers_reparse():
    # leftover variables are canonicalized so printed answers re-parse
    for a in solve_answers(nqueens_program(), initial_query(4)):
        for v, t in a.substitution:
            reparsed = parse_term(format_term(t))
            assert format_term(reparsed) == format_term(t)


# --- the occur-check path -------------------------------------------------------

OCCURS_FAILURES = [
    ("eq(X, X).", "eq(Y, f(Y))"),
    # a cycle across arguments
    ("p(X, f(X)).", "p(Y, Y)"),
    # the first argument is linear and new, the second repeats X
    ("p(f(X), X).", "p(Y, Y)"),
    # a repeat inside one argument
    ("p(g(X, X)).", "p(g(Y, f(Y)))"),
    # cycles across several argument pairs
    ("p(A, f(A), B, f(B), C, C).", "p(X, X, Y, Y, X, Y)"),
]


@pytest.mark.parametrize("source, query", OCCURS_FAILURES)
def test_occurs_failures_give_no_answer(source, query):
    # a skipped occurs scan binds a cell into its own term, and reading the
    # answer back then walks the cycle without end: the bound makes that a
    # failure, not a hang
    with time_limit(0.5):
        assert solve_answers(parse_program(source), parse_query(query)) == []


@pytest.mark.parametrize("body, head", [
    (Atom("p", (Var("X"), Var("Y"))), Atom("p", (Compound("a"),))),
    (Atom("p", (Var("X"),)), Atom("p", (Compound("a"), Compound("b")))),
], ids=["goal-wider", "goal-narrower"])
def test_index_keeps_arities_apart(body, head):
    # clauses are indexed by predicate and arity: a body atom whose arity no
    # head of its predicate has gets no candidate, and never reaches head code
    # that reads past its arguments. The program is built without the
    # parser, which would refuse the mismatch.
    q = Atom("q", ())
    program = Program((Clause(q, (body,)), Clause(head)))
    assert solve_answers(program, Query((q,))) == []


def test_linear_head_against_nonlinear_goal():
    answers = solve_answers(parse_program("r(A, B)."), parse_query("r(Y, f(Y))"))
    assert [format_query(a.instantiated_query) for a in answers] == ["r(_G1,f(_G1))"]


def _terms(names, depth=3):
    """Terms over the named variables, f/1, g/2 and a, nested at most depth deep."""
    leaf = st.sampled_from([Var(n) for n in names] + [Compound("a")])
    if depth == 0:
        return leaf
    sub = _terms(names, depth - 1)
    return st.one_of(leaf,
                     st.builds(lambda t: Compound("f", (t,)), sub),
                     st.builds(lambda t, u: Compound("g", (t, u)), sub, sub))


@st.composite
def _head_and_goal(draw):
    k = draw(st.integers(1, 3))
    head = Atom("p", tuple(draw(st.lists(_terms("ABC"), min_size=k, max_size=k))))
    goal = Atom("p", tuple(draw(st.lists(_terms("XYZ"), min_size=k, max_size=k))))
    return head, goal


@settings(max_examples=300, deadline=None)
@given(_head_and_goal())
def test_one_clause_program_agrees_with_unify_atoms(case):
    # the reference unifier keeps the full occurs scan, so it is the
    # reference for the head code's functor tests and first-occurrence
    # flags; its instance of the goal is the reference for what head code
    # binds. The bound turns an answer with a cyclic binding into a failure
    head, goal = case
    goal_term = Compound(goal.pred, goal.args)
    theta = mgu(goal_term, Compound(head.pred, head.args))
    with time_limit(0.5):
        answers = solve_answers(Program((Clause(head),)), Query((goal,)))
    assert len(answers) == (0 if theta is None else 1)
    if answers:
        got = answers[0].instantiated_query.atoms[0]
        assert _canonical(Compound(got.pred, got.args)) == _canonical(
            apply_subst(theta, goal_term))


def _canonical(t):
    """t with its variables renamed V0, V1, ... in order of first
    occurrence: two terms are variants exactly when these are equal."""
    return apply_subst({v: Var(f"V{i}") for i, v in enumerate(term_vars([t]))}, t)


# --- golden streams -------------------------------------------------------------

# Ordered answers of the size-5 initial query, recorded from the recursive
# engine this machine replaced.
GOLDEN_5 = {
    "leftmost": [
        "pqs(5,[1,4,2,5,3],[4,_G1,3,5|_G2],[_G3,_G4,_G5,4,5,1,2,3|_G6])",
        "pqs(5,[1,3,5,2,4],[2,_G1,5,4|_G2],[_G3,_G4,_G5,5,3,1,4,2|_G6])",
        "pqs(5,[3,1,4,2,5],[2,4,_G1,_G2,5|_G3],[_G4,_G5,_G6,3,4,5,1,2|_G7])",
        "pqs(5,[4,1,3,5,2],[3,2,_G1,5|_G2],[_G3,_G4,4,_G5,5,3,1,_G6,2|_G7])",
        "pqs(5,[2,4,1,3,5],[4,3,_G1,_G2,5|_G3],[_G4,_G5,_G6,4,2,5,3,1|_G7])",
        "pqs(5,[5,3,1,4,2],[5,2,4|_G1],[_G2,5,_G3,_G4,3,4,_G5,1,2|_G6])",
        "pqs(5,[2,5,3,1,4],[3,5,_G1,4|_G2],[_G3,_G4,5,_G5,2,3,4,_G6,1|_G7])",
        "pqs(5,[5,2,4,1,3],[5,4,3|_G1],[_G2,5,_G3,_G4,4,2,_G5,3,1|_G6])",
        "pqs(5,[4,2,5,3,1],[1,3,5|_G1],[_G2,_G3,4,5,_G4,2,3,_G5,_G6,1|_G7])",
        "pqs(5,[3,5,2,4,1],[1,5,4|_G1],[_G2,_G3,5,3,_G4,4,2,_G5,_G6,1|_G7])",
    ],
    "rightmost": [
        "pqs(5,[5,2,4,1,3],[5,4,3|_G1],[_G2,5,_G3,_G4,4,2,_G5,3,1|_G6])",
        "pqs(5,[5,3,1,4,2],[5,2,4|_G1],[_G2,5,_G3,_G4,3,4,_G5,1,2|_G6])",
        "pqs(5,[3,5,2,4,1],[1,5,4|_G1],[_G2,_G3,5,3,_G4,4,2,_G5,_G6,1|_G7])",
        "pqs(5,[2,5,3,1,4],[3,5,_G1,4|_G2],[_G3,_G4,5,_G5,2,3,4,_G6,1|_G7])",
        "pqs(5,[4,2,5,3,1],[1,3,5|_G1],[_G2,_G3,4,5,_G4,2,3,_G5,_G6,1|_G7])",
        "pqs(5,[1,3,5,2,4],[2,_G1,5,4|_G2],[_G3,_G4,_G5,5,3,1,4,2|_G6])",
        "pqs(5,[4,1,3,5,2],[3,2,_G1,5|_G2],[_G3,_G4,4,_G5,5,3,1,_G6,2|_G7])",
        "pqs(5,[1,4,2,5,3],[4,_G1,3,5|_G2],[_G3,_G4,_G5,4,5,1,2,3|_G6])",
        "pqs(5,[2,4,1,3,5],[4,3,_G1,_G2,5|_G3],[_G4,_G5,_G6,4,2,5,3,1|_G7])",
        "pqs(5,[3,1,4,2,5],[2,4,_G1,_G2,5|_G3],[_G4,_G5,_G6,3,4,5,1,2|_G7])",
    ],
    "fair": [
        "pqs(5,[5,2,4,1,3],[5,4,3|_G1],[_G2,5,_G3,_G4,4,2,_G5,3,1|_G6])",
        "pqs(5,[5,3,1,4,2],[5,2,4|_G1],[_G2,5,_G3,_G4,3,4,_G5,1,2|_G6])",
        "pqs(5,[3,5,2,4,1],[1,5,4|_G1],[_G2,_G3,5,3,_G4,4,2,_G5,_G6,1|_G7])",
        "pqs(5,[3,1,4,2,5],[2,4,_G1,_G2,5|_G3],[_G4,_G5,_G6,3,4,5,1,2|_G7])",
        "pqs(5,[4,2,5,3,1],[1,3,5|_G1],[_G2,_G3,4,5,_G4,2,3,_G5,_G6,1|_G7])",
        "pqs(5,[4,1,3,5,2],[3,2,_G1,5|_G2],[_G3,_G4,4,_G5,5,3,1,_G6,2|_G7])",
        "pqs(5,[2,5,3,1,4],[3,5,_G1,4|_G2],[_G3,_G4,5,_G5,2,3,4,_G6,1|_G7])",
        "pqs(5,[1,3,5,2,4],[2,_G1,5,4|_G2],[_G3,_G4,_G5,5,3,1,4,2|_G6])",
        "pqs(5,[1,4,2,5,3],[4,_G1,3,5|_G2],[_G3,_G4,_G5,4,5,1,2,3|_G6])",
        "pqs(5,[2,4,1,3,5],[4,3,_G1,_G2,5|_G3],[_G4,_G5,_G6,4,2,5,3,1|_G7])",
    ],
}


@pytest.mark.parametrize("rule", sorted(GOLDEN_5))
def test_answer_stream_order(rule):
    answers = solve_answers(nqueens_program(), initial_query(5),
                            SolveOptions(selection_rule=rule))
    assert [format_query(a.instantiated_query) for a in answers] == GOLDEN_5[rule]


def test_branches_cut_counts():
    nrev = parse_program(
        "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R)."
        " nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).")
    items = list(solve(nrev, parse_query("nrev(X,Y)"), SolveOptions(depth_limit=6)))
    assert [format_query(i.instantiated_query) for i in items[:-1]] == [
        "nrev([],[])", "nrev([_G1],[_G1])", "nrev([_G1,_G2],[_G2,_G1])"]
    assert items[-1] == SearchTruncated(4)
    items = list(solve(nqueens_program(), initial_query(4), SolveOptions(depth_limit=5)))
    assert items == [SearchTruncated(1)]


def test_answer_limit_drops_the_truncation_marker():
    p = parse_program("p(a). p(b). p(X) :- p(X).")
    items = list(solve(p, parse_query("p(X)"), SolveOptions(depth_limit=3, answer_limit=2)))
    assert len(items) == 2 and all(isinstance(i, Answer) for i in items)
    items = list(solve(p, parse_query("p(X)"), SolveOptions(depth_limit=3)))
    assert items[-1] == SearchTruncated(1) and len(items) == 7


def test_long_derivation_does_not_recurse():
    p = parse_program("len([], 0). len([_|T], s(N)) :- len(T, N).")
    (ans,) = solve_answers(p, parse_query("len(L, 330)"))
    assert format_query(ans.instantiated_query).count(",") == 330


# --- first-argument index -------------------------------------------------------

INDEXED = parse_program("p(a,1). p(X,2). p(b,3). p(a,4). p(f(Y),5). p(Z,6)."
                        " q(f(c)). q(a). q(b).")

# q(W) resolved first: p's first argument is bound mid-derivation
_Q_FIRST = ["q(f(c)), p(f(c),2)", "q(f(c)), p(f(c),5)", "q(f(c)), p(f(c),6)",
            "q(a), p(a,1)", "q(a), p(a,2)", "q(a), p(a,4)", "q(a), p(a,6)",
            "q(b), p(b,2)", "q(b), p(b,3)", "q(b), p(b,6)"]
# p(W,N) resolved first, unbound: every clause of p, in source order
_P_FIRST = ["p(a,1), q(a)", "p(f(c),2), q(f(c))", "p(a,2), q(a)", "p(b,2), q(b)",
            "p(b,3), q(b)", "p(a,4), q(a)", "p(f(c),5), q(f(c))",
            "p(f(c),6), q(f(c))", "p(a,6), q(a)", "p(b,6), q(b)"]


def _swap(answers):
    return [", ".join(reversed(a.split(", "))) for a in answers]


@pytest.mark.parametrize("rule", SELECTION_RULES)
@pytest.mark.parametrize("query, expected", [
    ("p(a,N)", ["p(a,1)", "p(a,2)", "p(a,4)", "p(a,6)"]),
    ("p(c,N)", ["p(c,2)", "p(c,6)"]),
    ("p(f(c),N)", ["p(f(c),2)", "p(f(c),5)", "p(f(c),6)"]),
    ("p(W,N)", ["p(a,1)", "p(_G1,2)", "p(b,3)", "p(a,4)", "p(f(_G1),5)", "p(_G1,6)"]),
    ("q(W), p(W,N)", {"leftmost": _Q_FIRST, "fair": _Q_FIRST, "rightmost": _swap(_P_FIRST)}),
    ("p(W,N), q(W)", {"leftmost": _P_FIRST, "fair": _P_FIRST, "rightmost": _swap(_Q_FIRST)}),
], ids=["bound", "missing-key", "compound-key", "unbound", "q-then-p", "p-then-q"])
def test_index_keeps_clause_source_order(query, expected, rule):
    # a bound first argument takes its functor's clauses and the
    # variable-first ones, interleaved in source order; a missing key takes
    # the variable-first ones only. A list is the stream under every rule.
    answers = solve_answers(INDEXED, parse_query(query), SolveOptions(selection_rule=rule))
    want = expected[rule] if isinstance(expected, dict) else expected
    assert [format_query(a.instantiated_query) for a in answers] == want


TREE = parse_program("anc(X, Y) :- par(X, Y). anc(X, Z) :- par(X, Y), anc(Y, Z)."
                     " par(r, a). par(r, b). par(a, c). par(a, d). par(b, e).")


@pytest.fixture
def compiled(monkeypatch):
    """The clauses engine._compile is called on, in call order."""
    calls = []
    real = engine._compile

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(engine, "_compile", counting)
    return calls


def test_leaf_bound_query_compiles_only_the_rules(compiled):
    answers = solve_answers(TREE, parse_query("anc(e, Z)"))
    assert answers == [] and compiled == list(TREE.clauses[:2])


def test_unbound_query_compiles_each_clause_once_per_call(compiled):
    for calls in (1, 2):
        assert len(solve_answers(TREE, parse_query("anc(X, Z)"))) == 8
        assert sorted(map(TREE.clauses.index, compiled)) == sorted(
            list(range(len(TREE.clauses))) * calls)


# --- the engine against the least Herbrand model --------------------------------

AB = (Compound("a"), Compound("b"))
ARITIES = {"p": 2, "q": 1, "r": 2}
_SIGNATURE = Signature(frozenset({("a", 0), ("b", 0)}))
_DEPTH_LIMIT = 6
# each predicate called with each constant first: the index's lookups
_BOUND_FIRST = [Query((Atom(p, (c,) + tuple(Var(f"V{i}") for i in range(1, n))),))
                for p, n in sorted(ARITIES.items()) for c in AB]


@st.composite
def _atom(draw, pred=None):
    pred = pred or draw(st.sampled_from(sorted(ARITIES)))
    # the first argument is a, b or a variable, so that goals meet both the
    # index buckets and the variable-first clauses
    first = draw(st.sampled_from(AB + (Var("X"),)))
    rest = st.sampled_from(AB + (Var("X"), Var("Y")))
    return Atom(pred, (first,) + tuple(draw(rest) for _ in range(ARITIES[pred] - 1)))


@st.composite
def _program_and_query(draw):
    clauses = [Clause(draw(_atom(pred)), tuple(draw(st.lists(_atom(), max_size=2))))
               for pred in sorted(ARITIES) for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.permutations(range(len(clauses))))
    query = Query(tuple(draw(st.lists(_atom(), min_size=1, max_size=2))))
    return Program(tuple(clauses[k] for k in order)), query


def _ground_instances(atoms) -> set:
    vs = term_vars([t for a in atoms for t in a.args])
    return {tuple(Atom(a.pred, tuple(apply_subst(dict(zip(vs, ts)), t) for t in a.args))
                  for a in atoms)
            for ts in product(AB, repeat=len(vs))}


@settings(max_examples=500, deadline=None)
@given(_program_and_query())
def test_engine_agrees_with_least_model(case):
    # function-free, so the fixpoint over the constants is the least
    # Herbrand model: answers are sound, a stream that ends untruncated is
    # complete, and the selection rules agree up to variants
    program, drawn = case
    model = tp_fixpoint(program, _SIGNATURE, 0, pool=AB)
    for query in [drawn, *_BOUND_FIRST]:
        correct = {g for g in _ground_instances(query.atoms) if model.issuperset(g)}
        variants = {}
        for rule in SELECTION_RULES:
            items = list(solve(program, query,
                               SolveOptions(selection_rule=rule, depth_limit=_DEPTH_LIMIT)))
            answers = [i.instantiated_query.atoms for i in items if isinstance(i, Answer)]
            got = set().union(*map(_ground_instances, answers))
            assert got <= correct
            if not any(isinstance(i, SearchTruncated) for i in items):
                assert got == correct
                variants[rule] = {format_query(Query(a)) for a in answers}
        if len(variants) == len(SELECTION_RULES):
            assert variants["leftmost"] == variants["rightmost"] == variants["fair"]
