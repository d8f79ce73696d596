"""Resolution engine: answers, selection rules, depth limits."""

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck.engine import (
    Answer,
    SearchTruncated,
    SolveOptions,
    solve,
    solve_answers,
)
from queenscheck.parser import parse_program, parse_query, parse_term
from queenscheck.queens import initial_query, nqueens_program
from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    Program,
    Query,
    Var,
    apply_subst,
    clause_template,
    format_query,
    format_term,
    match_template,
    term_vars,
)
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
    assert solve_answers(parse_program(source), parse_query(query)) == []


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
    # reference for the engine's pre-check and first-occurrence flags; its
    # instance of the goal is the reference for the engine's head code
    head, goal = case
    goal_term = Compound(goal.pred, goal.args)
    theta = mgu(goal_term, Compound(head.pred, head.args))
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
