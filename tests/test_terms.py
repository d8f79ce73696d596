"""Term model: numerals, lists, substitutions, depth, printing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    DEFAULT_SIGNATURE,
    MINIMAL_SIGNATURE,
    NIL,
    Program,
    Query,
    Signature,
    SignatureError,
    Var,
    ZERO,
    apply_subst,
    clause_template,
    cons,
    distinct_members,
    format_atom,
    format_clause,
    format_term,
    instantiate_atom,
    is_ground,
    is_proper_list,
    kth_member,
    make_list,
    match_template,
    members,
    numeral,
    numeral_value,
    term_depth,
    term_vars,
)
from unify_oracle import mgu

X, Y, V = Var("X"), Var("Y"), Var("V")
a, b = Compound("a"), Compound("b")


def test_apply_subst_basic():
    assert apply_subst({X: ZERO}, Compound("s", (X,))) == numeral(1)
    t = cons(a, cons(b, NIL))
    assert apply_subst({}, t) == t
    assert apply_subst({X: numeral(1), Y: NIL}, cons(X, Y)) == make_list([numeral(1)])


def test_apply_subst_ground_unchanged():
    t = make_list([numeral(2), a])
    assert apply_subst({X: b}, t) == t


def test_numeral_roundtrip():
    assert numeral(0) == ZERO
    assert numeral(2) == Compound("s", (Compound("s", (ZERO,)),))
    for n in (0, 1, 7, 100):
        assert numeral_value(numeral(n)) == n
    assert numeral_value(NIL) is None
    assert numeral_value(Compound("s", (NIL,))) is None
    with pytest.raises(ValueError):
        numeral(-1)


def test_kth_member():
    t = make_list([numeral(1), a, numeral(2), b])
    assert kth_member(t, 1) == numeral(1)
    assert kth_member(t, 3) == numeral(2)
    assert kth_member(t, 4) == b
    assert kth_member(t, 5) is None
    assert kth_member(NIL, 1) is None
    # open lists and non-list chains still expose their cons prefix
    assert kth_member(cons(a, V), 1) == a
    assert kth_member(cons(a, V), 2) is None
    assert kth_member(cons(a, cons(b, ZERO)), 2) == b
    with pytest.raises(ValueError):
        kth_member(t, 0)


def test_list_predicates():
    t = make_list([numeral(1), a, numeral(2), b])
    assert is_proper_list(t)
    assert members(t) == [numeral(1), a, numeral(2), b]
    assert distinct_members(t)
    assert members(make_list([numeral(1), ZERO])) == [numeral(1), ZERO]
    assert members(NIL) == [] and is_proper_list(NIL)
    rep = make_list([numeral(1), numeral(1)])
    assert is_proper_list(rep) and not distinct_members(rep)
    # an open list or a non-list chain still has its cons prefix as members
    open_l = cons(numeral(1), V)
    assert not is_proper_list(open_l)
    assert members(open_l) == [numeral(1)]
    assert not distinct_members(open_l)
    assert members(cons(a, V)) == [a]
    assert members(cons(a, cons(b, ZERO))) == [a, b]
    assert not is_proper_list(cons(a, cons(b, ZERO)))


# position-k membership commutes with substitution
@given(
    st.lists(st.sampled_from([a, b, X, Y, numeral(1)]), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([{}, {X: a}, {X: numeral(2), Y: NIL}, {Y: cons(a, NIL)}]),
)
def test_kth_member_closed_under_substitution(items, k, s):
    t = make_list(items)
    e = kth_member(t, k)
    if e is not None:
        assert kth_member(apply_subst(s, t), k) == apply_subst(s, e)


def test_term_vars_first_occurrence_order():
    t = Compound("f", (Y, cons(X, Y)))
    assert term_vars([t]) == [Y, X]
    assert term_vars([a]) == []
    assert term_vars([X, t, Compound("g", (V, Y))]) == [X, Y, V]


def test_groundness():
    assert is_ground(make_list([numeral(1), a]))
    assert not is_ground(cons(X, NIL))
    assert all(is_ground(t) for t in Atom("pq", (ZERO, NIL, NIL, NIL)).args)
    assert not all(is_ground(t) for t in Atom("pq", (X,)).args)


def test_depths():
    assert term_depth(ZERO) == 0
    assert term_depth(X) == 0
    assert term_depth(numeral(3)) == 3
    assert term_depth(make_list([a, b])) == 2


def test_formatting():
    assert format_term(numeral(2)) == "2"
    assert format_term(NIL) == "[]"
    assert format_term(make_list([numeral(1), a])) == "[1,a]"
    assert format_term(cons(a, V)) == "[a|V]"
    assert format_term(Compound("s", (NIL,))) == "s([])"
    assert format_atom(Atom("pqs", (ZERO, X, Y, V))) == "pqs(0,X,Y,V)"
    c = Clause(Atom("p", (X,)), (Atom("q", (X,)),))
    assert format_clause(c) == "p(X) :- q(X)."


def test_signature_checks():
    assert DEFAULT_SIGNATURE.arity("cons") == 2
    assert DEFAULT_SIGNATURE.arity("nope") is None
    # the arity map is derived from the symbols, so it takes no part in equality
    same = Signature(frozenset(DEFAULT_SIGNATURE.symbols))
    assert same == DEFAULT_SIGNATURE and hash(same) == hash(DEFAULT_SIGNATURE)
    assert same.arities == {"0": 0, "s": 1, "nil": 0, "cons": 2,
                            **{c: 0 for c in "abcdef"}}
    assert set("abcdef") <= set(DEFAULT_SIGNATURE.constants())
    assert MINIMAL_SIGNATURE.functions() == (("cons", 2), ("s", 1))
    DEFAULT_SIGNATURE.check_term(make_list([a, numeral(1)]))
    with pytest.raises(SignatureError):
        DEFAULT_SIGNATURE.check_term(Compound("g", (a,)))
    with pytest.raises(SignatureError):
        DEFAULT_SIGNATURE.check_term(Compound("s", (a, b)))
    with pytest.raises(SignatureError):
        Signature(frozenset([("f", 1)]))  # no constants
    with pytest.raises(SignatureError):
        Signature(frozenset([("f", 1), ("f", 2), ("c", 0)]))


def test_program_accessors():
    p = Program((
        Clause(Atom("p", (X,)), ()),
        Clause(Atom("q", (X, Y)), (Atom("p", (X,)),)),
    ))
    assert len(p.clauses_for("p")) == 1
    assert p.predicates() == {"p": 1, "q": 2}
    assert clause_template(p.clauses[1])[0] == [X, Y]


def test_apply_subst_atom_and_query():
    # an atom is substituted argument by argument, as the engine's query is
    atom = Atom("p", (X, a))
    assert tuple(apply_subst({X: b}, t) for t in atom.args) == (b, a)
    q = Query((atom,))
    assert q.atoms == (atom,)


def _terms(leaves, depth=3):
    """Terms over the given leaves, f/1 and g/2, nested at most depth deep."""
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = _terms(leaves, depth - 1)
    return st.one_of(leaf,
                     st.builds(lambda t: Compound("f", (t,)), sub),
                     st.builds(lambda t, u: Compound("g", (t, u)), sub, sub))


def _apply_subst_atom(s, a):
    return Atom(a.pred, tuple(apply_subst(s, t) for t in a.args))


def _atoms(pred, leaves):
    return st.lists(_terms(leaves), min_size=0, max_size=3).map(
        lambda args: Atom(pred, tuple(args)))


@settings(max_examples=300, deadline=None)
@given(_atoms("p", [Var("A"), Var("B"), Var("C"), a]),
       st.lists(_atoms("q", [Var("A"), Var("B"), Var("D"), b]), max_size=2),
       st.data())
def test_clause_template_agrees_with_apply_subst(head, body, data):
    c = Clause(head, tuple(body))
    vs, head_tpl, body_tpls = clause_template(c)
    assert vs == term_vars([t for x in (head, *body) for t in x.args])
    slots = data.draw(st.lists(_terms([a, b, numeral(1)], 2),
                               min_size=len(vs), max_size=len(vs)))
    sub = dict(zip(vs, slots))
    assert instantiate_atom(head_tpl, slots) == _apply_subst_atom(sub, head)
    assert [instantiate_atom(t, slots) for t in body_tpls] == \
        [_apply_subst_atom(sub, x) for x in body]


def _p(*args):
    return Atom("p", args)


@settings(max_examples=300, deadline=None)
@given(_atoms("p", [Var("A"), Var("B"), Var("C"), a]),
       st.lists(_terms([a, b, numeral(1)], 2), min_size=3, max_size=3),
       _atoms("p", [a, b, NIL]))
@example(_p(cons(X, Y)), [a, NIL, a], _p(make_list([a])))
@example(_p(cons(X, X)), [a, a, a], _p(cons(a, NIL)))
@example(_p(a), [a, a, a], _p(NIL))
# a numeral's functor is never bound: s(0) does not match s(s(0))
@example(_p(numeral(1)), [a, a, a], _p(numeral(2)))
@example(Atom("pq", (X, cons(X, Y))), [a, make_list([NIL]), a], Atom("pqs", (a, a)))
def test_match_template(pattern, values, other):
    vs, tpl, _ = clause_template(Clause(pattern))
    slots = values[:len(vs)]
    fact = instantiate_atom(tpl, slots)
    none = [None] * len(vs)
    # filling the slots and matching the result gives them back, from no
    # slot filled or from any one filled slot that agrees
    assert match_template(tpl, fact, none) == slots
    for i in range(len(vs)):
        part = none[:]
        part[i] = slots[i]
        assert match_template(tpl, fact, part) == slots
        part[i] = Compound("c")  # never one of the values
        assert match_template(tpl, fact, part) is None
    assert match_template(tpl, Atom("q", fact.args), none) is None
    assert match_template(tpl, Atom("p", fact.args + (a,)), none) is None
    # against a ground atom, one-way matching gives the unifier
    theta = mgu(Compound(pattern.pred, pattern.args), Compound(other.pred, other.args))
    assert match_template(tpl, other, none) == (
        None if theta is None else [theta[v] for v in vs])
