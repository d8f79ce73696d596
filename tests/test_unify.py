"""Unification: soundness, idempotence, the occur-check, matching."""

from hypothesis import given, strategies as st

from queenscheck.parser import parse_term
from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    NIL,
    Var,
    apply_subst,
    clause_template,
    cons,
    make_list,
    match_template,
    numeral,
    term_vars,
)
from unify_oracle import mgu

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a = Compound("a")


def test_mgu_identity_and_trivia():
    assert mgu(X, X) == {}
    assert mgu(a, a) == {}
    assert mgu(X, a) == {X: a}
    assert mgu(a, Compound("b")) is None


def test_mgu_occur_check_modes():
    s_x = Compound("s", (X,))
    assert mgu(X, s_x) is None
    assert mgu(cons(X, Y), cons(Y, X)) is not None


def test_mgu_resolution_step_shape():
    # head of the walking base clause against a concrete goal
    head = parse_term("f(I,[I|A],[I|B],[I|C])")
    goal = parse_term("f(s(0),[s(0)|T1],U,D)")
    s = mgu(head, goal)
    assert s is not None
    assert apply_subst(s, head) == apply_subst(s, goal)
    assert s[Var("I")] == numeral(1)
    u = apply_subst(s, Var("U"))
    d = apply_subst(s, Var("D"))
    assert u.functor == "cons" and u.args[0] == numeral(1)
    assert d.functor == "cons" and d.args[0] == numeral(1)


def test_unify_atoms():
    # an atom unifies as the compound of its predicate and arguments
    got = mgu(
        Compound("pqs", (numeral(0), X, Y, Z)),
        Compound("pqs", (numeral(0), NIL, NIL, NIL)),
    )
    assert got == {X: NIL, Y: NIL, Z: NIL}
    assert mgu(Compound("pqs", (X,)), Compound("pq", (X,))) is None
    assert mgu(
        Compound("pq", (numeral(0), NIL, NIL, NIL)),
        Compound("pq", (numeral(1), NIL, NIL, NIL)),
    ) is None


_terms = st.recursive(
    st.sampled_from([X, Y, Z, a, Compound("b"), numeral(0), NIL]),
    lambda kids: st.builds(lambda h, t: cons(h, t), kids, kids)
    | st.builds(lambda t: Compound("s", (t,)), kids),
    max_leaves=6,
)


@given(_terms, _terms)
def test_mgu_sound_and_idempotent(t1, t2):
    s = mgu(t1, t2)
    if s is not None:
        r1, r2 = apply_subst(s, t1), apply_subst(s, t2)
        assert r1 == r2
        assert apply_subst(s, r1) == r1  # idempotent
        range_vars = set(term_vars(s.values()))
        assert not (set(s) & range_vars)


@given(_terms, _terms)
def test_mgu_symmetric(t1, t2):
    s12 = mgu(t1, t2)
    s21 = mgu(t2, t1)
    assert (s12 is None) == (s21 is None)
    if s12 is not None:
        # unified results agree up to renaming; sizes of the images match
        assert apply_subst(s21, apply_subst(s12, t1)) == apply_subst(s21, apply_subst(s12, t2))


def test_occur_check_off_ends_on_cyclic_bindings():
    # binding B to f(...B...) in the second argument fails the occurs scan
    t1 = parse_term("p(g(C,B),B,B)")
    t2 = parse_term("p(Z,f(g(g(Z,Z),f(Z))),f(Z))")
    assert mgu(t1, t2) is None


def _match(pattern, fact, subst=None):
    """One-way matching of pattern against fact as a substitution, through
    the pattern's slot template; subst fills slots before matching."""
    vs, tpl, _ = clause_template(Clause(pattern))
    slots = match_template(tpl, fact, [(subst or {}).get(v) for v in vs])
    return None if slots is None else dict(zip(vs, slots))


def test_match_atom_one_way():
    def p(*args):
        return Atom("p", args)

    assert _match(p(cons(X, Y)), p(make_list([a]))) == {X: a, Y: NIL}
    assert _match(p(cons(X, X)), p(cons(a, a))) == {X: a}
    assert _match(p(cons(X, X)), p(cons(a, NIL))) is None
    assert _match(p(a), p(NIL)) is None
    # matching never binds target-side structure into the pattern's functor
    assert _match(p(numeral(1)), p(numeral(2))) is None
    # a given substitution is extended, never overwritten
    assert _match(p(X, Y), p(a, NIL), {X: a}) == {X: a, Y: NIL}
    assert _match(p(X), p(NIL), {X: a}) is None


def test_match_atom():
    pat = Atom("pq", (X, cons(X, Y)))
    fact = Atom("pq", (a, make_list([a, NIL])))
    assert _match(pat, fact) == {X: a, Y: make_list([NIL])}
    assert _match(pat, Atom("pqs", (a, a))) is None
