"""Term model: numerals, lists, substitutions, depth, printing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    DEFAULT_SIGNATURE,
    NIL,
    Program,
    Query,
    Signature,
    SignatureError,
    Var,
    ZERO,
    apply_subst,
    atom_builder,
    clause_template,
    cons,
    distinct_members,
    format_atom,
    format_clause,
    format_term,
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
from queenscheck.unify import Cell, resolve
from conftest import time_limit
from unify_oracle import mgu

X, Y, V = Var("X"), Var("Y"), Var("V")
a, b = Compound("a"), Compound("b")
MINIMAL_SIGNATURE = Signature(frozenset([("0", 0), ("s", 1), ("nil", 0), ("cons", 2)]))


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


def _walk_finds_no_var_or_cell(t):
    return t.__class__ is Compound and all(map(_walk_finds_no_var_or_cell, t.args))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ground_flag_agrees_with_a_full_walk(data):
    leaves = [X, Cell(), a, NIL, numeral(0), numeral(3)]
    t = data.draw(_terms(leaves + [make_list([numeral(2), X]), cons(Cell(), NIL)]))
    assert t.__class__ is not Compound or t.ground == _walk_finds_no_var_or_cell(t)
    assert is_ground(t) == _walk_finds_no_var_or_cell(t)


def _shared_numerals(n):
    """numeral(0), ..., numeral(n - 1), each the successor of the one
    before, as the parser shares them."""
    out = [ZERO]
    while len(out) < n:
        out.append(Compound("s", (out[-1],)))
    return out


#: A ground list of 3,000 numerals sharing their subterms: walked as a
#: tree it has about 4.5 million nodes.
_BIG = make_list(_shared_numerals(3000))


def test_walkers_keep_ground_subterms_as_they_are():
    c = Clause(Atom("p", (X, _BIG)), (Atom("q", (_BIG, Compound("f", (X, _BIG)))),))
    _, (_, head), ((_, body),) = clause_template(c)
    assert head[1] is _BIG and body[0] is _BIG and body[1] == ("f", (0, _BIG))
    assert body[1][1][1] is _BIG
    assert apply_subst({X: a}, _BIG) is _BIG
    assert apply_subst({X: a}, Compound("f", (X, _BIG))).args[1] is _BIG
    assert resolve(_BIG, {}) is _BIG
    cell = Cell()
    assert resolve(Compound("f", (cell, _BIG)), {cell: a}).args[1] is _BIG
    assert term_vars([Compound("f", (_BIG, X))]) == [X]


def test_depths():
    assert term_depth(ZERO) == 0
    assert term_depth(X) == 0
    assert term_depth(Compound("f", (X,))) == 1
    assert term_depth(numeral(3)) == 3
    assert term_depth(make_list([a, b])) == 2


def _chain(functor, n, leaf):
    for _ in range(n):
        leaf = Compound(functor, (leaf,))
    return leaf


DEEP_SIGNATURE = Signature(frozenset([("0", 0), ("s", 1), ("c", 0), ("f", 1)]))


@pytest.mark.parametrize("deep", [numeral(10_000), _chain("f", 10_000, Compound("c"))],
                         ids=["numeral", "f-chain"])
def test_walkers_return_on_deep_terms(deep):
    assert is_ground(deep)
    assert term_depth(deep) == 10_000
    DEEP_SIGNATURE.check_term(deep)
    assert not is_ground(_chain(deep.functor, 10_000, X))
    with pytest.raises(SignatureError, match="undeclared symbol g/0"):
        DEEP_SIGNATURE.check_term(_chain(deep.functor, 10_000, Compound("g")))


def _plain(t):
    """t as nested plain tuples (functor, (arguments...))."""
    return (t.functor, tuple(_plain(u) for u in t.args))


def _plain_depth(p):
    return 1 + max(map(_plain_depth, p[1])) if p[1] else 0


def _build(p, shared=None):
    """The term of plain tuples p: with one object per distinct subterm when
    shared is a dict, and a new object for every node (constants too) when
    it is None."""
    if shared is not None and p in shared:
        return shared[p]
    t = Compound(p[0], tuple(_build(u, shared) for u in p[1]))
    if shared is not None:
        shared[p] = t
    return t


_plains = st.recursive(
    st.sampled_from([("a", ()), ("b", ())]),
    lambda sub: st.tuples(st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3).map(tuple)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_plains, _plains, st.booleans())
def test_cached_hash_depth_and_equality_agree_with_plain_tuples(p, q, same):
    q = p if same else q
    s, t = _build(p, {}), _build(q)
    assert _plain(s) == p and _plain(t) == q
    # deeper than the recursive-comparison bound, so == walks a stack
    ds, dt = _chain("f", 150, s), _chain("f", 150, t)
    for x, y, px, py in ((s, t, p, q), (ds, dt, _plain(ds), _plain(dt))):
        assert (x == y) == (px == py) == (y == x)
        assert hash(x) == hash(px) and hash(y) == hash(py)
        assert term_depth(x) == _plain_depth(px)
    assert term_depth(ds) == term_depth(s) + 150


@pytest.mark.parametrize("field", ["functor", "args", "depth", "ground"])
def test_compound_is_immutable(field):
    t = numeral(2)
    with pytest.raises(AttributeError):
        setattr(t, field, None)
    with pytest.raises(AttributeError):
        delattr(t, field)
    assert t == numeral(2) and term_depth(t) == 2


def test_deep_terms_hash_and_compare():
    n, m = numeral(100_000), numeral(100_000)
    assert n is not m and hash(n) == hash(m) and n == m
    assert n != numeral(99_999) and n != Compound("s", (numeral(99_999), ZERO))


def test_formatting():
    assert format_term(numeral(2)) == "2"
    assert format_term(NIL) == "[]"
    assert format_term(make_list([numeral(1), a])) == "[1,a]"
    assert format_term(cons(a, V)) == "[a|V]"
    assert format_term(Compound("s", (NIL,))) == "s([])"
    assert format_atom(Atom("pqs", (ZERO, X, Y, V))) == "pqs(0,X,Y,V)"
    c = Clause(Atom("p", (X,)), (Atom("q", (X,)),))
    assert format_clause(c) == "p(X) :- q(X)."


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_format_term_prints_shared_numerals_in_linear_time(order):
    # each numeral is s/1 around the one before it, so walking every spine to
    # its end would take 50 million steps; an s/1 spine over a shared numeral
    # that does not end in 0 still prints as s(...)
    nums = _shared_numerals(10_000)
    t = make_list([Compound("s", (Compound("s", (V,)),)), *nums[::order],
                   Compound("s", (nums[5], a)), Compound("s", (Compound("s", (nums[3],)),))])
    with time_limit(2):
        text = format_term(t)
    assert text == "[s(s(V))," + ",".join(map(str, range(10_000)[::order])) + ",s(5,a),5]"


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


@st.composite
def _deep_terms(draw, leaves):
    """Terms over leaves, f/1 and g/2, nested up to 150 deep: a term t of
    `_terms` wrapped in up to 148 more cells, each f(t), g(t, u) or
    g(u, t), where u is one term shared by all the g cells."""
    t, u = draw(_terms(leaves, 2)), draw(_terms(leaves, 1))
    n = draw(st.integers(0, 148))
    for kind in draw(st.lists(st.sampled_from("fgG"), min_size=n, max_size=n)):
        args = {"f": (t,), "g": (t, u), "G": (u, t)}[kind]
        t = Compound("f" if kind == "f" else "g", args)
    return t


@st.composite
def _clauses(draw):
    """Clauses p(...) :- q(...), ... whose templates nest up to 150 deep,
    with ground subterms, body arguments shared with the head, and a
    variable D that occurs only in the body."""
    head_terms = _deep_terms([Var("A"), Var("B"), Var("C"), a, make_list([a])])
    head = Atom("p", tuple(draw(st.lists(head_terms, max_size=3))))
    body_terms = _deep_terms([Var("A"), Var("B"), Var("D"), b, numeral(2)])
    if head.args:
        body_terms = st.one_of(body_terms, st.sampled_from(head.args))
    body = draw(st.lists(st.lists(body_terms, max_size=3), max_size=2))
    return Clause(head, tuple(Atom("q", tuple(args)) for args in body))


@settings(max_examples=100, deadline=None)
@given(_clauses(), st.data())
def test_clause_template_agrees_with_apply_subst(c, data):
    # an atom builder fills a template's slots as the substitution of the
    # clause's variables does
    vs, head_tpl, body_tpls = clause_template(c)
    assert vs == term_vars([t for x in (c.head, *c.body) for t in x.args])
    slots = data.draw(st.lists(_terms([a, b, numeral(1)], 2),
                               min_size=len(vs), max_size=len(vs)))
    sub = dict(zip(vs, slots))
    for tpl, atom in zip((head_tpl, *body_tpls), (c.head, *c.body)):
        assert atom_builder(tpl)(slots) == _apply_subst_atom(sub, atom)


def test_atom_builder_takes_any_name():
    # names reach a builder as constants, not as source text, so quotes, a
    # newline and a closing parenthesis come back unchanged
    pred, functor = "p'\")\n", "f(\"'\n)"
    c = Clause(Atom(pred, (Compound(functor, (X, Compound(functor))), X)))
    _, tpl, _ = clause_template(c)
    got = atom_builder(tpl)([b])
    assert got == Atom(pred, (Compound(functor, (b, Compound(functor))), b))
    assert got.pred == pred and got.args[0].functor == functor
    # a template of the same shape shares the code, not the constants
    _, same_shape, _ = clause_template(Clause(Atom("q", (Compound("g", (X, a)), X))))
    assert atom_builder(same_shape)([b]) == Atom("q", (Compound("g", (b, a)), b))


def test_atom_builder_on_a_long_open_list():
    # the body of p(Y) :- q([0,1,...,9,0,...|Y]) with 3000 cells: the
    # builder has one flat statement per cell, so it does not recurse
    items = [numeral(i % 10) for i in range(3000)]
    c = Clause(Atom("p", (Y,)), (Atom("q", (make_list(items, Y),)),))
    _, _, (tpl,) = clause_template(c)
    assert atom_builder(tpl)([a]) == Atom("q", (make_list(items, a),))


@pytest.mark.parametrize("field", ["pred", "args"])
def test_atom_is_immutable(field):
    atom = Atom("p", (X, a))
    with pytest.raises(AttributeError):
        setattr(atom, field, None)
    with pytest.raises(AttributeError):
        delattr(atom, field)
    assert atom == Atom("p", (X, a))


def test_atom_hash_equality_and_repr():
    # as a frozen dataclass of the two fields has them
    atom = Atom("p", (X, numeral(1)))
    assert hash(atom) == hash(("p", (X, numeral(1))))
    assert atom == Atom("p", (X, numeral(1))) and atom != Atom("q", atom.args)
    assert (atom == ("p", atom.args)) is False
    assert (atom == Compound("p", atom.args)) is False
    assert repr(atom) == "Atom(p(X,1))"


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
    fact = atom_builder(tpl)(slots)
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
