"""Concrete syntax: parsing, error reporting, print/parse round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck.parser import ParseError, parse_program, parse_query, parse_term
from queenscheck.terms import (
    Atom,
    Compound,
    DEFAULT_SIGNATURE,
    NIL,
    Var,
    ZERO,
    clause_template,
    cons,
    format_clause,
    format_term,
    make_list,
    numeral,
)


def test_parse_unit_clause_fresh_underscores():
    p = parse_program("pqs(0,_,_,_).")
    assert len(p.clauses) == 1
    c = p.clauses[0]
    assert c.head.pred == "pqs" and not c.body
    assert c.head.args[0] == numeral(0)
    vs = clause_template(c)[0]
    assert len(vs) == 3 and len(set(vs)) == 3  # each _ is fresh


def test_parse_empty_program():
    assert parse_program("").clauses == ()


def test_parse_shared_variable_clause():
    p = parse_program("pq(I,[I|_],[I|_],[I|_]).")
    c = p.clauses[0]
    i = Var("I")
    assert c.head.args[0] == i
    for arg in c.head.args[1:]:
        assert arg.functor == "cons" and arg.args[0] == i
    # I plus three distinct tail variables
    assert len(clause_template(c)[0]) == 4


def test_parse_terms():
    assert parse_term("0") == numeral(0)
    assert parse_term("3") == numeral(3)
    assert parse_term("[]") == NIL
    assert parse_term("[1,a]") == make_list([numeral(1), Compound("a")])
    assert parse_term("[a|T]") == cons(Compound("a"), Var("T"))
    assert parse_term("s(s(0))") == numeral(2)
    assert parse_term("foo(X,bar)") == Compound("foo", (Var("X"), Compound("bar")))


def test_parse_query_and_rules():
    q = parse_query("pqs(0,A,B,C)")
    assert q.atoms == (Atom("pqs", (numeral(0), Var("A"), Var("B"), Var("C"))),)
    q2 = parse_query("p(X), q(X).")
    assert len(q2.atoms) == 2
    p = parse_program("p(X) :- q(X), r(X).  % trailing comment\n")
    assert len(p.clauses[0].body) == 2


def test_parse_errors_have_location():
    with pytest.raises(ParseError) as e:
        parse_term("s(0")
    assert e.value.line == 1 and e.value.col == 4
    with pytest.raises(ParseError):
        parse_term("?")
    with pytest.raises(ParseError):
        parse_query("p(X) trailing")
    # a predicate used at two arities: the error is at the second one
    with pytest.raises(ParseError, match="predicate p used with arities 1 and 2") as e:
        parse_program("p(a). p(a,b).")
    assert (e.value.line, e.value.col) == (1, 7)
    with pytest.raises(ParseError, match="predicate p used with arities 1 and 2") as e:
        parse_program("p(a).\nq(b).\np(a, b).")
    assert (e.value.line, e.value.col) == (3, 1)
    with pytest.raises(ParseError, match="predicate q used with arities 0 and 1") as e:
        parse_query("p(X), q,\n  q(X)")
    assert (e.value.line, e.value.col) == (2, 3)


def test_signature_enforcement():
    parse_program("p([a,b]).", DEFAULT_SIGNATURE)
    with pytest.raises(Exception):
        parse_program("p(zebra(0)).", DEFAULT_SIGNATURE)


def test_print_parse_roundtrip():
    src = "pqs(0,_,_,_).\npqs(s(I),Cs,Us,[_|Ds]) :- pqs(I,Cs,[_|Us],Ds), pq(s(I),Cs,Us,Ds).\n"
    p = parse_program(src)
    again = parse_program("\n".join(map(format_clause, p.clauses)))
    # identical up to the fresh names the parser invents for _
    assert len(again.clauses) == len(p.clauses)
    assert list(map(format_clause, again.clauses)) == list(map(format_clause, p.clauses))


def test_numeral_printing_roundtrip():
    for text in ("0", "5", "[1,2|T]", "[s(0)|X]", "cons(a,a)"):
        assert format_term(parse_term(format_term(parse_term(text)))) == format_term(
            parse_term(text)
        )


def test_numerals_share_their_predecessors():
    # a literal n reuses the numeral n-1 built before it in the same parse,
    # so a list of consecutive numerals is linear to build
    t = parse_term("[2,1]")
    two, one = t.args[0], t.args[1].args[0]
    assert (two, one) == (numeral(2), numeral(1))
    assert two.args[0] is one


def _chain(functor, n, leaf):
    for _ in range(n):
        leaf = Compound(functor, (leaf,))
    return leaf


DEEP = 10_000


def _every_entry(text):
    """The term `text` read by parse_term, and as an argument of a query,
    a clause head and a clause body."""
    (q,) = parse_query(f"p({text})").atoms
    (c,) = parse_program(f"p({text}) :- q({text}).").clauses
    return [parse_term(text), q.args[0], c.head.args[0], c.body[0].args[0]]


@pytest.mark.parametrize("text, want", [
    ("s(" * DEEP + "0" + ")" * DEEP, numeral(DEEP)),
    ("f(" * DEEP + "a" + ")" * DEEP, _chain("f", DEEP, Compound("a"))),
    ("[" + ",".join(["a", "X"] * (DEEP // 2)) + "|T]",
     make_list([Compound("a"), Var("X")] * (DEEP // 2), Var("T"))),
], ids=["s-chain", "f-chain", "open-list"])
def test_deep_terms_parse(text, want):
    assert _every_entry(text) == [want] * 4


def test_long_list_of_consecutive_numerals_parses():
    # each item must be s of the item before it, the same object, so the
    # check is linear; comparing with separately built numerals would
    # walk every numeral to 0
    for t in _every_entry("[" + ",".join(map(str, range(DEEP))) + "]"):
        items = []
        while t != NIL:
            assert t.functor == "cons"
            item, t = t.args
            if items:
                assert item.functor == "s" and item.args[0] is items[-1]
                assert len(item.args) == 1
            else:
                assert item == ZERO
            items.append(item)
        assert len(items) == DEEP


_leaves = st.one_of(
    st.sampled_from([Compound("a"), Compound("s"), Compound("cons"), NIL, ZERO]),
    st.builds(numeral, st.integers(0, 12)),
    st.sampled_from([Var("X"), Var("Y1"), Var("_G3"), Var("_t")]))
_terms = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Compound, st.sampled_from(["f", "s", "cons", "nil", "g_1"]),
              st.lists(sub, min_size=1, max_size=3).map(tuple)),
    st.builds(make_list, st.lists(sub, max_size=4), st.one_of(st.just(NIL), sub))),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_terms, st.sampled_from([("f", 0), ("s", 1), ("f", 1), ("s", DEEP), ("f", DEEP)]))
def test_format_parse_roundtrip(t, chain):
    # terms built without the parser: constants, numerals, proper and open
    # lists, compounds and named variables, some under a chain DEEP long
    t = _chain(*chain, t)
    assert parse_term(format_term(t)) == t
