"""Specification sets, diagonal bookkeeping, level mapping, samplers."""

from itertools import islice

import pytest
from hypothesis import given, strategies as st

from queenscheck.parser import parse_term
from queenscheck.specs import (
    DIAGONALS,
    PlacementTriple,
    QUEENS_LEVEL_MAPPING,
    correct_up_to,
    filler_terms,
    in_s,
    in_s0,
    in_s0_pqs,
    in_s_pq,
    in_s_pqs,
    sample_s,
    sample_s0,
    sample_s0_pqs,
    sample_s_pq,
    spec_set,
    spine,
    term_pool,
)
from queenscheck.terms import (
    Atom,
    Compound,
    DEFAULT_SIGNATURE,
    NIL,
    ZERO,
    cons,
    numeral,
    term_depth,
)

SIG = DEFAULT_SIGNATURE
level = QUEENS_LEVEL_MAPPING.atom_level


def _atom(text):
    t = parse_term(text)
    return Atom(t.functor, t.args)


def diag(name, j, k, i):
    """Position of queen j in column k on list `name`, in the context of row i."""
    ck, cj, ci = DIAGONALS[name]
    return ck * k + cj * j + ci * i


def test_diag_numbers():
    # queen 1 at column 2 in the context of row i
    for i in range(5):
        assert diag("us", 1, 2, i) == 3 - i
        assert diag("ds", 1, 2, i) == 1 + i
    # a queen on the context row: both numbers collapse to its column
    assert diag("us", 3, 4, 3) == 4
    assert diag("ds", 3, 4, 3) == 4
    assert diag("us", 2, 3, 2) == 3
    assert diag("ds", 1, 2, 1) == 2


@given(
    st.integers(1, 6), st.integers(1, 6),
    st.integers(1, 6), st.integers(1, 6),
    st.integers(0, 6), st.integers(0, 6),
)
def test_diag_equality_independent_of_context_row(j1, k1, j2, k2, i1, i2):
    up_eq_1 = diag("us", j1, k1, i1) == diag("us", j2, k2, i1)
    up_eq_2 = diag("us", j1, k1, i2) == diag("us", j2, k2, i2)
    assert up_eq_1 == up_eq_2 == (k1 + j1 == k2 + j2)
    dn_eq_1 = diag("ds", j1, k1, i1) == diag("ds", j2, k2, i1)
    assert dn_eq_1 == (k1 - j1 == k2 - j2)


def test_correct_up_to_worked_triples():
    t = PlacementTriple(
        parse_term("[1,a,2,b]"), parse_term("[c,d,2]"), parse_term("[e,1,2]")
    )
    assert correct_up_to(t, 2, 2)
    t2 = PlacementTriple(
        parse_term("[1,a,2,b]"), parse_term("[d,2]"), parse_term("[f,e,1,2]")
    )
    assert correct_up_to(t2, 2, 3)


def test_correct_up_to_m_zero():
    distinct = PlacementTriple(parse_term("[a,b]"), NIL, NIL)
    assert correct_up_to(distinct, 0, 0)
    assert correct_up_to(distinct, 0, 3)
    repeated = PlacementTriple(parse_term("[1,1]"), NIL, NIL)
    assert not correct_up_to(repeated, 0, 0)
    assert not correct_up_to(distinct, 1, 0)  # m > i


def test_correct_up_to_rejections():
    # missing queen
    t = PlacementTriple(parse_term("[a,b]"), NIL, NIL)
    assert not correct_up_to(t, 1, 1)
    # shared down-diagonal: queens 1 and 2 at columns 2 and 3
    t2 = PlacementTriple(parse_term("[a,1,2]"), parse_term("[a,a,1,a,2]"), NIL)
    assert not correct_up_to(t2, 2, 2)
    # wrong member at a forced diagonal position
    t3 = PlacementTriple(
        parse_term("[1,a,2,b]"), parse_term("[c,d,c]"), parse_term("[e,1,2]")
    )
    assert not correct_up_to(t3, 2, 2)


def test_in_s_pq():
    assert in_s_pq(_atom("pq(1,[1],[1],[1])"))
    assert in_s_pq(_atom("pq(1,[0,1],[0,1],[0,1])"))
    assert not in_s_pq(_atom("pq(0,[],[],[])"))
    # the shared position must be the SAME k in all three arguments
    assert not in_s_pq(_atom("pq(1,[1,0],[0,1],[0,1])"))
    assert not in_s_pq(_atom("pqs(1,[1],[1],[1])"))
    # open tails are fine as long as the shared prefix exists
    assert in_s_pq(_atom("pq(a,[a|0],[a|0],[a|0])"))


@given(st.sampled_from([parse_term("0"), parse_term("a"), parse_term("[b]")]),
       st.sampled_from([parse_term("0"), parse_term("nil")]),
       st.sampled_from([parse_term("1"), parse_term("b")]))
def test_s_pq_closed_under_cons_prefix(x, y, z):
    base = _atom("pq(1,[0,1],[0,1],[0,1])")
    assert in_s_pq(base)
    i, cs, us, ds = base.args
    extended = Atom("pq", (i, cons(x, cs), cons(y, us), cons(z, ds)))
    assert in_s_pq(extended)


def test_in_s_pqs():
    assert in_s_pqs(_atom("pqs(0,a,b,c)"))
    assert in_s_pqs(_atom("pqs(2,[1,0,2,0],[0,0,2],[0,1,2])"))
    # non-numeral first argument falls outside
    assert not in_s_pqs(_atom("pqs(a,[],[],[])"))
    # fourth argument must carry a head cell when i > 0
    assert not in_s_pqs(_atom("pqs(1,[1,1],[],[])"))
    # repeated members: the correctness conditional is vacuous
    assert in_s_pqs(_atom("pqs(1,[1,1],[],[0])"))
    # queen missing from the column list
    assert not in_s_pqs(_atom("pqs(1,[a,b],[],[0])"))


def test_in_s_union():
    assert in_s(_atom("pq(1,[1],[1],[1])"))
    assert in_s(_atom("pqs(0,a,b,c)"))
    assert not in_s(Atom("other", ()))


def test_in_s0():
    # a ground two-queens answer with distinct fillers
    assert in_s0_pqs(_atom("pqs(2,[1,a,2,b],[c,d,2],[f,e,1,2])"))
    # repeated filler members break the distinctness side condition, so the
    # atom stays in the lenient correctness set but not the completeness one
    lax = _atom("pqs(2,[1,0,2,0],[0,0,2|0],[0,1,2|0])")
    assert in_s_pqs(lax) and not in_s0_pqs(lax)
    assert not in_s0_pqs(_atom("pqs(0,a,b,c)"))
    assert in_s0(_atom("pqs(0,a,b,c)"))  # the zero row is added separately
    assert in_s0(_atom("pq(1,[1],[1],[1])")) == in_s_pq(_atom("pq(1,[1],[1],[1])"))
    # completeness is strict about correctness even with repeated members
    assert not in_s0_pqs(_atom("pqs(1,[1,1],[],[0])"))


def test_term_size_and_level():
    assert spine(ZERO) == (0, ZERO)
    assert spine(numeral(3)) == (3, ZERO)
    assert spine(parse_term("[1,2]")) == (2, NIL)
    assert spine(cons(ZERO, ZERO))[0] == 1  # non-list tail still counts the cell
    assert spine(parse_term("[a|s(X)]")) == (2, parse_term("X"))
    assert level(_atom("pqs(s(0),[1,2],0,0)")) == 3
    assert level(_atom("pq(0,[],[],[])")) == 0
    assert level(Atom("pqs", (ZERO, cons(ZERO, ZERO), ZERO, ZERO))) == 1
    with pytest.raises(ValueError):
        level(Atom("other", (ZERO,)))
    # the mapping's data gives the paper's level: |pqs(I,Cs,_,_)| is
    # size(I) + size(Cs), |pq(_,Cs,_,_)| is size(Cs)
    for a in islice(sample_s(SIG, 1), 0, None, 53):
        sizes = [spine(t)[0] for t in a.args]
        want = sizes[0] + sizes[1] if a.pred == "pqs" else sizes[1]
        assert level(a) == want, a
    assert QUEENS_LEVEL_MAPPING.linear_form(_atom("pqs(s(I),[a|Cs],U,D)")) == (
        2, {parse_term("I"): 1, parse_term("Cs"): 1})


def test_samplers_sound():
    # every sampled atom really belongs to its set
    for name in ("s_pq", "s_pqs", "s0_pqs", "s0", "s"):
        spec = spec_set(name)
        for a in islice(spec.sample(SIG, 3), 400):
            assert spec.contains(a), (name, a)


def test_sampler_s0_pqs_reaches_small_rows():
    # three queens need at least four columns to avoid the diagonals, so
    # row 3 only shows up once the bound allows length-4 lists
    atoms3 = list(sample_s0_pqs(SIG, 3))
    assert {a.args[0] for a in atoms3} == {numeral(1), numeral(2)}
    atoms4 = list(sample_s0_pqs(SIG, 4))
    rows = {a.args[0] for a in atoms4}
    assert {numeral(1), numeral(2), numeral(3), numeral(4)} <= rows


def test_sampler_s0_prefix_diverse():
    prefix = list(islice(sample_s0(SIG, 2), 5000))
    preds = {a.pred for a in prefix}
    assert preds == {"pqs", "pq"}
    assert any(a.pred == "pqs" and a.args[0] == ZERO for a in prefix)
    assert any(a.pred == "pqs" and a.args[0] != ZERO for a in prefix)


def test_grounding_pool_slices():
    # each slice the checks take from term_pool, on the default signature,
    # against the terms the builders it replaced gave, in order
    a, one, two = Compound("a"), numeral(1), numeral(2)
    # check_model's fillers, and the samplers' fill terms
    assert term_pool(SIG, 0) == filler_terms(SIG) == (ZERO, a)
    # the fixpoint suite's pool, shared by its fixpoint and its pq slice
    assert term_pool(SIG, 1) == (ZERO, a, one)
    # the pq sampler's member pool at depths 1, 2 and 3
    for depth, want in ((1, (ZERO, a, one)), (2, (ZERO, a, one, two)),
                        (3, (ZERO, a, one, two))):
        assert term_pool(SIG, min(depth, 2)) == want
        assert list(sample_s_pq(SIG, depth)) == list(sample_s_pq(SIG, depth, pool=want))
    # _coverer's extra terms at depth 2: the fillers and the numerals 0..2
    assert set(term_pool(SIG, 2)) == {ZERO, a, one, two}


def test_sample_s_pq_respects_depth_bound():
    for a in islice(sample_s_pq(SIG, 2), 500):
        assert all(term_depth(t) <= 2 for t in a.args)


def test_spec_set_lookup():
    assert spec_set("s").name == "s"
    with pytest.raises(ValueError):
        spec_set("bogus")
