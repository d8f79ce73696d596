"""Bounded Herbrand enumeration and bottom-up fixpoints."""

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck.herbrand import (
    ResourceCapError,
    bound_depth,
    count_terms,
    depth_profile,
    enumerate_terms,
    tp_fixpoint,
)
from queenscheck.parser import parse_program
from queenscheck.queens import nqueens_program
from queenscheck.specs import in_s_pq, spec_set
from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    Var,
    apply_subst,
    clause_template,
    DEFAULT_SIGNATURE,
    NIL,
    Program,
    Signature,
    ZERO,
    cons,
    format_atom,
    numeral,
    term_depth,
)
from queenscheck.verify import check_model

SIG = DEFAULT_SIGNATURE
MINIMAL_SIGNATURE = Signature(frozenset([("0", 0), ("s", 1), ("nil", 0), ("cons", 2)]))


def _atom_depth(a):
    return max((term_depth(t) for t in a.args), default=0)


def pq_fragment():
    """The pq clauses of the program, as the CLI's fixpoint suite takes them."""
    return Program(nqueens_program().clauses_for("pq"))


def test_enumerate_depth0_is_constants():
    got = set(enumerate_terms(SIG, 0))
    assert got == {Compound(c) for c in ("0", "nil", "a", "b", "c", "d", "e", "f")}


def test_enumerate_depth1_contains_small_compounds():
    got = set(enumerate_terms(SIG, 1))
    assert numeral(1) in got
    assert cons(ZERO, NIL) in got
    assert cons(Compound("a"), Compound("b")) in got


def test_enumerate_no_duplicates_and_count_matches():
    for depth in (0, 1, 2):
        terms = list(enumerate_terms(SIG, depth))
        assert len(terms) == len(set(terms)) == count_terms(SIG, depth)
        assert all(term_depth(t) <= depth for t in terms)


def test_count_minimal_signature_depth1():
    # 2 constants; s over 2; cons over 2x2
    assert count_terms(MINIMAL_SIGNATURE, 1) == 8


def test_count_default_signature_growth():
    assert [count_terms(SIG, d) for d in range(4)] == [8, 80, 6488, 42100640]


# check_model scans a unit clause's ground instances over the terms that
# keep every atom within the depth

def test_ground_instances_unit_clause_count():
    zero_row = nqueens_program().clauses[0]
    r = check_model(Program((zero_row,)), spec_set("s"), SIG, 0)
    assert (r.verdict, r.instances_examined) == ("pass", 8 ** 3)
    assert r.parameters["clause_0_scan"] == "uniform depth 0"


def test_ground_instances_ground_clause_identity():
    p = parse_program("pq(0,[],[],[]).")
    r = check_model(p, spec_set("s"), SIG, 2)
    assert r.instances_examined == 1
    assert [cx["head"] for cx in r.counterexamples] == ["pq(0,[],[],[])"]


def test_ground_instances_skeleton_exceeds_bound():
    base = nqueens_program().clauses[2]  # head already has depth-1 structure
    assert _atom_depth(base.head) == 1
    r = check_model(Program((base,)), spec_set("s"), SIG, 0)
    assert (r.verdict, r.instances_examined) == ("resource-capped", 0)
    assert r.parameters["clause_0_scan"] == "skipped: over budget"


def _pool(depth):
    """The pool tp_fixpoint took by default on SIG: 0, nil, a and the
    numerals up to the depth."""
    return (ZERO, NIL, Compound("a")) + tuple(numeral(n) for n in range(1, depth + 1))


def test_tp_fixpoint_empty_program():
    assert tp_fixpoint(Program(()), SIG, 2, _pool(2)) == frozenset()


def test_tp_fixpoint_pq_fragment_within_spec():
    fix = tp_fixpoint(pq_fragment(), SIG, 2, _pool(2))
    assert fix
    assert all(in_s_pq(a) for a in fix)


def test_tp_fixpoint_monotone_in_depth():
    f2 = tp_fixpoint(pq_fragment(), SIG, 2, _pool(2))
    f3 = tp_fixpoint(pq_fragment(), SIG, 3, _pool(3))
    assert f2 <= f3


def test_tp_fixpoint_engine_agreement():
    # every derived atom is provable by the resolution engine
    from queenscheck.engine import solve_answers
    from queenscheck.terms import Query
    p = pq_fragment()
    fix = tp_fixpoint(p, SIG, 2, _pool(2))
    for a in sorted(fix, key=format_atom)[:25]:
        assert solve_answers(p, Query((a,)))


def test_tp_fixpoint_resource_cap_partial():
    with pytest.raises(ResourceCapError) as e:
        tp_fixpoint(nqueens_program(), SIG, 3, _pool(3), max_atoms=50)
    assert e.value.partial is not None
    assert e.value.examined > 0


def _terms(leaves, depth=3):
    """Terms over the given leaves, f/1 and g/2, nested at most depth deep."""
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = _terms(leaves, depth - 1)
    return st.one_of(leaf,
                     st.builds(lambda t: Compound("f", (t,)), sub),
                     st.builds(lambda t, u: Compound("g", (t, u)), sub, sub))


_VARS = [Var("A"), Var("B"), Var("C")]


@settings(max_examples=300, deadline=None)
@given(st.lists(_terms(_VARS + [Compound("a")]), max_size=3),
       st.lists(st.one_of(st.none(), _terms([Compound("a"), NIL], 2)),
                min_size=3, max_size=3))
def test_bound_depth_is_skeleton_depth_of_the_partial_instance(args, values):
    # tp_fixpoint's head-depth pre-check, against building the instance
    head = Atom("p", tuple(args))
    vs, tpl, _ = clause_template(Clause(head))
    profile = depth_profile(tpl)
    assert profile[0] == _atom_depth(head)
    slots = values[:len(vs)]
    sub = {v: t for v, t in zip(vs, slots) if t is not None}
    assert bound_depth(profile, slots) == _atom_depth(
        Atom("p", tuple(apply_subst(sub, t) for t in head.args)))


def test_tp_fixpoint_default_pool_sizes():
    # recorded before heads were built from slot templates; the pool holds
    # numerals up to the depth, so the per-variable depth limits of the
    # filler products are exercised here
    assert len(tp_fixpoint(pq_fragment(), SIG, 2, _pool(2))) == 5_440
    assert len(tp_fixpoint(nqueens_program(), SIG, 2, _pool(2))) == 5_565
