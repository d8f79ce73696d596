"""Bounded Herbrand enumeration and bottom-up fixpoints."""

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck.herbrand import (
    ResourceCapError,
    atom_depth_skeleton,
    bound_depth,
    count_terms,
    depth_profile,
    enumerate_ground_instances,
    enumerate_terms,
    serialize_atoms,
    tp_fixpoint,
    tp_step,
)
from queenscheck.parser import parse_program, parse_query
from queenscheck.queens import nqueens_program, pq_fragment
from queenscheck.specs import in_s_pq
from queenscheck.terms import (
    Atom,
    Compound,
    Var,
    apply_subst_atom,
    DEFAULT_SIGNATURE,
    MINIMAL_SIGNATURE,
    NIL,
    ZERO,
    cons,
    format_atom,
    make_list,
    numeral,
    term_depth,
)

SIG = DEFAULT_SIGNATURE


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


def test_ground_instances_unit_clause_count():
    p = nqueens_program()
    zero_row = p.clauses[0]
    insts = list(enumerate_ground_instances(zero_row, SIG, 0))
    assert len(insts) == 8 ** 3
    assert all(not c.body for c in insts)


def test_ground_instances_ground_clause_identity():
    p = parse_program("pq(0,[],[],[]).")
    assert list(enumerate_ground_instances(p.clauses[0], SIG, 2)) == [p.clauses[0]]


def test_ground_instances_skeleton_exceeds_bound():
    base = nqueens_program().clauses[2]  # head already has depth-1 structure
    assert list(enumerate_ground_instances(base, SIG, 0)) == []
    assert atom_depth_skeleton(base.head) == 1


def test_ground_instances_blowup_warning():
    wide = parse_program("p(A,B,C,D,E,F,G).").clauses[0]  # 7 variables
    with pytest.warns(UserWarning):
        next(enumerate_ground_instances(wide, SIG, 2), None)


def _small_base():
    i1 = numeral(1)
    lists = [NIL, make_list([i1]), make_list([ZERO, i1]), make_list([i1, ZERO])]
    atoms = set()
    for i in (ZERO, i1):
        for cs in lists:
            for us in lists:
                for ds in lists:
                    atoms.add(Atom("pq", (i, cs, us, ds)))
                    atoms.add(Atom("pqs", (i, cs, us, ds)))
    return frozenset(atoms)


def test_tp_step_unit_clause_fills_zero_rows():
    base = _small_base()
    got = tp_step(nqueens_program(), frozenset(), base)
    zero_rows = {a for a in base if a.pred == "pqs" and a.args[0] == ZERO}
    assert zero_rows <= got


def test_tp_step_monotone_and_subset_guard():
    base = _small_base()
    s0 = frozenset()
    s1 = tp_step(pq_fragment(), s0, base)
    assert s0 <= s1
    s2 = tp_step(pq_fragment(), s1, base)
    assert s1 <= s2
    with pytest.raises(ValueError):
        tp_step(pq_fragment(), {Atom("pq", (ZERO, ZERO, ZERO, ZERO))}, base)


def test_tp_step_base_clause_instances_only():
    base = _small_base()
    first = tp_step(pq_fragment(), frozenset(), base)
    i1 = numeral(1)
    # from the empty set only the non-recursive clause can fire
    for a in first:
        assert a.args[1].args and a.args[1].args[0] == a.args[0]
    assert Atom("pq", (i1, make_list([i1]), make_list([i1]), make_list([i1]))) in first


def test_tp_fixpoint_empty_program():
    from queenscheck.terms import Program
    assert tp_fixpoint(Program(()), SIG, 2) == frozenset()


def test_tp_fixpoint_pq_fragment_within_spec():
    fix = tp_fixpoint(pq_fragment(), SIG, 2)
    assert fix
    assert all(in_s_pq(a) for a in fix)


def test_tp_fixpoint_monotone_in_depth():
    f2 = tp_fixpoint(pq_fragment(), SIG, 2)
    f3 = tp_fixpoint(pq_fragment(), SIG, 3)
    assert f2 <= f3


def test_tp_fixpoint_engine_agreement():
    # every derived atom is provable by the resolution engine
    from queenscheck.engine import solve_answers
    from queenscheck.terms import Query
    p = pq_fragment()
    fix = tp_fixpoint(p, SIG, 2)
    for a in sorted(fix, key=format_atom)[:25]:
        assert solve_answers(p, Query((a,)))


def test_tp_fixpoint_resource_cap_partial():
    with pytest.raises(ResourceCapError) as e:
        tp_fixpoint(nqueens_program(), SIG, 3, max_atoms=50)
    assert e.value.partial is not None
    assert e.value.examined > 0


def test_serialize_atoms_sorted():
    atoms = [Atom("pq", (numeral(2),)), Atom("pq", (ZERO,))]
    assert serialize_atoms(atoms) == "pq(0)\npq(2)\n"


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
def test_bound_depth_is_skeleton_depth_of_the_partial_instance(args, slots):
    # tp_fixpoint's head-depth pre-check, against building the instance
    head = Atom("p", tuple(args))
    profile = depth_profile(head, {v: i for i, v in enumerate(_VARS)})
    sub = {v: t for v, t in zip(_VARS, slots) if t is not None}
    assert bound_depth(profile, slots) == atom_depth_skeleton(apply_subst_atom(sub, head))


def test_tp_fixpoint_default_pool_sizes():
    # recorded before heads were built from slot templates; the default
    # pool holds numerals up to the depth, so the per-variable depth limits
    # of the filler products are exercised here
    assert len(tp_fixpoint(pq_fragment(), SIG, 2)) == 5_440
    assert len(tp_fixpoint(nqueens_program(), SIG, 2)) == 5_565
