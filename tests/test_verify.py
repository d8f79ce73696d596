"""Bounded verification checks: model, coverage, recurrence, bounds, shifts."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from queenscheck.parser import parse_program, parse_query, parse_term
from queenscheck.queens import NQUEENS_SOURCE, mutant_program, nqueens_program
from queenscheck.specs import (
    DIAGONALS,
    LevelMapping,
    QUEENS_LEVEL_MAPPING,
    SpecSet,
    sample_s0_pqs,
    sample_s_pq,
    sample_s_pqs,
    spec_set,
    term_pool,
)
from queenscheck.terms import (
    Atom,
    Clause,
    Compound,
    DEFAULT_SIGNATURE,
    NIL,
    Program,
    Var,
    ZERO,
    clause_template,
    cons,
    format_atom,
    format_clause,
    is_ground,
    match_template,
)
from queenscheck.verify import (
    CheckReport,
    check_completeness_condition,
    check_covered,
    check_fixpoint_exactness,
    check_model,
    check_query_bound,
    check_recurrent,
    check_row_shift,
    report_record,
    report_text,
)

from recurrence_oracle import enumerate_recurrent
from rowshift_oracle import row_shift_instance, scan_row_shift

SIG = DEFAULT_SIGNATURE


def pq_fragment():
    """The pq clauses of the program, as the CLI's fixpoint suite takes them."""
    return Program(nqueens_program().clauses_for("pq"))


def _atom(text):
    t = parse_term(text)
    return Atom(t.functor, t.args)


def _const_spec(name, pred):
    """Spec set holding exactly the given membership predicate, no slice."""
    return SpecSet(name, pred, lambda sig, depth: iter(()))


def test_report_verdicts():
    r = CheckReport("demo")
    assert r.verdict == "pass"
    r.capped = True
    assert r.verdict == "resource-capped"
    r.add_counterexample({"reason": "x"})
    assert r.verdict == "fail"
    assert "demo: fail" in report_text(r)
    rec = report_record(r)
    assert rec["check"] == "demo" and rec["verdict"] == "fail"


def test_report_counterexample_truncation():
    r = CheckReport("demo")
    for k in range(CheckReport.MAX_RECORDED + 5):
        r.add_counterexample({"k": k})
    assert len(r.counterexamples) == CheckReport.MAX_RECORDED
    assert r.parameters["counterexamples_truncated"] is True


def test_check_model_trivial_failure():
    p = parse_program("q(0).")
    r = check_model(p, _const_spec("empty", lambda a: False), SIG, 1)
    assert r.verdict == "fail"
    assert any("q(0)" in str(cx.values()) or cx.get("head") == "q(0)"
               for cx in r.counterexamples)


def test_check_model_trivial_pass():
    p = parse_program("q(0).")
    r = check_model(p, _const_spec("all", lambda a: True), SIG, 1)
    assert r.verdict == "pass"
    assert r.instances_examined > 0


def test_check_model_nqueens_small_depth():
    r = check_model(nqueens_program(), spec_set("s"), SIG, 2)
    assert r.verdict == "pass"
    assert r.counterexamples == []
    assert r.instances_examined > 1000


def test_check_model_resource_capped():
    r = check_model(nqueens_program(), spec_set("s"), SIG, 2, max_instances=10)
    assert r.verdict == "resource-capped"


def test_check_covered_unit_and_base_clauses():
    p = nqueens_program()
    w = check_covered(_atom("pqs(0,0,0,0)"), p, spec_set("s0"), SIG, 2)
    assert w is not None and not w.instance.body
    w2 = check_covered(_atom("pq(1,[1],[1],[1])"), p, spec_set("s0"), SIG, 2)
    assert w2 is not None
    assert w2.instance.head == _atom("pq(1,[1],[1],[1])")


def test_check_covered_two_queens_witness_reverifiable():
    p = nqueens_program()
    spec = spec_set("s0")
    a = _atom("pqs(2,[1,a,2,b],[c,d,2],[f,e,1,2])")
    assert spec.contains(a)
    w = check_covered(a, p, spec, SIG, 3)
    assert w is not None
    # the witness is a ground clause instance with head = a and body in the spec
    assert w.instance.head == a
    assert w.instance.body and all(is_ground(t) for b in w.instance.body for t in b.args)
    assert all(spec.contains(b) for b in w.instance.body)


def test_check_covered_absent():
    p = parse_program("q(0).")
    assert check_covered(_atom("q(1)"), p, _const_spec("all", lambda a: True), SIG, 1) is None


def test_completeness_empty_program_fails():
    r = check_completeness_condition(Program(()), spec_set("s0"), SIG, 2,
                                     sample_budget=5)
    assert r.verdict == "fail"
    assert r.counterexamples


def test_completeness_pq_fragment_misses_pqs_atoms():
    r = check_completeness_condition(pq_fragment(), spec_set("s0"), SIG, 2,
                                     sample_budget=50)
    assert r.verdict == "fail"
    assert any(cx["atom"].startswith("pqs(") for cx in r.counterexamples)


def test_completeness_nqueens_small_sample():
    r = check_completeness_condition(nqueens_program(), spec_set("s0"), SIG, 2,
                                     sample_budget=300)
    assert r.verdict == "pass"
    assert r.instances_examined == 300


def test_recurrent_self_loop_fails():
    p = parse_program("p(X) :- p(X).")
    r = check_recurrent(p, LevelMapping({("p", 1): ()}))
    assert r.verdict == "fail"
    assert r.parameters == {"clause_0_body_0": "0"}


def test_recurrent_level_arithmetic_by_hand():
    # walking one row: head pqs(1,[1,2],us,[t|ds]) has level 1+2 = 3,
    # its body atoms pqs(0,[1,2],...) and pq(1,[1,2],...) have levels 2 and 2
    head = _atom("pqs(1,[1,2],[0],[0,0])")
    b1 = _atom("pqs(0,[1,2],[0,0],[0])")
    b2 = _atom("pq(1,[1,2],[0],[0])")
    level = QUEENS_LEVEL_MAPPING.atom_level
    assert level(head) == 3
    assert level(b1) == 2 and level(b2) == 2
    assert level(head) > level(b1) and level(head) > level(b2)


#: Head level minus body level of each (clause, body atom) pair, the same
#: for the program and its three mutants: none of them changes a spine in
#: a measured argument position.
QUEENS_FORMS = {"clause_1_body_0": "1", "clause_1_body_1": "1 + 1*size(I)",
                "clause_3_body_0": "1"}


def test_recurrent_nqueens_small_depth():
    r = check_recurrent(nqueens_program())
    assert (r.verdict, r.instances_examined, r.parameters) == ("pass", 3, QUEENS_FORMS)
    for depth in (1, 2):
        assert enumerate_recurrent(nqueens_program(), QUEENS_LEVEL_MAPPING, SIG,
                                   depth).verdict == "pass"


#: The program with its walking pq clause no longer stripping a cell off
#: the column list, so that the level of the body atom equals the head's.
NON_DECREASING = NQUEENS_SOURCE.replace(
    "pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).",
    "pq(I, Cs, [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).")


def _assert_witness(c: Clause, cx: dict, lm: LevelMapping):
    """cx's instance is a ground instance of c in which the named body atom
    is not below the head's level."""
    inst = parse_program(cx["instance"]).clauses[0]
    vs, head_tpl, body_tpls = clause_template(c)
    slots = match_template(head_tpl, inst.head, [None] * len(vs))
    for tpl, b in zip(body_tpls, inst.body):
        assert slots is not None
        slots = match_template(tpl, b, slots)
    assert slots is not None and None not in slots
    bi = [format_atom(b) for b in c.body].index(cx["body_atom"])
    assert lm.atom_level(inst.body[bi]) >= lm.atom_level(inst.head)


def test_recurrent_rejects_non_decreasing_mutant():
    m = parse_program(NON_DECREASING)
    r = check_recurrent(m)
    assert (r.verdict, r.instances_examined) == ("fail", 3)
    assert r.parameters == {**QUEENS_FORMS, "clause_3_body_0": "0"}
    (cx,) = r.counterexamples
    assert cx["clause"] == format_clause(m.clauses[3])
    assert cx["body_atom"] == format_atom(m.clauses[3].body[0])
    _assert_witness(m.clauses[3], cx, QUEENS_LEVEL_MAPPING)


@pytest.mark.parametrize("mutant", ["drop-ds-wrapper", "nonuniform-strip",
                                    "swap-us-ds", "non-decreasing"])
def test_recurrent_proof_agrees_with_enumeration(mutant):
    m = parse_program(NON_DECREASING) if mutant == "non-decreasing" else mutant_program(mutant)
    r = check_recurrent(m)
    if mutant != "non-decreasing":
        assert (r.verdict, r.parameters) == ("pass", QUEENS_FORMS)
    for depth in (1, 2):
        assert enumerate_recurrent(m, QUEENS_LEVEL_MAPPING, SIG,
                                   depth).verdict == r.verdict, depth


def test_recurrent_undefined_level_is_counterexample():
    p = parse_program("q(X) :- q(X).")
    r = check_recurrent(p)
    assert r.verdict == "fail"  # the queens mapping knows nothing about q/1
    assert r.counterexamples[0]["reason"] == "no level defined for predicate q/1"


_LEAVES = [Var("X"), Var("Y"), Var("Z"), ZERO, NIL, Compound("a")]
_TERMS = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(st.builds(lambda t: Compound("s", (t,)), inner),
                            st.builds(cons, inner, inner)),
    max_leaves=4)
_ATOMS = st.builds(Atom, st.sampled_from(["p", "q"]), st.tuples(_TERMS, _TERMS))
_COEFFICIENTS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=300)  # about one random clause in 15 is recurrent
@given(_ATOMS, st.lists(_ATOMS, min_size=1, max_size=2), _COEFFICIENTS, _COEFFICIENTS)
def test_recurrent_proof_against_enumeration(head, body, p_coefficients, q_coefficients):
    # a proof is sound: the enumeration finds no counterexample after it;
    # a refutation is real: its witness is a non-decreasing ground instance
    lm = LevelMapping({("p", 2): tuple(enumerate(p_coefficients)),
                       ("q", 2): tuple(enumerate(q_coefficients))})
    c = Clause(head, tuple(body))
    r = check_recurrent(Program((c,)), lm)
    assert r.instances_examined == len(body)
    if r.verdict == "pass":
        assert enumerate_recurrent(Program((c,)), lm, SIG, 2).verdict == "pass"
    else:
        for cx in r.counterexamples:
            _assert_witness(c, cx, lm)


def test_query_bound():
    from queenscheck.queens import initial_query
    assert check_query_bound(initial_query(4)) == 8
    assert check_query_bound(parse_query("pqs(N, Cs, U, D)")) is None
    assert check_query_bound(parse_query("pq(0, [a], [b], [c])")) == 1
    assert check_query_bound(parse_query("pqs(2, [a,b|T], U, D)")) is None
    assert check_query_bound(parse_query("other(X)")) is None
    # the bound follows the mapping it is given
    lm = LevelMapping({("p", 2): ((0, 2),)})
    assert check_query_bound(parse_query("p(s(s(0)), X)"), lm) == 4
    assert check_query_bound(parse_query("p(s(X), 0)"), lm) is None


def test_fixpoint_exactness_aligned_slices():
    pool = term_pool(SIG, 1)
    expected = sample_s_pq(SIG, 2, pool=pool, max_spine=2)
    r = check_fixpoint_exactness(pq_fragment(), expected, SIG, 2, pool=pool)
    assert r.verdict == "pass"
    assert r.parameters["symmetric_difference"] == 0
    assert r.parameters["fixpoint_size"] == r.parameters["expected_size"] > 0


def test_fixpoint_exactness_detects_mismatch():
    pool = term_pool(SIG, 1)
    expected = list(sample_s_pq(SIG, 2, pool=pool, max_spine=2))
    expected.append(_atom("pq(0,[],[],[])"))  # not derivable
    r = check_fixpoint_exactness(pq_fragment(), expected, SIG, 2, pool=pool)
    assert r.verdict == "fail"
    assert any(cx["reason"] == "in expected slice only" for cx in r.counterexamples)


def test_row_shift_small_run():
    r = scan_row_shift(SIG, max_i=3, n_instances=3_000, seed=7)
    assert r.verdict == "pass"
    assert r.parameters["forward_premise_true"] > 0
    assert r.parameters["backward_premise_true"] > 0
    assert check_row_shift().verdict == "pass"


def test_row_shift_deterministic_for_seed():
    r1 = scan_row_shift(SIG, max_i=2, n_instances=1_000, seed=3)
    r2 = scan_row_shift(SIG, max_i=2, n_instances=1_000, seed=3)
    assert r1.parameters == r2.parameters
    assert r1.instances_examined == r2.instances_examined
    assert check_row_shift().verdict == "pass"


def test_row_shift_proof_on_diagonals():
    r = check_row_shift()
    assert (r.verdict, r.instances_examined, r.counterexamples) == ("pass", 3, [])
    assert r.parameters == {
        "us": "+1*k +1*j -1*i",
        "ds": "+1*k -1*j +1*i",
        "condition_1_row_coefficients": "i coefficient -1 in us, +1 in ds",
        "condition_2_ds_head_unread": "ds = +1*k +0*j +1*(i-j) >= 1",
        "condition_3_backward_witness": "the one queen with us = 1, as +1*k +1*j is distinct",
    }


def _oracle_reasons(cx, diagonals):
    """The reasons the oracle gives on a one-queen witness of the proof."""
    terms = {key: parse_term(cx.get(key, "0")) for key in ("cs", "us", "ds", "t", "t2")}
    *_, found = row_shift_instance(terms["cs"], terms["us"], terms["ds"], terms["t"],
                                   terms["t2"], cx["m"], cx["i"], diagonals=diagonals)
    return [f["reason"] for f in found]


#: Per list whose i coefficient is flipped: the first one-queen witness of
#: the proof, and the oracle's reason on it.
FLIPPED_WITNESS = {
    "us": ({"conditions": "condition_1_row_coefficients", "cs": "[1,a,b,c]", "m": 1,
            "i": 1, "us": "[0,1]", "ds": "[1]", "t": "0", "t2": "0",
            "reason": "forward implication fails"},
           "forward implication fails"),
    "ds": ({"conditions": "condition_1_row_coefficients, condition_2_ds_head_unread",
            "cs": "[a,b,1,c]", "m": 1, "i": 1, "us": "[0,1]", "ds": "[]", "t2": "0",
            "reason": "no backward witness"},
           "no backward witness in the bounded pool"),
}


@pytest.mark.parametrize("name", sorted(FLIPPED_WITNESS))
def test_row_shift_proof_rejects_flipped_row_sign(name):
    ck, cj, ci = DIAGONALS[name]
    flipped = {**DIAGONALS, name: (ck, cj, -ci)}
    witness, oracle_reason = FLIPPED_WITNESS[name]
    r = check_row_shift(flipped)
    assert (r.verdict, r.counterexamples) == ("fail", [witness])
    assert _oracle_reasons(witness, flipped) == [oracle_reason]
    assert scan_row_shift(SIG, max_i=2, n_instances=500, seed=0,
                          diagonals=flipped).verdict == "fail"


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-2, 2)] * 6))
def test_row_shift_proof_against_oracle(coefficients):
    # a proof implies the oracle finds nothing on its structured instances;
    # a refutation's witness is one the oracle refutes too
    diagonals = {"us": coefficients[:3], "ds": coefficients[3:]}
    r = check_row_shift(diagonals)
    if r.verdict == "pass":
        assert scan_row_shift(SIG, max_i=3, n_instances=0,
                              diagonals=diagonals).verdict == "pass"
    elif r.verdict == "fail":
        assert _oracle_reasons(r.counterexamples[0], diagonals)


# --- pinned work ---------------------------------------------------------------

_MODEL_SCANS = {
    "clause_0_scan": "uniform depth 1",
    "clause_1_scan": "body-directed over sampled slice",
    "clause_2_scan": "uniform depth 1",
    "clause_3_scan": "body-directed over sampled slice",
}

#: Per program: (model instances, recurrent instances, fixpoint instances,
#: fixpoint size, symmetric difference), recorded from the checks as they
#: were before their instance loops ran on compiled clause templates. The
#: recurrent count is the enumeration oracle's, which was the check then.
PINNED_WORK = {
    None: (516_992, 20_480, 13_932, 13_932, 0),
    "drop-ds-wrapper": (516_608, 17_408, 13_932, 13_932, 0),
    "nonuniform-strip": (516_928, 8_192, 16_605, 2_754, 16_524),
    "swap-us-ds": (516_992, 20_480, 13_932, 13_932, 0),
}


@pytest.mark.parametrize("mutant", sorted(PINNED_WORK, key=str))
def test_check_work_is_pinned(mutant):
    # a speedup must do the same work: same slices, same instance counts
    model_n, recurrent_n, fix_n, fix_size, sym_diff = PINNED_WORK[mutant]
    p = mutant_program(mutant) if mutant else nqueens_program()
    broken = mutant in ("drop-ds-wrapper", "nonuniform-strip")
    truncated = {"counterexamples_truncated": True} if broken else {}

    r = check_model(p, spec_set("s"), SIG, 1)
    assert (r.verdict, r.instances_examined) == ("fail" if broken else "pass", model_n)
    assert r.parameters == {"spec": "s", "depth": 1, "max_instances": 10_000_000,
                            "fillers": ["0", "a"], "sampled_slice": 21_988,
                            **_MODEL_SCANS, **truncated}

    r = check_completeness_condition(p, spec_set("s0"), SIG, 2, sample_budget=2_000)
    assert (r.verdict, r.instances_examined) == ("fail" if broken else "pass", 2_000)
    assert r.parameters == {"spec": "s0", "depth": 2, "sample_budget": 2_000, **truncated}

    r = check_recurrent(p)
    assert (r.verdict, r.instances_examined) == ("pass", 3)
    r = enumerate_recurrent(p, QUEENS_LEVEL_MAPPING, SIG, 1)
    assert (r.verdict, r.instances_examined) == ("pass", recurrent_n)
    assert r.parameters == {"depth": 1, "probe_pool_size": 4, "max_instances": 10_000_000,
                            "clause_1_pool": 4, "clause_3_pool": 4}

    pool = term_pool(SIG, 1)
    expected = sample_s_pq(SIG, 3, pool=pool, max_spine=3)
    r = check_fixpoint_exactness(Program(p.clauses_for("pq")), expected, SIG, 3, pool=pool)
    fix_broken = mutant == "nonuniform-strip"
    assert (r.verdict, r.instances_examined) == ("fail" if fix_broken else "pass", fix_n)
    assert r.parameters == {"depth": 3, "fixpoint_size": fix_size, "expected_size": 13_932,
                            "symmetric_difference": sym_diff,
                            **({"counterexamples_truncated": True} if fix_broken else {})}


#: Per sampler and depth: (atom count, sha256 of the formatted atoms in
#: order, one per line), recorded from the samplers as they were when each
#: built its own placements and diagonal lists.
PINNED_SAMPLES = {
    ("s_pqs", 1): (21_984, "bfd47076c069cd292d3227a792073cd950f06fb3a456d7604d7f5b8e860d8e93"),
    ("s_pqs", 2): (91_197, "a1512a754ada08ba1e68e7572c421b7b105251d6b3f9f2b1aa83719ea04bebe6"),
    ("s_pqs", 3): (91_295, "b803be136010d8c1dc33cd132330c3246b4119b07bba2237cc994138eb9d1aec"),
    ("s_pqs", 4): (91_567, "1a7151b791d7566a1129e0a4893a9eba13777d860129a152fa0310d766d77e94"),
    ("s0_pqs", 1): (16, "bb9db4d391ad526afd38394ad552edfc40851de3ffd12f69fb6b49259c864f81"),
    ("s0_pqs", 2): (48, "4b311d7558001f07f6aee1b61b2e39be1b77731975fc8f54565fe84b3af91d30"),
    ("s0_pqs", 3): (128, "9bf4e3d40ca7376d731b1e3edefcbc54299da3966d96a59f17c466163629010a"),
    ("s0_pqs", 4): (384, "a1b24c89a61d874f5983e044e04d417a69402244a7201ae337520191b96f59ad"),
}


def test_placement_samplers_and_row_shift_are_pinned():
    # the diagonal-list samplers and the structured row-shift instances
    # must keep producing the same atoms in the same order
    samplers = {"s_pqs": sample_s_pqs, "s0_pqs": sample_s0_pqs}
    for (name, depth), (count, digest) in PINNED_SAMPLES.items():
        lines = [format_atom(a) for a in samplers[name](SIG, depth)]
        got = (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
        assert got == (count, digest), (name, depth)

    r = scan_row_shift(SIG, max_i=4, n_instances=5_000, seed=0)
    assert (r.verdict, r.instances_examined) == ("pass", 5_000)
    assert r.parameters == {"max_i": 4, "n_instances": 5_000, "seed": 0,
                            "structured_instances": 222,
                            "forward_premise_true": 1_094,
                            "backward_premise_true": 1_302}
    assert check_row_shift().verdict == "pass"
