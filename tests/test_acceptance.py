"""End-to-end acceptance suite.

Eight criteria, one printed PASS/FAIL line each (run with -s to see them).
Criterion 5 splits the mutants in two. Every mutant that changes the least
Herbrand model must make some check fail. A mutant listed as equivalent
cannot be caught by any check built on that semantics, so it must instead
be shown equivalent: its bottom-up fixpoint equals the original's on the
depth-3 slice, and its engine answers equal the oracle's for n=1..8.
"""

import time

from queenscheck.engine import SolveOptions
from queenscheck.herbrand import tp_fixpoint
from queenscheck.parser import parse_program
from queenscheck.queens import (
    brute_force,
    initial_query,
    mutant_names,
    mutant_program,
    nqueens_program,
    solve_queens,
)
from queenscheck.specs import (
    QUEENS_LEVEL_MAPPING,
    sample_s0_pqs,
    sample_s_pq,
    spec_set,
    term_pool,
)
from queenscheck.terms import DEFAULT_SIGNATURE, Program, numeral_value
from queenscheck.verify import (
    check_completeness_condition,
    check_fixpoint_exactness,
    check_model,
    check_query_bound,
    check_recurrent,
    check_row_shift,
)

from recurrence_oracle import enumerate_recurrent
from rowshift_oracle import scan_row_shift

SIG = DEFAULT_SIGNATURE


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    counts = []
    for n in range(1, 9):
        engine = solve_queens(n)
        oracle = brute_force(n)
        assert engine == oracle, f"n={n}: engine and oracle disagree"
        counts.append(len(oracle))
    elapsed = time.time() - t0
    ok = counts == [1, 0, 0, 2, 10, 4, 40, 92] and elapsed < 60
    _verdict(1, ok, f"solution counts n=1..8 are {counts}, {elapsed:.1f}s")


def test_criterion_2_model_check():
    t0 = time.time()
    r3 = check_model(nqueens_program(), spec_set("s"), SIG, 3)
    r4 = check_model(nqueens_program(), spec_set("s"), SIG, 4)
    elapsed = time.time() - t0
    ok = (r3.verdict == "pass" and r4.verdict == "pass"
          and not r3.counterexamples and not r4.counterexamples
          and elapsed < 300)
    _verdict(2, ok, f"model check depth 3 ({r3.instances_examined} instances) "
                    f"and depth 4 ({r4.instances_examined} instances), {elapsed:.0f}s")


def test_criterion_3_completeness_and_recurrence():
    # all completeness atoms for rows 1..3 come first in the sampled slice
    small_rows = {a for a in sample_s0_pqs(SIG, 4)
                  if numeral_value(a.args[0]) <= 3}
    budget = max(10_000, len(small_rows) + 1)
    rc = check_completeness_condition(nqueens_program(), spec_set("s0"), SIG, 4,
                                      sample_budget=budget)
    # recurrence is proved for every ground instance; the depth-4
    # enumeration cross-checks the proof
    rr = check_recurrent(nqueens_program())
    enumerated = enumerate_recurrent(nqueens_program(), QUEENS_LEVEL_MAPPING, SIG, 4)
    ok = (rc.verdict == "pass" and rc.instances_examined >= 10_000
          and rc.instances_examined >= len(small_rows)
          and rr.verdict == "pass" and enumerated.verdict == "pass")
    _verdict(3, ok, f"coverage on {rc.instances_examined} sampled atoms "
                    f"(incl. all {len(small_rows)} small-row atoms), "
                    f"recurrence proved for {rr.instances_examined} clause/body-atom "
                    f"pairs and enumerated on {enumerated.instances_examined} instances")


def test_criterion_4_row_shift_property():
    proof = check_row_shift()
    r = scan_row_shift(SIG, max_i=4, n_instances=120_000, seed=0)
    fwd = r.parameters["forward_premise_true"]
    bwd = r.parameters["backward_premise_true"]
    ok = (proof.verdict == "pass" and r.verdict == "pass"
          and r.instances_examined >= 100_000 and fwd > 0 and bwd > 0)
    _verdict(4, ok, f"proved from {proof.instances_examined} conditions; scanned "
                    f"{r.instances_examined} instances, 0 violations, "
                    f"premise true forward {fwd} / backward {bwd} times")


#: Mutants with the same least Herbrand model as the original program. In
#: swap-us-ds only the pq call in the pqs body changes, and pq's meaning is
#: symmetric in its last three arguments, so T_P agrees at every iteration.
EQUIVALENT = {"swap-us-ds"}

#: Further non-equivalent mutants, kept here so that the package's mutant
#: list (and the CLI's --mutate choices) stays as it is.
EXTRA_MUTANT_SOURCES = {
    # pqs stops pushing a cell onto the up-diagonal list
    "no-us-push": """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, [_|Ds]) :- pqs(I, Cs, Us, Ds), pq(s(I), Cs, Us, Ds).
pq(I, [I|_], [I|_], [I|_]).
pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).
""",
    # the pq base clause no longer matches its down-diagonal list
    "pq-base-any-ds": """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, [_|Ds]) :- pqs(I, Cs, [_|Us], Ds), pq(s(I), Cs, Us, Ds).
pq(I, [I|_], [I|_], _).
pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).
""",
}


def _failing_check(m: Program):
    """Name of the first check of the chain that fails on m, or None."""
    if check_model(m, spec_set("s"), SIG, 3).verdict == "fail":
        return "check_model"
    if check_completeness_condition(m, spec_set("s0"), SIG, 3,
                                    sample_budget=2_000).verdict == "fail":
        return "check_completeness_condition"
    pool = term_pool(SIG, 1)
    expected = sample_s_pq(SIG, 3, pool=pool, max_spine=3)
    fragment = Program(m.clauses_for("pq"))
    if check_fixpoint_exactness(fragment, expected, SIG, 3,
                                pool=pool).verdict == "fail":
        return "fixpoint exactness"
    return None


def test_criterion_5_mutation_sensitivity():
    mutants = {name: mutant_program(name)
               for name in mutant_names() if name not in EQUIVALENT}
    mutants.update((name, parse_program(src))
                   for name, src in EXTRA_MUTANT_SOURCES.items())
    uncaught = []
    for name, m in mutants.items():
        check = _failing_check(m)
        if check is None:
            uncaught.append(name)
        print(f"  mutant {name}: "
              + (f"caught by {check}" if check else "NOT caught"))

    pool = term_pool(SIG, 1)
    original_fix = tp_fixpoint(nqueens_program(), SIG, 3, pool=pool)
    not_equivalent = []
    for name in sorted(EQUIVALENT):
        m = mutant_program(name)
        r = check_fixpoint_exactness(m, original_fix, SIG, 3, pool=pool)
        diff = r.parameters["symmetric_difference"]
        # the depth-3 slice holds pqs atoms of row 0 only, so pqs is compared
        # through the engine's answers; an answer that is not a board raises
        if r.verdict != "pass" or diff:
            why = f"fixpoint difference {diff}"
        elif any(solve_queens(n, program=m) != brute_force(n)
                 for n in range(1, 9)):
            why = "answers differ from the oracle"
        else:
            why = None
        if why:
            not_equivalent.append(name)
        print(f"  mutant {name}: "
              + (f"NOT shown equivalent ({why})" if why else
                 f"shown equivalent (fixpoint {r.parameters['fixpoint_size']} "
                 f"atoms, difference 0; answers match for n=1..8)"))

    ok = not uncaught and not not_equivalent
    detail = (f"all {len(mutants)} non-equivalent mutants caught, "
              f"{', '.join(sorted(EQUIVALENT))} shown equivalent"
              if ok else
              f"not caught: {uncaught or 'none'}; "
              f"not shown equivalent: {not_equivalent or 'none'}")
    _verdict(5, ok, detail)


def test_criterion_6_pq_fixpoint_exactness():
    pool = term_pool(SIG, 1)
    fragment = Program(nqueens_program().clauses_for("pq"))
    expected = sample_s_pq(SIG, 4, pool=pool, max_spine=4)
    r = check_fixpoint_exactness(fragment, expected, SIG, 4, pool=pool)
    ok = r.verdict == "pass" and r.parameters["symmetric_difference"] == 0
    _verdict(6, ok, f"fixpoint and sampled slice both hold "
                    f"{r.parameters['fixpoint_size']} atoms, difference 0")


def test_criterion_7_rule_and_occur_check_invariance():
    # the occur-check is always on: the CLI's `--occur-check off` runs the
    # same code (tests/test_cli.py::test_occur_check_off_prints_as_on)
    baseline = {n: brute_force(n) for n in range(1, 7)}
    rules = ("leftmost", "rightmost", "fair")
    for rule in rules:
        opts = SolveOptions(selection_rule=rule)
        for n in range(1, 7):
            got = solve_queens(n, opts=opts)
            assert got == baseline[n], (rule, n)
    _verdict(7, True, f"identical solution sets for n=1..6 across "
                      f"{len(rules)} selection rules")


def test_criterion_8_query_bounds_and_termination():
    bounds = [check_query_bound(initial_query(n)) for n in range(1, 9)]
    ok = bounds == [2 * n for n in range(1, 9)]
    # termination without depth limits is implied by criterion 1 having
    # enumerated complete answer sets; re-check the largest size directly
    solve_queens(8)
    _verdict(8, ok, f"query bounds for n=1..8 are {bounds}")
