"""Verification checks for programs against specification sets.

Every check returns a CheckReport whose counterexamples are real ones (the
checks never guess). `check_recurrent` and `check_row_shift` prove their
verdicts for all ground instances; the other checks scan a finite,
deterministic slice of ground instances, and a pass is relative to the
slice recorded in the report's parameters. A check that runs out of its instance budget reports the
verdict "resource-capped" instead of silently passing.
"""

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .herbrand import (
    DEFAULT_MAX_INSTANCES,
    ResourceCapError,
    body_reads,
    count_terms,
    depth_profile,
    enumerate_terms,
    join_body,
    tp_fixpoint,
)
from .specs import (
    DIAGONALS,
    LevelMapping,
    PlacementTriple,
    QUEENS_LEVEL_MAPPING,
    SpecSet,
    correct_up_to,
    diagonal_lists,
    letter_terms,
    safe_placements,
    term_pool,
)
from .terms import (
    Atom,
    Clause,
    DEFAULT_SIGNATURE,
    Program,
    Query,
    Signature,
    ZERO,
    atom_builder,
    clause_template,
    cons,
    format_atom,
    format_clause,
    format_term,
    match_template,
    numeral,
)


@dataclass
class CheckReport:
    """Outcome of one check.

    The verdict is derived: "fail" if any counterexample was found,
    "resource-capped" if the instance budget ran out before the slice was
    exhausted, and "pass" otherwise. A pass of a bounded check certifies
    only the slice described by `parameters`.
    """

    check_name: str
    parameters: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    instances_examined: int = 0
    capped: bool = False

    MAX_RECORDED = 20

    @property
    def verdict(self) -> str:
        if self.counterexamples:
            return "fail"
        if self.capped:
            return "resource-capped"
        return "pass"

    def add_counterexample(self, cx: dict):
        if len(self.counterexamples) < self.MAX_RECORDED:
            self.counterexamples.append(cx)
        else:
            self.parameters["counterexamples_truncated"] = True


def report_text(r: CheckReport) -> str:
    lines = [f"{r.check_name}: {r.verdict} ({r.instances_examined} instances examined)"]
    for k in sorted(r.parameters):
        lines.append(f"  {k} = {r.parameters[k]}")
    for cx in r.counterexamples:
        detail = "; ".join(f"{k}={v}" for k, v in cx.items())
        lines.append(f"  counterexample: {detail}")
    return "\n".join(lines)


def report_record(r: CheckReport) -> dict:
    return {
        "check": r.check_name,
        "verdict": r.verdict,
        "instances_examined": r.instances_examined,
        "parameters": {k: repr(v) if not isinstance(v, (int, float, str, bool, type(None))) else v
                       for k, v in r.parameters.items()},
        "counterexamples": r.counterexamples,
    }


def _sample_index(spec: SpecSet, sig: Signature, depth: int):
    """Sampled slice of the spec set, deduplicated and indexed by predicate;
    each predicate's atoms stay in sampler order, so scans over them do not
    depend on string hashing."""
    by_pred: dict = {}
    seen: set = set()
    for a in spec.sample(sig, depth):
        if a in seen:
            continue
        seen.add(a)
        by_pred.setdefault(a.pred, []).append(a)
    return by_pred, len(seen)


def _uniform_pools(head: tuple, sig: Signature, depth: int, budget: int):
    """Per-slot term pools for scanning the instances of a unit clause with
    head template head: each slot's depth is capped so that the head stays
    within depth, and further by the largest uniform depth f whose product
    fits in the budget. Returns (pools, f) or None."""
    skeleton, nesting = depth_profile(head)
    if skeleton > depth:
        return None
    # every variable of a unit clause is in its head, so nesting has a cap
    # for each slot, in slot order
    caps = [depth - n for _, n in nesting]
    for f in range(depth, -1, -1):
        total = 1
        for cap in caps:
            total *= count_terms(sig, min(cap, f))
            if total > budget:
                break
        if total <= budget:
            pools = [tuple(enumerate_terms(sig, min(cap, f))) for cap in caps]
            return pools, f
    return None


def check_model(program: Program, spec: SpecSet,
                sig: Signature = DEFAULT_SIGNATURE, depth: int = 3,
                max_instances: int = DEFAULT_MAX_INSTANCES) -> CheckReport:
    """Is the spec set a model of the program, on a bounded slice?

    For each clause, every scanned ground instance whose body atoms all lie
    in the spec must have its head in the spec. Unit clauses are scanned
    over budgeted uniform-depth term pools; clauses with bodies are scanned
    body-first against the spec's sampled slice, with leftover variables
    ranging over a small filler pool.
    """
    fillers = term_pool(sig, 0)
    report = CheckReport(
        "check_model",
        parameters={
            "spec": spec.name,
            "depth": depth,
            "max_instances": max_instances,
            "fillers": [format_term(f) for f in fillers],
        },
    )
    by_pred: Optional[dict] = None
    for ci, c in enumerate(program.clauses):
        share = max_instances - report.instances_examined
        if share <= 0:
            report.capped = True
            break
        vs, head_tpl, body_tpls = clause_template(c)
        build = atom_builder(head_tpl)
        if not c.body:
            got = _uniform_pools(head_tpl, sig, depth, share)
            if got is None:
                report.capped = True
                report.parameters[f"clause_{ci}_scan"] = "skipped: over budget"
                continue
            pools, f = got
            report.parameters[f"clause_{ci}_scan"] = f"uniform depth {f}"
            # the pools follow the clause's variables, so each combination
            # is the slot list of one instance
            for combo in product(*pools):
                report.instances_examined += 1
                head = build(combo)
                if not spec.contains(head):
                    report.add_counterexample({
                        "clause": format_clause(c),
                        "head": format_atom(head),
                        "reason": "unit clause head outside the spec",
                    })
        else:
            if by_pred is None:
                by_pred, n_sampled = _sample_index(spec, sig, depth)
                report.parameters["sampled_slice"] = n_sampled
            report.parameters[f"clause_{ci}_scan"] = "body-directed over sampled slice"
            capped = False
            body = body_reads(body_tpls)
            sources = [(by_pred, spec.contains)] * len(body)
            for slots in join_body(body, [None] * len(vs), sources):
                free = [i for i, t in enumerate(slots) if t is None]
                for combo in product(fillers, repeat=len(free)):
                    report.instances_examined += 1
                    if report.instances_examined > max_instances:
                        capped = True
                        break
                    for i, t in zip(free, combo):
                        slots[i] = t
                    head = build(slots)
                    if not spec.contains(head):
                        body_inst = tuple(build_body(slots) for _, _, build_body in body)
                        report.add_counterexample({
                            "clause": format_clause(c),
                            "instance": format_clause(Clause(head, body_inst)),
                            "reason": "body in spec but head outside",
                        })
                if capped:
                    break
            if capped:
                report.capped = True
                break
    return report


@dataclass(frozen=True)
class CoverWitness:
    clause: Clause
    instance: Clause


def _coverer(program: Program, spec: SpecSet, sig: Signature, depth: int):
    """check_covered for one program, spec and depth, with each clause
    compiled once."""
    compiled = []
    for c in program.clauses:
        vs, head_tpl, body_tpls = clause_template(c)
        compiled.append((c, len(vs), head_tpl, atom_builder(head_tpl),
                         body_reads(body_tpls)))
    extra = term_pool(sig, depth)

    def pool_for(a: Atom) -> tuple:
        pool: set = set()
        todo = list(a.args)
        while todo:
            t = todo.pop()
            if t not in pool:
                pool.add(t)
                todo.extend(t.args)
        pool.update(extra)
        return tuple(sorted(pool, key=format_term))

    def cover(a: Atom) -> Optional[CoverWitness]:
        pool = None  # built on first use: most atoms need no search

        def ground_body(body, k: int, slots: list) -> bool:
            """Fill the free slots of body atoms k.. so that each lies in the spec."""
            nonlocal pool
            if k == len(body):
                return True
            _, reads, build = body[k]
            free = [i for i in reads if slots[i] is None]
            if not free:
                return spec.contains(build(slots)) and ground_body(body, k + 1, slots)
            if pool is None:
                pool = pool_for(a)
            for combo in product(pool, repeat=len(free)):
                for i, t in zip(free, combo):
                    slots[i] = t
                if spec.contains(build(slots)) and ground_body(body, k + 1, slots):
                    return True
            for i in free:
                slots[i] = None
            return False

        for c, n, head_tpl, build_head, body in compiled:
            # a is ground, so matching the head gives the unifier
            slots = match_template(head_tpl, a, [None] * n)
            if slots is None:
                continue
            if ground_body(body, 0, slots):
                return CoverWitness(c, Clause(build_head(slots),
                                              tuple(build(slots) for _, _, build in body)))
        return None

    return cover


def check_covered(a: Atom, program: Program, spec: SpecSet,
                  sig: Signature = DEFAULT_SIGNATURE, depth: int = 3
                  ) -> Optional[CoverWitness]:
    """A ground instance of some clause whose head is `a` and whose body
    atoms all lie in the spec, or None. Free body variables are searched
    over the subterms of `a`, small numerals, and filler constants."""
    return _coverer(program, spec, sig, depth)(a)


def check_completeness_condition(program: Program, spec: SpecSet,
                                 sig: Signature = DEFAULT_SIGNATURE,
                                 depth: int = 3,
                                 sample_budget: int = 20_000) -> CheckReport:
    """Every sampled spec atom is covered: it heads some ground clause
    instance whose body atoms lie in the spec."""
    report = CheckReport(
        "check_completeness_condition",
        parameters={"spec": spec.name, "depth": depth, "sample_budget": sample_budget},
    )
    cover = _coverer(program, spec, sig, depth)
    seen: set = set()
    for a in spec.sample(sig, depth):
        if a in seen:
            continue
        seen.add(a)
        report.instances_examined += 1
        if cover(a) is None:
            report.add_counterexample({
                "atom": format_atom(a),
                "reason": "no clause instance with body inside the spec covers it",
            })
        if report.instances_examined >= sample_budget:
            break
    return report


def check_recurrent(program: Program,
                    lm: LevelMapping = QUEENS_LEVEL_MAPPING) -> CheckReport:
    """Proof that in every ground instance of every clause each body atom
    has a lower level than the head. Head level minus body level is a
    linear form in the sizes of the clause's variables, at least 1 on every
    ground instance exactly when its constant is at least 1 and no
    coefficient is negative (Bezem 1989; Apt and Pedreschi 1993). A failing
    form comes with a ground instance whose levels do not decrease: its
    variables are 0, or a long enough numeral where the coefficient is
    negative."""
    report = CheckReport("check_recurrent")
    for ci, c in enumerate(program.clauses):
        for bi, b in enumerate(c.body):
            report.instances_examined += 1
            where = {"clause": format_clause(c), "body_atom": format_atom(b)}
            try:
                constant, coefficients = lm.linear_form(c.head)
                b_constant, b_coefficients = lm.linear_form(b)
            except ValueError as e:
                report.add_counterexample({**where, "reason": str(e)})
                continue
            constant -= b_constant
            coefficients = {v: coefficients.get(v, 0) - b_coefficients.get(v, 0)
                            for v in {**coefficients, **b_coefficients}}
            form = str(constant) + "".join(f" {'-' if k < 0 else '+'} {abs(k)}*size({v.name})"
                                           for v, k in coefficients.items() if k)
            report.parameters[f"clause_{ci}_body_{bi}"] = form
            if constant >= 1 and min(coefficients.values(), default=0) >= 0:
                continue
            long = numeral(max(constant, 0))
            vs, head_tpl, body_tpls = clause_template(c)
            slots = [long if coefficients.get(v, 0) < 0 else ZERO for v in vs]
            inst = Clause(atom_builder(head_tpl)(slots),
                          tuple(atom_builder(x)(slots) for x in body_tpls))
            report.add_counterexample({
                **where,
                "instance": format_clause(inst),
                "reason": f"head level minus body level is {form}; here level "
                          f"{lm.atom_level(inst.body[bi])} of the body atom is "
                          f"not below head level {lm.atom_level(inst.head)}",
            })
    return report


def check_query_bound(query: Query,
                      lm: LevelMapping = QUEENS_LEVEL_MAPPING) -> Optional[int]:
    """Upper bound on the level of any ground instance of any query atom,
    or None if no bound is derivable: an atom's bound is the constant of
    its linear form, and there is none if the predicate is unmapped or a
    variable has a positive coefficient (an open spine in a measured
    argument position can be instantiated arbitrarily deep)."""
    best = None
    for a in query.atoms:
        try:
            constant, coefficients = lm.linear_form(a)
        except ValueError:
            return None
        if any(c > 0 for c in coefficients.values()):
            return None
        best = constant if best is None else max(best, constant)
    return best


def check_fixpoint_exactness(program: Program, expected: Iterable[Atom],
                             sig: Signature = DEFAULT_SIGNATURE, depth: int = 3,
                             *, pool: tuple,
                             max_atoms: int = DEFAULT_MAX_INSTANCES) -> CheckReport:
    """Set equality between the bottom-up fixpoint and an expected slice of
    atoms; both sides must be built over the same pool and depth for the
    comparison to be meaningful."""
    report = CheckReport(
        "check_fixpoint_exactness",
        parameters={"depth": depth},
    )
    try:
        fix = tp_fixpoint(program, sig, depth, pool=pool, max_atoms=max_atoms)
    except ResourceCapError as e:
        fix = e.partial or frozenset()
        report.capped = True
    want = set(expected)
    fix_only, want_only = fix - want, want - fix
    report.parameters["fixpoint_size"] = len(fix)
    report.parameters["expected_size"] = len(want)
    report.instances_examined = len(fix) + len(want_only)
    for a in sorted(fix_only, key=format_atom)[:CheckReport.MAX_RECORDED]:
        report.add_counterexample({"atom": format_atom(a), "reason": "in fixpoint only"})
    for a in sorted(want_only, key=format_atom)[:CheckReport.MAX_RECORDED]:
        report.add_counterexample({"atom": format_atom(a), "reason": "in expected slice only"})
    report.parameters["symmetric_difference"] = len(fix_only) + len(want_only)
    return report


# --- row-shift property ----------------------------------------------------------

def _form_text(form: tuple) -> str:
    return " ".join(f"{c:+d}*{v}" for c, v in zip(form, "kji"))


def _row_shift_witness(diagonals: dict) -> Optional[dict]:
    """The first instance with one queen in column k <= 4 and context row
    i <= 4 on which correct_up_to breaks the lemma, or None."""
    for i in range(1, 5):
        for (k,), cs in safe_placements(1, 4, letter_terms(DEFAULT_SIGNATURE)):
            def correct(us, ds, row):
                return correct_up_to(PlacementTriple(cs, us, ds), 1, row, diagonals)

            where = {"cs": format_term(cs), "m": 1, "i": i}
            uf, ds = diagonal_lists((k,), 1, i, ZERO, us_min=1, diagonals=diagonals)
            if correct(uf, ds, i) and not correct(uf.args[1], cons(ZERO, ds), i + 1):
                return {**where, "us": format_term(uf.args[1]), "ds": format_term(ds),
                        "t": format_term(uf.args[0]), "t2": format_term(ZERO),
                        "reason": "forward implication fails"}
            us, df = diagonal_lists((k,), 1, i + 1, ZERO, ds_min=1, diagonals=diagonals)
            if correct(us, df, i + 1) and not any(correct(cons(t, us), df.args[1], i)
                                                  for t in (numeral(1), ZERO)):
                return {**where, "us": format_term(us), "ds": format_term(df.args[1]),
                        "t2": format_term(df.args[0]), "reason": "no backward witness"}
    return None


def check_row_shift(diagonals: dict = DIAGONALS) -> CheckReport:
    """Proof that moving the head cell of the up-diagonal list onto the
    down-diagonal list shifts the context row up by one, for every queen j
    in column k and all 1 <= j <= m <= i. Forward: if (cs,[t|us],ds) is
    correct up to m w.r.t. i, so is (cs,us,[t2|ds]) w.r.t. i+1, for every
    t2. Backward: if (cs,us,[t2|ds]) is correct up to m w.r.t. i+1, some t
    makes (cs,[t|us],ds) correct w.r.t. i. With the diagonal numbers linear
    in (k, j, i), three conditions prove it: (1) the i coefficient is -1 in
    us and +1 in ds, so each queen keeps its cell from row i to row i+1;
    (2) ds is at least 1 in row i (write i = j + d, d >= 0), so t2 is never
    read; (3) t is the one queen with us number 1 in row i, or any filler,
    as correct_up_to keeps the us numbers distinct. If a condition fails,
    the counterexample is a one-queen instance that breaks the lemma;
    without one the verdict is "resource-capped"."""
    us, ds = diagonals["us"], diagonals["ds"]
    ck, cj, ci = ds
    conditions = {
        "condition_1_row_coefficients":
            (f"i coefficient {us[2]:+d} in us, {ci:+d} in ds", us[2] == -1 and ci == 1),
        "condition_2_ds_head_unread":
            (f"ds = {ck:+d}*k {cj + ci:+d}*j {ci:+d}*(i-j) >= {ck + cj + ci}",
             min(ck, cj + ci, ci) >= 0 and ck + cj + ci >= 1),
        "condition_3_backward_witness":
            (f"the one queen with us = 1, as {_form_text(us[:2])} is distinct", True),
    }
    report = CheckReport("check_row_shift", {name: _form_text(form)
                                             for name, form in diagonals.items()},
                         instances_examined=len(conditions))
    report.parameters.update((name, text) for name, (text, _) in conditions.items())
    failed = [name for name, (_, holds) in conditions.items() if not holds]
    if failed:
        witness = _row_shift_witness(diagonals)
        report.capped = witness is None
        if witness is not None:
            report.add_counterexample({"conditions": ", ".join(failed), **witness})
    return report
