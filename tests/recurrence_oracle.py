"""Reference for `verify.check_recurrent`: recurrence checked by enumerating
ground clause instances over a probe pool, as the check did before it
proved recurrence from linear level forms. Tests compare the proof with it."""

from itertools import product

from queenscheck.herbrand import DEFAULT_MAX_INSTANCES
from queenscheck.specs import filler_terms
from queenscheck.terms import (
    Clause,
    Compound,
    atom_builder,
    clause_template,
    format_clause,
    make_list,
    numeral,
    term_depth,
)
from queenscheck.verify import CheckReport


def recurrence_pool(sig, depth: int) -> tuple:
    """Probe terms up to the given depth, most structurally informative
    first so budget truncation keeps the interesting ones."""
    fill = filler_terms(sig)
    a = fill[-1]
    pool = [numeral(1), make_list([a])] + list(fill)
    if depth >= 2:
        pool.extend([numeral(2), make_list([a, fill[0]]), Compound("cons", (a, a))])
    if depth >= 3:
        pool.append(make_list([a, fill[0], a]))
    seen, out = set(), []
    for t in pool:
        if t not in seen and term_depth(t) <= depth:
            seen.add(t)
            out.append(t)
    return tuple(out)


def enumerate_recurrent(program, lm, sig, depth: int,
                        max_instances: int = DEFAULT_MAX_INSTANCES) -> CheckReport:
    """Every scanned ground instance strictly decreases the level from head
    to each body atom. Unit clauses are trivially recurrent; instances are
    drawn from the probe pool, each clause's variables over its first n
    terms, n as large as the budget allows."""
    pool = recurrence_pool(sig, depth)
    report = CheckReport(
        "check_recurrent",
        parameters={"depth": depth, "probe_pool_size": len(pool),
                    "max_instances": max_instances},
    )
    for ci, c in enumerate(program.clauses):
        if not c.body:
            continue
        vs, head_tpl, body_tpls = clause_template(c)
        build_head, build_body = atom_builder(head_tpl), list(map(atom_builder, body_tpls))
        share = max_instances - report.instances_examined
        n = len(pool)
        while n > 1 and n ** len(vs) > share:
            n -= 1
        if n ** len(vs) > share:
            report.capped = True
            break
        report.parameters[f"clause_{ci}_pool"] = n
        for combo in product(pool[:n], repeat=len(vs)):
            report.instances_examined += 1
            head = build_head(combo)
            try:
                hl = lm.atom_level(head)
                for build in build_body:
                    bi = build(combo)
                    if lm.atom_level(bi) >= hl:
                        report.add_counterexample({
                            "clause": format_clause(c),
                            "instance": format_clause(
                                Clause(head, tuple(f(combo) for f in build_body))
                            ),
                            "reason": f"level {lm.atom_level(bi)} of a body atom "
                                      f"is not below head level {hl}",
                        })
                        break
            except ValueError as e:
                report.add_counterexample({
                    "clause": format_clause(c),
                    "reason": str(e),
                })
                break
    return report
