"""Reference for `verify.check_row_shift`: the row-shift lemma tested on
structured and seeded random instances, as the check did before it proved
the lemma from the diagonal forms. Tests compare the proof with it."""

import random

from queenscheck.specs import (
    DIAGONALS,
    PlacementTriple,
    correct_up_to,
    diagonal_lists,
    filler_terms,
    letter_terms,
    safe_placements,
)
from queenscheck.terms import DEFAULT_SIGNATURE, NIL, cons, format_term, make_list, members, numeral
from queenscheck.verify import CheckReport


def _row_shift_structured(max_i: int, fill, letters, diagonals=DIAGONALS):
    """Instance tuples (cs, us, ds, t, t2, m, i) built from diagonal-safe
    placements so that the forward premise (or the backward one) holds by
    construction."""
    for i in range(1, max_i + 1):
        for m in range(1, i + 1):
            for length in range(m, max_i + 1):
                for cols, cs in safe_placements(m, length, letters):
                    # (cs, [t|us], ds) correct up to m in the context of row i
                    uf, ds = diagonal_lists(cols, m, i, fill[0], us_min=1,
                                            diagonals=diagonals)
                    for t2 in (fill[0], numeral(1)):
                        yield (cs, uf.args[1], ds, uf.args[0], t2, m, i)
                    # (cs, us, [t2|ds]) correct up to m in the context of row i+1
                    us, df = diagonal_lists(cols, m, i + 1, fill[0], ds_min=1,
                                            diagonals=diagonals)
                    yield (cs, us, df.args[1], fill[0], df.args[0], m, i)


def _mutate_list(rng: random.Random, t, atoms):
    ms = members(t)
    if not ms:
        return make_list([rng.choice(atoms)])
    k = rng.randrange(len(ms))
    action = rng.randrange(3)
    if action == 0:
        ms[k] = rng.choice(atoms)
    elif action == 1:
        del ms[k]
    else:
        ms.append(rng.choice(atoms))
    return make_list(ms)


def row_shift_instance(cs, us, ds, t, t2, m, i, fill=filler_terms(DEFAULT_SIGNATURE),
                       diagonals=DIAGONALS):
    """(forward premise holds, backward premise holds, counterexamples) for
    one instance; the backward witness is searched over the queens 1..m and
    the fillers."""
    def correct(us, ds, row):
        return correct_up_to(PlacementTriple(cs, us, ds), m, row, diagonals)

    forward = correct(cons(t, us), ds, i)
    backward = correct(us, cons(t2, ds), i + 1)
    where = {"cs": format_term(cs), "us": format_term(us), "ds": format_term(ds)}
    found = []
    if forward and not backward:
        found.append({**where, "t": format_term(t), "t2": format_term(t2), "m": m, "i": i,
                      "reason": "forward implication fails"})
    pool = [numeral(j) for j in range(1, m + 1)] + list(fill)
    if backward and not any(correct(cons(w, us), ds, i) for w in pool):
        found.append({**where, "t2": format_term(t2), "m": m, "i": i,
                      "reason": "no backward witness in the bounded pool"})
    return forward, backward, found


def scan_row_shift(sig=DEFAULT_SIGNATURE, max_i: int = 4, n_instances: int = 120_000,
                   seed: int = 0, diagonals=DIAGONALS) -> CheckReport:
    """Moving the head cell of the up-diagonal list onto the down-diagonal
    list shifts the context row up by one.

    Forward: if (cs,[t|us],ds) is correct up to m w.r.t. i, then
    (cs,us,[t2|ds]) is correct up to m w.r.t. i+1 for every t2. Backward:
    if (cs,us,[t2|ds]) is correct up to m w.r.t. i+1, then some t makes
    (cs,[t|us],ds) correct up to m w.r.t. i. Instances mix exhaustive
    constructions (premise true by design) with seeded random and
    perturbed ones.
    """
    fill = filler_terms(sig)
    letters = letter_terms(sig)
    rng = random.Random(seed)
    report = CheckReport(
        "check_row_shift",
        parameters={"max_i": max_i, "n_instances": n_instances, "seed": seed},
    )
    forward_hits = backward_hits = 0

    def handle(cs, us, ds, t, t2, m, i):
        nonlocal forward_hits, backward_hits
        report.instances_examined += 1
        forward, backward, found = row_shift_instance(cs, us, ds, t, t2, m, i, fill,
                                                      diagonals)
        forward_hits += forward
        backward_hits += backward
        for cx in found:
            report.add_counterexample(cx)

    structured = list(_row_shift_structured(max_i, fill, letters, diagonals))
    for tup in structured:
        handle(*tup)

    atoms = [numeral(n) for n in range(0, max_i + 1)] + list(letters[:3])
    tails = [NIL, fill[0]]

    def random_list():
        items = [rng.choice(atoms) for _ in range(rng.randrange(5))]
        return make_list(items, rng.choice(tails))

    while report.instances_examined < n_instances:
        if structured and rng.random() < 0.4:
            cs, us, ds, t, t2, m, i = structured[rng.randrange(len(structured))]
            which = rng.randrange(3)
            if which == 0:
                cs = _mutate_list(rng, cs, atoms)
            elif which == 1:
                us = _mutate_list(rng, us, atoms)
            else:
                ds = _mutate_list(rng, ds, atoms)
            if rng.random() < 0.3:
                t = rng.choice(atoms)
        else:
            i = rng.randrange(1, max_i + 1)
            m = rng.randrange(1, i + 1)
            cs, us, ds = random_list(), random_list(), random_list()
            t, t2 = rng.choice(atoms), rng.choice(atoms)
        handle(cs, us, ds, t, t2, m, i)

    report.parameters["structured_instances"] = len(structured)
    report.parameters["forward_premise_true"] = forward_hits
    report.parameters["backward_premise_true"] = backward_hits
    return report
