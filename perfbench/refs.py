"""Reference answers the benchmark checks the CLI against.

Nothing here imports queenscheck: each oracle is an independent
computation, so a bug in the package cannot hide itself by also being in
the reference.
"""


def queens_solutions(n):
    """All n-queens solutions as tuples p with p[col-1] = row, sorted.

    Bitmask backtracking over rows (Richards 1997): `cols`, `ld` and `rd`
    mark the columns and the two diagonals attacked in the current row.
    """
    full = (1 << n) - 1
    out = []
    placed = [0] * n

    def place(row, cols, ld, rd):
        if row == n:
            rows_of_col = [0] * n
            for r, c in enumerate(placed):
                rows_of_col[c] = r + 1
            out.append(tuple(rows_of_col))
            return
        free = full & ~(cols | ld | rd)
        while free:
            bit = free & -free
            free ^= bit
            placed[row] = bit.bit_length() - 1
            place(row + 1, cols | bit, ((ld | bit) << 1) & full, (rd | bit) >> 1)

    place(0, 0, 0, 0)
    return sorted(out)


def solve_stdout(n):
    """Exact text `queenscheck solve n` prints (text format, no boards)."""
    sols = queens_solutions(n)
    lines = [f"{n};" + ",".join(map(str, s)) for s in sols]
    lines.append(f"{len(sols)} solutions")
    return "\n".join(lines) + "\n"


def _children(par_facts):
    kids = {}
    for parent, child in par_facts:
        kids.setdefault(parent, []).append(child)
    return kids


def _descendants(kids, node):
    """Descendants of node in the order depth-first, clause-order SLD
    resolution finds them for anc(node, Z) with
    anc(X,Y) :- par(X,Y).  anc(X,Z) :- par(X,Y), anc(Y,Z)."""
    out = list(kids.get(node, ()))
    for c in kids.get(node, ()):
        out.extend(_descendants(kids, c))
    return out


def anc_stdout(par_facts, first):
    """Exact text of `queenscheck query FILE 'anc(first,Z)'`, or of
    'anc(X,Z)' when first is None; par_facts in program order."""
    kids = _children(par_facts)
    if first is None:
        pairs = list(par_facts)
        for x, y in par_facts:
            pairs.extend((x, z) for z in _descendants(kids, y))
    else:
        pairs = [(first, z) for z in _descendants(kids, first)]
    lines = [f"anc({x},{z})" for x, z in pairs]
    lines.append(f"{len(pairs)} answers")
    return "\n".join(lines) + "\n"


def nrev_stdout(items):
    """Exact text of `queenscheck query FILE 'nrev([...],R)'` for a list of
    small naturals (the CLI prints successor numerals as decimals)."""
    fwd = ",".join(map(str, items))
    rev = ",".join(map(str, reversed(items)))
    return f"nrev([{fwd}],[{rev}])\n1 answers\n"


#: Expected verdict of each verify suite on each program, one reason a row.
#: None is the original program; the others are the CLI's --mutate names.
VERDICTS = {
    ("model", None): ("pass", "the paper's correctness spec is a model of the original program"),
    ("model", "swap-us-ds"): ("pass", "pq's meaning is symmetric in its last three arguments, so the swap keeps it"),
    ("model", "drop-ds-wrapper"): ("fail", "the pqs head takes Ds without its cons cell, so it derives pqs atoms outside s"),
    ("model", "nonuniform-strip"): ("fail", "pq's walking clause no longer strips Ds, so it derives pq atoms outside s_pq"),
    ("covered", None): ("pass", "every sampled completeness atom heads an instance with its body in the spec"),
    ("covered", "swap-us-ds"): ("pass", "equivalent mutant: same coverage as the original"),
    ("covered", "drop-ds-wrapper"): ("fail", "the body gets Ds one cell too long, so pqs atoms of s0 are left uncovered"),
    ("covered", "nonuniform-strip"): ("fail", "pq atoms whose Ds must be walked in step with Cs are uncovered (shows from depth 2)"),
    ("recurrent", None): ("pass", "every body atom has a smaller level than its head"),
    ("recurrent", "swap-us-ds"): ("pass", "the level mapping ignores Us and Ds"),
    ("recurrent", "drop-ds-wrapper"): ("pass", "the level mapping ignores Ds"),
    ("recurrent", "nonuniform-strip"): ("pass", "the pq level is the size of Cs, which still shrinks"),
    ("fixpoint", None): ("pass", "the pq fixpoint equals the sampled s_pq slice"),
    ("fixpoint", "swap-us-ds"): ("pass", "the mutation is in a pqs clause; the pq clauses are unchanged"),
    ("fixpoint", "drop-ds-wrapper"): ("pass", "the mutation is in a pqs clause; the pq clauses are unchanged"),
    ("fixpoint", "nonuniform-strip"): ("fail", "pq's walking clause changed, so the pq fixpoint differs from s_pq"),
    ("rowshift", None): ("pass", "a property of correct_up_to alone, independent of the program"),
}

CHECK_NAMES = {
    "model": "check_model",
    "covered": "check_completeness_condition",
    "recurrent": "check_recurrent",
    "fixpoint": "check_fixpoint_exactness",
    "rowshift": "check_row_shift",
}


def bound_stdout(n):
    """The queens query of size n has level bound 2n: size(n) + size(Cs)."""
    return f"check_query_bound: n={n} bound={2 * n}\n"
