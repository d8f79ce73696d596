"""The layered n-queens program, oracle, and solution plumbing.

The program places queen i+1 on the board for queens 1..i by walking the
column list and both diagonal lists in lockstep (pq), peeling one cell off
the up-diagonal list and pushing one onto the down-diagonal list per row
(pqs). Solutions are read off the column list of the initial query.
"""

from dataclasses import dataclass
from typing import Set

from .parser import parse_program
from .terms import (
    Atom,
    Program,
    Query,
    Var,
    is_proper_list,
    make_list,
    members,
    numeral,
    numeral_value,
)

NQUEENS_SOURCE = """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, [_|Ds]) :- pqs(I, Cs, [_|Us], Ds), pq(s(I), Cs, Us, Ds).
pq(I, [I|_], [I|_], [I|_]).
pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).
"""

#: Single-clause mutations for negative testing of the check suite.
MUTANT_SOURCES = {
    # known equivalent mutant: pq is symmetric in its last three arguments
    # body pq call gets its last two arguments swapped
    "swap-us-ds": """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, [_|Ds]) :- pqs(I, Cs, [_|Us], Ds), pq(s(I), Cs, Ds, Us).
pq(I, [I|_], [I|_], [I|_]).
pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).
""",
    # head loses the cons wrapper on the fourth argument
    "drop-ds-wrapper": """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, Ds) :- pqs(I, Cs, [_|Us], Ds), pq(s(I), Cs, Us, Ds).
pq(I, [I|_], [I|_], [I|_]).
pq(I, [_|Cs], [_|Us], [_|Ds]) :- pq(I, Cs, Us, Ds).
""",
    # the walking clause stops stripping the fourth argument
    "nonuniform-strip": """\
pqs(0, _, _, _).
pqs(s(I), Cs, Us, [_|Ds]) :- pqs(I, Cs, [_|Us], Ds), pq(s(I), Cs, Us, Ds).
pq(I, [I|_], [I|_], [I|_]).
pq(I, [_|Cs], [_|Us], Ds) :- pq(I, Cs, Us, Ds).
""",
}


def nqueens_program() -> Program:
    return parse_program(NQUEENS_SOURCE)


def mutant_names():
    return tuple(sorted(MUTANT_SOURCES))


def mutant_program(name: str) -> Program:
    try:
        return parse_program(MUTANT_SOURCES[name])
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; known: {', '.join(mutant_names())}"
        ) from None


def initial_query(n: int) -> Query:
    """pqs(n, [V1,...,Vn], W1, W2) with n+2 distinct fresh variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = make_list([Var(f"V{k}") for k in range(1, n + 1)])
    return Query((Atom("pqs", (numeral(n), cols, Var("W1"), Var("W2"))),))


@dataclass(frozen=True)
class QueensSolution:
    """Position k holds the row of the queen in column k (1-based)."""

    columns_to_rows: tuple

    def __post_init__(self):
        rows = self.columns_to_rows
        n = len(rows)
        if sorted(rows) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {rows}")
        ups = [k + rows[k - 1] for k in range(1, n + 1)]
        downs = [k - rows[k - 1] for k in range(1, n + 1)]
        if len(set(ups)) != n or len(set(downs)) != n:
            raise ValueError(f"queens share a diagonal: {rows}")

    @property
    def n(self) -> int:
        return len(self.columns_to_rows)


def extract_solution(answer, n: int) -> QueensSolution:
    """Solution encoded in an answer to the initial query; raises ValueError
    if the column list is not a ground length-n permutation (which would
    mean an engine or specification bug). The diagonal-list bindings in the
    answer are ignored."""
    atom = answer.instantiated_query.atoms[0]
    q = atom.args[1]
    if not is_proper_list(q):
        raise ValueError("column list is not a proper list")
    rows = []
    for m in members(q):
        v = numeral_value(m)
        if v is None:
            raise ValueError(f"non-numeral member in column list: {m!r}")
        rows.append(v)
    if len(rows) != n:
        raise ValueError(f"expected {n} columns, got {len(rows)}")
    return QueensSolution(tuple(rows))


def brute_force(n: int) -> Set[QueensSolution]:
    """All n-queens solutions, by backtracking column by column over bitmasks
    of the rows that the queens placed so far attack (Richards 1997)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    full = (1 << n) - 1
    out, rows = set(), []

    def place(taken: int, up: int, down: int):
        # up and down: rows attacked along each diagonal in this column
        if len(rows) == n:
            out.add(QueensSolution(tuple(rows)))
            return
        free = full & ~(taken | up | down)
        while free:
            bit = free & -free
            free ^= bit
            rows.append(bit.bit_length())
            place(taken | bit, (up | bit) << 1, (down | bit) >> 1)
            rows.pop()

    place(0, 0, 0)
    return out


def solve_queens(n: int, program: Program = None, opts=None) -> Set[QueensSolution]:
    """Solution set computed by the resolution engine."""
    from .engine import SolveOptions, solve_answers

    if program is None:
        program = nqueens_program()
    if opts is None:
        opts = SolveOptions()
    return {
        extract_solution(a, n)
        for a in solve_answers(program, initial_query(n), opts)
    }


def render_board(sol: QueensSolution) -> str:
    """ASCII board, rows top to bottom, columns left to right."""
    n = sol.n
    lines = []
    for row in range(1, n + 1):
        cells = ["Q" if sol.columns_to_rows[col - 1] == row else "."
                 for col in range(1, n + 1)]
        lines.append(" ".join(cells))
    return "\n".join(lines)


def solution_line(sol: QueensSolution) -> str:
    return f"{sol.n};" + ",".join(str(r) for r in sol.columns_to_rows)
