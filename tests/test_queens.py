"""Board program, oracle, solution extraction, rendering."""

import pytest
from hypothesis import given, strategies as st

from queenscheck.engine import solve_answers
from queenscheck.parser import parse_program
from queenscheck.queens import (
    QueensSolution,
    brute_force,
    extract_solution,
    initial_query,
    mutant_names,
    mutant_program,
    nqueens_program,
    render_board,
    solution_line,
    solve_queens,
)
from queenscheck.terms import (
    Var,
    format_clause,
    is_proper_list,
    members,
    numeral,
)


def test_program_shape():
    p = nqueens_program()
    assert len(p.clauses) == 4
    assert len(p.clauses[1].body) == 2
    assert p.predicates() == {"pqs": 4, "pq": 4}


def _source(p):
    return "\n".join(map(format_clause, p.clauses))


def test_program_print_parse_identity():
    p = nqueens_program()
    assert _source(parse_program(_source(p))) == _source(p)


def test_mutants_differ_from_original():
    assert mutant_names() == ("drop-ds-wrapper", "nonuniform-strip", "swap-us-ds")
    base = _source(nqueens_program())
    for name in mutant_names():
        m = mutant_program(name)
        assert len(m.clauses) == 4
        assert _source(m) != base
    with pytest.raises(ValueError):
        mutant_program("nope")


def test_initial_query():
    q = initial_query(1)
    atom = q.atoms[0]
    assert atom.pred == "pqs"
    assert atom.args[0] == numeral(1)
    assert members(atom.args[1]) == [Var("V1")]
    q4 = initial_query(4)
    cols = q4.atoms[0].args[1]
    assert is_proper_list(cols) and len(members(cols)) == 4
    vs = members(cols)
    assert len(set(vs)) == 4
    assert q4.atoms[0].args[2] != q4.atoms[0].args[3]
    with pytest.raises(ValueError):
        initial_query(0)


def test_solution_validation():
    QueensSolution((1,))
    QueensSolution((2, 4, 1, 3))
    with pytest.raises(ValueError):
        QueensSolution((1, 1))
    with pytest.raises(ValueError):
        QueensSolution((1, 2))  # shared diagonal


def test_extract_solution():
    answers = solve_answers(nqueens_program(), initial_query(4))
    sols = {extract_solution(a, 4) for a in answers}
    assert sols == {QueensSolution((2, 4, 1, 3)), QueensSolution((3, 1, 4, 2))}
    with pytest.raises(ValueError):
        extract_solution(answers[0], 5)


def test_extract_solution_n1():
    answers = solve_answers(nqueens_program(), initial_query(1))
    assert [extract_solution(a, 1) for a in answers] == [QueensSolution((1,))]


def test_brute_force_small():
    assert len(brute_force(1)) == 1
    assert brute_force(2) == set()
    assert brute_force(3) == set()
    assert brute_force(4) == {QueensSolution((2, 4, 1, 3)), QueensSolution((3, 1, 4, 2))}
    with pytest.raises(ValueError):
        brute_force(0)
    # the known solution counts (OEIS A000170), past the old n <= 10 cap
    assert [len(brute_force(n)) for n in range(1, 13)] == [
        1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200]


def test_solve_queens_matches_oracle_small():
    for n in range(1, 6):
        assert solve_queens(n) == brute_force(n)


def test_render_board():
    board = render_board(QueensSolution((2, 4, 1, 3)))
    rows = board.split("\n")
    assert len(rows) == 4
    assert rows[0] == ". . Q ."
    assert rows[1] == "Q . . ."
    assert rows[2] == ". . . Q"
    assert rows[3] == ". Q . ."
    assert render_board(QueensSolution((1,))) == "Q"


@given(st.sampled_from(sorted(brute_force(6), key=lambda s: s.columns_to_rows)))
def test_render_injective_via_lines(sol):
    # two distinct solutions never render identically
    others = brute_force(6) - {sol}
    assert all(render_board(o) != render_board(sol) for o in others)


def test_solution_line():
    assert solution_line(QueensSolution((2, 4, 1, 3))) == "4;2,4,1,3"
