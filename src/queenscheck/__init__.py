"""Definite-clause resolution engine and a bounded verification toolkit,
exercised on the layered n-queens program."""

from .terms import (
    Atom,
    Clause,
    Compound,
    DEFAULT_SIGNATURE,
    MINIMAL_SIGNATURE,
    NIL,
    Program,
    Query,
    Signature,
    SignatureError,
    Term,
    Var,
    ZERO,
    cons,
    make_list,
    numeral,
    numeral_value,
)
from .parser import ParseError, parse_program, parse_query, parse_term
from .unify import UnifyOptions, mgu, unify_atoms
from .engine import (
    Answer,
    SELECTION_RULES,
    SearchTruncated,
    SolveOptions,
    solve,
    solve_answers,
)
from .herbrand import (
    ResourceCapError,
    count_terms,
    enumerate_terms,
    tp_fixpoint,
)
from .specs import (
    PlacementTriple,
    QUEENS_LEVEL_MAPPING,
    SpecSet,
    correct_up_to,
    down_diag_number,
    in_s,
    in_s0,
    in_s0_pqs,
    in_s_pq,
    in_s_pqs,
    level,
    spec_set,
    up_diag_number,
)
from .verify import (
    CheckReport,
    CoverWitness,
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
from .queens import (
    MUTANT_SOURCES,
    NQUEENS_SOURCE,
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

__version__ = "0.1.0"
