"""Command-line interface: solve boards, run ad-hoc queries, run checks.

Exit codes: 0 success/all checks pass, 1 check failure, 2 usage or parse
error, 3 a check was resource-capped (and none failed), 4 the run ran out
of Python stack or memory. Output is deterministic byte-for-byte for a
fixed command line, whatever PYTHONHASHSEED is.
"""

import argparse
import json
import mmap
import sys

from .engine import SELECTION_RULES, SearchTruncated, SolveOptions, solve
from .herbrand import DEFAULT_MAX_INSTANCES
from .parser import ParseError, parse_program, parse_query
from .queens import (
    initial_query,
    mutant_names,
    mutant_program,
    nqueens_program,
    render_board,
    solution_line,
    solve_queens,
)
from .specs import PQ, sample_s_pq, spec_set, term_pool
from .terms import (
    DEFAULT_SIGNATURE,
    Program,
    Signature,
    SignatureError,
    format_query,
    format_term,
    make_list,
    numeral,
)
from .verify import (
    check_completeness_condition,
    check_fixpoint_exactness,
    check_model,
    check_query_bound,
    check_recurrent,
    check_row_shift,
    report_record,
    report_text,
)

SUITES = ("model", "covered", "recurrent", "bound", "rowshift", "fixpoint", "all")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_RESOURCE = 4

#: main's except clauses name these, as building a tuple there allocates.
_RESOURCE_ERRORS = (RecursionError, MemoryError)
_INPUT_ERRORS = (ParseError, SignatureError, OSError, ValueError)

#: Bytes of address space that main holds back while a command runs and
#: gives up on MemoryError, so that the error line can still be printed
#: when the run has filled the rest.
RESERVE_BYTES = 1 << 22


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _load_signature(path) -> Signature:
    """Signature file: one `name arity` pair per line, # comments allowed."""
    symbols = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 2 or not fields[1].isdecimal():
                raise SignatureError(f"{path}, line {number}: expected `name arity`, "
                                     f"found {line.strip()!r}")
            symbols.append((fields[0], int(fields[1])))
    return Signature(frozenset(symbols))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="queenscheck")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, engine: bool = True, signature: bool = True):
        if engine:
            p.add_argument("--rule", choices=sorted(SELECTION_RULES), default="leftmost")
            p.add_argument("--occur-check", choices=("on", "off"), default="on",
                           help="accepted for old scripts; the occur-check is always on")
        p.add_argument("--depth", type=_positive, default=None,
                       help="depth limit (solve/query) or base depth of the sampled "
                            "verify suites (recurrent, bound and rowshift ignore it)")
        p.add_argument("--format", choices=("text", "records"), default="text")
        if signature:
            p.add_argument("--signature", default=None, help="signature file")

    p_solve = sub.add_parser("solve", help="solve the n-queens board")
    p_solve.add_argument("n", type=_positive)
    p_solve.add_argument("--boards", action="store_true")
    p_solve.add_argument("--mutate", choices=mutant_names(), default=None)
    common(p_solve, signature=False)

    p_query = sub.add_parser("query", help="run a query against a program file")
    p_query.add_argument("program")
    p_query.add_argument("query")
    p_query.add_argument("--answer-limit", type=_positive, default=None)
    common(p_query)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--mutate", choices=mutant_names(), default=None)
    p_verify.add_argument("--max-instances", type=_positive, default=DEFAULT_MAX_INSTANCES,
                          help="instance budget of the model suite (the other "
                               "suites ignore it)")
    p_verify.add_argument("--n", type=_positive, default=4,
                          help="board size for the bound suite")
    p_verify.add_argument("--spec", default=None,
                          help="spec set name (default: s for model, s0 for covered)")
    common(p_verify, engine=False)
    return top


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(
        selection_rule=args.rule,
        depth_limit=args.depth,
        answer_limit=getattr(args, "answer_limit", None),
    )


def cmd_solve(args) -> int:
    program = mutant_program(args.mutate) if args.mutate else nqueens_program()
    opts = _solve_opts(args)
    try:
        sols = sorted(solve_queens(args.n, program, opts), key=lambda s: s.columns_to_rows)
    except ValueError as e:  # an answer that is not a solution of the board
        print(f"error: wrong answer: {e}", file=sys.stderr)
        return EXIT_FAIL
    for s in sols:
        if args.format == "records":
            print(json.dumps({"n": s.n, "rows": list(s.columns_to_rows)}))
        else:
            print(solution_line(s))
            if args.boards:
                print(render_board(s))
                print()
    if args.format == "text":
        print(f"{len(sols)} solutions")
    return EXIT_OK


def cmd_query(args) -> int:
    sig = _load_signature(args.signature) if args.signature else None
    with open(args.program) as fh:
        program = parse_program(fh.read(), sig)
    query = parse_query(args.query)
    count = 0
    for item in solve(program, query, _solve_opts(args)):
        if isinstance(item, SearchTruncated):
            if args.format == "records":
                print(json.dumps({"truncated_branches": item.branches_cut}))
            else:
                print(f"search truncated ({item.branches_cut} branches cut)")
            continue
        count += 1
        if args.format == "records":
            print(json.dumps({
                "bindings": {v.name: format_term(t) for v, t in item.substitution},
                "query": format_query(item.instantiated_query),
            }))
        else:
            print(format_query(item.instantiated_query))
    if args.format == "text":
        print(f"{count} answers")
    return EXIT_OK


def _emit(report, fmt: str):
    if fmt == "records":
        print(json.dumps(report_record(report)))
    else:
        print(report_text(report))


def cmd_verify(args) -> int:
    sig = _load_signature(args.signature) if args.signature else DEFAULT_SIGNATURE
    if args.suite in ("model", "covered", "fixpoint", "all"):
        # their slices hold numerals and lists whatever the signature declares
        sig.check_term(make_list([numeral(1)]))
    program = mutant_program(args.mutate) if args.mutate else nqueens_program()
    depth = args.depth if args.depth is not None else 3

    reports = []
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in suites:
        if suite == "model":
            spec = spec_set(args.spec or "s")
            reports.append(check_model(program, spec, sig, depth, args.max_instances))
        elif suite == "covered":
            spec = spec_set(args.spec or "s0")
            reports.append(check_completeness_condition(program, spec, sig, depth))
        elif suite == "recurrent":
            reports.append(check_recurrent(program))
        elif suite == "bound":
            bound = check_query_bound(initial_query(args.n))
            if args.format == "records":
                print(json.dumps({"check": "check_query_bound", "n": args.n,
                                  "bound": bound}))
            else:
                print(f"check_query_bound: n={args.n} bound={bound}")
            if bound is None:
                return EXIT_FAIL
            continue
        elif suite == "rowshift":
            reports.append(check_row_shift())
        elif suite == "fixpoint":
            fragment = Program(program.clauses_for(PQ))
            pool = term_pool(sig, 1)
            expected = sample_s_pq(sig, depth, pool=pool, max_spine=depth)
            reports.append(check_fixpoint_exactness(fragment, expected, sig,
                                                    depth, pool=pool))
    for r in reports:
        _emit(r, args.format)
    if any(r.verdict == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.verdict == "resource-capped" for r in reports):
        return EXIT_CAPPED
    return EXIT_OK


def main(argv=None) -> int:
    reserve = mmap.mmap(-1, RESERVE_BYTES)  # mapped, never touched
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "query":
            return cmd_query(args)
        return cmd_verify(args)
    except _RESOURCE_ERRORS as e:
        # give up the reserve first: naming the error allocates. Print once
        # out of the handler, whose traceback holds the frames of the
        # failed run and all they built
        reserve.close()
        error = f"error: {type(e).__name__}: {e}"
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(error, file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
