"""Command-line interface: output formats, exit codes, determinism."""

import dis
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import queenscheck
from queenscheck.cli import EXIT_CAPPED, EXIT_FAIL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from queenscheck.parser import parse_term
from queenscheck.queens import NQUEENS_SOURCE
from conftest import time_limit
from test_engine import OCCURS_FAILURES


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "board.pl"
    f.write_text(NQUEENS_SOURCE)
    return str(f)


@pytest.fixture
def len_file(tmp_path):
    f = tmp_path / "len.pl"
    f.write_text("len([], 0).\nlen([_|T], s(N)) :- len(T, N).\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_4(capsys):
    code, out, _ = run(capsys, "solve", "4")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines == ["4;2,4,1,3", "4;3,1,4,2", "2 solutions"]


def test_solve_2_empty(capsys):
    code, out, _ = run(capsys, "solve", "2")
    assert code == EXIT_OK
    assert out.strip() == "0 solutions"


def test_solve_0_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "0")
    assert code == EXIT_USAGE


def test_solve_boards(capsys):
    code, out, _ = run(capsys, "solve", "4", "--boards")
    assert code == EXIT_OK
    assert out.count("Q") == 8  # two boards, four queens each


def test_solve_records(capsys):
    code, out, _ = run(capsys, "solve", "4", "--format", "records")
    assert code == EXIT_OK
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert recs == [{"n": 4, "rows": [2, 4, 1, 3]}, {"n": 4, "rows": [3, 1, 4, 2]}]


def test_solve_deterministic(capsys):
    code1, out1, _ = run(capsys, "solve", "5")
    code2, out2, _ = run(capsys, "solve", "5")
    assert code1 == code2 == EXIT_OK and out1 == out2


def test_query_zero_row(capsys, prog_file):
    code, out, _ = run(capsys, "query", prog_file, "pqs(0,A,B,C)")
    assert code == EXIT_OK
    assert out.strip().endswith("1 answers")


def test_query_records_roundtrip(capsys, prog_file):
    code, out, _ = run(capsys, "query", prog_file, "pqs(s(s(0)),[A,B,C,D],Us,Ds)",
                       "--format", "records")
    assert code == EXIT_OK
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        for text in rec["bindings"].values():
            parse_term(text)  # canonical printing re-parses


def test_query_parse_error(capsys, prog_file):
    code, _, err = run(capsys, "query", prog_file, "pqs(0,A")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_query_missing_file(capsys):
    code, _, err = run(capsys, "query", "/no/such/file.pl", "p(X)")
    assert code == EXIT_USAGE


def test_query_truncation_marker(capsys, tmp_path):
    f = tmp_path / "loop.pl"
    f.write_text("loop(X) :- loop(X).\n")
    code, out, _ = run(capsys, "query", str(f), "loop(0)", "--depth", "5")
    assert code == EXIT_OK
    assert "search truncated" in out
    assert out.strip().endswith("0 answers")


def test_verify_bound(capsys):
    code, out, _ = run(capsys, "verify", "bound", "--n", "4")
    assert code == EXIT_OK
    assert "bound=8" in out


def test_verify_recurrent_records(capsys):
    code, out, _ = run(capsys, "verify", "recurrent", "--depth", "2",
                       "--format", "records")
    assert code == EXIT_OK
    rec = json.loads(out.strip().split("\n")[-1])
    assert rec["check"] == "check_recurrent" and rec["verdict"] == "pass"


def test_verify_rowshift_capped_budget(capsys):
    # the row-shift suite is a proof: an instance budget changes nothing
    outs = []
    for budget in ("200", "60000"):
        code, out, _ = run(capsys, "verify", "rowshift", "--max-instances", budget)
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("check_row_shift: pass (")
    assert outs[0].count("check_row_shift") == 1


@pytest.mark.parametrize("argv", [("verify", "model", "--rule", "fair"),
                                  ("verify", "model", "--occur-check", "off"),
                                  ("solve", "4", "--signature", "f")])
def test_subcommand_rejects_options_it_does_not_read(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    *(("query", source, query) for source, query in OCCURS_FAILURES),
    *(("solve", "6", "--rule", rule) for rule in ("leftmost", "rightmost", "fair")),
], ids=" ".join)
def test_occur_check_off_prints_as_on(capsys, tmp_path, argv):
    # --occur-check is still accepted, and both values run the one unifier
    if argv[0] == "query":
        program = tmp_path / "p.pl"
        program.write_text(argv[1])
        argv = ("query", str(program), argv[2])
    on, off = (run(capsys, *argv, "--occur-check", value)[:2] for value in ("on", "off"))
    assert on == off


@pytest.mark.parametrize("mutant", ["drop-ds-wrapper", "nonuniform-strip"])
@pytest.mark.parametrize("n", [2, 4, 5])
def test_solve_mutant_wrong_answer_fails(capsys, mutant, n):
    # a mutant's answer that is no solution is a failed check, not a usage error
    code, out, err = run(capsys, "solve", str(n), "--mutate", mutant)
    assert code == EXIT_FAIL
    assert out == ""
    # the message names the rejected column list, n rows long
    assert re.fullmatch(rf"error: wrong answer: .*\(\d+(, \d+){{{n - 1}}}\)\n", err)


def test_verify_model_resource_capped_exit(capsys):
    code, out, _ = run(capsys, "verify", "model", "--depth", "2",
                       "--max-instances", "10")
    assert code == EXIT_CAPPED
    assert "resource-capped" in out


def test_verify_model_mutant_fails(capsys):
    code, out, _ = run(capsys, "verify", "model", "--mutate", "drop-ds-wrapper",
                       "--depth", "3")
    assert code == EXIT_FAIL
    assert "counterexample" in out


@pytest.mark.parametrize("mutant", ["drop-ds-wrapper", "nonuniform-strip"])
def test_verify_model_stdout_ignores_hash_seed(mutant):
    # failing reports list at most 20 counterexamples; which ones must not
    # depend on how strings hash in the process
    src = str(Path(queenscheck.__file__).parent.parent)
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from queenscheck.cli import main; sys.exit(main(sys.argv[1:]))",
             "verify", "model", "--depth", "1", "--mutate", mutant],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_FAIL
        outs.append(proc.stdout)
    assert "counterexample" in outs[0]
    assert outs[0] == outs[1]


def test_verify_fixpoint_small_depth(capsys):
    code, out, _ = run(capsys, "verify", "fixpoint", "--depth", "2")
    assert code == EXIT_OK
    assert "check_fixpoint_exactness: pass" in out


def test_unknown_suite_usage(capsys):
    code, _, _ = run(capsys, "verify", "nosuch")
    assert code == EXIT_USAGE


def test_signature_file(capsys, tmp_path, prog_file):
    sig = tmp_path / "sig.txt"
    sig.write_text("0 0\ns 1\nnil 0\ncons 2\n# comment\n")
    code, out, _ = run(capsys, "query", prog_file, "pqs(0,A,B,C)",
                       "--signature", str(sig))
    assert code == EXIT_OK


@pytest.mark.parametrize("suite", ["model", "covered", "fixpoint", "all"])
def test_verify_signature_must_declare_numerals_and_lists(capsys, tmp_path, suite):
    # these suites scan numerals and lists, so a signature without them is
    # an input error, not a pass over terms it does not declare
    sig = tmp_path / "a.sig"
    sig.write_text("a 0\n")
    code, out, err = run(capsys, "verify", suite, "--signature", str(sig), "--depth", "2")
    assert (code, out, err) == (EXIT_USAGE, "", "error: undeclared symbol cons/2\n")


@pytest.mark.parametrize("bad", ["foo", "cons x", "cons 2 3"])
def test_malformed_signature_line(capsys, tmp_path, prog_file, bad):
    sig = tmp_path / "sig.txt"
    sig.write_text(f"0 0\n# comment\n{bad}\n")
    code, _, err = run(capsys, "query", prog_file, "pqs(0,A,B,C)", "--signature", str(sig))
    assert code == EXIT_USAGE
    assert err == f"error: {sig}, line 3: expected `name arity`, found {bad!r}\n"


def test_query_long_derivation(capsys, len_file):
    # 331 resolution steps: more than the Python stack held when the engine
    # recursed once per step; 2001 steps and an answer list 2000 cells long:
    # more than it held when the answer's term walkers recursed; 10000
    # variables in one answer: naming them must be linear in their number
    for n in (330, 2000, 10000):
        code, out, _ = run(capsys, "query", len_file, f"len(L,{n})")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "1 answers"
        assert out.count(",") == n


def test_query_list_of_5000_variables(capsys, len_file):
    # the query goes onto cells through iterative walkers, so a query term
    # 5000 list cells long, with 5000 variables, answers
    xs = ",".join(f"X{i}" for i in range(1, 5001))
    code, out, _ = run(capsys, "query", len_file, f"len([{xs}],N)")
    assert code == EXIT_OK
    assert out.splitlines() == [f"len([{xs.replace('X', '_G')}],5000)", "1 answers"]


def test_program_with_long_ground_terms(capsys, tmp_path):
    # a clause is compiled in one iterative walk, so a fact holding a ground
    # list 3000 cells long, or a numeral 3000 deep, loads and answers
    items = [str(i % 10) for i in range(3000)]
    f = tmp_path / "big.pl"
    f.write_text("big([" + ",".join(items) + "]).\nbig(3000).\n")
    code, out, _ = run(capsys, "query", str(f), "big(X)")
    assert code == EXIT_OK
    assert out.splitlines() == ["big([" + ",".join(items) + "])", "big(3000)", "2 answers"]


def test_program_with_a_long_open_list_in_a_body(capsys, tmp_path):
    # a body atom is built by generated code with one flat statement per
    # list cell, so a 3000-cell list ending in a variable answers
    items = ",".join(str(i % 10) for i in range(3000))
    f = tmp_path / "open.pl"
    f.write_text(f"p(Y) :- q([{items}|Y]).\nq(_).\n")
    code, out, _ = run(capsys, "query", str(f), "p(a)")
    assert code == EXIT_OK
    assert out.splitlines() == ["p(a)", "1 answers"]


def test_query_deep_non_list_answer(capsys, tmp_path):
    # an answer term nested 3001 deep off the list spine: printing it must
    # not recurse once per level
    f = tmp_path / "d.pl"
    f.write_text("d(0, z).\nd(s(N), f(X)) :- d(N, X).\n")
    code, out, _ = run(capsys, "query", str(f), "d(3000,X)")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "1 answers"
    assert out.startswith("d(3000," + "f(" * 3000 + "z")


def _run_out_of_memory(tmp_path, headroom):
    """Exit code and stderr of `query len(L,10000000)`, which builds ten
    million terms. The CLI runs in a child process that lowers its own
    RLIMIT_AS, once the package is imported, to headroom bytes above the
    size it has then."""
    f = tmp_path / "len.pl"
    f.write_text("len([], 0).\nlen([_|T], s(N)) :- len(T, N).\n")
    child = ("import resource, sys\n"
             "from queenscheck.cli import main\n"
             "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
             f"resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, resource.RLIM_INFINITY))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(queenscheck.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", child, "query", str(f), "len(L,10000000)"],
                          capture_output=True, text=True, env=env, timeout=30)
    return proc.returncode, proc.stderr


def test_query_resource_exhaustion_exit(tmp_path):
    # a query too large for the address space left to the process raises
    # MemoryError, which exits 4 with one error line and no traceback
    code, err = _run_out_of_memory(tmp_path, 64 << 20)
    assert code == EXIT_RESOURCE
    assert err.startswith("error: MemoryError") and "Traceback" not in err


def test_query_resource_exhaustion_exit_any_headroom(tmp_path):
    # where the run stops depends on how much room is left; printing the
    # error line while the failed run still held all the memory hung or
    # raised again at about half of these
    for k in range(8):
        code, err = _run_out_of_memory(tmp_path, (64 << 20) + k * 15838)
        assert (k, code) == (k, EXIT_RESOURCE), err[-500:]
        assert err.startswith("error: MemoryError") and "Traceback" not in err


def test_no_except_in_main_builds_its_tuple():
    # a handler that builds its tuple of exception classes allocates while
    # matching, which raises MemoryError again when memory is exhausted
    code = list(dis.get_instructions(main))
    matched = [code[i - 1] for i, ins in enumerate(code) if ins.opname == "CHECK_EXC_MATCH"]
    assert [ins.opname for ins in matched] == ["LOAD_GLOBAL"] * 3


def test_query_long_ground_list_answers_in_linear_time(capsys, tmp_path):
    # a ground list is unified, scanned and read back as one object, not
    # walked node by node, though its numerals share their subterms
    f = tmp_path / "big.pl"
    numbers = ",".join(map(str, range(3000)))
    f.write_text(f"big([{numbers}]).\n")
    with time_limit(10):
        code, out, err = run(capsys, "query", str(f), "big(X)")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [f"big([{numbers}])", "1 answers"]


def _nest(functor, depth, leaf):
    return f"{functor}(" * depth + leaf + ")" * depth


_F3000 = _nest("f", 3000, "a")


@pytest.mark.parametrize("source, query, signature, want", [
    ("p(" + _nest("s", 3000, "0") + ").\n", "p(X)", None, ["p(3000)"]),
    (f"p({_F3000}).\n", "p(X)", None, [f"p({_F3000})"]),
    (f"p({_F3000}).\n", "p(X)", "a 0\nf 1\n", [f"p({_F3000})"]),
    ("len([], 0).\nlen([_|T], s(N)) :- len(T, N).\n", "len(L," + _nest("s", 5000, "0") + ")",
     None, ["len([" + ",".join(f"_G{i}" for i in range(1, 5001)) + "],5000)"]),
    (f"p :- q({_F3000}).\nq(_).\n", "p", None, ["p"]),
    (f"h({_nest('f', 3000, 'X')}).\n", "h(Y)", None, [f"h({_nest('f', 3000, '_G1')})"]),
    ("p([" + "a," * 2999 + "a|T]).\n", "p(Z)", None, ["p([" + "a," * 2999 + "a|_G1])"]),
    (f"h({_nest('f', 10000, 'X')}).\n", "h(Y)", None, [f"h({_nest('f', 10000, '_G1')})"]),
], ids=["fact-s", "fact-f", "fact-f-signature", "query-s", "body-f", "head-f", "head-list",
        "head-f-10000"])
def test_deeply_nested_input_answers(capsys, tmp_path, source, query, signature, want):
    # terms are parsed with an explicit stack and heads are unified by flat
    # generated code, so nesting thousands of levels deep in a fact, a rule
    # head or body, or a query answers
    f = tmp_path / "deep.pl"
    f.write_text(source)
    argv = ["query", str(f), query]
    if signature is not None:
        sig = tmp_path / "sig.txt"
        sig.write_text(signature)
        argv += ["--signature", str(sig)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == want + ["1 answers"]


#: Non-ground queries and their text and records stdout, recorded before the
#: engine stopped binding each unbound goal cell that a head variable takes.
NAMING = json.loads((Path(__file__).parent / "answer_naming.json").read_text())


@pytest.mark.parametrize("rule", ["leftmost", "rightmost", "fair"])
@pytest.mark.parametrize("query", sorted(NAMING["queries"]))
def test_answer_naming_golden(capsys, tmp_path, query, rule):
    # an unbound query variable that a head variable takes is reported bound
    # to a new _Gk (q(X) against q(Y).), one below a compound keeps its name
    # and is not reported (q(f(X))), and other new variables are _G1, _G2,
    # ... in order of first occurrence in the answer
    f = tmp_path / "naming.pl"
    f.write_text("\n".join(NAMING["program"]) + "\n")
    want = NAMING["queries"][query]
    for fmt in ("text", "records"):
        code, out, err = run(capsys, "query", str(f), query, "--rule", rule,
                             "--format", fmt, *want["options"])
        assert (code, err, out.splitlines()) == (EXIT_OK, "", want[fmt])


_N = 10_000
#: (source text, answer text) of each shape, nesting or a list 10,000 long;
#: the answer text has the clause's variables renamed, and in a query the
#: answer keeps the source text, but for an s/1 chain, printed as a number
_SWEEP_SHAPES = {
    "s-chain": (_nest("s", _N, "0"), str(_N)),
    "f-chain": (_nest("f", _N, "a"),) * 2,
    "open-list": ("[" + "a," * (_N - 1) + "a|T]",
                  "[" + "a," * (_N - 1) + "a|_G1]"),
    "numerals": ("[" + ",".join(map(str, range(_N))) + "]",) * 2,
    "variables": ("[" + ",".join(f"X{i}" for i in range(_N)) + "]",
                  "[" + ",".join(f"_G{i}" for i in range(1, _N + 1)) + "]"),
}
#: (program, query) with the shape's text for T
_SWEEP_POSITIONS = {
    "query": ("p(X).\n", "p(T)"),
    "fact": ("p(T).\n", "p(Z)"),
    "rule-head": ("p(T) :- q.\nq.\n", "p(Z)"),
    "rule-body": ("p(Z) :- q(T, Z).\nq(Y, Y).\n", "p(Z)"),
}


@pytest.mark.parametrize("signature", [False, True], ids=["", "signature"])
@pytest.mark.parametrize("position", list(_SWEEP_POSITIONS))
@pytest.mark.parametrize("shape", list(_SWEEP_SHAPES))
def test_deep_input_sweep(capsys, tmp_path, shape, position, signature):
    # every shape, 10,000 deep or long, in every place a term can stand is
    # parsed, unified, built and printed by code that does not recurse
    text, renamed = _SWEEP_SHAPES[shape]
    program, query = _SWEEP_POSITIONS[position]
    f = tmp_path / "sweep.pl"
    f.write_text(program.replace("T", text))
    argv = ["query", str(f), query.replace("T", text)]
    if signature:
        sig = tmp_path / "sig.txt"
        sig.write_text("0 0\ns 1\nf 1\na 0\nnil 0\ncons 2\n")
        argv += ["--signature", str(sig)]
    with time_limit(15):
        code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    want = renamed if position != "query" or shape == "s-chain" else text
    assert out == f"p({want})\n1 answers\n"
