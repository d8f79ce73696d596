"""Seeded op lists for the three workloads.

An op is one `queenscheck` command line. A workload's ops come in rounds
of fixed composition; the seed fixes the order inside each round and the
generated data (tree labels and fact order, list elements, board size of
the bound suite), so every seed does the same amount of work and the
program sees only the generated argv and files.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path

import refs

#: Seconds one round took when the benchmark was added, on a 2-CPU x86 VM.
#: A run does round(seconds / ROUND_S) rounds (at least one), so every
#: commit does the same ops and run_s compares them.
ROUND_S = {"solve": 32.0, "verify": 35.0, "query": 3.0}

NREV_SOURCE = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

ANC_RULES = "anc(X, Y) :- par(X, Y).\nanc(X, Z) :- par(X, Y), anc(Y, Z).\n"

#: Children per node at each level: 1 + 2 + 6 + 24 + 120 = 153 nodes, so
#: 152 par/2 facts. A fixed shape keeps the work the same for every seed;
#: the seed picks the labels and the fact order.
TREE_FANOUT = (2, 3, 4, 5)

NREV_LENGTHS = (20, 25, 30, 35, 40)

#: A correct engine answers nrev of n elements in n + n(n+1)/2 steps (1080
#: and 1224 here). When this was written the engine recursed once per step
#: and raised RecursionError; these ops fail until it stops recursing.
DEEP_NREV_LENGTHS = (45, 48)


@dataclass
class Op:
    argv: list
    kind: str  # op class, for the report
    ref: tuple  # key for refs.expected()
    expect_rc: int = 0


def _occ(flag):
    return ["--occur-check", "on" if flag else "off"]


def solve_round(rng):
    """Every (n, occur-check, rule) once at n=6 and n=8 and three times at
    n=7, plus fair at n=6: 22 ops whose median and tail (11th slowest)
    both fall among the many n=7 ops, not on the edge of a class."""
    ops = []
    for n, copies in ((6, 1), (7, 3), (8, 1)):
        for occ in (True, False):
            for rule in ("leftmost", "rightmost"):
                for _ in range(copies):
                    ops.append(Op(["solve", str(n), "--rule", rule] + _occ(occ),
                                  f"solve n={n}", ("solve", n)))
    for occ in (True, False):
        # fair is about 8 s at n=7, so it stays at n=6
        ops.append(Op(["solve", "6", "--rule", "fair"] + _occ(occ), "solve n=6 fair",
                      ("solve", 6)))
    rng.shuffle(ops)
    return ops


VERIFY_DEPTH = {"model": 1, "covered": 2, "recurrent": 1, "fixpoint": 3}

#: 60k row-shift instances (about 2.7 s) put the suite among the covered
#: and fixpoint ops, so the round's median and its 11th-slowest op fall
#: inside that group rather than on its fastest member.
ROWSHIFT_INSTANCES = 60_000


def verify_round(rng):
    ops = []
    for (suite, mutant), (verdict, _why) in refs.VERDICTS.items():
        argv = ["verify", suite]
        if suite in VERIFY_DEPTH:
            argv += ["--depth", str(VERIFY_DEPTH[suite])]
        if suite == "rowshift":
            argv += ["--max-instances", str(ROWSHIFT_INSTANCES)]
        if mutant:
            argv += ["--mutate", mutant]
        ops.append(Op(argv, f"verify {suite}", ("verdict", suite, mutant),
                      0 if verdict == "pass" else 1))
    n = rng.randint(4, 12)
    ops.append(Op(["verify", "bound", "--n", str(n)], "verify bound", ("bound", n)))
    rng.shuffle(ops)
    return ops


def make_tree(rng):
    """Levels of node names and the par/2 facts in program order."""
    total = 1
    width = 1
    for f in TREE_FANOUT:
        width *= f
        total += width
    names = [f"n{k}" for k in rng.sample(range(total), total)]
    levels = [[names.pop()]]
    facts = []
    for f in TREE_FANOUT:
        nxt = []
        for parent in levels[-1]:
            for _ in range(f):
                child = names.pop()
                nxt.append(child)
                facts.append((parent, child))
        levels.append(nxt)
    rng.shuffle(facts)
    return levels, facts


def query_files(rng, workdir):
    levels, facts = make_tree(rng)
    anc = Path(workdir, "anc.pl")
    anc.write_text(ANC_RULES + "".join(f"par({p}, {c}).\n" for p, c in facts))
    nrev = Path(workdir, "nrev.pl")
    nrev.write_text(NREV_SOURCE)
    return {"anc": str(anc), "nrev": str(nrev), "levels": levels, "facts": facts}


def query_round(rng, files):
    levels = files["levels"]
    bound = ([(0, x) for x in levels[0]] + [(1, x) for x in levels[1]]
             + [(2, x) for x in levels[2]]
             + [(3, x) for x in rng.sample(levels[3], 6)]
             + [(4, x) for x in rng.sample(levels[4], 6)])
    ops = [Op(["query", files["anc"], "anc(X,Z)"] + _occ(occ), "query anc unbound",
              ("anc", None)) for occ in (True, False)]
    for level, node in bound:
        ops.append(Op(["query", files["anc"], f"anc({node},Z)"] + _occ(rng.random() < 0.5),
                      f"query anc bound level {level}", ("anc", node)))
    for length in NREV_LENGTHS:
        for occ in (True, False):
            items = tuple(rng.randrange(10) for _ in range(length))
            ops.append(Op(["query", files["nrev"], _nrev_query(items)] + _occ(occ),
                          f"query nrev {length}", ("nrev", items)))
    for length, occ in zip(DEEP_NREV_LENGTHS, (True, False)):
        items = tuple(rng.randrange(10) for _ in range(length))
        ops.append(Op(["query", files["nrev"], _nrev_query(items)] + _occ(occ),
                      "query nrev deep", ("nrev", items)))
    rng.shuffle(ops)
    return ops


def _nrev_query(items):
    return "nrev([" + ",".join(map(str, items)) + "],R)"


def make_ops(workload, seed, rounds, workdir):
    """The op list of one run, writing any program files into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve":
        return [op for _ in range(rounds) for op in solve_round(rng)], {}
    if workload == "verify":
        return [op for _ in range(rounds) for op in verify_round(rng)], {}
    files = query_files(rng, workdir)
    return [op for _ in range(rounds) for op in query_round(rng, files)], files


def warmup_argvs(workload, files):
    """Small untimed commands that load every code path a workload's ops
    use and fill first-call caches (such as the ground-term tables)."""
    if workload == "solve":
        return [["solve", "4"], ["solve", "4", "--rule", "rightmost", "--occur-check", "off"],
                ["solve", "4", "--rule", "fair"]]
    if workload == "verify":
        return [["verify", "bound", "--n", "4"], ["verify", "fixpoint", "--depth", "2"],
                ["verify", "recurrent", "--depth", "1", "--max-instances", "500"],
                ["verify", "rowshift", "--max-instances", "200"],
                ["verify", "model", "--depth", "1", "--max-instances", "1000"]]
    leaf = files["levels"][-1][0]
    return [["query", files["anc"], f"anc({leaf},Z)"],
            ["query", files["nrev"], "nrev([1,2,3],R)", "--occur-check", "off"]]


def expected(op, files):
    """Reference stdout of an op whose output is fixed text, else None."""
    key = op.ref
    if key[0] == "solve":
        return refs.solve_stdout(key[1])
    if key[0] == "anc":
        return refs.anc_stdout(files["facts"], key[1])
    if key[0] == "nrev":
        return refs.nrev_stdout(key[1])
    if key[0] == "bound":
        return refs.bound_stdout(key[1])
    return None


_HEADER = re.compile(r"^(check_\w+): (\S+) \((\d+) instances examined\)$")
_PARAM = re.compile(r"^  (\w+) = (.*)$")
_BOUND = re.compile(r"^check_query_bound: n=(\d+) bound=(\S+)$")
_COUNT = re.compile(r"^(\d+) (solutions|answers)$", re.M)


def ledger_of(stdout):
    """Work counts an op's stdout reports: solutions or answers, and for
    each check report its verdict, instances_examined and every slice
    parameter (fixpoint_size, expected_size, sampled_slice, depth, ...).
    Counterexample lines are left out: their order follows set iteration."""
    found = _COUNT.findall(stdout)
    if found:
        count, unit = found[-1]
        return {unit: int(count)}
    reports = []
    for line in stdout.splitlines():
        head = _HEADER.match(line)
        if head:
            reports.append({"check": head[1], "verdict": head[2],
                            "instances_examined": int(head[3])})
            continue
        param = _PARAM.match(line)
        if param and reports:
            reports[-1][param[1]] = param[2]
            continue
        bound = _BOUND.match(line)
        if bound:
            reports.append({"check": "check_query_bound", "n": int(bound[1]),
                            "bound": bound[2]})
    return {"reports": reports}


def work_of(ledger):
    """The workload's work unit: solutions, answers or instances examined."""
    for unit in ("solutions", "answers"):
        if unit in ledger:
            return ledger[unit]
    return sum(r.get("instances_examined", 0) for r in ledger.get("reports", ()))


def check(op, rc, stdout, want):
    """None if the op's output is right, else why not. `want` is the exact
    reference stdout, or None for a check suite judged by its verdict."""
    if want is not None:
        if stdout != want:
            return "wrong output"
    else:
        _, suite, mutant = op.ref
        reports = ledger_of(stdout)["reports"]
        verdict = refs.VERDICTS[(suite, mutant)][0]
        if len(reports) != 1 or reports[0]["check"] != refs.CHECK_NAMES[suite]:
            return "wrong output"
        if reports[0]["verdict"] == "resource-capped":
            return "resource-capped"
        if reports[0]["verdict"] != verdict:
            return "wrong output"
    if rc != op.expect_rc:
        return f"exit code {rc}"
    return None
