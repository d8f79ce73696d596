"""queenscheck benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload {solve,verify,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. Each op is one call of `queenscheck.cli.main(argv)` with stdout
captured, sent only after the previous one returned. Every op's output is
checked against the references in refs.py. With --trace 0 the last line
of stdout carries the end-to-end metrics; with --trace 1 the ops run once
untraced and once with the spans of tracing.py, and it carries the
per-layer metrics. A result file with the work ledger goes to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops as workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5  # set-ups timed per run, in fresh processes; setup_s is their median
#: Above this many ops the quantile weights stop narrowing: they keep the
#: width Harrell-Davis gives 30 ops (about +-9% of the ops around p50).
QUANTILE_WIDTH_N = 30
OP_LIMIT_S = 30  # an op running longer fails with cause "timeout"
RUN_DEADLINE_S = 165  # ops not started by then fail with cause "run deadline"
T_START = time.monotonic()


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM; a BaseException so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_cli():
    src = ROOT / "src"
    if not (src / "queenscheck" / "cli.py").is_file():
        raise SystemExit(f"error: no queenscheck sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("queenscheck.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported queenscheck from {cli.__file__}, not {src}")
    return cli


def run_op(cli, argv):
    """(exit code, stdout, cause, seconds) of one CLI call; cause is None
    unless the call raised or hit the op time limit."""
    out = io.StringIO()
    rc, cause = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)  # an attribute lookup, so the tracer's wrapper is used
    except OpTimeout:
        cause = "timeout"
    except Exception as exc:  # the op boundary: record the failure and go on
        cause = type(exc).__name__
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), cause, elapsed


def setup(workload, seed, seconds, workdir):
    """Import the package, generate the seeded ops and files, warm up."""
    cli = import_cli()
    rounds = max(1, round(seconds / workloads.ROUND_S[workload]))
    op_list, files = workloads.make_ops(workload, seed, rounds, workdir)
    for argv in workloads.warmup_argvs(workload, files):
        _, _, cause, _ = run_op(cli, argv)
        if cause:
            raise SystemExit(f"error: warm-up {argv} raised {cause}")
    return cli, op_list, files


def probe_setup_s(args):
    """Set up in a fresh process and time it from spawn to ready."""
    workdir = OUT / f"probe-{os.getpid()}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe", str(workdir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=25, cwd=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(lines[1]) - start


def run_pass(cli, op_list, wants, tracer=None):
    """Run every op in order; one result dict per op."""
    results = []
    for i, op in enumerate(op_list):
        if time.monotonic() - T_START > RUN_DEADLINE_S:
            results.append({"cause": "run deadline", "s": None, "work": 0, "ledger": {},
                            "wrong": False})
            continue
        if tracer:
            tracer.begin_op(i)
        rc, stdout, cause, elapsed = run_op(cli, op.argv)
        wrong = False
        if cause is None:
            cause = workloads.check(op, rc, stdout, wants[i])
            wrong = cause is not None and cause != "resource-capped"
        ledger = workloads.ledger_of(stdout) if cause is None else {"cause": cause}
        results.append({"cause": cause, "s": elapsed, "wrong": wrong, "ledger": ledger,
                        "work": workloads.work_of(ledger) if cause is None else 0})
    return results


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz method). Written out rather than imported
    from scipy, whose import would add to this process's peak_rss_mb."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-300 else 1e-300
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(times, p):
    """Harrell-Davis estimate of the p-quantile (0 < p < 1): a mean of all
    order statistics weighted by a Beta((m+1)p, (m+1)(1-p)) distribution,
    with m = min(n, QUANTILE_WIDTH_N). The host's speed switches between a
    fast and a slow mode every few seconds, so one order statistic, or the
    few that plain Harrell-Davis weighs when n is large, jumps between the
    two; the weighted mean moves with the share of slow ops instead."""
    xs = sorted(times)
    n = len(xs)
    m = min(n, QUANTILE_WIDTH_N)
    a, b = (m + 1) * p, (m + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(times):
    """(value, percentile): the highest percentile with >= 10 samples above,
    and with fewer than 11 ops the slowest op."""
    if len(times) <= 10:
        return max(times), 100.0
    p = (len(times) - 10) / len(times)
    return quantile(times, p), 100.0 * p


def portable(argv):
    """argv with a program file path cut to its name, which is the same in
    every checkout."""
    if argv[0] == "query":
        return [argv[0], Path(argv[1]).name] + argv[2:]
    return argv


def ledger_digest(op_list, results):
    entries = [[op.kind, portable(op.argv), r["ledger"]]
               for op, r in zip(op_list, results)]
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(results, setup_s):
    times = [r["s"] for r in results if r["s"] is not None]
    if not times:
        raise SystemExit("error: no op started before the run deadline")
    run_s = sum(times)
    work = sum(r["work"] for r in results)
    failed = sum(1 for r in results if r["cause"])
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_tail_s": (tail_s, "s"),
        "work_per_s": (work / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # the metrics must never read 0, so the share of ops that did not fail
        "ok_ratio": (1 - failed / len(results), "ratio"),
    }, {"work_units": work, "failed": failed, "fail_ratio": failed / len(results),
        "op_tail_percentile": tail_pct, "op_samples": len(times),
        # the plain order statistics, for reference
        "op_sample_median_s": statistics.median(times),
        "op_sample_tail_s": sorted(times)[-min(11, len(times))]}


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(t, run_s_traced, run_s_plain):
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("cli.main.calls", t.total("cli.main", "calls"), "count")
    put("cli.main.self_s", t.total("cli.main", "self_s"), "s")
    pp_s = t.total("parser.parse_program", "s")
    put("parser.parse_program.s", pp_s, "s")
    put("parser.parse_program.clauses_per_s",
        _ratio(t.total("parser.parse_program", "work"), pp_s), "1/s")
    put("parser.parse_query.s", t.total("parser.parse_query", "s"), "s")
    put("queens.solve_queens.self_s", t.total("queens.solve_queens", "self_s"), "s")
    solve_s = t.total("engine.solve", "s")
    inferences = t.total("unify.try_unify_atoms", "useful", parent="engine.solve")
    put("engine.solve.s", solve_s, "s")
    put("engine.solve.self_s", t.total("engine.solve", "self_s"), "s")
    put("engine.inferences", inferences, "count")
    put("engine.inferences_per_s", _ratio(inferences, solve_s), "1/s")
    for fn, ratio in (("try_unify_atoms", True), ("resolve_atom", False),
                      ("match_atom", True), ("unify_atoms", False)):
        name = f"unify.{fn}"
        calls = t.total(name, "calls")
        if fn != "resolve_atom":
            put(f"{name}.calls", calls, "count")
        if ratio:
            put(f"{name}.success_ratio", _ratio(t.total(name, "useful"), calls), "ratio")
        put(f"{name}.self_s", t.total(name, "self_s"), "s")
    put("terms.apply_subst_atom.calls", t.total("terms.apply_subst_atom", "calls"), "count")
    put("terms.apply_subst_atom.self_s", t.total("terms.apply_subst_atom", "self_s"), "s")
    put("terms.format.self_s", t.total("terms.format", "self_s"), "s")
    fix_s = t.total("herbrand.tp_fixpoint", "s")
    put("herbrand.tp_fixpoint.s", fix_s, "s")
    put("herbrand.tp_fixpoint.self_s", t.total("herbrand.tp_fixpoint", "self_s"), "s")
    put("herbrand.tp_fixpoint.atoms_per_s",
        _ratio(t.total("herbrand.tp_fixpoint", "work"), fix_s), "1/s")
    put("herbrand.enumerate_terms.s", t.total("herbrand.enumerate_terms", "s"), "s")
    calls = t.total("specs.contains", "calls")
    put("specs.contains.calls", calls, "count")
    put("specs.contains.self_s", t.total("specs.contains", "self_s"), "s")
    put("specs.contains.true_ratio", _ratio(t.total("specs.contains", "useful"), calls),
        "ratio")
    atoms = t.total("specs.sample", "work")
    put("specs.sample.atoms", atoms, "count")
    put("specs.sample.atoms_per_s", _ratio(atoms, t.total("specs.sample", "s")), "1/s")
    put("specs.correct_up_to.calls", t.total("specs.correct_up_to", "calls"), "count")
    put("specs.correct_up_to.self_s", t.total("specs.correct_up_to", "self_s"), "s")
    for check in ("check_model", "check_completeness_condition", "check_recurrent",
                  "check_row_shift", "check_fixpoint_exactness"):
        name = f"verify.{check}"
        secs = t.total(name, "s")
        put(f"{name}.s", secs, "s")
        put(f"{name}.self_s", t.total(name, "self_s"), "s")
        put(f"{name}.instances_per_s", _ratio(t.total(name, "work"), secs), "1/s")
    put("trace.overhead_ratio", _ratio(run_s_traced, run_s_plain), "ratio")
    return m


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha, bool(dirty.stdout.strip())


def failures(results):
    out = {}
    for r in results:
        if r["cause"]:
            out[r["cause"]] = out.get(r["cause"], 0) + 1
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    if args.setup_probe:
        os.makedirs(args.setup_probe, exist_ok=True)
        setup(args.workload, args.seed, args.seconds, args.setup_probe)
        print("READY", time.monotonic())
        return 0

    import_cli()  # fail before the probes if the sources are missing
    OUT.mkdir(parents=True, exist_ok=True)
    setups = [probe_setup_s(args) for _ in range(SETUP_PROBES)]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, op_list, files = setup(args.workload, args.seed, args.seconds, workdir)
        wants = [workloads.expected(op, files) for op in op_list]
        gc.collect()
        plain = run_pass(cli, op_list, wants)
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, op_list, wants, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = end_to_end(plain, statistics.median(setups))
    correct = not any(r["wrong"] for r in plain)
    digest = ledger_digest(op_list, plain)
    sha, dirty = git_state()
    record = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": len(op_list),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": sha, "git_dirty": dirty, "setup_probes_s": setups,
        "end_to_end": {k: v for k, (v, _) in metrics.items()}, **extra,
        "failures": failures(plain), "ledger_digest": digest,
        "op_s": [r["s"] for r in plain],
        "ledger": [{"kind": op.kind, "argv": portable(op.argv), **r["ledger"]}
                   for op, r in zip(op_list, plain)],
    }
    print(f"# workload {args.workload} seed {args.seed}: {why[args.workload]}")
    print(f"# python {record['python']}  nproc {record['nproc']}  git {sha} "
          f"dirty={dirty}  ops {len(op_list)} in one closed loop")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<14} {_fmt(value)} {unit}")
    print(f"# fail_ratio     {extra['fail_ratio']:.6g} ratio  "
          f"({extra['failed']} of {len(plain)}: {failures(plain) or 'none'})")
    print(f"# op_tail_s is p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} ops; "
          f"plain order statistics: median {extra['op_sample_median_s']:.6g} s, "
          f"tail {extra['op_sample_tail_s']:.6g} s")
    print(f"# work units {extra['work_units']}; ledger digest {digest}")

    final = metrics
    if args.trace:
        run_plain = metrics["run_s"][0]
        run_traced = sum(r["s"] for r in traced if r["s"] is not None)
        final = per_layer(tracer, run_traced, run_plain)
        t_digest = ledger_digest(op_list, traced)
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                      if a["cause"] != b["cause"] or a["ledger"] != b["ledger"]]
        if any(r["wrong"] for r in traced) or mismatched:
            correct = False
        record.update(per_layer={k: v for k, (v, _) in final.items()},
                      traced_ledger_digest=t_digest, traced_mismatched_ops=mismatched,
                      traced_failures=failures(traced))
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump()))
        for name, (value, unit) in final.items():
            print(f"# {name:<46} {_fmt(value)} {unit}")
        print(f"# traced ledger digest {t_digest} "
              f"({'equal to' if t_digest == digest else 'DIFFERS from'} the untraced run)")
        if tracer.missing:
            print(f"# not traced (lookup site gone): {', '.join(tracer.missing)}")

    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != set(final):
        raise SystemExit(f"error: metrics {sorted(declared ^ set(final))} do not match "
                         "BENCHMARK.json")
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))
    print(f"# result file {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(plain), "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in final.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
