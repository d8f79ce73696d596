"""Spans around the calls into each queenscheck module, from outside it.

The tracer replaces a function at every name its callers look it up by
(for example `queenscheck.engine.try_unify_atoms`, which the engine's
search loop calls) with a timing wrapper, and puts the originals back on
`uninstall`. Nothing inside the package changes.

Each call is a span with a name, start, end, parent span name and op id.
Functions called hundreds of thousands of times per op are aggregated in
place: count, total and self time per (name, parent). The rest also keep
one record per call. Self time is a span's duration minus the time of the
wrapped calls made inside it. Generators (the SLD answer stream, the spec
samplers, term enumeration) are timed across every resume, so work done
lazily while the caller iterates is charged to them, not to the caller.
"""

import dataclasses
import importlib
import inspect
import time

PACKAGE = "queenscheck"
SPAN = "span"  # one record per call, plus the aggregate
HOT = "hot"  # aggregate only


def _instances(report):
    return report.instances_examined


#: (span name, defining module, function, modules whose global name the
#: callers use, kind, outcome test, work count). The outcome test marks a
#: call as useful (a unification that succeeded, a member found); the work
#: count reads the amount of work from the return value.
TARGETS = (
    ("cli.main", "cli", "main", ("cli",), SPAN, None, None),
    ("parser.parse_program", "parser", "parse_program", ("cli", "queens"), SPAN,
     None, lambda p: len(p.clauses)),
    ("parser.parse_query", "parser", "parse_query", ("cli",), SPAN, None, None),
    ("queens.solve_queens", "queens", "solve_queens", ("cli",), SPAN, None, len),
    # engine.solve_answers and cli both look `solve` up as a global.
    ("engine.solve", "engine", "solve", ("cli", "engine"), SPAN, None, None),
    ("unify.try_unify_atoms", "unify", "try_unify_atoms", ("engine",), HOT, bool, None),
    ("unify.resolve_atom", "unify", "resolve_atom", ("engine",), HOT, None, None),
    ("unify.match_atom", "unify", "match_atom", ("verify", "herbrand"), HOT,
     lambda r: r is not None, None),
    ("unify.unify_atoms", "unify", "unify_atoms", ("verify",), HOT,
     lambda r: r is not None, None),
    # Clause renaming imports apply_subst_atom from terms at call time.
    ("terms.apply_subst_atom", "terms", "apply_subst_atom",
     ("terms", "engine", "verify", "herbrand"), HOT, None, None),
    ("terms.format", "terms", "format_query", ("cli",), HOT, None, None),
    ("terms.format", "terms", "format_term", ("cli", "verify"), HOT, None, None),
    ("terms.format", "terms", "format_atom", ("verify",), HOT, None, None),
    ("terms.format", "terms", "format_clause", ("verify",), HOT, None, None),
    ("herbrand.tp_fixpoint", "herbrand", "tp_fixpoint", ("verify",), SPAN, None, len),
    ("herbrand.enumerate_terms", "herbrand", "enumerate_terms", ("verify",), SPAN,
     None, None),
    ("specs.correct_up_to", "specs", "correct_up_to", ("verify",), HOT, bool, None),
    # The fixpoint suite samples s_pq directly, not through a SpecSet.
    ("specs.sample", "specs", "sample_s_pq", ("cli",), SPAN, None, None),
    ("verify.check_model", "verify", "check_model", ("cli",), SPAN, None, _instances),
    ("verify.check_completeness_condition", "verify", "check_completeness_condition",
     ("cli",), SPAN, None, _instances),
    ("verify.check_recurrent", "verify", "check_recurrent", ("cli",), SPAN, None,
     _instances),
    ("verify.check_row_shift", "verify", "check_row_shift", ("cli",), SPAN, None,
     _instances),
    ("verify.check_fixpoint_exactness", "verify", "check_fixpoint_exactness", ("cli",),
     SPAN, None, _instances),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, time spent in wrapped callees]
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s, useful, work]
        self.spans = []  # (name, start, end, parent, op, self_s) of SPAN kinds
        self.op = None
        self.t0 = time.perf_counter()
        self.missing = []  # lookup sites that no longer hold the function
        self._saved = []

    # --- bookkeeping shared by all wrappers ---------------------------------

    def _pop(self, frame, dt):
        """Close the innermost span and charge its time to its parent."""
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1][1] += dt

    def _account(self, name, parent, total, self_s):
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += total
        rec[2] += self_s
        return rec

    def wrap(self, name, fn, kind, useful=None, work=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(name, fn, kind == SPAN)
        stack = self.stack
        perf = time.perf_counter
        record = kind == SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - start
                self._pop(frame, dt)
                rec = self._account(name, parent, dt, dt - frame[1])
                if record:
                    self.spans.append((name, start - self.t0, start + dt - self.t0, parent,
                                       self.op, dt - frame[1]))
            if useful is not None and useful(result):
                rec[3] += 1
            if work is not None:
                rec[4] += work(result)
            return result

        return traced

    def _wrap_gen(self, name, fn, record):
        """Time a generator over all its resumes; its work is the number of
        items it yields. One record per generator, not per resume."""
        stack = self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            first = None
            active = child = 0.0
            items = 0
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = perf()
                    if first is None:
                        first = start
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - start
                        self._pop(frame, dt)
                        active += dt
                        child += frame[1]
                    items += 1
                    yield item
            finally:
                it.close()
                rec = self._account(name, parent, active, active - child)
                rec[4] += items
                if record and first is not None:
                    self.spans.append((name, first - self.t0, perf() - self.t0, parent,
                                       self.op, active - child))

        return traced

    # --- installing --------------------------------------------------------

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        for name, home, attr, sites, kind, useful, work in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self.wrap(name, original, kind, useful, work)
            for site in sites:
                mod = importlib.import_module(f"{PACKAGE}.{site}")
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)
                else:
                    self.missing.append(f"{site}.{attr}")
        self._install_spec_sets(importlib.import_module(f"{PACKAGE}.cli"))

    def _install_spec_sets(self, cli):
        """Wrap `contains` and `sample` of every SpecSet the CLI obtains."""
        spec_set = getattr(cli, "spec_set", None)
        if spec_set is None:
            self.missing.append("cli.spec_set")
            return
        wrapped = {}

        def traced_spec_set(name):
            if name not in wrapped:
                spec = spec_set(name)
                wrapped[name] = dataclasses.replace(
                    spec,
                    contains=self.wrap("specs.contains", spec.contains, HOT, bool),
                    sample=self.wrap("specs.sample", spec.sample, SPAN),
                )
            return wrapped[name]

        self._patch(cli, "spec_set", traced_spec_set)

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def begin_op(self, op_id):
        self.op = op_id
        # An op that died of RecursionError may have left frames open.
        self.stack.clear()

    # --- reading -------------------------------------------------------------

    def total(self, name, field, parent=...):
        """Sum of one aggregate field over all parents (or one parent)."""
        idx = {"calls": 0, "s": 1, "self_s": 2, "useful": 3, "work": 4}[field]
        return sum(rec[idx] for (n, p), rec in self.agg.items()
                   if n == name and (parent is ... or p == parent))

    def dump(self):
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2],
                 "useful": r[3], "work": r[4]}
                for (n, p), r in sorted(self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "spans": [
                {"name": n, "start_s": s, "end_s": e, "parent": p, "op": op, "self_s": sf}
                for n, s, e, p, op, sf in self.spans
            ],
            "unwrapped_sites": self.missing,
        }
