"""SLD resolution with chronological backtracking, on one explicit-stack machine.

Answers come out in depth-first, clause-source order. The selection rule
and the occur-check are switchable; a depth limit (resolution steps per
derivation branch) turns silent truncation into an explicit stream marker.

The machine (`_run`) keeps a stack of frames, one per resolvent on the
current branch: its goals, the resolution steps that led to it, the
selected goal, the index of the next clause to try on that goal, and the
trail mark to undo to before trying it. Expanding a resolvent pushes a
frame, and a frame whose clauses are used up is popped, which is
backtracking. The stack lives on the heap, and the walkers that build an
answer's terms are iterative too, so neither a long derivation nor a deep
answer term deepens the Python stack. `solve` streams the machine's answers.

Each predicate's clauses are compiled once per call: the clause's
variables, a template that renames it apart, and, per head argument, its
principal functor and a first-occurrence flag, read off the head
template's slots with `terms.slot_walk`. A head argument whose
principal functor differs from that of the walked goal argument cannot
unify with it, so such a clause is skipped before it is renamed. An
argument is flagged when it is linear and, reading the head left to
right, all its variables occur there for the first time. Renamed apart, it
then shares no variable with the goal or with the arguments before it, so
by the NSTO lemma (Apt and Pellegrini 1994: a linear term unifies with a
term it shares no variable with without ever needing the occur-check) it
is unified with no occurs scan; see `unify.try_unify_atoms`.
"""

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .terms import (
    Atom,
    Clause,
    Program,
    Query,
    Var,
    apply_subst,
    apply_subst_atom,
    clause_template,
    instantiate_atom,
    query_vars,
    slot_walk,
)
from .unify import resolve, resolve_atom, try_unify_atoms, undo_trail, walk

SELECTION_RULES = ("leftmost", "rightmost", "fair")


@dataclass(frozen=True)
class SolveOptions:
    selection_rule: str = "leftmost"
    depth_limit: Optional[int] = None
    answer_limit: Optional[int] = None
    occur_check: bool = True

    def __post_init__(self):
        if self.selection_rule not in SELECTION_RULES:
            raise ValueError(f"unknown selection rule {self.selection_rule!r}")
        if self.depth_limit is not None and self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")


@dataclass(frozen=True)
class Answer:
    substitution: tuple  # sorted ((Var, Term), ...) restricted to query vars
    instantiated_query: Query


@dataclass(frozen=True)
class SearchTruncated:
    """Marker: some branches hit the depth limit, the stream may be incomplete."""

    branches_cut: int


def _select(rule: str, n_goals: int, step: int) -> int:
    if rule == "leftmost":
        return 0
    if rule == "rightmost":
        return n_goals - 1
    return step % n_goals


def _canonical_renaming(inst: Query, qvars) -> dict:
    """Map leftover renamed-apart variables in an answer to fresh parseable
    names _G1, _G2, ... that avoid the query's own variables."""
    taken = {v.name for v in qvars}
    ren: dict = {}
    k = 1
    for v in query_vars(inst):
        if v in qvars or v in ren:
            continue
        while f"_G{k}" in taken:
            k += 1
        ren[v] = Var(f"_G{k}")
        k += 1
    return ren


def _answer(query: Query, qvars, bindings: dict) -> Answer:
    inst = Query(tuple(resolve_atom(a, bindings) for a in query.atoms))
    ren = _canonical_renaming(inst, qvars)
    inst = Query(tuple(apply_subst_atom(ren, a) for a in inst.atoms))
    subst = tuple((v, apply_subst(ren, t)) for v in qvars
                  if (t := resolve(v, bindings)) != v)
    return Answer(subst, inst)


# --- compiled clauses ---------------------------------------------------------

@dataclass(frozen=True)
class _Compiled:
    names: tuple  # variable names, in order of first occurrence
    head: tuple  # atom template of the head (see terms.clause_template)
    body: tuple  # atom template per body atom
    checks: tuple  # (argument index, principal functor) of each compound head argument
    first_occurrence: tuple  # per head argument: linear, and all its variables new


def _principal(t):
    """(functor, arity) of a compound, None for a variable."""
    return None if isinstance(t, Var) else (t.functor, len(t.args))


def _compile(c: Clause) -> _Compiled:
    vs, head, body = clause_template(c)
    seen: set = set()
    first = []
    for t in head[1]:
        occ = [leaf for leaf, _ in slot_walk((t,)) if leaf.__class__ is int]
        first.append(len(set(occ)) == len(occ) and seen.isdisjoint(occ))
        seen.update(occ)
    return _Compiled(
        names=tuple(v.name for v in vs),
        head=head,
        body=body,
        checks=tuple((i, _principal(t)) for i, t in enumerate(c.head.args)
                     if not isinstance(t, Var)),
        first_occurrence=tuple(first),
    )


def _candidates(clauses, goal: Atom, bindings: dict) -> list:
    """The clauses whose head may unify with goal: each compound head
    argument meets a goal argument that walks to a variable or to a
    compound with the same principal functor."""
    keys = [_principal(walk(t, bindings)) for t in goal.args]
    return [c for c in clauses
            if all(keys[i] is None or keys[i] == key for i, key in c.checks)]


# --- the machine --------------------------------------------------------------

class _Frame:
    __slots__ = ("goals", "steps", "index", "goal", "clauses", "next", "mark")

    def __init__(self, goals, steps, index, clauses, mark):
        self.goals = goals
        self.steps = steps
        self.index = index  # position of the selected goal
        self.goal = goals[index]
        self.clauses = clauses  # compiled candidates for the selected goal
        self.next = 0  # index in clauses of the next one to try
        self.mark = mark  # trail length when the frame was pushed


def _run(program: Program, query: Query, opts: SolveOptions
         ) -> Iterator[Union[Answer, SearchTruncated]]:
    """Answers of every successful branch, then SearchTruncated if the depth
    limit cut any branch."""
    compiled: dict = {}
    for c in program.clauses:
        compiled.setdefault(c.head.pred, []).append(_compile(c))
    qvars = query_vars(query)
    bindings: dict = {}
    trail: list = []
    stack: list = []
    renamings = 0
    cut = 0
    goals, steps = query.atoms, 0  # a new resolvent, or None when backtracking
    while True:
        if goals is not None:
            if not goals:
                yield _answer(query, qvars, bindings)
            elif opts.depth_limit is not None and steps >= opts.depth_limit:
                cut += 1
            else:
                idx = _select(opts.selection_rule, len(goals), steps)
                cands = _candidates(compiled.get(goals[idx].pred, ()), goals[idx], bindings)
                stack.append(_Frame(goals, steps, idx, cands, len(trail)))
            goals = None
        if not stack:
            break
        frame = stack[-1]
        undo_trail(bindings, trail, frame.mark)
        if frame.next == len(frame.clauses):
            stack.pop()
            continue
        cc = frame.clauses[frame.next]
        frame.next += 1
        renamings += 1
        suffix = f"@{renamings}"
        fresh = [Var(name + suffix) for name in cc.names]
        head = instantiate_atom(cc.head, fresh)
        if not try_unify_atoms(frame.goal, head, bindings, trail, opts.occur_check,
                               cc.first_occurrence):
            continue
        body = tuple([instantiate_atom(b, fresh) for b in cc.body])
        goals = frame.goals[:frame.index] + body + frame.goals[frame.index + 1:]
        steps = frame.steps + 1
    if cut:
        yield SearchTruncated(cut)


def solve(program: Program, query: Query, opts: SolveOptions = SolveOptions()
          ) -> Iterator[Union[Answer, SearchTruncated]]:
    """Stream of computed answers for query; ends with a SearchTruncated
    marker if any branch was cut by the depth limit (and the answer limit,
    if any, was not reached first)."""
    if not query.atoms:
        raise ValueError("query must be non-empty")
    declared = program.predicates()
    for a in query.atoms:
        if a.pred not in declared:
            raise ValueError(f"undeclared predicate {a.pred}/{len(a.args)}")
        if declared[a.pred] != len(a.args):
            raise ValueError(f"arity mismatch for {a.pred}")
    emitted = 0
    for item in _run(program, query, opts):
        yield item
        if isinstance(item, Answer):
            emitted += 1
            if opts.answer_limit is not None and emitted >= opts.answer_limit:
                return


def solve_answers(program: Program, query: Query,
                  opts: SolveOptions = SolveOptions()) -> list:
    """All Answer items of solve, ignoring a truncation marker."""
    return [a for a in solve(program, query, opts) if isinstance(a, Answer)]
