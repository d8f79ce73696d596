"""SLD resolution with chronological backtracking, on one explicit-stack machine.

Answers come out in depth-first, clause-source order. The selection rule
is switchable; a depth limit (resolution steps per derivation branch)
turns silent truncation into an explicit stream marker.

The machine (`_run`) keeps a stack of frames, one per resolvent on the
current branch: its goals, the resolution steps that led to it, the
selected goal, the index of the next clause to try on that goal, and the
trail mark to undo to before trying it. Expanding a resolvent pushes a
frame, and a frame whose clauses are used up is popped, which is
backtracking. The stack lives on the heap, and the walkers that build an
answer's terms are iterative too, so neither a long derivation nor a deep
answer term deepens the Python stack. `solve` streams the machine's answers.

Goals are atoms on `unify.Cell`s, bound in place and undone from the
trail; they become terms only when an answer is produced. Each `solve`
call indexes the clauses of each predicate and arity on the principal
functor of their first head argument (Warren's `switch_on_term`): a goal
whose first argument is bound looks up the clauses with that functor or a
variable there, in source order, and a goal whose first argument is
unbound takes them all. A clause is compiled the first time it is such a
candidate in the call, so clauses that the query never reaches are never
compiled: its head to head code (`terms.head_code`), which tests each
functor and fills the slots, and each body atom to an atom builder
(`terms.atom_builder`), which builds the atom from those slots, with a new
cell for each variable that occurs only in the body.
"""

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional, Union

from .terms import (
    Atom,
    Clause,
    Compound,
    Program,
    Query,
    Var,
    apply_subst,
    atom_builder,
    clause_template,
    head_code,
    term_vars,
)
from .unify import Cell, deref, occurs, resolve_atom, try_unify_atoms, undo, unify

SELECTION_RULES = ("leftmost", "rightmost", "fair")
_NO_CLAUSES = ((), (), {})  # the _index entry of a predicate with no clauses


@dataclass(frozen=True)
class SolveOptions:
    selection_rule: str = "leftmost"
    depth_limit: Optional[int] = None
    answer_limit: Optional[int] = None

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


def _answer(qvars, qcells, atoms) -> Answer:
    """The answer of atoms, the query's atoms on the cells qcells of its
    variables qvars: unbound query cells keep their names, and the other
    unbound cells are _G1, _G2, ... by first occurrence, avoiding those."""
    names = {c: v for c, v in zip(qcells, qvars) if c.ref is None}
    taken = {v.name for v in qvars}
    fresh = (Var(name) for k in count(1) if (name := f"_G{k}") not in taken).__next__
    inst = Query(tuple([resolve_atom(a, names, fresh) for a in atoms]))
    # the walk stored the term of every bound query cell in names
    return Answer(tuple((v, names[c]) for v, c in zip(qvars, qcells) if c.ref is not None),
                  inst)


# --- compiled clauses ---------------------------------------------------------

@dataclass(frozen=True)
class _Compiled:
    head_vars: int  # number of variables in the head; they come first
    body_vars: int  # number of variables that occur in the body only
    head: object  # head code of the head template (see terms.head_code)
    body: tuple  # atom builder per body atom (see terms.atom_builder)


def _principal(t):
    """(functor, arity) of a compound, None for a variable or a cell."""
    return (t.functor, len(t.args)) if t.__class__ is Compound else None


def _compile(c: Clause) -> _Compiled:
    vs, head, body = clause_template(c)
    n = len(term_vars(c.head.args))
    return _Compiled(n, len(vs) - n, head_code(head, Cell, unify, occurs),
                     tuple(map(atom_builder, body)))


def _index(program: Program) -> dict:
    """(pred, arity) -> (clauses, var_first, by_key). clauses are the
    clauses with that head in source order, each kept as it is until
    _candidates compiles it in place; var_first holds the positions of
    those whose first head argument is a variable, and by_key, per
    principal functor of a first head argument, the positions of those
    with that functor or a variable there, in source order."""
    index: dict = {}
    for c in program.clauses:
        clauses, var_first, by_key = index.setdefault(
            (c.head.pred, len(c.head.args)), ([], [], {}))
        key = _principal(c.head.args[0]) if c.head.args else None
        if key is None:
            var_first.append(len(clauses))
            for bucket in by_key.values():
                bucket.append(len(clauses))
        elif key in by_key:
            by_key[key].append(len(clauses))
        else:
            by_key[key] = var_first + [len(clauses)]
        clauses.append(c)
    return index


def _candidates(index: dict, goal: Atom) -> list:
    """The compiled clauses of goal's predicate and arity in index (an
    _index), whose first head argument is a variable or, unless goal's
    first argument dereferences to an unbound cell, has its principal
    functor."""
    clauses, var_first, by_key = index.get((goal.pred, len(goal.args)), _NO_CLAUSES)
    key = _principal(deref(goal.args[0])) if goal.args else None
    positions = range(len(clauses)) if key is None else by_key.get(key, var_first)
    for k in positions:
        if clauses[k].__class__ is Clause:
            clauses[k] = _compile(clauses[k])
    return [clauses[k] for k in positions]


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
    index = _index(program)
    qvars = term_vars([t for a in query.atoms for t in a.args])
    qcells = [Cell() for _ in qvars]
    on_cells = dict(zip(qvars, qcells))
    atoms = tuple([Atom(a.pred, tuple([apply_subst(on_cells, t) for t in a.args]))
                   for a in query.atoms])
    trail: list = []
    stack: list = []
    cut = 0
    goals, steps = atoms, 0  # a new resolvent, or None when backtracking
    while True:
        if goals is not None:
            if not goals:
                yield _answer(qvars, qcells, atoms)
            elif opts.depth_limit is not None and steps >= opts.depth_limit:
                cut += 1
            else:
                idx = _select(opts.selection_rule, len(goals), steps)
                cands = _candidates(index, goals[idx])
                stack.append(_Frame(goals, steps, idx, cands, len(trail)))
            goals = None
        if not stack:
            break
        frame = stack[-1]
        if len(trail) > frame.mark:
            undo(trail, frame.mark)
        if frame.next == len(frame.clauses):
            stack.pop()
            continue
        cc = frame.clauses[frame.next]
        frame.next += 1
        slots = [None] * cc.head_vars
        if not try_unify_atoms(frame.goal, cc.head, slots, trail):
            continue
        if cc.body_vars:
            slots += [Cell() for _ in range(cc.body_vars)]
        body = tuple([build(slots) for build in cc.body])
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
