"""SLD resolution with chronological backtracking, on one explicit-stack machine.

Answers come out in depth-first, clause-source order. The selection rule
is switchable; a depth limit (resolution steps per derivation branch)
turns silent truncation into an explicit stream marker.

The machine (`_run`) keeps a stack of frames, one per resolvent on the
current branch with clauses left to try: its goals, the resolution steps
that led to it, the selected goal, its candidates, the index of the next
one to try, and the trail mark to undo to before trying it. Expanding a
resolvent pushes a frame unless its goal has no candidates, and taking a
frame's last candidate pops it, like the WAM's `trust_me`: the parent's
mark still undoes that candidate's bindings. Popping is backtracking. The
stack lives on the heap, and the walkers that build an answer's terms are
iterative too, so neither a long derivation nor a deep answer term deepens
the Python stack. `solve` streams the machine's answers.

Goals are atoms on `unify.Cell`s, bound in place and undone from the
trail; they become terms only when an answer is produced. Each `solve`
call indexes the clauses of each predicate and arity on the principal
functor of their first head argument (Warren's `switch_on_term`): a goal
whose first argument is bound looks up the clauses with that functor or a
variable there, in source order, and a goal whose first argument is
unbound takes them all. The list for each predicate, arity and key is
made once per call and then taken from a cache. A clause is compiled when
it first enters such a list, so clauses that the query never reaches are
never compiled, to one function, its clause code (`terms.head_code`):
it tests each functor of the head, binds the goal's cells, and returns
the body's atoms on the head's variables, each variable that occurs only
in the body on a new cell. A head variable takes an unbound goal cell as
it is, unless the cell is one of the query's own (see `head_code`).
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
    clause_template,
    head_code,
    term_vars,
)
from .unify import Cell, deref, occurs, resolve_atom, try_unify_atoms, undo, unify

#: the position of the selected goal, from the number of goals and of steps
_SELECT = {"leftmost": lambda n, steps: 0, "rightmost": lambda n, steps: n - 1,
           "fair": lambda n, steps: steps % n}
SELECTION_RULES = tuple(_SELECT)
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


# --- clause code --------------------------------------------------------------

def _principal(t):
    """(functor, arity) of a compound, None for a variable or a cell."""
    return (t.functor, len(t.args)) if t.__class__ is Compound else None


def _compile(c: Clause):
    """The clause code of c (see terms.head_code)."""
    _, head, body = clause_template(c)
    return head_code(head, body, Cell, unify, occurs)


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


def _candidates(index: dict, cache: dict, goal: Atom) -> list:
    """The clause code of the clauses of goal's predicate and arity in index
    (an _index), whose first head argument is a variable or, unless goal's
    first argument dereferences to an unbound cell, has its principal
    functor. The list of each predicate, arity and first-argument key is
    made once and kept in cache."""
    key = (goal.pred, len(goal.args), _principal(deref(goal.args[0])) if goal.args else None)
    found = cache.get(key)
    if found is None:
        clauses, var_first, by_key = index.get(key[:2], _NO_CLAUSES)
        positions = range(len(clauses)) if key[2] is None else by_key.get(key[2], var_first)
        for k in positions:
            if clauses[k].__class__ is Clause:
                clauses[k] = _compile(clauses[k])
        found = cache[key] = [clauses[k] for k in positions]
    return found


# --- the machine --------------------------------------------------------------

class _Frame:
    __slots__ = ("goals", "steps", "index", "goal", "clauses", "next", "mark")

    def __init__(self, goals, steps, index, clauses, mark):
        self.goals = goals
        self.steps = steps
        self.index = index  # position of the selected goal
        self.goal = goals[index]
        self.clauses = clauses  # clause code of the candidates for the selected goal
        self.next = 0  # index in clauses of the next one to try
        self.mark = mark  # trail length when the frame was pushed


def _run(program: Program, query: Query, opts: SolveOptions
         ) -> Iterator[Union[Answer, SearchTruncated]]:
    """Answers of every successful branch, then SearchTruncated if the depth
    limit cut any branch."""
    index, cache = _index(program), {}
    select, limit = _SELECT[opts.selection_rule], opts.depth_limit
    qvars = term_vars([t for a in query.atoms for t in a.args])
    qcells = [Cell() for _ in qvars]
    own = set(qcells)
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
            elif limit is not None and steps >= limit:
                cut += 1
            else:
                idx = select(len(goals), steps)
                cands = _candidates(index, cache, goals[idx])
                if cands:
                    stack.append(_Frame(goals, steps, idx, cands, len(trail)))
            goals = None
        if not stack:
            break
        frame = stack[-1]
        if len(trail) > frame.mark:
            undo(trail, frame.mark)
        code = frame.clauses[frame.next]
        frame.next += 1
        if frame.next == len(frame.clauses):
            stack.pop()  # the parent's mark undoes the last candidate's bindings
        body = try_unify_atoms(frame.goal, code, trail, own)
        if not body:
            continue
        i = frame.index
        goals = frame.goals[:i] + (() if body is True else body) + frame.goals[i + 1:]
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
