"""Most-general unification with a switchable occur-check.

Two layers: a trail-based in-place unifier used by the resolution engine,
and `mgu`/`unify_atoms` which return idempotent substitutions. One-way
matching of clause instances lives with the slot templates, in
`terms.match_template`.

With occur_check=False the per-binding occurs scan is skipped, but a cyclic
binding set is still rejected after the fact: this artifact never builds
rational trees, so both modes agree on every solvable problem.

`try_unify_atoms` and `unify_terms` also take a first-occurrence flag, the
caller's certificate that a term of the second side is linear and shares
no variable with the first side under the current bindings. By the NSTO
lemma (Apt and Pellegrini 1994) such a unification never reaches an
occurs test, so it runs without the scan; with the check off, it closes
no cycle, so the cyclic rescan may skip the certified arguments in front
of the first uncertified one. The engine certifies renamed clause heads
this way; `mgu` and `unify_atoms` pass no flag and keep the full check.
"""

from dataclasses import dataclass
from typing import Optional

from .terms import Atom, Compound, Substitution, Term, Var


@dataclass(frozen=True)
class UnifyOptions:
    occur_check: bool = True


def walk(t: Term, bindings: dict) -> Term:
    while isinstance(t, Var):
        b = bindings.get(t)
        if b is None:
            return t
        t = b
    return t


def occurs(v: Var, t: Term, bindings: dict) -> bool:
    stack = [t]
    while stack:
        u = walk(stack.pop(), bindings)
        if isinstance(u, Var):
            if u == v:
                return True
        else:
            stack.extend(u.args)
    return False


def unify_terms(t1: Term, t2: Term, bindings: dict, trail: list,
                occur_check: bool = True, first_occurrence: bool = False) -> bool:
    """Extend bindings to unify t1 and t2; on failure, bindings may hold
    partial work that the caller must undo via the trail.

    first_occurrence=True certifies that t2 is linear and shares no
    variable with t1 under bindings; the occurs scan is then skipped."""
    # Without the check, earlier bindings may be cyclic; remembering the
    # compound pairs already taken apart keeps the loop finite on them.
    seen = None if occur_check or first_occurrence else set()
    occur_check = occur_check and not first_occurrence
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(a, bindings)
        b = walk(b, bindings)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and a == b:
                continue
            if occur_check and occurs(a, b, bindings):
                return False
            bindings[a] = b
            trail.append(a)
        elif isinstance(b, Var):
            if occur_check and occurs(b, a, bindings):
                return False
            bindings[b] = a
            trail.append(b)
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            if seen is not None:
                pair = (id(a), id(b))
                if pair in seen:
                    continue
                seen.add(pair)
            # push reversed so argument pairs are processed left to right
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def undo_trail(bindings: dict, trail: list, mark: int):
    while len(trail) > mark:
        del bindings[trail.pop()]


def _bound_children(t: Term, bindings: dict) -> list:
    """(variable, binding) for each bound variable occurring in t."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Var):
            b = bindings.get(u)
            if b is not None:
                out.append((u, b))
        else:
            todo.extend(u.args)
    return out


def bindings_cyclic(bindings: dict, roots) -> bool:
    """True if following bindings from any root revisits a variable.

    One depth-first walk over the bound variables: a variable is on the
    path while the bindings below it are explored and done afterwards, so
    each binding is scanned at most once."""
    on_path: dict = {}  # variable -> True while on the path, False once done
    for root in roots:
        b = bindings.get(root)
        if b is None or root in on_path:
            continue
        on_path[root] = True
        stack = [(root, iter(_bound_children(b, bindings)))]
        while stack:
            v, children = stack[-1]
            for u, b in children:
                state = on_path.get(u)
                if state:
                    return True
                if state is None:
                    on_path[u] = True
                    stack.append((u, iter(_bound_children(b, bindings))))
                    break
            else:
                stack.pop()
                on_path[v] = False
    return False


def try_unify_atoms(a1: Atom, a2: Atom, bindings: dict, trail: list,
                    occur_check: bool = True, first_occurrence: tuple = ()) -> bool:
    """In-place atom unification honoring the occur-check mode; undoes its
    own work on failure.

    first_occurrence[i] true certifies that a2's i-th argument is linear and
    that none of its variables occurs in a1, in a2's earlier arguments or in
    bindings: the argument is unified with no occurs scan. With the check
    off, the cyclic rescan starts at the bindings of the first argument
    without the flag, since a cycle needs a binding made from there on."""
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return False
    mark = len(trail)
    rescan = None  # trail position of the first argument without the flag
    for i, (x, y) in enumerate(zip(a1.args, a2.args)):
        certified = i < len(first_occurrence) and first_occurrence[i]
        if rescan is None and not certified:
            rescan = len(trail)
        if not unify_terms(x, y, bindings, trail, occur_check, certified):
            undo_trail(bindings, trail, mark)
            return False
    if (not occur_check and rescan is not None
            and bindings_cyclic(bindings, trail[rescan:])):
        undo_trail(bindings, trail, mark)
        return False
    return True


def resolve(t: Term, bindings: dict) -> Term:
    """Fully apply bindings to t (bindings must be acyclic); iterative, so
    term depth is not bounded by the Python stack."""
    done: list = []  # finished subterms, left to right
    todo = [t]  # subterms to visit, and (functor, arity) to build from done
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:
            functor, n = u
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Compound(functor, args))
            continue
        u = walk(u, bindings)
        if isinstance(u, Var) or not u.args:
            done.append(u)
        else:
            todo.append((u.functor, len(u.args)))
            todo.extend(reversed(u.args))
    return done[0]


def resolve_atom(a: Atom, bindings: dict) -> Atom:
    return Atom(a.pred, tuple(resolve(t, bindings) for t in a.args))


def _to_substitution(bindings: dict, trail: list) -> Substitution:
    out = {}
    for v in trail:
        t = resolve(v, bindings)
        if t != v:
            out[v] = t
    return out


def mgu(t1: Term, t2: Term, opts: UnifyOptions = UnifyOptions()) -> Optional[Substitution]:
    """Idempotent most-general unifier of t1 and t2, or None."""
    bindings: dict = {}
    trail: list = []
    if not unify_terms(t1, t2, bindings, trail, opts.occur_check):
        return None
    if not opts.occur_check and bindings_cyclic(bindings, trail):
        return None
    return _to_substitution(bindings, trail)


def unify_atoms(a1: Atom, a2: Atom, opts: UnifyOptions = UnifyOptions()) -> Optional[Substitution]:
    bindings: dict = {}
    trail: list = []
    if not try_unify_atoms(a1, a2, bindings, trail, opts.occur_check):
        return None
    return _to_substitution(bindings, trail)
