"""Most-general unification on mutable variable cells, with the occur-check.

A `Cell` holds its binding in one slot; binding it appends it to a trail,
and `undo` empties the slots again. `unify` is the one unifier.
`try_unify_atoms` is the engine's head code, which unifies a goal with a
clause's head template without building the renamed head, like the WAM's
get and unify instructions (Warren 1983; Ait-Kaci 1991). `resolve`
reads a term back off the cells.
"""

from .terms import Atom, Compound, Term


class Cell:
    """A variable: `ref` is its binding, or None while it is unbound."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


def deref(t):
    """The end of t's chain of bound cells: a compound or an unbound cell."""
    while t.__class__ is Cell and t.ref is not None:
        t = t.ref
    return t


def undo(trail: list, mark: int):
    """Unbind the cells bound since the trail had length mark."""
    for c in trail[mark:]:
        c.ref = None
    del trail[mark:]


def occurs(v: Cell, t) -> bool:
    stack = [t]
    while stack:
        u = deref(stack.pop())
        if u is v:
            return True
        if u.__class__ is not Cell:
            stack.extend(u.args)
    return False


def unify(t1, t2, trail: list) -> bool:
    """Bind cells so that t1 and t2 become equal, appending each bound cell
    to trail; on failure, the caller undoes the partial work to its mark."""
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        while a.__class__ is Cell and a.ref is not None:
            a = a.ref
        while b.__class__ is Cell and b.ref is not None:
            b = b.ref
        if a is b:
            continue
        if a.__class__ is Cell:
            if occurs(a, b):
                return False
            a.ref = b
            trail.append(a)
        elif b.__class__ is Cell:
            if occurs(b, a):
                return False
            b.ref = a
            trail.append(b)
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            # push reversed so argument pairs are processed left to right
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def _build(tpl, slots: list):
    """The term of tpl, with a new cell in each empty slot it meets."""
    if tpl.__class__ is int:
        if slots[tpl] is None:
            slots[tpl] = Cell()
        return slots[tpl]
    if tpl.__class__ is not tuple:
        return tpl
    return Compound(tpl[0], tuple([_build(p, slots) for p in tpl[1]]))


def _unify_head(tpl, g, slots: list, trail: list, certified: bool) -> bool:
    """Unify goal term g with tpl, a head template other than a slot's
    first occurrence, recursing over tpl only: a compound of tpl takes a
    goal compound apart (read mode) or is built on an unbound cell (write
    mode). certified skips write mode's occurs scan (see try_unify_atoms)."""
    if tpl.__class__ is int:
        return unify(g, slots[tpl], trail)
    while g.__class__ is Cell and g.ref is not None:
        g = g.ref
    if g.__class__ is Cell:
        t = _build(tpl, slots)  # a ground template needs no occurs scan
        if not certified and tpl.__class__ is tuple and occurs(g, t):
            return False
        g.ref = t
        trail.append(g)
        return True
    if tpl.__class__ is not tuple:
        return g is tpl or unify(g, tpl, trail)
    if g.functor != tpl[0] or len(g.args) != len(tpl[1]):
        return False
    for p, u in zip(tpl[1], g.args):
        if p.__class__ is int and slots[p] is None:  # as in try_unify_atoms
            while u.__class__ is Cell and u.ref is not None:
                u = u.ref
            if u.__class__ is Cell:
                u.ref = Cell()
                trail.append(u)
                u = u.ref
            slots[p] = u
        elif not _unify_head(p, u, slots, trail, certified):
            return False
    return True


def try_unify_atoms(goal: Atom, head: tuple, slots: list, trail: list,
                    first_occurrence: tuple) -> bool:
    """Unify goal with the clause head whose atom template is head, filling
    slots (one None per head variable); undoes its bindings on failure.

    A slot's first occurrence takes the dereferenced goal term; an unbound
    goal cell is bound to a new cell, so that the goal side gets bound, as
    against a renamed head. first_occurrence[i] certifies that the head's
    i-th argument is linear and new: by the NSTO lemma (Apt and Pellegrini
    1994) it is unified with no occurs scan."""
    pred, tpl = head
    if goal.pred != pred or len(goal.args) != len(tpl):
        return False
    mark = len(trail)
    for p, g, certified in zip(tpl, goal.args, first_occurrence):
        if p.__class__ is int and slots[p] is None:
            while g.__class__ is Cell and g.ref is not None:
                g = g.ref
            if g.__class__ is Cell:
                g.ref = Cell()
                trail.append(g)
                g = g.ref
            slots[p] = g
        elif not _unify_head(p, g, slots, trail, certified):
            undo(trail, mark)
            return False
    return True


def resolve(t, names: dict, fresh=None) -> Term:
    """t with each cell replaced by names[cell], or else by fresh() if it is
    unbound (in order of first occurrence) and by its resolved binding if
    not; each cell's term is stored in names, so a shared binding is
    resolved once; iterative."""
    done: list = []  # finished subterms, left to right
    todo = [t]  # subterms to visit, (functor, arity) to build from done,
    # and [cell] to store the last finished subterm as the cell's term
    while todo:
        u = todo.pop()
        kind = u.__class__
        if kind is tuple:
            functor, n = u
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Compound(functor, args))
        elif kind is list:
            names[u[0]] = done[-1]
        elif kind is Cell:
            v = names.get(u)
            if v is not None:
                done.append(v)
            elif u.ref is None:
                done.append(names.setdefault(u, fresh()))
            else:
                todo += ([u], u.ref)
        elif not u.args:
            done.append(u)
        else:
            todo.append((u.functor, len(u.args)))
            todo.extend(reversed(u.args))
    return done[0]


def resolve_atom(a: Atom, names: dict, fresh=None) -> Atom:
    return Atom(a.pred, tuple([resolve(t, names, fresh) for t in a.args]))
