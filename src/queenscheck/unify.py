"""Most-general unification on mutable variable cells, with the occur-check.

A `Cell` holds its binding in one slot; binding it appends it to a trail,
and `undo` empties the slots again. `unify` is the one unifier, and the
generated code of a clause (`terms.head_code`) calls it where a head
variable occurs again. `try_unify_atoms` runs that clause code on a goal;
it binds an unbound goal cell that a head variable takes only when it is
one of the query's own cells. `resolve` reads a term back off the cells.
A ground compound holds no cell (`Compound.ground`), so `unify` decides
two of them by `==`, which compares their cached hashes first, `occurs`
does not scan one, and `resolve` returns one as it is.
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
    """Whether the unbound cell v occurs in t; ground subterms are skipped."""
    stack = [t]
    while stack:
        u = deref(stack.pop())
        if u is v:
            return True
        if u.__class__ is not Cell and not u.ground:
            stack.extend([a for a in u.args if a.__class__ is not Compound or not a.ground])
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
        elif a.ground and b.ground:
            if not a == b:
                return False
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            # push reversed so argument pairs are processed left to right
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def try_unify_atoms(goal: Atom, code, trail: list, own: set):
    """Run the clause code code (see `terms.head_code`) on goal, with own
    the set of the query's cells: the body, True for a unit clause, or
    False if goal and the head do not unify; the caller undoes the trail."""
    return code(goal.args, trail, own)


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
        elif u.ground:
            done.append(u)
        else:
            todo.append((u.functor, len(u.args)))
            todo.extend(reversed(u.args))
    return done[0]


def resolve_atom(a: Atom, names: dict, fresh=None) -> Atom:
    return Atom(a.pred, tuple([resolve(t, names, fresh) for t in a.args]))
