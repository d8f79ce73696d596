"""Reference unifier for the tests: the most general unifier of two terms as
a substitution, read back off `unify.unify` on cells with `unify.resolve`.
An atom p(t1,...,tn) unifies as the compound p(t1,...,tn)."""

from queenscheck.terms import apply_subst, term_vars
from queenscheck.unify import Cell, resolve, unify


def mgu(t1, t2):
    """Idempotent most general unifier of t1 and t2 as a dict from variables
    to terms, or None. It runs the occurs scan on every binding, so it is
    the reference for the scans the engine's head code skips."""
    cells = {v: Cell() for v in term_vars([t1, t2])}
    trail: list = []
    if not unify(apply_subst(cells, t1), apply_subst(cells, t2), trail):
        return None
    names = {c: v for v, c in cells.items() if c.ref is None}
    return {v: resolve(c, names) for v, c in cells.items() if c.ref is not None}
