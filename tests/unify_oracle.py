"""Reference unifier for the tests: the most general unifier of two terms as
a substitution, read back off `unify.unify` on cells with `unify.resolve`.
An atom p(t1,...,tn) unifies as the compound p(t1,...,tn)."""

from queenscheck.terms import apply_subst, term_vars
from queenscheck.unify import Cell, cyclic, resolve, unify


def mgu(t1, t2, occur_check: bool = True):
    """Idempotent most general unifier of t1 and t2 as a dict from variables
    to terms, or None. Without the occur-check a cyclic binding set is
    rejected after the fact, as the engine's head code does."""
    cells = {v: Cell() for v in term_vars([t1, t2])}
    trail: list = []
    if not unify(apply_subst(cells, t1), apply_subst(cells, t2), trail, occur_check):
        return None
    if not occur_check and cyclic(trail):
        return None
    names = {c: v for v, c in cells.items() if c.ref is None}
    return {v: resolve(c, names) for v, c in cells.items() if c.ref is not None}
