"""Bounded Herbrand universe enumeration and immediate-consequence fixpoints.

The Herbrand universe and base are infinite; everything here works on
finite slices. `tp_fixpoint` is computed bottom-up by matching clause
bodies against already-derived atoms, grounding free variables over a
small filler pool; the result is an under-approximation of the least
Herbrand model restricted to the depth bound.
"""

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

from .terms import (
    Atom,
    Compound,
    Program,
    Signature,
    Term,
    Var,
    apply_subst_atom,
    atom_depth,
    atom_vars,
    clause_template,
    format_term,
    instantiate_atom,
    is_ground,
    numeral,
    term_depth,
)
from .unify import match_atom

DEFAULT_MAX_INSTANCES = 10_000_000


class ResourceCapError(RuntimeError):
    """A bounded check ran out of its instance budget; carries partial results."""

    def __init__(self, msg: str, partial=None, examined: int = 0):
        super().__init__(msg)
        self.partial = partial
        self.examined = examined


@lru_cache(maxsize=None)
def _terms_of_exact_depth(sig: Signature, depth: int) -> tuple:
    if depth == 0:
        return tuple(Compound(c) for c in sig.constants())
    shallower = [_terms_of_exact_depth(sig, k) for k in range(depth)]
    upto = tuple(t for level in shallower for t in level)
    out = []
    for name, arity in sig.functions():
        for args in product(upto, repeat=arity):
            if max(term_depth(a) for a in args) == depth - 1:
                out.append(Compound(name, args))
    return tuple(out)


def enumerate_terms(sig: Signature, max_depth: int) -> Iterator[Term]:
    """All ground terms of depth <= max_depth, each exactly once, ordered by
    depth then by functor name."""
    for d in range(max_depth + 1):
        yield from _terms_of_exact_depth(sig, d)


def count_terms(sig: Signature, max_depth: int) -> int:
    """Number of ground terms of depth <= max_depth, computed without
    materializing them (the universe explodes quickly)."""
    cum = len(sig.constants())
    prev = 0
    for _ in range(max_depth):
        exact = sum(cum ** k - prev ** k for _, k in sig.functions())
        prev, cum = cum, cum + exact
    return cum


def depth_profile(a: Atom, index: dict) -> tuple:
    """(skeleton depth of a, ((slot, nesting), ...)): the deepest nesting of
    each variable of a, that is the number of compounds around it; index
    maps each variable to its slot."""
    nesting: dict = {}
    todo = [(t, 0) for t in a.args]
    while todo:
        t, at = todo.pop()
        if isinstance(t, Var):
            nesting[index[t]] = max(nesting.get(index[t], 0), at)
        else:
            todo.extend((x, at + 1) for x in t.args)
    return atom_depth(a), tuple(sorted(nesting.items()))


def bound_depth(profile: tuple, slots) -> int:
    """atom_depth of the profiled atom with each slot that is not
    None filled in: a variable at nesting n bound to a ground term u
    reaches depth n + term_depth(u)."""
    depth, nesting = profile
    for i, n in nesting:
        u = slots[i]
        if u is not None:
            depth = max(depth, n + term_depth(u))
    return depth


# --- immediate consequence -----------------------------------------------------

def _join_body(body, subst, indices) -> Iterator[dict]:
    """Substitutions grounding all body atoms; body holds (atom, its
    variables) pairs, and body atom k is matched against the fact index
    indices[k]."""
    if not body:
        yield subst
        return
    (first, first_vars), rest = body[0], body[1:]
    if all(v in subst for v in first_vars):
        if apply_subst_atom(subst, first) in indices[0].get(first.pred, ()):
            yield from _join_body(rest, subst, indices[1:])
        return
    for fact in indices[0].get(first.pred, ()):
        ext = match_atom(first, fact, subst)
        if ext is not None:
            yield from _join_body(rest, ext, indices[1:])


def _index_by_pred(atoms: Iterable[Atom]) -> dict:
    out: dict = {}
    for a in atoms:
        out.setdefault(a.pred, set()).add(a)
    return out


def _default_pool(sig: Signature, max_depth: int) -> tuple:
    """Grounding pool for free clause variables: a few representative filler
    constants plus the numerals up to the depth bound."""
    fillers = []
    consts = sig.constants()
    for want in ("0", "nil", "a"):
        if want in consts:
            fillers.append(Compound(want))
    if not fillers:
        fillers = [Compound(consts[0])]
    pool = list(fillers)
    for n in range(1, max_depth + 1):
        t = numeral(n)
        if t not in pool:
            pool.append(t)
    return tuple(pool)


def tp_fixpoint(p: Program, sig: Signature, max_depth: int,
                pool: Optional[tuple] = None,
                max_atoms: int = DEFAULT_MAX_INSTANCES) -> frozenset:
    """Bottom-up least fixpoint, keeping only atoms of depth <= max_depth.

    Free variables (unit-clause variables and body/head variables not fixed
    by matching) range over `pool`. The result under-approximates the least
    Herbrand model intersected with the depth slice: derivations that need
    intermediate atoms outside the slice, or filler terms outside the pool,
    are cut. Raises ResourceCapError with the partial set when the atom
    budget is exhausted.
    """
    if pool is None:
        pool = _default_pool(sig, max_depth)
    for t in pool:
        sig.check_term(t)
        if not is_ground(t):
            raise ValueError(f"pool term {format_term(t)} is not ground")
    pool_depth = {t: term_depth(t) for t in pool}
    deepest = max(pool_depth.values(), default=0)
    compiled = []
    for c in p.clauses:
        vs, head, _ = clause_template(c)
        index = {v: i for i, v in enumerate(vs)}
        body = tuple((b, atom_vars(b)) for b in c.body)
        compiled.append((body, vs, head, depth_profile(c.head, index)))
    derived: set = set()
    examined = 0

    def fire(vs, head, profile, sub: dict, new: set):
        nonlocal examined
        slots = [sub.get(v) for v in vs]
        # remaining free variables only deepen the head, so the depth with
        # the bound ones filled in is a lower bound that lets us skip
        # hopeless filler products
        if bound_depth(profile, slots) > max_depth:
            return
        free = [i for i, u in enumerate(slots) if u is None]
        # a free head variable at nesting n needs a pool term of depth at
        # most max_depth - n; this is the depth test of the whole instance
        limits = [(free.index(i), max_depth - n) for i, n in profile[1]
                  if slots[i] is None and n + deepest > max_depth]
        for combo in product(pool, repeat=len(free)):
            examined += 1
            if len(derived) + len(new) > max_atoms or examined > max_atoms * 10:
                raise ResourceCapError(
                    "tp_fixpoint exceeded its atom budget",
                    partial=frozenset(derived | new),
                    examined=examined,
                )
            if limits and any(pool_depth[combo[k]] > lim for k, lim in limits):
                continue
            for i, u in zip(free, combo):
                slots[i] = u
            atom = instantiate_atom(head, slots)
            if atom not in derived:
                new.add(atom)

    new: set = set()
    for body, vs, head, profile in compiled:
        if not body:
            fire(vs, head, profile, {}, new)
    derived |= new
    last = new
    # semi-naive rounds: a body join must use at least one last-round atom
    while last:
        full_idx = _index_by_pred(derived)
        new_idx = _index_by_pred(last)
        new = set()
        for body, vs, head, profile in compiled:
            if not body:
                continue
            n = len(body)
            for j in range(n):
                indices = [new_idx if k == j else full_idx for k in range(n)]
                for sub in _join_body(body, {}, indices):
                    fire(vs, head, profile, sub, new)
        new -= derived
        derived |= new
        last = new
    return frozenset(derived)
