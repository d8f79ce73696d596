"""Bounded Herbrand universe enumeration and immediate-consequence fixpoints.

The Herbrand universe and base are infinite; everything here works on
finite slices. `tp_fixpoint` is computed bottom-up by matching clause
bodies against already-derived atoms, grounding free variables over the
caller's pool; the result is an under-approximation of the least
Herbrand model restricted to the depth bound.
"""

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .terms import (
    Atom,
    Compound,
    Program,
    Signature,
    Term,
    atom_builder,
    clause_template,
    format_term,
    is_ground,
    match_template,
    slot_walk,
    term_depth,
)

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


def depth_profile(tpl: tuple) -> tuple:
    """(skeleton depth, ((slot, nesting), ...)) of an atom template: the
    greatest term_depth of an argument of its atom with every slot a
    variable, and the deepest nesting of each slot, that is the number of
    compounds around it."""
    depth = 0
    nesting: dict = {}
    for leaf, at in slot_walk(tpl[1]):
        if leaf.__class__ is int:
            nesting[leaf] = max(nesting.get(leaf, 0), at)
            depth = max(depth, at)
        else:
            depth = max(depth, at + term_depth(leaf))
    return depth, tuple(sorted(nesting.items()))


def bound_depth(profile: tuple, slots) -> int:
    """The greatest term_depth of an argument of the profiled atom with each
    slot that is not None filled in: a variable at nesting n bound to a ground term u
    reaches depth n + term_depth(u)."""
    depth, nesting = profile
    for i, n in nesting:
        u = slots[i]
        if u is not None:
            depth = max(depth, n + term_depth(u))
    return depth


# --- immediate consequence -----------------------------------------------------

def body_reads(tpls) -> tuple:
    """(template, the slots it reads in order of first occurrence, its atom
    builder) for each body atom template: the body that join_body takes."""
    return tuple((tpl, tuple(dict.fromkeys(leaf for leaf, _ in slot_walk(tpl[1])
                                           if leaf.__class__ is int)),
                  atom_builder(tpl))
                 for tpl in tpls)


def join_body(body, slots: list, sources) -> Iterator[list]:
    """Extensions of slots that put every body atom inside its source.

    body holds the (template, slots it reads, builder) triples of
    body_reads, and sources[k] is a pair (facts by predicate, membership
    test) for body atom k: an atom with a free slot is matched against the
    facts, a ground one is built and decided by the test. The join never
    reads a yielded list again, so the caller may fill its free slots."""
    if not body:
        yield slots
        return
    (tpl, reads, build), rest = body[0], body[1:]
    facts, member = sources[0]
    if all(slots[i] is not None for i in reads):
        if member(build(slots)):
            yield from join_body(rest, slots, sources[1:])
        return
    for fact in facts.get(tpl[0], ()):
        ext = match_template(tpl, fact, slots)
        if ext is not None:
            yield from join_body(rest, ext, sources[1:])


def _index_by_pred(atoms: Iterable[Atom]) -> dict:
    out: dict = {}
    for a in atoms:
        out.setdefault(a.pred, set()).add(a)
    return out


def tp_fixpoint(p: Program, sig: Signature, max_depth: int, pool: tuple,
                max_atoms: int = DEFAULT_MAX_INSTANCES) -> frozenset:
    """Bottom-up least fixpoint, keeping only atoms of depth <= max_depth.

    Free variables (unit-clause variables and body/head variables not fixed
    by matching) range over the caller's ground `pool`. The result
    under-approximates the least Herbrand model intersected with the depth
    slice: derivations that need intermediate atoms outside the slice, or
    filler terms outside the pool, are cut. Raises ResourceCapError with
    the partial set when the atom budget is exhausted.
    """
    for t in pool:
        sig.check_term(t)
        if not is_ground(t):
            raise ValueError(f"pool term {format_term(t)} is not ground")
    deepest = max(map(term_depth, pool), default=0)
    compiled = []
    for c in p.clauses:
        vs, head, body = clause_template(c)
        compiled.append((body_reads(body), len(vs), atom_builder(head),
                         depth_profile(head)))
    derived: set = set()
    examined = 0

    def fire(build, profile, slots: list, new: set):
        nonlocal examined
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
            if limits and any(term_depth(combo[k]) > lim for k, lim in limits):
                continue
            for i, u in zip(free, combo):
                slots[i] = u
            atom = build(slots)
            if atom not in derived:
                new.add(atom)

    new: set = set()
    for body, n, build, profile in compiled:
        if not body:
            fire(build, profile, [None] * n, new)
    derived |= new
    last = new
    # semi-naive rounds: a body join must use at least one last-round atom
    while last:
        everything = (_index_by_pred(derived), derived.__contains__)
        latest = (_index_by_pred(last), last.__contains__)
        new = set()
        for body, n, build, profile in compiled:
            for j in range(len(body)):
                sources = [latest if k == j else everything for k in range(len(body))]
                for slots in join_body(body, [None] * n, sources):
                    fire(build, profile, slots, new)
        new -= derived
        derived |= new
        last = new
    return frozenset(derived)
