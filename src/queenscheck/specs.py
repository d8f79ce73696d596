"""Specification sets for the layered n-queens program.

Membership predicates decide, for a ground atom, whether it belongs to the
correctness specification (s_pq, s_pqs, their union s) or the completeness
specification (s0_pqs, s0). Each set also carries a sampler enumerating a
deterministic finite slice of the set, used by the bounded checks.

Diagonal bookkeeping (`DIAGONALS`): in the context of row i, a queen j
sitting in column k lies on up-diagonal k+j-i and down-diagonal k-j+i;
equal numbers mean a shared diagonal, and the equality is independent of
the context row.
"""

from dataclasses import dataclass
from itertools import permutations, product, zip_longest
from typing import Callable, Iterator, Optional

from .terms import (
    Atom,
    Compound,
    NIL,
    Signature,
    Term,
    Var,
    ZERO,
    cons,
    distinct_members,
    kth_member,
    make_list,
    members,
    numeral,
    numeral_value,
    term_depth,
)

PQS = "pqs"
PQ = "pq"


@dataclass(frozen=True)
class PlacementTriple:
    cs: Term
    us: Term
    ds: Term


#: The diagonal number of each list of a placement triple, as coefficients
#: of (column k, queen j, context row i): queen j in column k sits at that
#: position of the list.
DIAGONALS = {"us": (1, 1, -1), "ds": (1, -1, 1)}


def correct_up_to(triple: PlacementTriple, m: int, i: int,
                  diagonals: dict = DIAGONALS) -> bool:
    """The triple represents a correct placement of queens 1..m in the
    context of row i: cs is a proper list of distinct members containing
    1..m, the queens' diagonal numbers are pairwise distinct, and every
    positive diagonal number indexes the queen in us (respectively ds)."""
    if not (0 <= m <= i):
        return False
    cs = triple.cs
    if not distinct_members(cs):
        return False
    ms = members(cs)
    positions = {}
    for j in range(1, m + 1):
        t = numeral(j)
        if t not in ms:
            return False
        positions[j] = ms.index(t) + 1
    # two queens share a diagonal in any row iff they do with the row term dropped
    for ck, cj, _ in diagonals.values():
        if len({ck * k + cj * j for j, k in positions.items()}) != m:
            return False
    for name, (ck, cj, ci) in diagonals.items():
        for j, k in positions.items():
            pos = ck * k + cj * j + ci * i
            if pos > 0 and kth_member(getattr(triple, name), pos) != numeral(j):
                return False
    return True


def _split_cons(t: Term):
    if isinstance(t, Compound) and t.functor == "cons" and len(t.args) == 2:
        return t.args
    return None


def in_s_pq(a: Atom) -> bool:
    """Some position k holds the first argument in all of the last three
    argument terms simultaneously."""
    if a.pred != PQ or len(a.args) != 4:
        return False
    i, cs, us, ds = a.args
    k = 1
    while True:
        e = kth_member(cs, k)
        if e is None:
            return False
        if e == i and kth_member(us, k) == i and kth_member(ds, k) == i:
            return True
        k += 1


def in_s_pqs(a: Atom) -> bool:
    if a.pred != PQS or len(a.args) != 4:
        return False
    it, cs, us, dst = a.args
    i = numeral_value(it)
    if i is None:
        return False
    if i == 0:
        return True
    split = _split_cons(dst)
    if split is None:
        return False
    _, ds = split
    ms = members(cs)
    for j in range(1, i + 1):
        if numeral(j) not in ms:
            return False
    if distinct_members(cs):
        return correct_up_to(PlacementTriple(cs, us, ds), i, i)
    return True


_IN_S = {PQ: in_s_pq, PQS: in_s_pqs}


def in_s(a: Atom) -> bool:
    test = _IN_S.get(a.pred)
    return test is not None and test(a)


def in_s0_pqs(a: Atom) -> bool:
    if a.pred != PQS or len(a.args) != 4:
        return False
    it, cs, us, dst = a.args
    i = numeral_value(it)
    if i is None or i == 0:
        return False
    split = _split_cons(dst)
    if split is None:
        return False
    _, ds = split
    return correct_up_to(PlacementTriple(cs, us, ds), i, i)


def _in_s0_pqs_or_zero(a: Atom) -> bool:
    if a.args and a.args[0] == ZERO:
        return True
    return in_s0_pqs(a)


_IN_S0 = {PQ: in_s_pq, PQS: _in_s0_pqs_or_zero}


def in_s0(a: Atom) -> bool:
    test = _IN_S0.get(a.pred)
    return test is not None and test(a)


# --- level mapping -------------------------------------------------------------

def spine(t: Term) -> tuple:
    """(n, end): t is n cons or s cells, each continuing in its last
    argument, followed by the term end."""
    n = 0
    while isinstance(t, Compound) and (
        (t.functor == "cons" and len(t.args) == 2)
        or (t.functor == "s" and len(t.args) == 1)
    ):
        n += 1
        t = t.args[-1]
    return n, t


@dataclass(frozen=True)
class LevelMapping:
    """A level mapping linear in term sizes, where the size of a term is
    the number of cells of its spine (`spine`)."""

    weights: dict  # (pred, arity) -> ((argument position, coefficient), ...)

    def linear_form(self, a: Atom) -> tuple:
        """(constant, {variable: coefficient}): every ground instance of a
        has level constant + sum of coefficient * size(variable), as a spine
        of n cells ending in X has size n + size(X)."""
        key = (a.pred, len(a.args))
        if key not in self.weights:
            raise ValueError(f"no level defined for predicate {a.pred}/{len(a.args)}")
        constant, coefficients = 0, {}
        for position, c in self.weights[key]:
            n, end = spine(a.args[position])
            constant += c * n
            if isinstance(end, Var):
                coefficients[end] = coefficients.get(end, 0) + c
        return constant, coefficients

    def atom_level(self, a: Atom) -> int:
        """The level of a ground atom."""
        return self.linear_form(a)[0]


#: |pqs(I,Cs,_,_)| = size(I) + size(Cs) and |pq(_,Cs,_,_)| = size(Cs).
QUEENS_LEVEL_MAPPING = LevelMapping({(PQS, 4): ((0, 1), (1, 1)), (PQ, 4): ((1, 1),)})


# --- bounded samplers ----------------------------------------------------------

def filler_terms(sig: Signature) -> tuple:
    """Two distinct filler constants, preferring 0 and a."""
    consts = sig.constants()
    preferred = [c for c in ("0", "a", "b", "nil") if c in consts]
    for c in consts:
        if c not in preferred:
            preferred.append(c)
    return tuple(Compound(c) for c in preferred[:2])


def term_pool(sig: Signature, numerals: int) -> tuple:
    """The grounding pool of the bounded checks: the two filler constants,
    then the numerals 1..numerals, none of which is a constant."""
    return filler_terms(sig) + tuple(numeral(n) for n in range(1, numerals + 1))


def letter_terms(sig: Signature) -> tuple:
    """Constants other than 0 and nil, used as distinct distractor members."""
    return tuple(Compound(c) for c in sig.constants() if c not in ("0", "nil"))


def small_term_pool(sig: Signature, depth: int) -> tuple:
    """Constants, small numerals, and short lists over them; the grounding
    pool for don't-care argument positions in bounded checks."""
    elems = term_pool(sig, min(depth, 2))
    pool = list(elems) + [NIL]
    tails = [NIL, elems[0]]
    for e in elems:
        for tl in tails:
            pool.append(make_list([e], tl))
    for e1 in elems:
        for e2 in elems:
            for tl in tails:
                pool.append(make_list([e1, e2], tl))
    return tuple(dict.fromkeys(pool))


def safe_placements(m: int, length: int, letters) -> Iterator[tuple]:
    """(cols, cs) for each diagonal-safe injective assignment of queens 1..m
    to columns 1..length: queen j sits in column cols[j-1], and the column
    list cs holds numeral j at that position and distinct letters in the
    empty columns. Nothing if there are fewer letters than empty columns."""
    if length - m > len(letters):
        return
    for cols in permutations(range(1, length + 1), m):
        if (len({k + j for j, k in enumerate(cols, 1)}) == m
                and len({k - j for j, k in enumerate(cols, 1)}) == m):
            items = [None] * length
            for j, k in enumerate(cols, 1):
                items[k - 1] = numeral(j)
            spare = iter(letters)
            yield cols, make_list([t if t is not None else next(spare) for t in items])


def diagonal_lists(cols, m: int, i: int, fill: Term,
                   us_tail: Term = NIL, ds_tail: Term = NIL,
                   us_min: int = 0, ds_min: int = 0,
                   diagonals: dict = DIAGONALS) -> tuple:
    """(us, ds) forced by queens 1..m in columns cols in the context of row
    i: queen j at each positive diagonal number of its up- (down-)diagonal,
    fill at every other position, each list at least its minimum length
    before its tail."""

    def filled(form: tuple, min_len: int, tail: Term) -> Term:
        ck, cj, ci = form
        forced = {ck * k + cj * j + ci * i: numeral(j) for j, k in enumerate(cols[:m], 1)}
        length = max([min_len, *forced])
        return make_list([forced.get(l, fill) for l in range(1, length + 1)], tail)

    return (filled(diagonals["us"], us_min, us_tail),
            filled(diagonals["ds"], ds_min, ds_tail))


def sample_s0_pqs(sig: Signature, depth: int) -> Iterator[Atom]:
    """Deterministic slice of the completeness set for pqs: every atom built
    from a diagonal-safe placement of queens 1..i (i <= min(depth, 4)) into
    columns 1..L (L <= max(depth, i)), with filler variants for the
    unconstrained positions and tails."""
    fill = filler_terms(sig)
    letters = letter_terms(sig)
    max_i = min(depth, 4)
    for i in range(1, max_i + 1):
        for length in range(i, max(depth, i) + 1):
            for cols, cs in safe_placements(i, length, letters):
                for us_fill, us_tail, ds_tail, head_t in product(
                    fill, (NIL, fill[0]), (NIL, fill[0]), fill
                ):
                    us, ds = diagonal_lists(cols, i, i, us_fill, us_tail, ds_tail)
                    atom = Atom(PQS, (numeral(i), cs, us, cons(head_t, ds)))
                    if in_s0_pqs(atom):
                        yield atom


def _inject(t: Term, position: int, value: Term) -> Term:
    """The proper list t but with `value` at the given position, extended
    with copies of value as needed."""
    items = members(t)
    items += [value] * (position - len(items))
    items[position - 1] = value
    return make_list(items)


def sample_s_pqs(sig: Signature, depth: int) -> Iterator[Atom]:
    """Slice of the correctness set for pqs: the zero row over a small term
    pool, the completeness slice, variants with a non-distinct column list,
    and mid-derivation shapes with the next queen already present."""
    pool = small_term_pool(sig, depth)
    zero = numeral(0)
    for x, y, z in product(pool, repeat=3):
        yield Atom(PQS, (zero, x, y, z))
    fill = filler_terms(sig)
    # non-distinct column lists: membership only needs 1..i among the members
    for i in range(1, min(depth, 3) + 1):
        queens = [numeral(j) for j in range(1, i + 1)]
        cs = make_list(queens + [queens[0]])
        for us, dst in product(pool[: 6], repeat=2):
            atom = Atom(PQS, (numeral(i), cs, us, dst))
            if in_s_pqs(atom):
                yield atom
    yield from sample_s0_pqs(sig, depth)
    # shapes arising mid-derivation: queens 1..i correct w.r.t. row i, with
    # queen i+1 already sitting in the lists at its own column position
    letters = letter_terms(sig)
    for i in range(0, min(depth, 3) + 1):
        q = i + 1
        for length in range(q, max(depth, q) + 1):
            for cols, cs in safe_placements(q, length, letters):
                kq = cols[q - 1]
                head_t = numeral(q) if kq == 1 else fill[0]
                for us_fill, t1 in product(fill, fill):
                    us, ds = diagonal_lists(cols, i, i, us_fill)
                    us = _inject(us, kq, numeral(q))
                    if kq > 1:
                        ds = _inject(ds, kq - 1, numeral(q))
                    atom = Atom(PQS, (numeral(i), cs, cons(t1, us), cons(head_t, ds)))
                    if in_s_pqs(atom):
                        yield atom


def sample_s_pq(sig: Signature, depth: int,
                pool: Optional[tuple] = None,
                max_spine: Optional[int] = None) -> Iterator[Atom]:
    """Slice of the pq specification: atoms with the shared member at spine
    position k, prefixes and tails drawn from the pool, all argument depths
    within the bound."""
    if pool is None:
        pool = term_pool(sig, min(depth, 2))
    if max_spine is None:
        max_spine = min(depth, 3)
    for k in range(1, max_spine + 1):
        for i in pool:
            variants = []
            for prefix in product(pool, repeat=k - 1):
                for tail in pool:
                    lst = make_list(list(prefix) + [i], tail)
                    if term_depth(lst) <= depth:
                        variants.append(lst)
            for cs, us, ds in product(variants, repeat=3):
                yield Atom(PQ, (i, cs, us, ds))


def sample_s(sig: Signature, depth: int) -> Iterator[Atom]:
    yield from sample_s_pqs(sig, depth)
    yield from sample_s_pq(sig, depth)


def sample_s0(sig: Signature, depth: int) -> Iterator[Atom]:
    """The placement slice first, then the zero row and the pq slice
    interleaved so that budgeted prefixes stay diverse."""
    yield from sample_s0_pqs(sig, depth)
    zero = numeral(0)
    zeros = (Atom(PQS, (zero, x, y, z))
             for x, y, z in product(small_term_pool(sig, depth), repeat=3))
    pqs = sample_s_pq(sig, depth)
    for pair in zip_longest(zeros, pqs):
        for a in pair:
            if a is not None:
                yield a


@dataclass(frozen=True)
class SpecSet:
    """A named decidable set of ground atoms plus a bounded-slice sampler."""

    name: str
    contains: Callable[[Atom], bool]
    sample: Callable[[Signature, int], Iterator[Atom]]


SPEC_SETS = {
    "s_pq": SpecSet("s_pq", in_s_pq, sample_s_pq),
    "s_pqs": SpecSet("s_pqs", in_s_pqs, sample_s_pqs),
    "s": SpecSet("s", in_s, sample_s),
    "s0_pqs": SpecSet("s0_pqs", in_s0_pqs, sample_s0_pqs),
    "s0": SpecSet("s0", in_s0, sample_s0),
}


def spec_set(name: str) -> SpecSet:
    try:
        return SPEC_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown specification set {name!r}; known: {sorted(SPEC_SETS)}"
        ) from None
