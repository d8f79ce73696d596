"""First-order term language: terms, atoms, clauses, substitutions.

Numbers are successor terms s(s(...s(0)...)); lists are cons/nil chains.
Everything is immutable and hashable, so values can be shared freely.
A `Compound` carries its hash, its depth and whether it is ground, computed
once when it is built, so set and dict operations, `term_depth` and
`is_ground` do not walk the term; equality walks it only when the hashes
and functors agree, with an explicit stack on deep terms. The walkers
(`apply_subst`, `term_vars`, `clause_template`, and `unify`'s) stop at a
ground subterm and keep it as it is, so a ground term is one object to
them however many nodes it shares. Hashing, comparing,
`Signature.check_term`, `apply_subst` and `format_term` are not bounded by
the Python stack.

A clause compiles to slot templates (`clause_template`). The instances
of an atom template are built by its `atom_builder`, and a clause's
`head_code` unifies a goal with its head and builds its body atoms, with
the head's variables as locals: functions generated as Python source, in
the manner of Warren's compiled clauses, so that no interpreter runs over
the template. Callers make them once per clause: the checkers once per
check, the engine when the clause is first a candidate in a `solve` call.
The source names no constant, so the code of one template shape is
compiled once and shared.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union
from zlib import crc32


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


#: Compounds less deep than this compare their arguments by recursive
#: `==`, which stays far below Python's recursion limit; deeper ones are
#: walked with an explicit stack. `format_term` values deeper numerals once.
_SHALLOW = 100


class Compound:
    """functor(args...), a constant when args is empty. `_hash` is
    hash((functor, args)), the value a frozen dataclass of the two fields
    has, `depth` is `term_depth`'s, and `ground` is true when no `Var` or
    `unify.Cell` occurs in the term; all three are computed from the
    children's when the term is built. Assignment raises."""

    __slots__ = ("functor", "args", "_hash", "depth", "ground")

    def __init__(self, functor: str, args: tuple = ()):
        depth, ground = 0, True
        for a in args:
            if a.__class__ is not Compound:
                ground = False
            else:
                if a.depth > depth:
                    depth = a.depth
                if not a.ground:
                    ground = False
        _set_functor(self, functor)
        _set_args(self, args)
        _set_hash(self, hash((functor, args)))
        _set_depth(self, depth + 1 if args else 0)
        _set_ground(self, ground)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Compound is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Compound:
            return NotImplemented
        if self._hash != other._hash or self.functor != other.functor:
            return False
        if self.depth < _SHALLOW:
            return self.args == other.args
        todo = [(self.args, other.args)]
        while todo:
            xs, ys = todo.pop()
            if len(xs) != len(ys):
                return False
            for u, v in zip(xs, ys):
                if u is v:
                    continue
                if u.__class__ is not Compound or v.__class__ is not Compound:
                    if u != v:
                        return False
                elif u._hash != v._hash or u.functor != v.functor:
                    return False
                else:
                    todo.append((u.args, v.args))
        return True

    def __repr__(self):
        return f"Compound({format_term(self)})"


# Compound.__setattr__ raises, so __init__ stores through the slot descriptors.
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__
_set_hash = Compound._hash.__set__
_set_depth = Compound.depth.__set__
_set_ground = Compound.ground.__set__


Term = Union[Var, Compound]

NIL = Compound("nil")
ZERO = Compound("0")
CONS = "cons"
SUCC = "s"


def cons(head: Term, tail: Term) -> Compound:
    return Compound(CONS, (head, tail))


def make_list(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


class Atom:
    """pred(args...). Equality and the hash hash((pred, args)) are those of
    a frozen dataclass of the two fields; nothing is cached, so an atom
    holds its two slots only. Assignment raises."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        _set_pred(self, pred)
        _set_atom_args(self, args)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Atom is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash((self.pred, self.args))

    def __eq__(self, other):
        if other.__class__ is not Atom:
            return NotImplemented
        return self.pred == other.pred and self.args == other.args

    def __repr__(self):
        return f"Atom({format_atom(self)})"


_set_pred = Atom.pred.__set__
_set_atom_args = Atom.args.__set__


@dataclass(frozen=True, slots=True)
class Clause:
    head: Atom
    body: tuple = ()


@dataclass(frozen=True, slots=True)
class Query:
    atoms: tuple

    def __post_init__(self):
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))


@dataclass(frozen=True)
class Program:
    clauses: tuple

    def __post_init__(self):
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))

    def clauses_for(self, pred: str):
        return tuple(c for c in self.clauses if c.head.pred == pred)

    def predicates(self):
        preds = {}
        for c in self.clauses:
            for a in (c.head, *c.body):
                preds[a.pred] = len(a.args)
        return preds


class SignatureError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """Declared function symbols with fixed arities."""

    symbols: frozenset  # of (name, arity)
    arities: dict = field(init=False, repr=False, compare=False)  # name -> arity

    def __post_init__(self):
        if not isinstance(self.symbols, frozenset):
            object.__setattr__(self, "symbols", frozenset(self.symbols))
        arities = {}
        for name, arity in self.symbols:
            if name in arities and arities[name] != arity:
                raise SignatureError(f"symbol {name} declared with two arities")
            arities[name] = arity
        if not any(a == 0 for a in arities.values()):
            raise SignatureError("signature has no constants: Herbrand universe empty")
        object.__setattr__(self, "arities", arities)

    def arity(self, name: str) -> Optional[int]:
        return self.arities.get(name)

    def constants(self):
        return tuple(sorted(n for n, a in self.symbols if a == 0))

    def functions(self):
        """Non-constant symbols, sorted by name."""
        return tuple(sorted((n, a) for n, a in self.symbols if a > 0))

    def check_term(self, t: Term):
        """Raise SignatureError at the first subterm, in text order, whose
        symbol is undeclared or used with another arity; iterative, and a
        subterm that occurs again is checked once."""
        todo, seen = [t], set()
        while todo:
            t = todo.pop()
            if isinstance(t, Var) or t in seen:
                continue
            seen.add(t)
            a = self.arity(t.functor)
            if a is None:
                raise SignatureError(f"undeclared symbol {t.functor}/{len(t.args)}")
            if a != len(t.args):
                raise SignatureError(
                    f"arity mismatch: {t.functor} declared /{a}, used /{len(t.args)}"
                )
            todo.extend(reversed(t.args))


#: Core constructors plus filler constants a..f used by the chessboard examples.
DEFAULT_SIGNATURE = Signature(
    frozenset(
        [("0", 0), ("s", 1), ("nil", 0), ("cons", 2)]
        + [(c, 0) for c in "abcdef"]
    )
)


# --- numerals ---------------------------------------------------------------

def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals are naturals")
    t = ZERO
    for _ in range(n):
        t = Compound(SUCC, (t,))
    return t


def numeral_value(t: Term) -> Optional[int]:
    """Inverse of numeral; None for anything that is not s^i(0)."""
    n = 0
    while isinstance(t, Compound) and t.functor == SUCC and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if t is ZERO or t == ZERO:
        return n
    return None


# --- generalized list membership --------------------------------------------

def kth_member(t: Term, k: int) -> Optional[Term]:
    """The k-th member of an (open) list or arbitrary cons chain; None if the
    spine ends (nil, variable, or non-cons term) before position k."""
    if k < 1:
        raise ValueError("positions start at 1")
    while k > 1:
        if isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
            t = t.args[1]
            k -= 1
        else:
            return None
    if isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
        return t.args[0]
    return None


def members(t: Term):
    """The members of t in spine order, up to the end of its cons chain."""
    out = []
    while isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
        out.append(t.args[0])
        t = t.args[1]
    return out


def is_proper_list(t: Term) -> bool:
    while isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
        t = t.args[1]
    return t == NIL


def distinct_members(t: Term) -> bool:
    """Proper list whose members are pairwise syntactically distinct."""
    if not is_proper_list(t):
        return False
    ms = members(t)
    return len(ms) == len(set(ms))


# --- substitutions -----------------------------------------------------------

Substitution = dict  # Var -> Term


def apply_subst(s: Substitution, t: Term) -> Term:
    """t with each variable v in s replaced by s[v]; iterative, so term
    depth is not bounded by the Python stack."""
    done: list = []  # finished subterms, left to right
    todo = [t]  # subterms to visit, and (functor, arity) to build from done
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:
            functor, n = u
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Compound(functor, args))
        elif isinstance(u, Var):
            done.append(s.get(u, u))
        elif u.ground:
            done.append(u)
        else:
            todo.append((u.functor, len(u.args)))
            todo.extend(reversed(u.args))
    return done[0]


def term_vars(ts) -> list:
    """Variables of the terms ts in order of first occurrence."""
    out, seen, todo = [], set(), list(ts)[::-1]
    while todo:
        u = todo.pop()
        if isinstance(u, Var):
            if u not in seen:
                seen.add(u)
                out.append(u)
        elif not u.ground:
            todo.extend(reversed(u.args))
    return out


def is_ground(t: Term) -> bool:
    return t.__class__ is Compound and t.ground


def term_depth(t: Term) -> int:
    """Constructor nesting depth; constants and variables are 0."""
    return t.depth if t.__class__ is Compound else 0


# --- compiled clauses -------------------------------------------------------

def clause_template(c: Clause) -> tuple:
    """(variables, head template, body templates) of c, compiled once so
    that each instance is built by an `atom_builder` from a slot list:
    slot i holds the term for the i-th variable in first-occurrence order.
    In a template each variable is its slot, ground subterms stay as they
    are, and other compounds become (functor, argument templates).
    Iterative, so term depth is not bounded by the Python stack."""
    index: dict = {}  # variable -> slot
    atoms = []
    for a in (c.head, *c.body):
        done: list = []  # templates of finished subterms, left to right
        todo = list(a.args)[::-1]  # subterms to visit, and [t] to finish t
        while todo:
            u = todo.pop()
            if u.__class__ is list:
                t = u[0]
                args = tuple(done[len(done) - len(t.args):])
                del done[len(done) - len(t.args):]
                done.append((t.functor, args))
            elif isinstance(u, Var):
                done.append(index.setdefault(u, len(index)))
            elif u.ground:
                done.append(u)
            else:
                todo.append([u])
                todo.extend(reversed(u.args))
        atoms.append((a.pred, tuple(done)))
    head, *body = atoms
    return list(index), head, tuple(body)


def atom_builder(tpl: tuple):
    """The function that takes a slot list s to the atom of the atom
    template tpl with slot i filled by s[i], that is the template's atom
    under the substitution of each variable by its slot."""
    consts: list = []
    lines: list = []
    atom = _atom_text(tpl, consts, lines, "s[{}]")
    return _function("build", "s", lines + [f"return {atom}"], consts, C=Compound, A=Atom)


def _atom_text(tpl: tuple, consts: list, lines: list, slot: str) -> str:
    """The expression of the atom of the atom template tpl, after appending
    to lines one flat statement per compound of tpl that holds a slot,
    children first; slot.format(i) is the expression of slot i. The
    predicate, the functors and the ground subterms are read from the
    tuple of constants k, never as source text, so templates of one shape
    share one compiled code. The walk is iterative and the code does not
    recurse, so template depth is not bounded by the Python stack."""
    pred, args = tpl
    done: list = []  # the expressions of finished templates, left to right
    todo = list(args)[::-1]  # templates to visit, and [functor, arity] to
    # build from done
    while todo:
        u = todo.pop()
        if u.__class__ is int:
            done.append(slot.format(u))
        elif u.__class__ is list:
            functor, n = u
            lines.append(f"t{len(lines)} = C({_const(consts, functor)}, "
                         f"{_tuple_text(done, n)})")
            done.append(f"t{len(lines) - 1}")
        elif u.__class__ is tuple:
            todo.append([u[0], len(u[1])])
            todo.extend(reversed(u[1]))
        else:
            done.append(_const(consts, u))
    return f"A({_const(consts, pred)}, {_tuple_text(done, len(done))})"


def head_code(head: tuple, body: tuple, cell, unify, occurs):
    """The clause code of the clause with head template head and body atom
    templates body: the function `(args, T, Q)` that unifies the arguments
    args of a goal, terms on cells of class cell, with the head, appending
    each cell it binds to the trail T, and returns the body's atoms on the
    head's variables, True for a unit clause, or False on failure, when
    the caller undoes the trail; like the WAM's get and unify
    instructions (Warren 1983; Ait-Kaci 1991). Q holds the query's cells.

    Its source holds one flat statement group per node of the head, in
    pre-order, with slot i as the local s{i}; then a new cell for each
    body-only variable, and the body atoms' lines (`_atom_text`). A slot's
    first occurrence takes the dereferenced goal term as it is, and binds
    it to a new cell only if it is an unbound cell in Q, so that `q(X)`
    against `q(Y).` reports X = _G1. Elsewhere that link changes no
    answer: the two cells stay in one class of equal terms, any later
    binding of either binds the chain end in the same direction and
    order, so `resolve` meets the chain ends of an answer in the same
    order and names them _G1, _G2, ... alike. Only an unbound query cell
    keeps a name of its own, so only it can tell the link apart.

    A later occurrence, and a ground subterm, calls unify unless the two
    are one object. A compound n tests the goal term's functor and arity
    and reads its arguments r{n} (read mode); on an unbound cell c{n}, or
    below a compound built in write mode, r{n} is None, and a second group
    after n's children builds t{n} (write mode) and binds c{n} to it. An
    argument that is linear and whose variables are all new is unified
    with no occurs scan: it is not subject to occur-check (the NSTO lemma,
    Apt and Pellegrini 1994). No statement nests another, so template
    depth is bounded by neither the Python stack nor the compiler's
    nesting."""
    consts: list = []  # the functors and ground subterms
    lines = []
    seen: set = set()  # the slots filled so far
    done: list = []  # the expressions of finished templates, left to right
    for i, arg in enumerate(head[1]):
        occ = [x for x, _ in slot_walk((arg,)) if x.__class__ is int] \
            if arg.__class__ is tuple else ()
        scan = len(set(occ)) < len(occ) or not seen.isdisjoint(occ)
        todo = [(arg, f"a[{i}]", "")]  # (template, its goal term, the test
        # that the goal term exists), and [n, functor, arity] to build n
        while todo:
            u, g, read = todo.pop()
            if u.__class__ is list:
                n, f, m = u
                lines.append(f"if r{n} is None: t{n} = C({f}, {_tuple_text(done, m)})")
                done.append(f"t{n}")
                if scan:
                    lines.append(f"if c{n} is not None and occurs(c{n}, t{n}): return False")
                lines.append(f"if c{n} is not None: T.append(c{n}); c{n}.ref = t{n}")
                continue
            if u.__class__ is not tuple and (u.__class__ is not int or u in seen):
                e = f"s{u}" if u.__class__ is int else _const(consts, u)
                lines.append(f"if {read + ' and ' if read else ''}{g} is not {e} "
                             f"and not unify({g}, {e}, T): return False")
                done.append(e)
                continue
            lines += (f"x = {g} if {read} else None" if read else f"x = {g}",
                      "while x.__class__ is V and x.ref is not None: x = x.ref")
            if u.__class__ is int:
                seen.add(u)
                lines += ("if x.__class__ is V and x in Q: T.append(x); x.ref = x = V()",
                          f"s{u} = V() if x is None else x" if read else f"s{u} = x")
                done.append(f"s{u}")
                continue
            n, f = len(lines), _const(consts, u[0])
            lines += (f"if x.__class__ is C and (x.functor != {f} or len(x.args) != "
                      f"{len(u[1])}): return False",
                      f"r{n} = x.args if x.__class__ is C else None",
                      f"c{n} = x if x.__class__ is V else None")
            todo.append(([n, f, len(u[1])], "", ""))
            todo.extend((v, f"r{n}[{j}]", f"r{n} is not None")
                        for j, v in reversed(list(enumerate(u[1]))))
    body_only = {u for _, args in body for u, _ in slot_walk(args) if u.__class__ is int} - seen
    lines += [f"s{u} = V()" for u in sorted(body_only)]
    atoms = [_atom_text(tpl, consts, lines, "s{}") for tpl in body]
    lines.append(f"return {_tuple_text(atoms, len(atoms))}" if atoms else "return True")
    return _function("clause", "a, T, Q", lines, consts, C=Compound, V=cell, A=Atom,
                     unify=unify, occurs=occurs)


def _const(consts: list, x) -> str:
    """The expression of the generated code that reads x from k."""
    consts.append(x)
    return f"k[{len(consts) - 1}]"


def _tuple_text(done: list, n: int) -> str:
    """The tuple of the last n expressions of done, which it pops."""
    text = "(" + "".join(x + ", " for x in done[len(done) - n:]) + ")"
    del done[len(done) - n:]
    return text


def _function(name: str, params: str, lines: list, consts: list, **scope):
    """The function name(params) whose body is lines, with the constants
    consts as the tuple k, and scope as its other globals."""
    scope["k"] = tuple(consts)
    exec(_compiled(f"def {name}({params}):\n    " + "\n    ".join(lines)), scope)
    return scope.pop(name)  # so that the function and its globals form no cycle


@lru_cache(maxsize=256)
def _compiled(source: str):
    """The code of a generated source, compiled once per shape of template
    (in any clause, check or `solve` call) while it stays in the cache. The
    file name differs by shape, as profilers key functions by file, line
    and name."""
    return compile(source, f"<generated {crc32(source.encode()):08x}>", "exec")


def match_template(tpl: tuple, a: Atom, slots) -> Optional[list]:
    """A copy of slots with its empty (None) slots filled so that
    atom_builder(tpl)(copy) is a, or None if no filling does that.
    Slots already filled must agree with a, and a compound of tpl never
    matches a variable of a."""
    pred, args = tpl
    if pred != a.pred or len(args) != len(a.args):
        return None
    out = list(slots)
    todo = list(zip(args, a.args))
    while todo:
        p, g = todo.pop()
        if p.__class__ is int:
            bound = out[p]
            if bound is None:
                out[p] = g
            elif bound != g:
                return None
        elif p.__class__ is tuple:
            if g.__class__ is not Compound or p[0] != g.functor or len(p[1]) != len(g.args):
                return None
            todo.extend(zip(p[1], g.args))
        elif p != g:
            return None
    return out


def slot_walk(args) -> list:
    """(leaf, nesting) for each leaf of the argument templates args, left to
    right: a leaf is a slot or a ground term, and its nesting is the number
    of compounds around it."""
    out, todo = [], [(t, 0) for t in reversed(args)]
    while todo:
        t, at = todo.pop()
        if t.__class__ is tuple:
            todo.extend((u, at + 1) for u in reversed(t[1]))
        else:
            out.append((t, at))
    return out


# --- canonical printing -------------------------------------------------------

def format_term(t: Term) -> str:
    """Canonical text of t; iterative, so term depth is not bounded by the
    Python stack, and each node of a deep numeral's spine is walked once."""
    out, todo = [], [t]  # todo: terms to print, and text to emit as it is
    value: dict = {}  # id of a numeral on a walked s/1 spine -> its number
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif t.functor == SUCC and len(t.args) == 1:
            n, u, deep = 0, t, t.depth >= _SHALLOW  # a shallow spine is walked, not valued
            while u.__class__ is Compound and u.functor == SUCC and len(u.args) == 1 \
                    and not (deep and id(u) in value):
                n, u = n + 1, u.args[0]
            base = 0 if u == ZERO else value.get(id(u))  # u's number, if it is a numeral
            if base is None:
                todo += (")" * n, u, "s(" * n)
                continue
            for k in range(base + n, base, -1) if deep else ():
                value[id(t)], t = k, t.args[0]
            out.append(str(base + n))
        elif not t.args:
            out.append("[]" if t == NIL else t.functor)
        else:
            parts = []  # the text of t, with its subterms still to print
            while isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
                parts += (",", t.args[0])
                t = t.args[1]
            if parts:
                parts[0] = "["
                parts += ("]",) if t == NIL else ("|", t, "]")
            else:
                parts = [x for u in t.args for x in (",", u)] + [")"]
                parts[0] = t.functor + "("
            todo.extend(reversed(parts))
    return "".join(out)


def format_atom(a: Atom) -> str:
    if not a.args:
        return a.pred
    return a.pred + "(" + ",".join(format_term(t) for t in a.args) + ")"


def format_clause(c: Clause) -> str:
    if not c.body:
        return format_atom(c.head) + "."
    return format_atom(c.head) + " :- " + ", ".join(format_atom(b) for b in c.body) + "."


def format_query(q: Query) -> str:
    return ", ".join(format_atom(a) for a in q.atoms)
