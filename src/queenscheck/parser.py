"""Parser for the Prolog-subset concrete syntax.

Clauses are `head :- b1, b2.` or `head.`; lists are `[a,b|T]` and `[]`;
variables start with an uppercase letter or `_`; a bare `_` is a fresh
variable per occurrence; decimal integers desugar to successor numerals;
comments run from `%` to end of line. Terms are read by one loop with an
explicit stack of open compounds and lists, so their nesting depth is not
bounded by the Python stack.
"""

import re
from typing import Optional

from .terms import (
    Atom,
    Clause,
    Compound,
    NIL,
    Program,
    Query,
    SUCC,
    Signature,
    Term,
    Var,
    ZERO,
    make_list,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<neck>:-)
    | (?P<punct>[()\[\],|.])
    | (?P<int>\d+)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Parser:
    """Reads a list of (kind, text, offset) tokens from left to right.
    Punctuation and `:-` are told apart by their text, which no other kind
    of token shares; the list ends in an `eof` token with empty text."""

    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.lastgroup, m.group(), m.start())
                     for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
        for kind, val, at in self.toks:
            if kind == "bad":
                raise self.error(f"unexpected character {val!r}", at)
        self.toks.append(("eof", "", len(text)))
        self.i = 0
        self._fresh = 0
        self._numerals = [ZERO]  # numeral(n) at n; s(N) shares N
        self._arity = {}  # predicate -> the arity of its first atom

    def error(self, msg: str, at: int) -> ParseError:
        line = self.text.count("\n", 0, at) + 1
        return ParseError(msg, line, at - self.text.rfind("\n", 0, at))

    def expected(self, want: str, i: int) -> ParseError:
        _, val, at = self.toks[i]
        return self.error(f"expected {want}, found {val or 'end of input'!r}", at)

    def end(self, what: str):
        kind, _, at = self.toks[self.i]
        if kind != "eof":
            raise self.error(f"trailing input after {what}", at)

    def term(self, top=Compound) -> Term:
        """The term at the next token; `top` builds it if it is a compound.
        An open compound waits on the stack as [functor, args], an open
        list as ["[", items], or as ["|", items] once its tail is due."""
        toks, i, stack = self.toks, self.i, []
        while True:
            kind, val, _ = toks[i]
            i += 1
            if kind == "int":
                ns, n = self._numerals, int(val)
                while len(ns) <= n:
                    ns.append(Compound(SUCC, (ns[-1],)))
                t = ns[n]
            elif kind == "var":
                if val == "_":
                    self._fresh += 1
                    val = f"_G{self._fresh}"
                t = Var(val)
            elif kind == "name" and toks[i][1] == "(":
                stack.append([val, []])
                i += 1
                continue
            elif kind == "name":
                t = (Compound if stack else top)(val)
            elif val == "[" and toks[i][1] == "]":
                t = NIL
                i += 1
            elif val == "[":
                stack.append(["[", []])
                continue
            else:
                raise self.expected("a term", i - 1)
            while stack:  # t is the next argument, item or tail of stack[-1]
                frame = stack[-1]
                opened, items = frame
                sep = toks[i][1]
                if opened != "|":
                    items.append(t)
                    if sep == ",":
                        i += 1
                        break
                    if sep == "|" and opened == "[":
                        frame[0] = "|"
                        i += 1
                        break
                close = "]" if opened in ("[", "|") else ")"
                if sep != close:
                    raise self.expected(repr(close), i)
                i += 1
                stack.pop()
                if close == ")":
                    t = (Compound if stack else top)(opened, tuple(items))
                else:
                    t = make_list(items, t if opened == "|" else NIL)
            else:
                self.i = i
                return t

    def atom(self) -> Atom:
        kind, pred, at = self.toks[self.i]
        if kind != "name":
            raise self.expected("a predicate name", self.i)
        a = self.term(Atom)
        arity = self._arity.setdefault(pred, len(a.args))
        if arity != len(a.args):
            raise self.error(f"predicate {pred} used with arities {arity} and {len(a.args)}", at)
        return a

    def atoms(self) -> tuple:
        """One or more atoms, separated by commas."""
        atoms = [self.atom()]
        while self.toks[self.i][1] == ",":
            self.i += 1
            atoms.append(self.atom())
        return tuple(atoms)

    def program(self) -> Program:
        clauses = []
        while self.toks[self.i][0] != "eof":
            head, body = self.atom(), ()
            if self.toks[self.i][1] == ":-":
                self.i += 1
                body = self.atoms()
            if self.toks[self.i][1] != ".":
                raise self.expected("'.'", self.i)
            self.i += 1
            clauses.append(Clause(head, body))
        return Program(tuple(clauses))


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.end("term")
    return t


def parse_query(text: str) -> Query:
    p = _Parser(text)
    atoms = p.atoms()
    if p.toks[p.i][1] == ".":
        p.i += 1
    p.end("query")
    return Query(atoms)


def parse_program(text: str, signature: Optional[Signature] = None) -> Program:
    prog = _Parser(text).program()
    if signature is not None:
        for c in prog.clauses:
            for a in (c.head, *c.body):
                for t in a.args:
                    signature.check_term(t)
    return prog
