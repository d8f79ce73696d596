"""Parser for the Prolog-subset concrete syntax.

Clauses are `head :- b1, b2.` or `head.`; lists are `[a,b|T]` and `[]`;
variables start with an uppercase letter or `_`; a bare `_` is a fresh
variable per occurrence; decimal integers desugar to successor numerals;
comments run from `%` to end of line.
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
    cons,
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
    """,
    re.VERBOSE,
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        line, col = 1, 1
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            val = m.group(0)
            if kind != "ws":
                self.toks.append((kind, val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
            pos = m.end()
        self.toks.append(("eof", "", line, col))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, val: Optional[str] = None):
        k, v, line, col = self.peek()
        if k != kind or (val is not None and v != val):
            want = val if val is not None else kind
            raise ParseError(f"expected {want!r}, found {v or 'end of input'!r}", line, col)
        return self.next()

    def error(self, msg: str):
        _, v, line, col = self.peek()
        raise ParseError(msg, line, col)


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokens(text)
        self._fresh = 0
        self._numerals = [ZERO]  # numeral(n) at n; s(N) shares N

    def fresh_var(self) -> Var:
        self._fresh += 1
        return Var(f"_G{self._fresh}")

    def term(self) -> Term:
        kind, val, line, col = self.toks.peek()
        if kind == "int":
            self.toks.next()
            ns, n = self._numerals, int(val)
            while len(ns) <= n:
                ns.append(Compound(SUCC, (ns[-1],)))
            return ns[n]
        if kind == "var":
            self.toks.next()
            if val == "_":
                return self.fresh_var()
            return Var(val)
        if kind == "punct" and val == "[":
            return self.list_term()
        if kind == "name":
            self.toks.next()
            if self.toks.peek()[:2] == ("punct", "("):
                self.toks.next()
                args = self.term_list()
                self.toks.expect("punct", ")")
                return Compound(val, tuple(args))
            return Compound(val)
        self.toks.error(f"expected a term, found {val or 'end of input'!r}")

    def list_term(self) -> Term:
        self.toks.expect("punct", "[")
        if self.toks.peek()[:2] == ("punct", "]"):
            self.toks.next()
            return NIL
        items = self.term_list()
        tail: Term = NIL
        if self.toks.peek()[:2] == ("punct", "|"):
            self.toks.next()
            tail = self.term()
        self.toks.expect("punct", "]")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out

    def term_list(self):
        items = [self.term()]
        while self.toks.peek()[:2] == ("punct", ","):
            self.toks.next()
            items.append(self.term())
        return items

    def atom(self) -> Atom:
        _, val, line, col = self.toks.peek()
        if self.toks.peek()[0] != "name":
            self.toks.error(f"expected a predicate name, found {val or 'end of input'!r}")
        self.toks.next()
        args = ()
        if self.toks.peek()[:2] == ("punct", "("):
            self.toks.next()
            args = tuple(self.term_list())
            self.toks.expect("punct", ")")
        return Atom(val, args)

    def clause(self) -> Clause:
        head = self.atom()
        body = ()
        if self.toks.peek()[:2] == ("neck", ":-"):
            self.toks.next()
            body = [self.atom()]
            while self.toks.peek()[:2] == ("punct", ","):
                self.toks.next()
                body.append(self.atom())
            body = tuple(body)
        self.toks.expect("punct", ".")
        return Clause(head, body)

    def program(self) -> Program:
        clauses = []
        while self.toks.peek()[0] != "eof":
            clauses.append(self.clause())
        return Program(tuple(clauses))

    def query(self) -> Query:
        atoms = [self.atom()]
        while self.toks.peek()[:2] == ("punct", ","):
            self.toks.next()
            atoms.append(self.atom())
        if self.toks.peek()[:2] == ("punct", "."):
            self.toks.next()
        if self.toks.peek()[0] != "eof":
            self.toks.error("trailing input after query")
        return Query(tuple(atoms))


def _check_arities(p: Program, signature: Optional[Signature]):
    pred_arity = {}
    for c in p.clauses:
        for a in (c.head, *c.body):
            if a.pred in pred_arity and pred_arity[a.pred] != len(a.args):
                raise ParseError(
                    f"predicate {a.pred} used with arities "
                    f"{pred_arity[a.pred]} and {len(a.args)}",
                    0,
                    0,
                )
            pred_arity[a.pred] = len(a.args)
            if signature is not None:
                for t in a.args:
                    signature.check_term(t)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if p.toks.peek()[0] != "eof":
        p.toks.error("trailing input after term")
    return t


def parse_query(text: str) -> Query:
    return _Parser(text).query()


def parse_program(text: str, signature: Optional[Signature] = None) -> Program:
    prog = _Parser(text).program()
    _check_arities(prog, signature)
    return prog
