"""Concrete syntax: tokenizer, parser and round-tripping pretty printer.

Files consist of ``#int``/``#bool`` declarations and statements, each
terminated by ``.``; ``%`` starts a line comment.  Declarations are read
before any statement, so they apply to the whole file wherever they appear.
A statement is a rule when it opens with ``name :=`` or holds a ``:-``
token, and a formula otherwise.  A file parses to a Theory, which is an
LC-program (``Theory.is_lc_program``) when every statement is a rule.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .syntax import (
    AGGREGATES,
    BOT,
    TOP,
    Aggregate,
    AggregateElement,
    And,
    Assignment,
    BoolAtom,
    Bot,
    Comparison,
    Const,
    ConditionalTerm,
    Defined,
    DomainSpec,
    DEFAULT_INTERVAL,
    Implies,
    KEYWORDS,
    LCRule,
    LinearExpr,
    Or,
    RELATIONS,
    RESERVED_NAME_RE,
    Scaled,
    Theory,
    _NAME_RE,
    _theory,
    is_top,
    negated_term,
)

_SYMBOLS = ("#int", "#bool", "#true", "#false", ":-", ":=", "..", "->", "<=", ">=", "!=",
            *"-+*.,;:(){}&|<>=")
# A symbol or keyword is its own kind; other tokens take their group's name.
_KINDS = {t: t for t in _SYMBOLS + KEYWORDS}
_RELATIONS = frozenset(RELATIONS)

# Whitespace and comments are skipped inside each token's match.  Every
# match ends at a token, a character no token starts with, or the end of the
# text, so the skip never backtracks into a comment and matches are adjacent.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|%[^\n]*)*"
    r"(?:(?P<number>[0-9]+)|(?P<name>" + _NAME_RE.pattern + r")|(?P<sym>"
    + "|".join(map(re.escape, _SYMBOLS))
    + r")|\Z|(?P<bad>(?s:.)))"
)


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


class _Error(Exception):
    """A ParseError whose position is still a text offset: (message, offset)."""


def _statement_runs(text: str):
    """The text's tokens as runs, each ending at a '.' token and then an
    eof token at the same place."""
    runs, current = [], []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group is None:  # the end of the text
            break
        value = m[group]
        if group == "bad":
            raise _Error(f"unexpected character {value!r}", m.start(group))
        current.append(tok := _Token(_KINDS.get(value, group), value, m.start(group)))
        if value == ".":
            current.append(_Token("eof", "", tok.offset))
            runs.append(current)
            current = []
    if current:
        raise _Error("statement is missing the final '.'", len(text))
    return runs


_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5
# a binary connective: its symbol, its precedence, and the precedence each side needs
_BINARY = {
    Implies: (" -> ", _PREC_IMPLIES, _PREC_OR, _PREC_IMPLIES),
    Or: (" | ", _PREC_OR, _PREC_OR, _PREC_AND),
    And: (" & ", _PREC_AND, _PREC_AND, _PREC_NOT),
}
# the parser's view of the same table: token kind -> (class, precedence, right side's)
_CONNECTIVES = {sym.strip(): (cls, prec, right) for cls, (sym, prec, _, right) in _BINARY.items()}


class _Parser:
    def __init__(self, tokens, decls=None, families=None):
        self.tokens = tokens
        self.pos = 0
        self.decls = decls  # {name: (token, interval or None for a Boolean)}
        self.in_condition = False
        self.families = families  # reserved-name families desugaring draws from

    # -- token household ----------------------------------------------------

    def peek(self, k=0) -> _Token:
        # every run ends in '.' and eof, and nothing moves past eof
        return self.tokens[self.pos + k]

    def at(self, kind) -> bool:
        return self.tokens[self.pos].kind == kind

    def accept(self, kind):
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind, message=None) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            self.error(message or f"expected {kind!r}, found {self.peek().text!r}")
        return tok

    def error(self, message, token=None):
        raise _Error(message, (token or self.peek()).offset)

    # -- declarations ----------------------------------------------------------

    def parse_declaration(self, decls: dict):
        """Read one ``#int``/``#bool`` run into ``{name: (token, interval)}``,
        the interval ``(lo, hi)``, or None for a Boolean."""
        kind = self.peek().kind
        self.pos += 1
        names = [self.expect("name", "expected a variable name")]
        while self.accept(","):
            names.append(self.expect("name", "expected a variable name"))
        interval = DEFAULT_INTERVAL if kind == "#int" else None
        if kind == "#int" and not self.at("."):
            lo = self.parse_number()
            self.expect("..", "expected '..'")
            hi = self.parse_number()
            if lo > hi:
                self.error(f"empty interval {lo}..{hi}", names[0])
            interval = (lo, hi)
        self.expect(".", f"unexpected {self.peek().text!r}")
        for tok in names:
            if tok.text in decls:
                self.error(f"variable {tok.text} declared twice", tok)
            decls[tok.text] = (tok, interval)

    def parse_number(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("number", "expected a number").text)

    # -- statements ----------------------------------------------------------

    def statement_is_rule(self) -> bool:
        """The run opens with ``name :=`` or holds a ``:-`` token."""
        if self.at("name") and self.peek(1).kind == ":=":
            return True
        return any(tok.kind == ":-" for tok in self.tokens)

    def parse_statement(self):
        if self.statement_is_rule():
            stmt = self.parse_rule()
        else:
            stmt = self.parse_formula()
        self.expect(".")
        return stmt

    def parse_rule(self) -> LCRule:
        head = ()
        if self.accept("#false"):
            pass
        elif not self.at(":-"):
            parts = [self.parse_assignment()]
            while self.accept(";"):
                parts.append(self.parse_assignment())
            head = tuple(parts)
        pos_body, neg_body = [], []
        if self.accept(":-") and not self.at("."):
            while True:
                negated = bool(self.accept("not"))
                atom = self.parse_body_atom()
                (neg_body if negated else pos_body).append(atom)
                if not self.accept(","):
                    break
        return LCRule(head, tuple(pos_body), tuple(neg_body))

    def parse_assignment(self) -> Assignment:
        tok = self.expect("name")
        decl = self.decls.get(tok.text)
        if decl is None or decl[1] is None:
            self.error(f"assignment target {tok.text} is not an integer variable", tok)
        self.expect(":=")
        lower = self.parse_expr()
        upper = self.parse_expr() if self.accept("..") else lower
        return Assignment(tok.text, lower, upper)

    # -- formulas ------------------------------------------------------------

    def parse_formula(self, weakest=_PREC_IMPLIES):
        """A formula whose connectives outside parentheses bind at least as
        tightly as ``weakest``, each side read as ``_BINARY`` prints it."""
        f = self.parse_unary()
        while (op := _CONNECTIVES.get(self.tokens[self.pos].kind)) and op[1] >= weakest:
            self.pos += 1
            f = op[0](f, self.parse_formula(op[2]))
        return f

    def parse_unary(self):
        kind = self.tokens[self.pos].kind
        if kind not in ("not", "#true", "#false"):
            return self.parse_body_atom()
        self.pos += 1
        if kind == "not":
            return Implies(self.parse_unary(), BOT)
        return TOP if kind == "#true" else BOT

    def parse_body_atom(self):
        if self.tokens[self.pos].kind == "(":
            save = self.pos
            try:
                return self.parse_atom()
            except _Error:
                self.pos = save
            self.expect("(")
            f = self.parse_formula()
            self.expect(")")
            return f
        return self.parse_atom()

    def parse_atom(self):
        if self.tokens[self.pos].kind == "def":
            self.pos += 1
            self.expect("(")
            e = self.parse_expr()
            self.expect(")")
            return Defined(e)
        tok = self.peek()
        e = self.parse_expr()
        rel = self.tokens[self.pos].kind
        if rel in _RELATIONS:
            self.pos += 1
            return Comparison(e, rel, self.parse_expr())
        item = e.items[0]
        if len(e.items) == 1 and isinstance(item, Scaled) and item.coeff == 1:
            if self.decls[item.var][1] is not None:
                self.error(f"{item.var} is not a Boolean variable", tok)
            return BoolAtom(item.var)
        self.error("expected a comparison operator", tok)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> LinearExpr:
        items = list(self.parse_signed_term(False))
        while (kind := self.tokens[self.pos].kind) in ("+", "-"):
            self.pos += 1
            items.extend(self.parse_signed_term(kind == "-"))
        return LinearExpr(tuple(items))

    def parse_signed_term(self, negate: bool):
        if self.tokens[self.pos].kind == "-":
            self.pos += 1
            negate = not negate
        tok = self.peek()
        items = self.parse_primary_term()
        if negate:
            try:
                items = tuple(negated_term(i) for i in items)
            except TypeError:
                self.error("cannot negate an aggregate; negate its elements", tok)
        return items

    def parse_primary_term(self) -> tuple:
        """One additive operand; sum aggregates contribute a single item too."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "number":
            self.pos += 1
            if self.tokens[self.pos].kind == "*":
                self.pos += 1
                return (Scaled(int(tok.text), self.parse_var_name()),)
            return (Const(int(tok.text)),)
        if kind == "name":
            return (Scaled(1, self.parse_var_name()),)
        if kind == "(":
            return (self.parse_conditional_term(),)
        if kind in AGGREGATES:
            return (self.parse_aggregate(),)
        self.error(f"expected a term, found {tok.text!r}")

    def parse_var_name(self) -> str:
        tok = self.expect("name")
        if tok.text not in self.decls:
            self.error(f"undeclared variable {tok.text}", tok)
        return tok.text

    def parse_conditional_term(self) -> ConditionalTerm:
        tok = self.expect("(")
        if self.in_condition:
            self.error("nested conditional terms are not allowed", tok)
        then_t = self.parse_branch_term()
        self.expect("|")
        else_t = self.parse_branch_term()
        self.expect(":")
        cond = self.parse_condition()
        self.expect(")")
        self.families.add("c")
        return ConditionalTerm(then_t, else_t, cond)

    def parse_branch_term(self):
        tok = self.peek()
        e = self.parse_expr()
        if len(e.items) != 1 or not isinstance(e.items[0], (Const, Scaled)):
            self.error("conditional branches must be single linear terms", tok)
        return e.items[0]

    def parse_condition(self):
        outer = self.in_condition
        self.in_condition = True
        try:
            return self.parse_formula()
        finally:
            self.in_condition = outer

    def parse_aggregate(self) -> Aggregate:
        tok = self.peek()
        func = tok.kind
        if self.in_condition:
            self.error("aggregates are not allowed inside conditions", tok)
        self.pos += 1
        self.expect("{")
        elements = []
        if not self.at("}"):
            while True:
                if func == "count":
                    elements.append(AggregateElement(Const(1), self.parse_condition()))
                else:
                    term_tok = self.peek()
                    items = self.parse_signed_term(False)
                    if len(items) != 1 or not isinstance(items[0], (Const, Scaled)):
                        self.error("aggregate elements must be linear terms", term_tok)
                    cond = self.parse_condition() if self.accept(":") else TOP
                    elements.append(AggregateElement(items[0], cond))
                if not self.accept(";"):
                    break
        self.expect("}")
        self.families.update({"c", func} - {"sum", "count"})
        return Aggregate(func, tuple(elements))


# --------------------------------------------------------------------------
# Source files


def parse_theory(text: str) -> Theory:
    """Parse source text into a Theory."""
    decls, statement_runs, families = {}, [], set()
    try:
        for run in _statement_runs(text):
            if run[0].kind in ("#int", "#bool"):
                _Parser(run).parse_declaration(decls)
            else:
                statement_runs.append(run)
        statements = [_Parser(run, decls, families).parse_statement() for run in statement_runs]
        for name, (tok, _) in sorted(decls.items()):
            if RESERVED_NAME_RE.fullmatch(name) and name[2:].rstrip("0123456789") in families:
                raise _Error(f"declared name {name} collides with generated names", tok.offset)
    except _Error as exc:
        message, offset = exc.args
        line = text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - text.rfind("\n", 0, offset)) from None
    ints = {n: iv for n, (_, iv) in decls.items() if iv is not None}
    return _theory(DomainSpec.make(ints, decls.keys() - ints), statements)


# --------------------------------------------------------------------------
# Pretty printing

def pretty_print(obj) -> str:
    """Render an AST back to concrete syntax; parse(pretty_print(x)) == x."""
    if isinstance(obj, Theory):
        return print_theory(obj)
    if isinstance(obj, LCRule):
        return print_rule(obj)
    if isinstance(obj, Assignment):
        return _print_assignment(obj)
    if isinstance(obj, LinearExpr):
        return print_expr(obj)
    return print_formula(obj)


def print_theory(thy: Theory) -> str:
    lines = []
    for name, lo, hi in thy.spec.int_vars:
        lines.append(f"#int {name} {lo}..{hi}.")
    for name in thy.spec.bool_vars:
        lines.append(f"#bool {name}.")
    for stmt in thy.statements:
        if isinstance(stmt, LCRule):
            lines.append(print_rule(stmt))
        else:
            lines.append(print_formula(stmt) + ".")
    return "\n".join(lines) + ("\n" if lines else "")


def print_rule(rule: LCRule) -> str:
    head = "; ".join(_print_assignment(a) for a in rule.head)
    body_parts = [_print_body_atom(b) for b in rule.pos_body]
    body_parts += ["not " + _print_body_atom(b) for b in rule.neg_body]
    body = ", ".join(body_parts)
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}." if body else ":-."


def _print_assignment(a: Assignment) -> str:
    if a.point:
        return f"{a.target} := {print_expr(a.lower)}"
    return f"{a.target} := {print_expr(a.lower)} .. {print_expr(a.upper)}"


def _print_body_atom(phi) -> str:
    if isinstance(phi, (Comparison, Defined, BoolAtom)):
        return print_formula(phi)
    return "(" + print_formula(phi) + ")"


def print_formula(phi, required=_PREC_IMPLIES) -> str:
    if is_top(phi):
        text, prec = "#true", _PREC_ATOM
    elif isinstance(phi, Bot):
        text, prec = "#false", _PREC_ATOM
    elif isinstance(phi, Implies) and phi.rhs == BOT:
        text, prec = "not " + print_formula(phi.lhs, _PREC_NOT), _PREC_NOT
    elif type(phi) in _BINARY:
        symbol, prec, left, right = _BINARY[type(phi)]
        text = print_formula(phi.lhs, left) + symbol + print_formula(phi.rhs, right)
    elif isinstance(phi, Comparison):
        text = f"{print_expr(phi.lhs)} {phi.rel} {print_expr(phi.rhs)}"
        prec = _PREC_ATOM
    elif isinstance(phi, Defined):
        text, prec = f"def({print_expr(phi.arg)})", _PREC_ATOM
    elif isinstance(phi, BoolAtom):
        text, prec = phi.name, _PREC_ATOM
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if prec < required:
        return "(" + text + ")"
    return text


def print_expr(e: LinearExpr) -> str:
    return _print_terms(e.items)


def _print_terms(items) -> str:
    """The first term as ``-text`` or ``text``, each later one as ``' - text'``
    or ``' + text'``, the text being what ``_print_term`` gives."""
    parts = []
    for item in items:
        negated, text = _print_term(item)
        parts.append((" - " if negated else " + ") if parts else ("-" if negated else ""))
        parts.append(text)
    return "".join(parts)


def _factor(term) -> int:
    """A linear term's constant, or its coefficient."""
    return term.value if isinstance(term, Const) else term.coeff


def _print_term(item) -> tuple:
    """Whether a term prints negated, and the text of its magnitude."""
    if isinstance(item, Const):
        return item.value < 0, str(abs(item.value))
    if isinstance(item, Scaled):
        mag = item.var if abs(item.coeff) == 1 else f"{abs(item.coeff)}*{item.var}"
        return item.coeff < 0, mag
    if isinstance(item, ConditionalTerm):
        factors = (_factor(item.then_term), _factor(item.else_term))
        negated = max(factors) <= 0 and min(factors) < 0
        if negated:
            item = negated_term(item)
        then_t, else_t = _print_terms((item.then_term,)), _print_terms((item.else_term,))
        return negated, f"({then_t} | {else_t} : {print_formula(item.condition)})"
    if isinstance(item, Aggregate):
        if item.func == "count":
            els = [print_formula(el.condition) for el in item.elements]
        else:
            els = [
                _print_terms((el.term,))
                + ("" if is_top(el.condition) else " : " + print_formula(el.condition))
                for el in item.elements
            ]
        return False, f"{item.func}{{ {'; '.join(els)} }}" if els else item.func + "{}"
    raise ValueError(f"term {item!r} has no concrete syntax")
