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
    LCRule,
    LinearExpr,
    Or,
    RELATIONS,
    RESERVED_NAME_RE,
    Scaled,
    Theory,
    _theory,
    negated_term,
)

_KEYWORDS = ("not", "def") + AGGREGATES

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>%[^\n]*)
    | (?P<number>\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym>\#int|\#bool|\#true|\#false|:-|:=|\.\.|->|<=|>=|!=|[-+*.,;:(){}&|<>=])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


def _tokenize(text: str):
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = pos - line_start + 1
        kind = m.lastgroup
        value = m.group()
        if kind == "name" and value in _KEYWORDS:
            kind = value
        elif kind == "sym":
            kind = value
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, spec: DomainSpec, families=None):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec
        self.in_condition = False
        self.families = families  # reserved-name families desugaring draws from

    # -- token household ----------------------------------------------------

    def peek(self, k=0) -> _Token:
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def accept(self, kind):
        if self.at(kind):
            tok = self.peek()
            self.pos += 1
            return tok
        return None

    def expect(self, kind, message=None) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            self.error(message or f"expected {kind!r}, found {self.peek().text!r}")
        return tok

    def error(self, message, token=None):
        tok = token or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- declarations ----------------------------------------------------------

    def parse_declaration(self, ints: dict, bools: dict):
        """Read one ``#int``/``#bool`` run into ``{name: ((lo, hi), token)}``
        and ``{name: token}``."""
        kind = self.peek().kind
        self.pos += 1
        names = [self.expect("name", "expected a variable name")]
        while self.accept(","):
            names.append(self.expect("name", "expected a variable name"))
        lo, hi = DEFAULT_INTERVAL
        if kind == "#int" and not self.at("."):
            lo = self.parse_number()
            self.expect("..", "expected '..'")
            hi = self.parse_number()
            if lo > hi:
                self.error(f"empty interval {lo}..{hi}", names[0])
        self.expect(".", f"unexpected {self.peek().text!r}")
        for tok in names:
            if tok.text in ints or tok.text in bools:
                self.error(f"variable {tok.text} declared twice", tok)
            if kind == "#int":
                ints[tok.text] = ((lo, hi), tok)
            else:
                bools[tok.text] = tok

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
        if not self.spec.is_int(tok.text):
            self.error(f"assignment target {tok.text} is not an integer variable", tok)
        self.expect(":=")
        lower = self.parse_expr()
        upper = self.parse_expr() if self.accept("..") else lower
        return Assignment(tok.text, lower, upper)

    # -- formulas ------------------------------------------------------------

    def parse_formula(self):
        lhs = self.parse_disjunction()
        if self.accept("->"):
            return Implies(lhs, self.parse_formula())
        return lhs

    def parse_disjunction(self):
        f = self.parse_conjunction()
        while self.accept("|"):
            f = Or(f, self.parse_conjunction())
        return f

    def parse_conjunction(self):
        f = self.parse_unary()
        while self.accept("&"):
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        if self.accept("not"):
            return Implies(self.parse_unary(), BOT)
        if self.accept("#true"):
            return TOP
        if self.accept("#false"):
            return BOT
        return self.parse_body_atom()

    def parse_body_atom(self):
        if self.at("("):
            save = self.pos
            try:
                return self.parse_atom()
            except ParseError:
                self.pos = save
            self.expect("(")
            f = self.parse_formula()
            self.expect(")")
            return f
        return self.parse_atom()

    def parse_atom(self):
        if self.at("def"):
            self.accept("def")
            self.expect("(")
            e = self.parse_expr()
            self.expect(")")
            return Defined(e)
        tok = self.peek()
        e = self.parse_expr()
        for rel in RELATIONS:
            if self.accept(rel):
                return Comparison(e, rel, self.parse_expr())
        item = e.items[0]
        if len(e.items) == 1 and isinstance(item, Scaled) and item.coeff == 1:
            if not self.spec.is_bool(item.var):
                self.error(f"{item.var} is not a Boolean variable", tok)
            return BoolAtom(item.var)
        self.error("expected a comparison operator", tok)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> LinearExpr:
        items = list(self.parse_signed_term(False))
        while True:
            if self.accept("+"):
                items.extend(self.parse_signed_term(False))
            elif self.accept("-"):
                items.extend(self.parse_signed_term(True))
            else:
                break
        return LinearExpr(tuple(items))

    def parse_signed_term(self, negate: bool):
        if self.accept("-"):
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
        tok = self.peek()
        if self.accept("number"):
            if self.accept("*"):
                name = self.parse_var_name()
                return (Scaled(int(tok.text), name),)
            return (Const(int(tok.text)),)
        if self.at("name"):
            return (Scaled(1, self.parse_var_name()),)
        if self.at("("):
            return (self.parse_conditional_term(),)
        if self.peek().kind in AGGREGATES:
            return (self.parse_aggregate(),)
        self.error(f"expected a term, found {tok.text!r}")

    def parse_var_name(self) -> str:
        tok = self.expect("name")
        if not self.spec.is_declared(tok.text):
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


def _split_statements(tokens):
    """Group tokens into runs, each ending at a '.' token and then an eof
    token at the same place."""
    runs, current = [], []
    for tok in tokens:
        if tok.kind == "eof":
            if current:
                raise ParseError("statement is missing the final '.'", tok.line, tok.col)
            break
        current.append(tok)
        if tok.kind == ".":
            runs.append(current + [_Token("eof", "", tok.line, tok.col)])
            current = []
    return runs


def parse_theory(text: str) -> Theory:
    """Parse source text into a Theory."""
    ints, bools = {}, {}
    statement_runs = []
    for run in _split_statements(_tokenize(text)):
        if run[0].kind in ("#int", "#bool"):
            _Parser(run, None).parse_declaration(ints, bools)
        else:
            statement_runs.append(run)
    spec = DomainSpec.make(
        {n: interval for n, (interval, _) in ints.items()}, bools.keys()
    )
    families = set()
    statements = [_Parser(run, spec, families).parse_statement() for run in statement_runs]
    decls = {**{n: tok for n, (_, tok) in ints.items()}, **bools}
    for name, tok in sorted(decls.items()):
        m = RESERVED_NAME_RE.match(name)
        if m and name[2 : len(name.rstrip("0123456789"))] in families:
            raise ParseError(
                f"declared name {name} collides with generated names", tok.line, tok.col
            )
    return _theory(spec, statements)


# --------------------------------------------------------------------------
# Pretty printing

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


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
    if phi == TOP:
        text, prec = "#true", _PREC_ATOM
    elif isinstance(phi, Bot):
        text, prec = "#false", _PREC_ATOM
    elif isinstance(phi, Implies) and phi.rhs == BOT:
        text, prec = "not " + print_formula(phi.lhs, _PREC_NOT), _PREC_NOT
    elif isinstance(phi, Implies):
        lhs = print_formula(phi.lhs, _PREC_OR)
        rhs = print_formula(phi.rhs, _PREC_IMPLIES)
        text, prec = f"{lhs} -> {rhs}", _PREC_IMPLIES
    elif isinstance(phi, Or):
        lhs = print_formula(phi.lhs, _PREC_OR)
        rhs = print_formula(phi.rhs, _PREC_AND)
        text, prec = f"{lhs} | {rhs}", _PREC_OR
    elif isinstance(phi, And):
        lhs = print_formula(phi.lhs, _PREC_AND)
        rhs = print_formula(phi.rhs, _PREC_NOT)
        text, prec = f"{lhs} & {rhs}", _PREC_AND
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
    parts = [_print_term(e.items[0], first=True)]
    for item in e.items[1:]:
        parts.append(_print_term(item, first=False))
    return "".join(parts)


def _factor(term) -> int:
    """A linear term's constant, or its coefficient."""
    return term.value if isinstance(term, Const) else term.coeff


def _print_term(item, first: bool) -> str:
    if isinstance(item, Const):
        if first:
            return str(item.value)
        return f" - {-item.value}" if item.value < 0 else f" + {item.value}"
    if isinstance(item, Scaled):
        mag = item.var if abs(item.coeff) == 1 else f"{abs(item.coeff)}*{item.var}"
        if first:
            return ("-" if item.coeff < 0 else "") + mag
        return (" - " if item.coeff < 0 else " + ") + mag
    if isinstance(item, ConditionalTerm):
        sign = ""
        factors = (_factor(item.then_term), _factor(item.else_term))
        if max(factors) <= 0 and min(factors) < 0:
            item, sign = negated_term(item), "-"
        body = (
            f"({_print_term(item.then_term, True)} | "
            f"{_print_term(item.else_term, True)} : "
            f"{print_formula(item.condition)})"
        )
        if first:
            return sign + body
        return (" - " if sign else " + ") + body
    if isinstance(item, Aggregate):
        if item.func == "count":
            els = [print_formula(el.condition) for el in item.elements]
        else:
            els = [
                _print_term(el.term, True)
                + ("" if el.condition == TOP else " : " + print_formula(el.condition))
                for el in item.elements
            ]
        body = f"{item.func}{{ {'; '.join(els)} }}" if els else item.func + "{}"
        return body if first else " + " + body
    raise ValueError(f"term {item!r} has no concrete syntax")
