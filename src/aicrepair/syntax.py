"""Text format for instance files, plus canonical printing.

An instance file is a sequence of sections.  ``universe:`` (optional)
declares the atom alphabet, ``db:`` gives the initial database, and
exactly one of ``aic:``, ``rev:`` or ``lp:`` gives the program.  ``%``
starts a comment running to the end of the line, and whitespace is
otherwise insignificant.

    universe: a, b, c.
    db: a, b.
    aic:
    a, b -> -a | -b.

Rules follow the printed forms of the model classes: ``body -> head.``
for constraints with ``+a`` / ``-a`` actions, ``head <- body.`` for
revision rules with ``in(a)`` / ``out(a)`` literals, and
``head :- body.`` for disjunctive rules with ``not`` in the body.  An
empty head is written ``false``; an empty database is ``db: .``.

Parsing the output of :func:`print_instance` yields the instance back,
so printing is a canonical form: atom lists are sorted and rules keep
their original order with sorted bodies and heads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .model import (
    AicProgram,
    AicRule,
    Literal,
    RevLiteral,
    RevProgram,
    RevRule,
    Universe,
    UpdateAction,
    ordered,
)
from .asp import LogicProgram, LpRule

SECTION_NAMES = ("universe", "db", "aic", "rev", "lp")

# One alternative per token class, tried in order; multi-character symbols
# come first so "->" never lexes as "-" ">", and any other character is bad.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>%[^\n]*)"
    r"|(?P<name>[a-z][A-Za-z0-9_]*)|(?P<punct>->|<-|:-|[|,.():+-])|(?P<bad>.)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "punct" or "eof"
    text: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return f"'{self.text}'"


def tokenize(text: str) -> list[Token]:
    """The name and punct tokens of ``text``, then an eof token. A comment
    does not advance the column, so an eof after a trailing comment sits at
    its ``%``."""
    tokens: list[Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        if kind in ("name", "punct"):
            tokens.append(Token(kind, m.group(), line, col))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        end = m.start() if kind == "comment" else m.end()
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


@dataclass(frozen=True)
class Instance:
    """A parsed instance file: a database plus one program."""

    kind: str  # "aic", "rev" or "lp"
    db: frozenset[str]
    program: AicProgram | RevProgram | LogicProgram
    declared_universe: Universe | None = None

    def universe(self) -> Universe:
        """The declared universe, or the atoms mentioned anywhere."""
        if self.declared_universe is not None:
            return self.declared_universe
        return Universe.collect(self.db, self.program)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` places on. The eof token is last and ``next``
        never moves past it, so looking one past any other token is safe."""
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def fail(self, message: str, token: Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.col)

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.kind != "punct" or token.text != text:
            self.fail(f"expected '{text}', found {token.describe()}")
        return self.next()

    def at(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == text

    def at_section_start(self) -> bool:
        return (
            self.peek().kind == "name"
            and self.peek(1).kind == "punct"
            and self.peek(1).text == ":"
        )

    def separated(self, parse_one, sep: str) -> list:
        """One or more items read by ``parse_one``, separated by ``sep``."""
        items = [parse_one()]
        while self.at(sep):
            self.next()
            items.append(parse_one())
        return items

    def head(self, parse_one) -> list:
        """A rule head: ``|``-separated items, or ``false`` for none."""
        if self.peek().kind == "name" and self.peek().text == "false":
            self.next()
            return []
        return self.separated(parse_one, "|")

    def atom(self) -> str:
        token = self.peek()
        if token.kind != "name":
            self.fail(f"expected an atom, found {token.describe()}")
        if token.text in ("not", "false"):
            self.fail(f"'{token.text}' is a reserved word, not an atom")
        self.next()
        return token.text

    # -- sections ------------------------------------------------------

    def instance(self) -> Instance:
        universe: Universe | None = None
        db: frozenset[str] | None = None
        kind: str | None = None
        program: tuple = ()
        while self.peek().kind != "eof":
            if not self.at_section_start():
                self.fail(
                    f"expected a section header, found {self.peek().describe()}"
                )
            header = self.peek()
            name = self.next().text
            self.expect(":")
            if name not in SECTION_NAMES:
                self.fail(f"unknown section '{name}:'", header)
            if name == "universe":
                if universe is not None:
                    self.fail("duplicate universe section", header)
                universe = Universe(self.atom_list())
            elif name == "db":
                if db is not None:
                    self.fail("duplicate db section", header)
                db = frozenset(self.atom_list())
            else:
                if kind is not None:
                    self.fail(
                        f"'{name}:' clashes with an earlier '{kind}:' section",
                        header,
                    )
                kind = name
                program = self.rules(name)
        if kind is None:
            token = self.peek()
            raise ParseError(
                "missing program section (one of aic:, rev:, lp:)",
                token.line,
                token.col,
            )
        if db is None:
            token = self.peek()
            raise ParseError("missing db section", token.line, token.col)
        instance = Instance(kind, db, program, universe)
        if universe is not None:
            universe.require(db, context="db section")
            for rule in program:
                universe.require(rule.atoms(), context=f"rule '{rule}'")
        return instance

    def atom_list(self) -> list[str]:
        """A comma-separated atom list ending in '.'; possibly empty."""
        atoms: list[str] = []
        if self.at("."):
            self.next()
            return atoms
        while True:
            token = self.peek()
            name = self.atom()
            if name in atoms:
                self.fail(f"duplicate atom '{name}'", token)
            atoms.append(name)
            if self.at(","):
                self.next()
                continue
            self.expect(".")
            return atoms

    def rules(self, kind: str) -> tuple:
        parse_rule = {
            "aic": self.aic_rule,
            "rev": self.rev_rule,
            "lp": self.lp_rule,
        }[kind]
        rules = []
        while self.peek().kind != "eof" and not self.at_section_start():
            rules.append(parse_rule())
        return tuple(rules)

    # -- constraint rules ----------------------------------------------

    def aic_rule(self) -> AicRule:
        body = [] if self.at("->") else self.separated(self.literal, ",")
        self.expect("->")
        head = self.head(self.action)
        self.expect(".")
        return AicRule(frozenset(body), frozenset(head))

    def literal(self) -> Literal:
        if self.peek().kind == "name" and self.peek().text == "not":
            self.next()
            return Literal(self.atom(), positive=False)
        return Literal(self.atom())

    def action(self) -> UpdateAction:
        token = self.peek()
        if token.kind == "punct" and token.text in ("+", "-"):
            self.next()
            return UpdateAction(self.atom(), insert=token.text == "+")
        self.fail(f"expected '+atom' or '-atom', found {token.describe()}")
        raise AssertionError("unreachable")

    # -- revision rules ------------------------------------------------

    def rev_rule(self) -> RevRule:
        head = self.head(self.rev_literal)
        self.expect("<-")
        body = [] if self.at(".") else self.separated(self.rev_literal, ",")
        self.expect(".")
        return RevRule(frozenset(head), frozenset(body))

    def rev_literal(self) -> RevLiteral:
        token = self.peek()
        if token.kind == "name" and token.text in ("in", "out"):
            self.next()
            self.expect("(")
            atom = self.atom()
            self.expect(")")
            return RevLiteral(atom, is_in=token.text == "in")
        self.fail(f"expected 'in(atom)' or 'out(atom)', found {token.describe()}")
        raise AssertionError("unreachable")

    # -- disjunctive rules ---------------------------------------------

    def lp_rule(self) -> LpRule:
        head = self.head(self.atom)
        body: list[Literal] = []
        if self.at(":-"):
            self.next()
            if not self.at("."):
                body = self.separated(self.literal, ",")
        if not (head or body):
            self.fail("a rule needs a head or a body")
        self.expect(".")
        pos = frozenset(l.atom for l in body if l.positive)
        neg = frozenset(l.atom for l in body if not l.positive)
        return LpRule(frozenset(head), pos, neg)


def parse_instance(text: str) -> Instance:
    """Parse the text of an instance file.

    Raises :class:`ParseError` on malformed input and, when a universe
    is declared, :class:`UnknownAtom` for atoms outside it.
    """
    return _Parser(tokenize(text)).instance()


def parse_program(text: str, kind: str) -> tuple:
    """Parse a bare rule list of the given kind ("aic", "rev" or "lp")."""
    parser = _Parser(tokenize(text))
    rules = parser.rules(kind)
    token = parser.peek()
    if token.kind != "eof":
        raise ParseError(
            f"unexpected {token.describe()} after the last rule",
            token.line,
            token.col,
        )
    return rules


def _parse_comma_list(text: str, parse_one) -> frozenset:
    parser = _Parser(tokenize(text))
    at_end = parser.peek().kind == "eof"
    items = [] if at_end else parser.separated(lambda: parse_one(parser), ",")
    token = parser.peek()
    if token.kind != "eof":
        raise ParseError(
            f"unexpected {token.describe()}", token.line, token.col
        )
    return frozenset(items)


def parse_actions(text: str) -> frozenset[UpdateAction]:
    """Parse a comma-separated list of update actions, e.g. ``+a, -b``."""
    return _parse_comma_list(text, _Parser.action)


def parse_rev_literals(text: str) -> frozenset[RevLiteral]:
    """Parse a comma-separated list like ``in(a), out(b)``."""
    return _parse_comma_list(text, _Parser.rev_literal)


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated list of literals, e.g. ``a, not b``."""
    return _parse_comma_list(text, _Parser.literal)


def parse_atoms(text: str) -> frozenset[str]:
    """Parse a comma-separated list of atoms."""
    return _parse_comma_list(text, _Parser.atom)


def print_instance(instance: Instance) -> str:
    """Render an instance in canonical form.

    Atom lists are sorted, rules keep their order, and each rule is
    printed in the canonical form of its class, so parsing the result
    reproduces the instance exactly.
    """
    lines = []
    if instance.declared_universe is not None:
        atoms = ", ".join(instance.declared_universe.atoms)
        lines.append(f"universe: {atoms}." if atoms else "universe: .")
    atoms = ", ".join(sorted(instance.db))
    lines.append(f"db: {atoms}." if atoms else "db: .")
    lines.append(f"{instance.kind}:")
    for rule in instance.program:
        lines.append(str(rule))
    return "\n".join(lines) + "\n"


def format_set(items) -> str:
    """A brace-wrapped, canonically ordered set, e.g. ``{+a, -b}``."""
    return "{" + ", ".join(str(x) for x in ordered(items)) + "}"


def format_db(db: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(db)) + "}"
