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
    RESERVED_WORDS,
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

# Names and symbols; multi-character symbols come first so "->" never lexes
# as "-" ">". Whitespace and comments separate them.
_TOKEN = r"[a-z][A-Za-z0-9_]*|->|<-|:-|[|,.():+-]"
_SPACE = r"[ \t\r\n]+|%[^\n]*"
# The longest prefix of a text that lexes: the character after it is bad.
_LEXABLE_RE = re.compile(rf"(?:{_SPACE}|{_TOKEN})*")
_SPACE_RE = re.compile(rf"(?:{_SPACE})*")
# One token and the space after it: from the end of a text's leading space,
# the matches of a text that lexes follow each other with no gap.
_TOKEN_RE = re.compile(rf"({_TOKEN})(?:{_SPACE})*")
_TRAILING_COMMENT_RE = re.compile(r"%[^\n]*\Z")


def _describe(token: str) -> str:
    return f"'{token}'" if token else "end of input"


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


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
    """A parser over the tokens of one text: plain strings, names being the
    ones that start with a lowercase letter, then ``""`` for the end of
    input. Positions are worked out from the text only when an error is
    raised."""

    def __init__(self, text: str):
        end = _LEXABLE_RE.match(text).end()
        if end < len(text):
            raise ParseError(
                f"unexpected character {text[end]!r}", *_line_col(text, end)
            )
        self.text = text
        self.start = _SPACE_RE.match(text).end()
        self.tokens = _TOKEN_RE.findall(text, self.start)
        self.tokens.append("")
        self.pos = 0
        self.items: dict = {}

    def fail(self, message: str, index: int | None = None):
        """Raise at token ``index`` (by default the current one). The end of
        input after a trailing comment sits at its ``%``."""
        index = self.pos if index is None else index
        if self.tokens[index]:
            matches = _TOKEN_RE.finditer(self.text, self.start)
            offset = [m.start() for m in matches][index]
        else:
            comment = _TRAILING_COMMENT_RE.search(self.text)
            offset = comment.start() if comment else len(self.text)
        raise ParseError(message, *_line_col(self.text, offset))

    def expect(self, text: str) -> None:
        token = self.tokens[self.pos]
        if token != text:
            self.fail(f"expected '{text}', found {_describe(token)}")
        self.pos += 1

    def at_section_start(self) -> bool:
        """At a name followed by ``:``; the eof token is last and never
        passed, so looking one past any other token is safe."""
        tokens, pos = self.tokens, self.pos
        return tokens[pos + 1] == ":" and tokens[pos][:1].islower()

    def made(self, cls, atom: str, flag: bool):
        """The one ``cls(atom, flag)`` of this parse: a literal, action or
        revision literal is built once however often it occurs."""
        key = (cls, atom, flag)
        item = self.items.get(key)
        if item is None:
            item = self.items[key] = cls(atom, flag)
        return item

    def separated(self, parse_one, sep: str) -> list:
        """One or more items read by ``parse_one``, separated by ``sep``."""
        items = [parse_one()]
        while self.tokens[self.pos] == sep:
            self.pos += 1
            items.append(parse_one())
        return items

    def head(self, parse_one) -> list:
        """A rule head: ``|``-separated items, or ``false`` for none."""
        if self.tokens[self.pos] == "false":
            self.pos += 1
            return []
        return self.separated(parse_one, "|")

    def atom(self) -> str:
        token = self.tokens[self.pos]
        if not token[:1].islower():
            self.fail(f"expected an atom, found {_describe(token)}")
        if token in RESERVED_WORDS:
            self.fail(f"'{token}' is a reserved word, not an atom")
        self.pos += 1
        return token

    # -- sections ------------------------------------------------------

    def instance(self) -> Instance:
        universe: Universe | None = None
        db: frozenset[str] | None = None
        kind: str | None = None
        program: tuple = ()
        while name := self.tokens[self.pos]:
            if not self.at_section_start():
                self.fail(f"expected a section header, found {_describe(name)}")
            header = self.pos
            self.pos += 2
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
            self.fail("missing program section (one of aic:, rev:, lp:)")
        if db is None:
            self.fail("missing db section")
        if universe is not None:
            universe.require(db, context="db section")
            known = frozenset(universe.atoms)
            for rule in program:
                if not rule.atoms() <= known:
                    universe.require(rule.atoms(), context=f"rule '{rule}'")
        return Instance(kind, db, program, universe)

    def atom_list(self) -> list[str]:
        """A comma-separated atom list ending in '.'; possibly empty."""
        atoms: list[str] = []
        if self.tokens[self.pos] == ".":
            self.pos += 1
            return atoms
        while True:
            index = self.pos
            name = self.atom()
            if name in atoms:
                self.fail(f"duplicate atom '{name}'", index)
            atoms.append(name)
            if self.tokens[self.pos] == ",":
                self.pos += 1
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
        while self.tokens[self.pos] and not self.at_section_start():
            rules.append(parse_rule())
        return tuple(rules)

    # -- constraint rules ----------------------------------------------

    def aic_rule(self) -> AicRule:
        at_arrow = self.tokens[self.pos] == "->"
        body = [] if at_arrow else self.separated(self.literal, ",")
        self.expect("->")
        head = self.head(self.action)
        self.expect(".")
        return AicRule(frozenset(body), frozenset(head))

    def literal(self) -> Literal:
        positive = self.tokens[self.pos] != "not"
        if not positive:
            self.pos += 1
        return self.made(Literal, self.atom(), positive)

    def action(self) -> UpdateAction:
        token = self.tokens[self.pos]
        if token != "+" and token != "-":
            self.fail(f"expected '+atom' or '-atom', found {_describe(token)}")
        self.pos += 1
        return self.made(UpdateAction, self.atom(), token == "+")

    # -- revision rules ------------------------------------------------

    def rev_rule(self) -> RevRule:
        head = self.head(self.rev_literal)
        self.expect("<-")
        at_dot = self.tokens[self.pos] == "."
        body = [] if at_dot else self.separated(self.rev_literal, ",")
        self.expect(".")
        return RevRule(frozenset(head), frozenset(body))

    def rev_literal(self) -> RevLiteral:
        token = self.tokens[self.pos]
        if token != "in" and token != "out":
            self.fail(f"expected 'in(atom)' or 'out(atom)', found {_describe(token)}")
        self.pos += 1
        self.expect("(")
        atom = self.atom()
        self.expect(")")
        return self.made(RevLiteral, atom, token == "in")

    # -- disjunctive rules ---------------------------------------------

    def lp_rule(self) -> LpRule:
        head = self.head(self.atom)
        body: list[Literal] = []
        if self.tokens[self.pos] == ":-":
            self.pos += 1
            if self.tokens[self.pos] != ".":
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
    return _Parser(text).instance()


def parse_program(text: str, kind: str) -> tuple:
    """Parse a bare rule list of the given kind ("aic", "rev" or "lp")."""
    parser = _Parser(text)
    rules = parser.rules(kind)
    token = parser.tokens[parser.pos]
    if token:
        parser.fail(f"unexpected {_describe(token)} after the last rule")
    return rules


def _parse_comma_list(text: str, parse_one) -> frozenset:
    parser = _Parser(text)
    at_end = not parser.tokens[0]
    items = [] if at_end else parser.separated(lambda: parse_one(parser), ",")
    token = parser.tokens[parser.pos]
    if token:
        parser.fail(f"unexpected {_describe(token)}")
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
