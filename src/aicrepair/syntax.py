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
_WHITESPACE = " \t\r\n"
# Split at tokens and comments: gaps, then a token (or None for a
# comment) and the next gap in turn. A text lexes when every gap is
# whitespace.
_SPLIT_RE = re.compile(rf"({_TOKEN})|%[^\n]*")
# The longest prefix of a text that lexes: the character after it is bad.
_LEXABLE_RE = re.compile(rf"(?:{_SPACE}|{_TOKEN})*")
_TRAILING_COMMENT_RE = re.compile(r"%[^\n]*\Z")
# Builds a literal, action or revision literal from its checked fields.
_new = tuple.__new__
# How an item of each class, an atom with a flag, is written: the leading
# tokens and the flag each gives, the flag of an item with no leading token
# (None: it needs one), what a bad item was expected to be, and whether the
# atom sits in parentheses. A bare atom (class str) is the name itself.
_FORMS = {
    Literal: ({"not": False}, True, None, False),
    UpdateAction: ({"+": True, "-": False}, None, "'+atom' or '-atom'", False),
    RevLiteral: ({"in": True, "out": False}, None, "'in(atom)' or 'out(atom)'", True),
    str: ({}, True, None, False),
}


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
    raised.

    Rules and the ``--set``, ``--query`` and ``--by`` lists are read by one
    reader, :meth:`items`: literals, update actions, revision literals and
    bare atoms, in the form the table :data:`_FORMS` gives their class. It
    reads the items separated by ``sep`` from token ``pos`` on, in one
    loop, and returns them with the position after them. :attr:`names`
    holds every name read as an atom, so :meth:`check` tests a name once."""

    def __init__(self, text: str):
        parts = _SPLIT_RE.split(text)
        if "".join(parts[::2]).strip(_WHITESPACE):
            end = _LEXABLE_RE.match(text).end()
            raise ParseError(
                f"unexpected character {text[end]!r}", *_line_col(text, end)
            )
        self.text = text
        self.tokens = list(filter(None, parts[1::2]))
        self.tokens.append("")
        self.pos = 0
        self.names: set[str] = set()

    def fail(self, message: str, index: int | None = None):
        """Raise at token ``index`` (by default the current one). The end of
        input after a trailing comment sits at its ``%``."""
        index = self.pos if index is None else index
        if self.tokens[index]:
            matches = _SPLIT_RE.finditer(self.text)
            offset = [m.start() for m in matches if m[1]][index]
        else:
            comment = _TRAILING_COMMENT_RE.search(self.text)
            offset = comment.start() if comment else len(self.text)
        raise ParseError(message, *_line_col(self.text, offset))

    def expected(self, pos: int, what: str):
        """Raise: token ``pos`` is not ``what``."""
        self.fail(f"expected {what}, found {_describe(self.tokens[pos])}", pos)

    def end(self, pos: int, text: str) -> int:
        """The position after token ``pos``, which must be ``text``."""
        if self.tokens[pos] != text:
            self.expected(pos, f"'{text}'")
        return pos + 1

    def at_section_start(self) -> bool:
        """At a name followed by ``:``; the eof token is last and never
        passed, so looking one past any other token is safe."""
        tokens, pos = self.tokens, self.pos
        return tokens[pos + 1] == ":" and tokens[pos][:1].islower()

    def check(self, pos: int) -> None:
        """Check that token ``pos``, new to this parse, is an atom, and add
        it to :attr:`names`."""
        token = self.tokens[pos]
        if not token[:1].islower():
            self.expected(pos, "an atom")
        if token in RESERVED_WORDS:
            self.fail(f"'{token}' is a reserved word, not an atom", pos)
        self.names.add(token)

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
            # The names read are the universe's, the db's (checked just
            # above) and the rules'.
            if not universe.covers(self.names):
                for rule in program:
                    universe.require(rule.atoms(), context=f"rule '{rule}'")
        return Instance(kind, db, program, universe)

    def atom_list(self) -> list[str]:
        """A comma-separated atom list ending in '.'; possibly empty. A set
        beside the list finds a name that repeats."""
        tokens, pos, names = self.tokens, self.pos, self.names
        atoms: list[str] = []
        seen: set[str] = set()
        more = tokens[pos] != "."
        while more:
            name = tokens[pos]
            if name in seen:
                self.fail(f"duplicate atom '{name}'", pos)
            if name not in names:
                self.check(pos)
            seen.add(name)
            atoms.append(name)
            pos += 1
            more = tokens[pos] == ","
            pos += more
        self.pos = self.end(pos, ".")
        return atoms

    def rules(self, kind: str) -> tuple:
        parse_rule = {"aic": self.aic_rule, "rev": self.rev_rule, "lp": self.lp_rule}[kind]
        rules = []
        while self.tokens[self.pos] and not self.at_section_start():
            rules.append(parse_rule())
        return tuple(rules)

    def aic_rule(self) -> AicRule:
        """``body -> head.``"""
        tokens, pos = self.tokens, self.pos
        body, pos = ([], pos) if tokens[pos] == "->" else self.items(pos, ",", Literal)
        pos = self.end(pos, "->")
        if tokens[pos] == "false":
            head, pos = [], pos + 1
        else:
            head, pos = self.items(pos, "|", UpdateAction)
        self.pos = self.end(pos, ".")
        return AicRule(frozenset(body), frozenset(head))

    def rev_rule(self) -> RevRule:
        """``head <- body.``"""
        tokens, pos = self.tokens, self.pos
        if tokens[pos] == "false":
            head, pos = [], pos + 1
        else:
            head, pos = self.items(pos, "|", RevLiteral)
        pos = self.end(pos, "<-")
        body, pos = ([], pos) if tokens[pos] == "." else self.items(pos, ",", RevLiteral)
        self.pos = self.end(pos, ".")
        return RevRule(frozenset(head), frozenset(body))

    def lp_rule(self) -> LpRule:
        """``head :- body.``, the body read as literals and split by flag."""
        tokens, pos = self.tokens, self.pos
        if tokens[pos] == "false":
            head, pos = [], pos + 1
        else:
            head, pos = self.items(pos, "|", str)
        body = []
        if tokens[pos] == ":-":
            pos += 1
            if tokens[pos] != ".":
                body, pos = self.items(pos, ",", Literal)
        if not (head or body):
            self.fail("a rule needs a head or a body", pos)
        self.pos = self.end(pos, ".")
        pos_body = [l[0] for l in body if l[1]]
        return LpRule(head, pos_body, [l[0] for l in body if not l[1]])

    # -- items ---------------------------------------------------------

    def items(self, pos: int, sep: str, cls) -> tuple[list, int]:
        """The items of class ``cls`` from token ``pos`` on, separated by
        ``sep``, read in the form :data:`_FORMS` gives that class, and the
        position after them."""
        leads, bare, what, parens = _FORMS[cls]
        tokens, names = self.tokens, self.names
        items = []
        while True:
            flag = leads.get(tokens[pos])
            if flag is not None:
                pos += 1
            elif bare is None:
                self.expected(pos, what)
            else:
                flag = bare
            if parens:
                pos = self.end(pos, "(")
            name = tokens[pos]
            if name not in names:
                self.check(pos)
            pos += 1
            if parens:
                pos = self.end(pos, ")")
            items.append(name if cls is str else _new(cls, (name, flag)))
            if tokens[pos] != sep:
                return items, pos
            pos += 1


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


def _parse_comma_list(text: str, cls) -> frozenset:
    """A comma-separated list of items of class ``cls`` (:data:`_FORMS`)."""
    parser = _Parser(text)
    tokens = parser.tokens
    items, pos = parser.items(0, ",", cls) if tokens[0] else ([], 0)
    if tokens[pos]:
        parser.fail(f"unexpected {_describe(tokens[pos])}", pos)
    return frozenset(items)


def parse_actions(text: str) -> frozenset[UpdateAction]:
    """Parse a comma-separated list of update actions, e.g. ``+a, -b``."""
    return _parse_comma_list(text, UpdateAction)


def parse_rev_literals(text: str) -> frozenset[RevLiteral]:
    """Parse a comma-separated list like ``in(a), out(b)``."""
    return _parse_comma_list(text, RevLiteral)


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated list of literals, e.g. ``a, not b``."""
    return _parse_comma_list(text, Literal)


def parse_atoms(text: str) -> frozenset[str]:
    """Parse a comma-separated list of atoms."""
    return _parse_comma_list(text, str)


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
