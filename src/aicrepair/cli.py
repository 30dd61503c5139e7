"""Command line front end.

Subcommands wrap the library one to one: ``repair`` and ``revise``
enumerate, ``check`` tests membership of a given set, ``translate``,
``normalize``, ``properize`` and ``shift`` print transformed instances in
canonical form, ``answer-sets`` runs the disjunctive-program semantics,
``cqa`` answers conjunctive queries over a repair class, and ``lattice``
enumerates every class at once and can verify the containment relations
between them on the given instance.

Each subcommand is declared once, as a row of ``_COMMANDS``: its help,
its handler, its kinds of program and its options with all their
``add_argument`` keywords (a ``--class`` lists its kinds' classes as its
choices). :func:`main` is the one front door; it drops one leading
``--``. A command line in the plain forms (one file, declared flags
spelled in full, as ``--flag value`` or ``--flag=value`` with a value
other than ``--``, an empty one included, and bare switches) is read by
:func:`_read_plain` from those rows as declared, into the namespace
argparse would give; such a request neither imports argparse nor builds
its parser. Any other command line, help and argument errors included,
is read by one argparse ``parse_args`` call (:func:`_parse`), whose text
is written from the same rows, the same on every Python and terminal.
:func:`main` then reads the instance file in one binary read and parses
it, checks its kind against the ``kinds`` the subcommand declares
(``translate`` takes the kind opposite to ``--to``), resolves
``--class`` against that kind's classes and checks the atom bound
(``--max-atoms``, else ``AICREPAIR_MAX_ATOMS``) of a subcommand that
takes one, in that order, before ``--set``, ``--query`` or ``--by`` is
read. A malformed bound is an error even where the engine would never
consult it. Each handler gets the parsed arguments (the bound as
``args.limits``), the instance and its ``_KINDS`` row.

Exit codes: 0 on success, 1 when the computation is refused (for example
the universe exceeds the exhaustive bound), 2 on malformed input. A
refused or malformed request prints nothing on stdout: ``shift --verify``
verifies before it prints the shifted instance.
Diagnostics go to stderr; ``--format json`` wraps results in a versioned
object (``"schema": 1``). Listings, text or JSON, answer sets included,
are written from the blocks of a report, never from its full member
list, a slice of sets per write (:func:`_write_sets`); ``cqa`` counts
per block.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import math
import sys
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import asp, query, repairs, revisions, transforms
from .errors import InputError, Refusal
from .model import BYTE_POSITIONS, Limits, _join, _product, is_normal
from .repairs import RepairClass
from .revisions import RevisionClass
from .syntax import (
    Instance,
    # Unused here: the benchmark's tracer (perfbench/tracing.py) times the
    # calls made through this name, so it stays importable.
    format_set,
    parse_actions,
    parse_atoms,
    parse_instance,
    parse_literals,
    parse_rev_literals,
    print_instance,
)

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1
_SLICE = 4096  # sets per write of a listing
_HOLE = "\0"  # a listing's place in the JSON text that _print_json writes


class _Kind(NamedTuple):
    engine: ModuleType
    classes: type[enum.Enum]
    parse_set: Callable[[str], frozenset]
    normalize: Callable


#: Everything a subcommand needs to know about the kind of a program. The
#: normalizers are looked up in ``transforms`` at call time, so a wrapper
#: installed there sees the call.
_KINDS = {
    "aic": _Kind(
        repairs, RepairClass, parse_actions, lambda p: transforms.normalize_aic(p)
    ),
    "rev": _Kind(
        revisions,
        RevisionClass,
        parse_rev_literals,
        lambda p: transforms.normalize_rev(p),
    ),
}


def _load(path: str) -> Instance:
    """Parse the file at ``path``, read in one unbuffered binary read and
    decoded as UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as ``\\n`` as
    text mode reads them."""
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.readall().decode()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        byte, offset = exc.object[exc.start], exc.start
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte 0x{byte:02x} at offset {offset})"
        ) from exc
    return parse_instance(text.replace("\r\n", "\n").replace("\r", "\n"))


def _classes(instance: Instance) -> list:
    """Every class that applies to the instance, in enum order: supported
    revisions are defined only for normal programs."""
    return [
        c
        for c in _KINDS[instance.kind].classes
        if c is not RevisionClass.SUPPORTED_REVISION or is_normal(instance.program)
    ]


def _texts(names: list[str], masks) -> list[str]:
    """The names at the bits of each mask, in canonical order, joined by
    ``", "``. Per part of 8 positions, the text of each byte of set bits
    that occurs is built once, without and with a trailing ``", "``; a
    text joins the parts from the top one down, the separator coming in
    once a part above holds a name."""
    top = len(names) - 1 & ~7
    texts = [""] * len(masks)
    for k in range(top, -1, -8):
        part = [x >> k & 255 for x in masks]
        plain = {
            b: ", ".join([names[k + i] for i in BYTE_POSITIONS[b]]) for b in set(part)
        }
        if k == top:
            texts = [plain[b] for b in part]
        else:
            rest = {b: t and t + ", " for b, t in plain.items()}
            texts = [(rest if t else plain)[b] + t for b, t in zip(part, texts)]
    return texts


class _Listing:
    """The rows of one listing, written ``_SLICE`` rows per write, the last
    write excepted: each row between ``head`` and ``tail``, ``between``
    between rows. ``append`` takes the text of one row. ``+=`` takes
    prefixes, each the text of a member of the lower blocks, and writes
    its run: a row of the prefix joined to each text of ``top``, built
    with one ``str.join`` per write it falls into."""

    def __init__(self, head: str, tail: str, between: str, top: list[str]):
        self.head, self.tail, self.between, self.top = head, tail, between, top
        self.joiner = tail + between + head
        self.lead = head
        self.parts: list[str] = []
        self.room = _SLICE

    def put(self, texts, prefix: str = "") -> None:
        """The rows of ``prefix`` followed by each of ``texts``."""
        glue = self.joiner + prefix
        i = 0
        while i < len(texts):
            part = texts[i:i + self.room] if i or len(texts) > self.room else texts
            self.parts.append(prefix + glue.join(part))
            self.room -= len(part)
            i += len(part)
            if not self.room:
                self.flush()

    def append(self, text: str) -> None:
        self.put((text,))

    def __iadd__(self, prefixes):
        for text in prefixes:
            self.put(self.top, text and text + ", ")
        return self

    def flush(self) -> None:
        if self.parts:
            sys.stdout.write(self.lead + self.joiner.join(self.parts) + self.tail)
            self.lead = self.between + self.head
            self.parts, self.room = [], _SLICE


def _write_sets(
    actions: tuple, blocks, head: str, tail: str, quote=str, between=""
) -> None:
    """Write the set of ``actions`` at each mask of the product of
    ``blocks`` (:func:`model._product`), in canonical order, as ``head``,
    its names (through ``quote``) in canonical order joined by ``", "``,
    and ``tail``, with ``between`` between sets, ``_SLICE`` sets per write
    (:class:`_Listing`). The top, held as text with each block's masks
    labelled by :func:`_texts`, takes the blocks from the last down, never
    the lowest, while its product fits in one slice or that of the blocks
    below it is larger. The masks of the lower blocks' product are labelled
    a slice at a time and joined to that text by :func:`model._join`: a
    member's own row comes first when the top holds the empty set, and its
    run once the members that extend it are written. With no top (one
    block), the rows are the lower members themselves, a slice at a time."""
    blocks = [block for block in blocks if block != (0,)]  # {∅} changes no product
    label = functools.partial(_texts, [quote(str(a)) for a in actions])
    j, size = len(blocks), 1
    while j > 1 and (
        size * len(blocks[j - 1]) <= _SLICE or math.prod(map(len, blocks[:j])) > size
    ):
        j -= 1
        size *= len(blocks[j])
    low = _product(blocks[:j])
    chunks = (label(low[s:s + _SLICE]) for s in range(0, len(low), _SLICE))
    if j == len(blocks):
        listing = _Listing(head, tail, between, [])
        for texts in chunks:
            listing.put(texts)
    else:
        top = _product(blocks[j:], label)
        own = bool(top) and not top[0]
        listing = _Listing(head, tail, between, top[1:] if own else top)
        texts = itertools.chain.from_iterable(chunks)
        _join(low, texts, lambda a, text: (own, (text,)), listing)
    listing.flush()


def _print_json(**fields) -> None:
    """Write one JSON object as ``json.dumps`` would: the schema version,
    then ``fields`` in order. A listing (a partial :func:`_write_sets` over
    its actions and blocks) is written in slices where its value goes."""
    listings: list = []
    text = json.dumps(
        {"schema": SCHEMA_VERSION, **fields},
        default=lambda listing: listings.append(listing) or _HOLE,
    )
    *pieces, last = text.split(json.dumps(_HOLE))
    for piece, listing in zip(pieces, listings, strict=True):
        sys.stdout.write(piece + "[")
        listing("[", "]", json.dumps, ", ")
        sys.stdout.write("]")
    sys.stdout.write(last + "\n")


def _print_instance(instance: Instance, **changes) -> None:
    """Print ``instance`` with the given fields replaced, in canonical form."""
    sys.stdout.write(print_instance(dataclasses.replace(instance, **changes)))


def _enumerate(kind: _Kind, args, universe, db, program, classes) -> tuple:
    """The actions searched and the report of every requested class, from
    one engine call over ``universe``."""
    reports = kind.engine.enumerate_classes(db, program, classes, universe, args.limits)
    return reports[classes[0]].actions, reports


def cmd_enumerate(args, instance: Instance, kind: _Kind) -> int:
    """``repair`` and ``revise``: every member of one class."""
    cls = args.cls
    actions, reports = _enumerate(
        kind, args, instance.universe(), instance.db, instance.program, [cls]
    )
    if args.format == "json":
        sets = functools.partial(_write_sets, actions, reports[cls].blocks)
        _print_json(**{"class": cls.value}, sets=sets)
    else:
        _write_sets(actions, reports[cls].blocks, "{", "}\n")
    return 0


def cmd_check(args, instance: Instance, kind: _Kind) -> int:
    member = kind.engine.check_membership(
        instance.db,
        instance.program,
        args.cls,
        kind.parse_set(args.set),
        instance.universe(),
        args.limits,
    )
    if args.format == "json":
        _print_json(member=member)
    else:
        print("true" if member else "false")
    return 0


def cmd_translate(args, instance: Instance, kind: _Kind) -> int:
    if args.to == "aic":
        program = transforms.to_aic(transforms.properize(instance.program))
    else:
        program = transforms.to_rev(instance.program)
    _print_instance(instance, kind=args.to, program=program)
    return 0


def cmd_normalize(args, instance: Instance, kind: _Kind) -> int:
    _print_instance(instance, program=kind.normalize(instance.program))
    return 0


def cmd_properize(args, instance: Instance, kind: _Kind) -> int:
    _print_instance(instance, program=transforms.properize(instance.program))
    return 0


def cmd_shift(args, instance: Instance, kind: _Kind) -> int:
    by, universe = parse_atoms(args.by), instance.universe()
    witness = transforms.shift_instance(
        instance.db, instance.program, by, universe=universe
    )
    checked = args.verify and _verify_shift(instance, kind, universe, witness, args)
    _print_instance(instance, db=witness.shifted_db, program=witness.shifted_program)
    if checked:
        print(f"shift-verify: ok ({checked} classes)", file=sys.stderr)
    return 0


def _verify_shift(instance: Instance, kind: _Kind, universe, witness, args) -> int:
    """Enumerate every class on both sides over one universe, whose
    essential actions both sides search. Shifting keeps every body's atoms
    and flips, at a shifted atom, its literals and the database alike, so
    each rule compiles to the same bits and both sides split at the same
    ranges: the classes match exactly when their blocks do. But no
    transported set holds a bit of ``moved``, whose shifted action is not
    the transported one; a class with a member must have it in no mask."""
    classes = _classes(instance)
    actions, original = _enumerate(
        kind, args, universe, instance.db, instance.program, classes
    )
    shifted_actions, shifted = _enumerate(
        kind, args, universe, witness.shifted_db, witness.shifted_program, classes
    )
    pairs = zip(witness.transport(actions), shifted_actions)
    moved = sum(1 << i for i, (a, b) in enumerate(pairs) if a != b)
    for cls, rep in original.items():
        masks = itertools.chain.from_iterable(rep.blocks)
        if rep.blocks != shifted[cls].blocks or rep.size and any(x & moved for x in masks):
            raise Refusal(f"shift verification failed for {cls.value}")
    return len(classes)


def cmd_answer_sets(args, instance: Instance, kind: None) -> int:
    report = asp.enumerate_answer_sets(instance.program, instance.universe(), args.limits)
    atoms = tuple(a.atom for a in report.actions)  # every action is an insertion
    sets = functools.partial(_write_sets, atoms, report.blocks)
    if args.format == "json":
        _print_json(sets=sets)
    else:
        sets("{", "}\n")
    return 0


def cmd_cqa(args, instance: Instance, kind: _Kind) -> int:
    literals = parse_literals(args.query)
    verdict = query.cqa(
        instance.db,
        instance.program,
        args.cls,
        literals,
        universe=instance.universe(),
        limits=args.limits,
    )
    if args.format == "json":
        _print_json(
            status=verdict.status.value, holding=verdict.holding, total=verdict.total
        )
    else:
        print(verdict.status.value)
    return 0


def _relations(base: dict, norm: dict, classes) -> list[tuple[str, bool]]:
    """The containment lattice between the six classes and their
    normalized-program counterparts, and supported against founded weak
    revisions when those were enumerated, as (description, holds) pairs.
    ``base`` holds the report of every class of the program, the two
    normalized justified ones included; ``norm`` holds those of the first
    four classes of the enumerated normalized program. Both requests hold
    a weak class, so both search every essential action, and the program
    and its normalization have the same bodies, so every report is a
    product over the same ranges (:class:`repairs.Report`): ``==``
    compares blocks, and ``A <= B`` holds when ``A`` has no member or each
    block of ``A`` is inside the block of ``B`` over its range."""
    wr, r, fwr, fr, jwr, jr, njwr, njr = classes[:8]

    def within(a: repairs.Report, c) -> bool:
        pairs = zip(a.blocks, base[c].blocks)
        return not a.size or all(set(x) <= set(y) for x, y in pairs)

    n = "normalized:"
    relations = [
        (f"{n}{jr.value} == {n}{jwr.value}", base[njr].blocks == base[njwr].blocks),
        (f"{n}{jr.value} <= {jr.value}", within(base[njr], jr)),
        (f"{jr.value} <= {fr.value}", within(base[jr], fr)),
        (f"{fr.value} <= {r.value}", within(base[fr], r)),
        (f"{r.value} == {n}{r.value}", base[r].blocks == norm[r].blocks),
        (f"{n}{fr.value} == {fr.value}", norm[fr].blocks == base[fr].blocks),
        (f"{jr.value} <= {jwr.value}", within(base[jr], jwr)),
        (f"{fr.value} <= {fwr.value}", within(base[fr], fwr)),
        (f"{r.value} <= {wr.value}", within(base[r], wr)),
        (f"{n}{jwr.value} <= {jwr.value}", within(base[njwr], jwr)),
        (f"{jwr.value} <= {fwr.value}", within(base[jwr], fwr)),
        (f"{fwr.value} <= {wr.value}", within(base[fwr], wr)),
        (f"{wr.value} == {n}{wr.value}", base[wr].blocks == norm[wr].blocks),
        (f"{n}{fwr.value} == {fwr.value}", norm[fwr].blocks == base[fwr].blocks),
    ]
    supported = RevisionClass.SUPPORTED_REVISION
    if supported in base:
        holds = base[fwr].blocks == base[supported].blocks
        relations.append((f"{fwr.value} == {supported.value}", holds))
    return relations


def cmd_lattice(args, instance: Instance, kind: _Kind) -> int:
    classes, universe = _classes(instance), instance.universe()
    actions, reports = _enumerate(
        kind, args, universe, instance.db, instance.program, classes
    )
    relations = None
    if args.verify:
        normalized = kind.normalize(instance.program)
        _, norm = _enumerate(kind, args, universe, instance.db, normalized, classes[:4])
        relations = _relations(reports, norm, classes)
    violated = [text for text, holds in relations or () if not holds]

    if args.format == "json":
        sets = {
            c.value: functools.partial(_write_sets, actions, reports[c].blocks)
            for c in classes
        }
        fields: dict = {"classes": sets}
        if relations is not None:
            fields["relations"] = [
                {"relation": text, "holds": holds} for text, holds in relations
            ]
        _print_json(**fields)
    else:
        for c in classes:
            sys.stdout.write(f"{c.value}:")
            _write_sets(actions, reports[c].blocks, " {", "}")
            sys.stdout.write("\n")
        if relations is not None:
            for text in violated:
                print(f"lattice: violated {text}")
            if not violated:
                print(f"lattice: ok ({len(relations)} relations)")
    return 1 if violated else 0


def _option(flag: str, help: str | None = None, **settings) -> tuple:
    """An option of a subcommand: its flag and all its ``add_argument``
    keywords, ``dest`` included."""
    return flag, {"help": help, "dest": flag[2:].replace("-", "_"), **settings}


def _class(help: str, *kinds: str) -> tuple:
    """The ``--class`` option, whose choices are the classes of ``kinds``."""
    choices = [c.value for k in kinds for c in _KINDS[k].classes]
    return _option("--class", help, dest="cls", required=True, choices=choices)


_BOTH = ("aic", "rev")
_EITHER = _class("repair or revision class, matching the instance kind", *_BOTH)
_FORMAT = _option("--format", "output format", choices=("text", "json"), default="text")
_MAX_ATOMS = _option("--max-atoms", type=int, metavar="N",
                     help="override the exhaustive-enumeration bound on universe size")

#: Every subcommand, in the order ``--help`` lists them: its help, its
#: handler, the kinds of program it takes, then its options after ``file``
#: as (flag, ``add_argument`` keywords). Both readers, :func:`_read_plain`
#: and :func:`build_parser`'s argparse, read these rows as they stand.
_COMMANDS = {
    "repair": ("enumerate repairs of an aic instance", cmd_enumerate, ("aic",),
               _class("repair class", "aic"), _FORMAT, _MAX_ATOMS),
    "revise": ("enumerate revisions of a rev instance", cmd_enumerate, ("rev",),
               _class("revision class", "rev"), _FORMAT, _MAX_ATOMS),
    "check": ("test one set for membership in a class", cmd_check, _BOTH, _EITHER,
              _option("--set", "candidate set, e.g. '+a,-b' or 'in(a),out(b)'",
                      required=True),
              _FORMAT, _MAX_ATOMS),
    "translate": ("translate between aic and rev", cmd_translate, _BOTH,
                  _option("--to", required=True, choices=_BOTH)),
    "normalize": ("split disjunctive heads", cmd_normalize, _BOTH),
    "properize": ("drop head literals dual to a body literal", cmd_properize, ("rev",)),
    "shift": ("dualize the atoms of a shifting set", cmd_shift, _BOTH,
              _option("--by", "comma-separated atoms", required=True),
              _option("--verify", "re-enumerate all classes on both sides and compare",
                      action="store_true", default=False),
              _MAX_ATOMS),
    "answer-sets": ("answer sets of an lp instance", cmd_answer_sets, ("lp",),
                    _FORMAT, _MAX_ATOMS),
    "cqa": ("consistent query answering", cmd_cqa, _BOTH, _EITHER,
            _option("--query", "comma-separated literals, e.g. 'a,not b'", required=True),
            _FORMAT, _MAX_ATOMS),
    "lattice": ("enumerate every class and check their containments", cmd_lattice, _BOTH,
                _option("--verify", "check the containment relations between the classes",
                        action="store_true", default=False),
                _FORMAT, _MAX_ATOMS),
}


@functools.cache
def _form(name: str) -> tuple:
    """What :func:`_read_plain` reads the words of subcommand ``name`` by:
    the namespace argparse would start from, ``file`` unset, each option's
    keywords by flag, and the required flags."""
    _, func, kinds, *options = _COMMANDS[name]
    start = {"command": name, "func": func, "kinds": kinds, "file": None}
    start.update({settings["dest"]: settings.get("default") for _, settings in options})
    required = {flag for flag, settings in options if settings.get("required")}
    return start, dict(options), required


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv`` when its words after the
    subcommand's name are in the plain forms, else ``None``: one word that
    does not start with ``-`` (the file), and declared flags spelled in
    full, as ``--flag value`` with a value that does not start with ``-``,
    ``--flag=value`` with a value other than ``--`` (an empty one
    included, which argparse reads as ``''``), or a bare switch. A value
    is converted by the option's ``type`` and must be one of its
    ``choices``, every required option must be given, and a repeated
    option keeps its last value. Anything else (help, an
    abbreviated or unknown flag, a missing or second file, a bad value) is
    left to argparse, which reports it as it always has."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    start, flags, required = _form(argv[0])
    values, given, words = dict(start), set(), iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if values["file"] is not None:
                return None
            values["file"] = word
            continue
        flag, eq, value = word.partition("=")
        option = flags.get(flag)
        if option is None:
            return None
        if option.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    return None
            elif value == "--":
                return None
            try:
                value = option.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in option and value not in option["choices"]:
                return None
        values[option["dest"]] = value
        given.add(flag)
    if values["file"] is None or not given >= required:
        return None
    return SimpleNamespace(**values)


_WIDTH = 78  # argparse's text width on an 80-column terminal


def _usage(prog: str, options: list[str], positionals: list[str]) -> str:
    """What argparse 3.10–3.12 writes after ``usage: `` at 80 columns: one
    line if it fits in ``_WIDTH``, else ``prog`` and the options wrapped at
    ``_WIDTH``, then the positionals wrapped on lines of their own, every
    line after the first indented past ``usage: prog``."""
    text = " ".join([prog, *options, *positionals])
    if len("usage: " + text) <= _WIDTH:
        return text
    indent = " " * len(f"usage: {prog}")
    lines = [f"usage: {prog}"]
    for words in options, positionals:
        for word in words:
            if len(lines[-1]) + 1 + len(word) > _WIDTH and lines[-1] != indent:
                lines.append(indent)
            lines[-1] += " " + word
        lines.append(indent)
    return "\n".join(lines[:-1])[len("usage: "):]


def _option_usage(flag: str, settings: dict) -> list[str]:
    """The words of an option in a usage line: a required option's flag and
    metavar apart, an optional one as one ``[...]`` word."""
    if settings.get("action") == "store_true":
        words = [flag]
    else:
        choices = settings.get("choices")
        metavar = settings.get("metavar") or settings["dest"].upper()
        words = [flag, "{" + ",".join(choices) + "}" if choices else metavar]
    return words if settings.get("required") else ["[" + " ".join(words) + "]"]


def _invalid_choice(value: str, choices) -> str:
    """The "invalid choice" message, its choices quoted as 3.10–3.12 quote them."""
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, and only for a request
    that :func:`_read_plain` leaves to it: building it costs more than
    answering a small request, and parsing leaves it unchanged. Its
    ``commands`` holds each subcommand's parser by name, which reports
    :func:`_parse`'s own argument error. What it prints depends on
    ``_COMMANDS`` alone, not on the Python or the terminal: each usage is
    given (:func:`_usage`), help is formatted at ``_WIDTH``, every parser
    words the "invalid choice" error of whichever word argparse checks
    against a subcommand's or an option's choices, and reads
    ``--flag=--`` as an empty list, as 3.10–3.12 read it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _check_value(self, action, value):
            if action.choices is not None and value not in action.choices:
                raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))

        def _get_values(self, action, arg_strings):
            # 3.13 keeps the "--" of "--flag=--" as the option's value, past
            # type and choices; 3.10-3.12 drop it and read an empty list.
            if action.option_strings and arg_strings == ["--"]:
                return []
            return super()._get_values(action, arg_strings)

    formatter = functools.partial(argparse.HelpFormatter, width=_WIDTH)
    parser = Parser(
        prog="aicrepair",
        usage=_usage("aicrepair", ["[-h]"], ["{" + ",".join(_COMMANDS) + "}", "..."]),
        description="Repair databases under active integrity constraints "
        "and revision programs.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for name, (help, func, kinds, *options) in _COMMANDS.items():
        prog = f"aicrepair {name}"
        words = [word for option in options for word in _option_usage(*option)]
        usage = _usage(prog, ["[-h]", *words], ["file"])
        p = sub.add_parser(name, help=help, prog=prog, usage=usage, formatter_class=formatter)
        p.add_argument("file")
        p.set_defaults(func=func, kinds=kinds)
        for flag, settings in options:
            p.add_argument(flag, **settings)
    return parser


def _parse(argv: list[str]):
    """``argv`` read by argparse, for the requests :func:`_read_plain`
    leaves to it; help and argument errors leave through ``SystemExit``.
    A ``--`` where the subcommand goes (3.13.13 skips it) is rejected
    here, and so is an option read as an empty list (``--flag=--``, which
    the parsers of :func:`build_parser` read so on every Python), each
    worded as argparse 3.10–3.12 word them."""
    parser = build_parser()
    # argparse 3.10–3.12 take a "--" after the words they read as options
    # as the subcommand, unless no word follows it or help comes first.
    lead = [*itertools.takewhile(lambda w: w != "--" and parser._parse_optional(w), argv)]
    rest, helps = argv[len(lead):], {"-h", "--h", "--he", "--hel", "--help"}
    if rest[:1] == ["--"] and rest[1:] and helps.isdisjoint(lead):
        parser.error(f"argument command: {_invalid_choice('--', _COMMANDS)}")
    args = parser.parse_args(argv)
    if [] in vars(args).values():
        # argparse reads "--set=--" as an empty list, past type and choices.
        for flag, settings in _form(args.command)[1].items():
            if getattr(args, settings["dest"]) == []:
                parser.commands[args.command].error(
                    f"argument {flag}: expected one argument"
                )
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    argv = argv[1:] if argv[:1] == ["--"] else argv
    args = _read_plain(argv) or _parse(argv)
    command, kinds = args.command, args.kinds
    if command == "translate":
        command += f" --to {args.to}"
        kinds = [k for k in kinds if k != args.to]
    try:
        instance = _load(args.file)
        found = instance.kind
        if found not in kinds:
            needs = f"a {kinds[0]}:" if len(kinds) == 1 else "an aic: or rev:"
            raise InputError(f"'{command}' needs {needs} program, found {found}:")
        kind = _KINDS.get(found)
        if hasattr(args, "cls"):
            try:
                args.cls = kind.classes(args.cls)
            except ValueError:
                raise InputError(
                    f"class '{args.cls}' does not apply to a {found}: program"
                ) from None
        if hasattr(args, "max_atoms"):
            args.limits = Limits(args.max_atoms)
            args.limits.effective_max_atoms()
        return args.func(args, instance, kind)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
