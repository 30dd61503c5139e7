"""Command line front end.

Subcommands wrap the library one to one: ``repair`` and ``revise``
enumerate, ``check`` tests membership of a given set, ``translate``,
``normalize``, ``properize`` and ``shift`` print transformed instances in
canonical form, ``answer-sets`` runs the disjunctive-program semantics,
``cqa`` answers conjunctive queries over a repair class, and ``lattice``
enumerates every class at once and can verify the containment relations
between them on the given instance.

Exit codes: 0 on success, 1 when the computation is refused (for example
the universe exceeds the exhaustive bound), 2 on malformed input.
Diagnostics go to stderr; ``--format json`` wraps results in a versioned
object (``"schema": 1``).
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys
from types import ModuleType
from typing import Callable, Iterator, NamedTuple

from . import asp, query, repairs, revisions, transforms
from .errors import InputError, Refusal
from .model import Limits, is_normal, positions
from .repairs import RepairClass
from .revisions import RevisionClass
from .syntax import (
    Instance,
    format_db,
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

SCHEMA_VERSION = 1


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
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_instance(text)


def _expect_kind(instance: Instance, kind: str, command: str) -> Instance:
    if instance.kind != kind:
        raise InputError(
            f"'{command}' needs a {kind}: program, found {instance.kind}:"
        )
    return instance


def _kind(instance: Instance, command: str) -> _Kind:
    """The kind table row of an aic: or rev: instance."""
    if instance.kind not in _KINDS:
        raise InputError(
            f"'{command}' needs an aic: or rev: program, found {instance.kind}:"
        )
    return _KINDS[instance.kind]


def _classes(instance: Instance) -> list:
    """Every class that applies to the instance, in enum order: supported
    revisions are defined only for normal programs."""
    return [
        c
        for c in _KINDS[instance.kind].classes
        if c is not RevisionClass.SUPPORTED_REVISION or is_normal(instance.program)
    ]


def _limits(args) -> Limits:
    return Limits(max_atoms=args.max_atoms)


def _class_for(instance: Instance, command: str, name: str):
    """The kind row of the instance and its class called ``name``."""
    kind = _kind(instance, command)
    try:
        return kind, kind.classes(name)
    except ValueError:
        raise InputError(
            f"class '{name}' does not apply to a {instance.kind}: program"
        ) from None


def _rows(actions: tuple, hits) -> Iterator[list[str]]:
    """Each hit as the strings of its actions, in canonical order. One
    string per position is computed once, and the strings of each byte of
    set bits once, when the byte is first met."""
    names = [str(a) for a in actions]
    parts = [({}, k) for k in range(0, len(names), 8)]
    for x in hits:
        row: list[str] = []
        for part, k in parts:
            byte = x >> k & 255
            strings = part.get(byte)
            if strings is None:
                strings = part[byte] = [names[k + i] for i in positions(byte)]
            row += strings
        yield row


def _braced(row: list[str]) -> str:
    return "{" + ", ".join(row) + "}"


def _enumerate(instance: Instance, args, db, program, classes) -> tuple:
    """The actions searched and the hits of every requested class, from
    one engine call."""
    reports = _KINDS[instance.kind].engine.enumerate_classes(
        db, program, classes, instance.universe(), _limits(args)
    )
    actions = reports[classes[0]].actions
    return actions, {cls: report.hits for cls, report in reports.items()}


def cmd_enumerate(args) -> int:
    """``repair`` and ``revise``: every member of one class."""
    instance = _expect_kind(_load(args.file), args.kind, args.command)
    cls = _KINDS[args.kind].classes(args.cls)
    actions, hits = _enumerate(instance, args, instance.db, instance.program, [cls])
    rows = _rows(actions, hits[cls])
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "class": cls.value, "sets": list(rows)}
        print(json.dumps(payload))
    else:
        sys.stdout.write("".join(_braced(row) + "\n" for row in rows))
    return 0


def cmd_check(args) -> int:
    instance = _load(args.file)
    kind, cls = _class_for(instance, "check", args.cls)
    member = kind.engine.check_membership(
        instance.db,
        instance.program,
        cls,
        kind.parse_set(args.set),
        instance.declared_universe,
        _limits(args),
    )
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "member": member}))
    else:
        print("true" if member else "false")
    return 0


def cmd_translate(args) -> int:
    instance = _load(args.file)
    if args.to == "aic":
        _expect_kind(instance, "rev", "translate --to aic")
        program = transforms.to_aic(transforms.properize(instance.program))
    else:
        _expect_kind(instance, "aic", "translate --to rev")
        program = transforms.to_rev(instance.program)
    out = Instance(args.to, instance.db, program, instance.declared_universe)
    sys.stdout.write(print_instance(out))
    return 0


def cmd_normalize(args) -> int:
    instance = _load(args.file)
    program = _kind(instance, "normalize").normalize(instance.program)
    out = Instance(instance.kind, instance.db, program, instance.declared_universe)
    sys.stdout.write(print_instance(out))
    return 0


def cmd_properize(args) -> int:
    instance = _expect_kind(_load(args.file), "rev", "properize")
    out = Instance(
        "rev",
        instance.db,
        transforms.properize(instance.program),
        instance.declared_universe,
    )
    sys.stdout.write(print_instance(out))
    return 0


def cmd_shift(args) -> int:
    instance = _load(args.file)
    _kind(instance, "shift")
    by = parse_atoms(args.by)
    witness = transforms.shift_instance(
        instance.db, instance.program, by, universe=instance.universe()
    )
    out = Instance(
        instance.kind,
        witness.shifted_db,
        witness.shifted_program,
        instance.declared_universe,
    )
    sys.stdout.write(print_instance(out))
    if args.verify:
        checked = _verify_shift(instance, witness, args)
        print(f"shift-verify: ok ({checked} classes)", file=sys.stderr)
    return 0


def _verify_shift(instance: Instance, witness, args) -> int:
    """Enumerate every class on both sides: the transported sets of each
    class must be the shifted side's. Both sides search the essential
    actions of one universe, so a set maps to the same bits on both sides,
    except that no set holding a bit whose shifted action is not the
    transported one (a bit of ``moved``) can be transported onto one."""
    classes = _classes(instance)
    actions, original = _enumerate(
        instance, args, instance.db, instance.program, classes
    )
    shifted_actions, shifted = _enumerate(
        instance, args, witness.shifted_db, witness.shifted_program, classes
    )
    pairs = zip(witness.transport(actions), shifted_actions)
    moved = sum(1 << i for i, (a, b) in enumerate(pairs) if a != b)
    for cls in classes:
        hits = original[cls]
        if set(hits) != set(shifted[cls]) or any(x & moved for x in hits):
            raise Refusal(f"shift verification failed for {cls.value}")
    return len(classes)


def cmd_answer_sets(args) -> int:
    instance = _expect_kind(_load(args.file), "lp", "answer-sets")
    models = asp.answer_sets(
        instance.program, universe=instance.universe(), limits=_limits(args)
    )
    if args.format == "json":
        rows = [sorted(m) for m in models]
        print(json.dumps({"schema": SCHEMA_VERSION, "sets": rows}))
    else:
        for m in models:
            print(format_db(m))
    return 0


def cmd_cqa(args) -> int:
    instance = _load(args.file)
    _, semantics = _class_for(instance, "cqa", args.cls)
    literals = parse_literals(args.query)
    verdict = query.cqa(
        instance.db,
        instance.program,
        semantics,
        literals,
        universe=instance.declared_universe,
        limits=_limits(args),
    )
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "status": verdict.status.value,
            "holding": verdict.holding,
            "total": verdict.total,
        }
        print(json.dumps(payload))
    else:
        print(verdict.status.value)
    return 0


def _relations(base: dict, norm: dict, classes) -> list[tuple[str, bool]]:
    """The containment lattice between the six classes and their
    normalized-program counterparts, and supported against founded weak
    revisions when those were enumerated, as (description, holds) pairs.
    ``base`` holds the hits of every class of the program, the two
    normalized justified ones included; ``norm`` holds those of the first
    four classes of the enumerated normalized program. Both requests hold
    a weak class, so both search every essential action and their hits
    compare directly."""
    wr, r, fwr, fr, jwr, jr, njwr, njr = classes[:8]

    def eq(a, b):
        return set(a) == set(b)

    def sub(a, b):
        return set(a) <= set(b)

    n = "normalized:"
    relations = [
        (f"{n}{jr.value} == {n}{jwr.value}", eq(base[njr], base[njwr])),
        (f"{n}{jr.value} <= {jr.value}", sub(base[njr], base[jr])),
        (f"{jr.value} <= {fr.value}", sub(base[jr], base[fr])),
        (f"{fr.value} <= {r.value}", sub(base[fr], base[r])),
        (f"{r.value} == {n}{r.value}", eq(base[r], norm[r])),
        (f"{n}{fr.value} == {fr.value}", eq(norm[fr], base[fr])),
        (f"{jr.value} <= {jwr.value}", sub(base[jr], base[jwr])),
        (f"{fr.value} <= {fwr.value}", sub(base[fr], base[fwr])),
        (f"{r.value} <= {wr.value}", sub(base[r], base[wr])),
        (f"{n}{jwr.value} <= {jwr.value}", sub(base[njwr], base[jwr])),
        (f"{jwr.value} <= {fwr.value}", sub(base[jwr], base[fwr])),
        (f"{fwr.value} <= {wr.value}", sub(base[fwr], base[wr])),
        (f"{wr.value} == {n}{wr.value}", eq(base[wr], norm[wr])),
        (f"{n}{fwr.value} == {fwr.value}", eq(norm[fwr], base[fwr])),
    ]
    supported = RevisionClass.SUPPORTED_REVISION
    if supported in base:
        relations.append(
            (f"{fwr.value} == {supported.value}", eq(base[fwr], base[supported]))
        )
    return relations


def cmd_lattice(args) -> int:
    instance = _load(args.file)
    kind = _kind(instance, "lattice")
    classes = _classes(instance)
    actions, hits = _enumerate(instance, args, instance.db, instance.program, classes)
    listing = [(c.value, _rows(actions, hits[c])) for c in classes]
    relations = None
    if args.verify:
        normalized = kind.normalize(instance.program)
        _, norm = _enumerate(instance, args, instance.db, normalized, classes[:4])
        relations = _relations(hits, norm, classes)

    if args.format == "json":
        payload: dict = {
            "schema": SCHEMA_VERSION,
            "classes": {name: list(rows) for name, rows in listing},
        }
        if relations is not None:
            payload["relations"] = [
                {"relation": text, "holds": holds} for text, holds in relations
            ]
        print(json.dumps(payload))
    else:
        for name, rows in listing:
            joined = " ".join(map(_braced, rows))
            print(f"{name}: {joined}" if joined else f"{name}:")
        if relations is not None:
            for text, holds in relations:
                if not holds:
                    print(f"lattice: violated {text}")
            if all(holds for _, holds in relations):
                print(f"lattice: ok ({len(relations)} relations)")

    if relations is not None and not all(holds for _, holds in relations):
        return 1
    return 0


def _add_common(parser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    _add_max_atoms(parser)


def _add_max_atoms(parser) -> None:
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=None,
        metavar="N",
        help="override the exhaustive-enumeration bound on universe size",
    )


def _add_class(parser, help: str, *kinds: str) -> None:
    parser.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for kind in kinds for c in _KINDS[kind].classes],
        help=help,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than answering a small request, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="aicrepair",
        description="Repair databases under active integrity constraints "
        "and revision programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    either = "repair or revision class, matching the instance kind"

    p = sub.add_parser("repair", help="enumerate repairs of an aic instance")
    p.add_argument("file")
    _add_class(p, "repair class", "aic")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate, kind="aic")

    p = sub.add_parser("revise", help="enumerate revisions of a rev instance")
    p.add_argument("file")
    _add_class(p, "revision class", "rev")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate, kind="rev")

    p = sub.add_parser("check", help="test one set for membership in a class")
    p.add_argument("file")
    _add_class(p, either, "aic", "rev")
    p.add_argument(
        "--set",
        required=True,
        help="candidate set, e.g. '+a,-b' or 'in(a),out(b)'",
    )
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="translate between aic and rev")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("aic", "rev"))
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("normalize", help="split disjunctive heads")
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser(
        "properize", help="drop head literals dual to a body literal"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_properize)

    p = sub.add_parser("shift", help="dualize the atoms of a shifting set")
    p.add_argument("file")
    p.add_argument("--by", required=True, help="comma-separated atoms")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-enumerate all classes on both sides and compare",
    )
    _add_max_atoms(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("answer-sets", help="answer sets of an lp instance")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_answer_sets)

    p = sub.add_parser("cqa", help="consistent query answering")
    p.add_argument("file")
    _add_class(p, either, "aic", "rev")
    p.add_argument(
        "--query", required=True, help="comma-separated literals, e.g. 'a,not b'"
    )
    _add_common(p)
    p.set_defaults(func=cmd_cqa)

    p = sub.add_parser(
        "lattice", help="enumerate every class and check their containments"
    )
    p.add_argument("file")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the containment relations between the classes",
    )
    _add_common(p)
    p.set_defaults(func=cmd_lattice)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
