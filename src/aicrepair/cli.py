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
import json
import sys
from types import ModuleType
from typing import Callable, NamedTuple

from . import asp, query, repairs, revisions, transforms
from .errors import InputError, Refusal
from .model import Limits, is_normal, ordered
from .repairs import RepairClass
from .revisions import RevisionClass
from .syntax import (
    Instance,
    format_db,
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


def _set_rows(sets) -> list[list[str]]:
    return [[str(x) for x in ordered(s)] for s in sets]


def _enumerate(instance: Instance, args, db, program, classes) -> dict:
    """The sets of every requested class, from one engine call."""
    reports = _KINDS[instance.kind].engine.enumerate_classes(
        db, program, classes, instance.universe(), _limits(args)
    )
    return {cls: report.sets for cls, report in reports.items()}


def cmd_enumerate(args) -> int:
    """``repair`` and ``revise``: every member of one class."""
    instance = _expect_kind(_load(args.file), args.kind, args.command)
    cls = _KINDS[args.kind].classes(args.cls)
    sets = _enumerate(instance, args, instance.db, instance.program, [cls])[cls]
    if args.format == "json":
        rows = _set_rows(sets)
        print(json.dumps({"schema": SCHEMA_VERSION, "class": cls.value, "sets": rows}))
    else:
        for s in sets:
            print(format_set(s))
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
    """Enumerate every class on both sides and compare element-wise."""
    classes = _classes(instance)
    original = _enumerate(instance, args, instance.db, instance.program, classes)
    shifted = _enumerate(
        instance, args, witness.shifted_db, witness.shifted_program, classes
    )
    for cls in classes:
        if set(witness.transport(original[cls])) != set(shifted[cls]):
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
    revisions when those were enumerated, as (description, holds) pairs."""
    wr, r, fwr, fr, jwr, jr = classes[:6]

    def eq(a, b):
        return set(a) == set(b)

    def sub(a, b):
        return set(a) <= set(b)

    n = "normalized:"
    relations = [
        (f"{n}{jr.value} == {n}{jwr.value}", eq(norm[jr], norm[jwr])),
        (f"{n}{jr.value} <= {jr.value}", sub(norm[jr], base[jr])),
        (f"{jr.value} <= {fr.value}", sub(base[jr], base[fr])),
        (f"{fr.value} <= {r.value}", sub(base[fr], base[r])),
        (f"{r.value} == {n}{r.value}", eq(base[r], norm[r])),
        (f"{n}{fr.value} == {fr.value}", eq(norm[fr], base[fr])),
        (f"{jr.value} <= {jwr.value}", sub(base[jr], base[jwr])),
        (f"{fr.value} <= {fwr.value}", sub(base[fr], base[fwr])),
        (f"{r.value} <= {wr.value}", sub(base[r], base[wr])),
        (f"{n}{jwr.value} <= {jwr.value}", sub(norm[jwr], base[jwr])),
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
    plain = [c for c in classes if not c.value.endswith("-normalized")]
    base = _enumerate(instance, args, instance.db, instance.program, plain)
    normalized = kind.normalize(instance.program)
    norm = _enumerate(instance, args, instance.db, normalized, plain)

    listing = []
    for c in classes:
        if c in base:
            sets = base[c]
        else:  # a normalized class: its plain class on the normalized program
            sets = norm[kind.classes(c.value.removesuffix("-normalized"))]
        listing.append((c.value, sets))
    relations = _relations(base, norm, plain) if args.verify else None

    if args.format == "json":
        payload: dict = {
            "schema": SCHEMA_VERSION,
            "classes": {name: _set_rows(sets) for name, sets in listing},
        }
        if relations is not None:
            payload["relations"] = [
                {"relation": text, "holds": holds} for text, holds in relations
            ]
        print(json.dumps(payload))
    else:
        for name, sets in listing:
            joined = " ".join(format_set(s) for s in sets)
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


def build_parser() -> argparse.ArgumentParser:
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
