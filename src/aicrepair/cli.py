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
import json
import sys

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

_AIC_BASE_CLASSES = (
    RepairClass.WEAK_REPAIR,
    RepairClass.REPAIR,
    RepairClass.FOUNDED_WEAK_REPAIR,
    RepairClass.FOUNDED_REPAIR,
    RepairClass.JUSTIFIED_WEAK_REPAIR,
    RepairClass.JUSTIFIED_REPAIR,
)

_REV_BASE_CLASSES = (
    RevisionClass.WEAK_REVISION,
    RevisionClass.REVISION,
    RevisionClass.FOUNDED_WEAK_REVISION,
    RevisionClass.FOUNDED_REVISION,
    RevisionClass.JUSTIFIED_WEAK_REVISION,
    RevisionClass.JUSTIFIED_REVISION,
)


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


def _limits(args) -> Limits:
    return Limits(max_atoms=args.max_atoms)


def _class_for(kind: str, name: str):
    enum_cls = {"aic": RepairClass, "rev": RevisionClass}[kind]
    try:
        return enum_cls(name)
    except ValueError:
        raise InputError(
            f"class '{name}' does not apply to a {kind}: program"
        ) from None


def _set_rows(sets) -> list[list[str]]:
    return [[str(x) for x in ordered(s)] for s in sets]


def _emit_sets(args, sets, **extra) -> None:
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, **extra, "sets": _set_rows(sets)}
        print(json.dumps(payload))
    else:
        for s in sets:
            print(format_set(s))


def cmd_repair(args) -> int:
    instance = _expect_kind(_load(args.file), "aic", "repair")
    repair_class = RepairClass(args.cls)
    report = repairs.enumerate_repairs(
        instance.db,
        instance.program,
        repair_class,
        universe=instance.universe(),
        limits=_limits(args),
    )
    _emit_sets(args, report.sets, **{"class": repair_class.value})
    return 0


def cmd_revise(args) -> int:
    instance = _expect_kind(_load(args.file), "rev", "revise")
    revision_class = RevisionClass(args.cls)
    report = revisions.enumerate_revisions(
        instance.db,
        instance.program,
        revision_class,
        universe=instance.universe(),
        limits=_limits(args),
    )
    _emit_sets(args, report.sets, **{"class": revision_class.value})
    return 0


def cmd_check(args) -> int:
    instance = _load(args.file)
    if instance.kind == "lp":
        raise InputError("'check' needs an aic: or rev: program, found lp:")
    cls = _class_for(instance.kind, args.cls)
    if instance.kind == "aic":
        candidate = parse_actions(args.set)
        member = repairs.check_membership(
            instance.db, instance.program, cls, candidate, instance.declared_universe
        )
    else:
        candidate = parse_rev_literals(args.set)
        member = revisions.check_membership(
            instance.db, instance.program, cls, candidate, instance.declared_universe
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
        out = Instance("aic", instance.db, program, instance.declared_universe)
    else:
        _expect_kind(instance, "aic", "translate --to rev")
        program = transforms.to_rev(instance.program)
        out = Instance("rev", instance.db, program, instance.declared_universe)
    sys.stdout.write(print_instance(out))
    return 0


def cmd_normalize(args) -> int:
    instance = _load(args.file)
    if instance.kind == "aic":
        program = transforms.normalize_aic(instance.program)
    elif instance.kind == "rev":
        program = transforms.normalize_rev(instance.program)
    else:
        raise InputError("'normalize' needs an aic: or rev: program, found lp:")
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
    if instance.kind == "lp":
        raise InputError("'shift' needs an aic: or rev: program, found lp:")
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


def _enumerate(instance: Instance, args, db, program, classes) -> dict:
    """The sets of every requested class, from one engine call."""
    engine = repairs if instance.kind == "aic" else revisions
    reports = engine.enumerate_classes(
        db, program, classes, instance.universe(), _limits(args)
    )
    return {cls: report.sets for cls, report in reports.items()}


def _verify_shift(instance: Instance, witness, args) -> int:
    """Enumerate every class on both sides and compare element-wise."""
    classes = [
        c
        for c in (RepairClass if instance.kind == "aic" else RevisionClass)
        if c is not RevisionClass.SUPPORTED_REVISION or is_normal(instance.program)
    ]
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
    if instance.kind == "lp":
        raise InputError("'cqa' needs an aic: or rev: program, found lp:")
    semantics = _class_for(instance.kind, args.cls)
    literals = parse_literals(args.query)
    verdict = query.cqa(
        instance.db,
        instance.program,
        semantics,
        literals,
        universe=instance.universe(),
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
    normalized-program counterparts, as (description, holds) pairs."""
    wr, r, fwr, fr, jwr, jr = classes

    def eq(a, b):
        return set(a) == set(b)

    def sub(a, b):
        return set(a) <= set(b)

    n = "normalized:"
    return [
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


def cmd_lattice(args) -> int:
    instance = _load(args.file)
    if instance.kind == "aic":
        base_classes = _AIC_BASE_CLASSES
        normalized = transforms.normalize_aic(instance.program)
        norm_names = (
            RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED,
            RepairClass.JUSTIFIED_REPAIR_NORMALIZED,
        )
    elif instance.kind == "rev":
        base_classes = _REV_BASE_CLASSES
        normalized = transforms.normalize_rev(instance.program)
        norm_names = (
            RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED,
            RevisionClass.JUSTIFIED_REVISION_NORMALIZED,
        )
    else:
        raise InputError("'lattice' needs an aic: or rev: program, found lp:")

    supported = RevisionClass.SUPPORTED_REVISION
    with_supported = instance.kind == "rev" and is_normal(instance.program)
    extra = (supported,) if with_supported else ()
    base = _enumerate(
        instance, args, instance.db, instance.program, base_classes + extra
    )
    norm = _enumerate(instance, args, instance.db, normalized, base_classes)

    listing: list[tuple[str, list]] = [(cls.value, base[cls]) for cls in base_classes]
    wr, r, fwr, fr, jwr, jr = base_classes
    listing.append((norm_names[0].value, norm[jwr]))
    listing.append((norm_names[1].value, norm[jr]))
    if with_supported:
        listing.append((supported.value, base[supported]))

    relations = None
    if args.verify:
        relations = _relations(base, norm, base_classes)
        if with_supported:
            relations.append(
                (
                    f"{fwr.value} == {supported.value}",
                    set(base[fwr]) == set(base[supported]),
                )
            )

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
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=None,
        metavar="N",
        help="override the exhaustive-enumeration bound on universe size",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aicrepair",
        description="Repair databases under active integrity constraints "
        "and revision programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repair", help="enumerate repairs of an aic instance")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for c in RepairClass],
        help="repair class",
    )
    _add_common(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("revise", help="enumerate revisions of a rev instance")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for c in RevisionClass],
        help="revision class",
    )
    _add_common(p)
    p.set_defaults(func=cmd_revise)

    p = sub.add_parser("check", help="test one set for membership in a class")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for c in RepairClass] + [c.value for c in RevisionClass],
        help="repair or revision class, matching the instance kind",
    )
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
    _add_common(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("answer-sets", help="answer sets of an lp instance")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_answer_sets)

    p = sub.add_parser("cqa", help="consistent query answering")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=[c.value for c in RepairClass] + [c.value for c in RevisionClass],
        help="repair or revision class, matching the instance kind",
    )
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
