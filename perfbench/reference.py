"""Expected outputs: brute-force oracle answers for ``oracle-small`` and
recorded digests for the pool workloads.

The oracle answers come from ``tests/oracles.py``; ``translate`` and
``normalize`` outputs are restated here from the paper's definitions. The
pool workloads' digests are written by ``record.py``, which validates every
answer before it records it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import oracles  # tests/oracles.py
from aicrepair.model import AicRule, Literal, RevLiteral, RevRule, UpdateAction

from workloads import Instance, Request, render_instance, render_set, set_key

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

AIC_ORACLES = {
    "weak-repair": oracles.weak_repairs,
    "repair": oracles.repairs,
    "founded-weak-repair": oracles.founded_weak_repairs,
    "founded-repair": oracles.founded_repairs,
    "justified-weak-repair": oracles.justified_weak_repairs,
    "justified-repair": oracles.justified_repairs,
}
REV_ORACLES = {
    "weak-revision": oracles.weak_revisions,
    "revision": oracles.revisions,
    "founded-weak-revision": oracles.founded_weak_revisions,
    "founded-revision": oracles.founded_revisions,
    "justified-weak-revision": oracles.justified_weak_revisions,
    "justified-revision": oracles.justified_revisions,
    "supported-revision": oracles.supported_revisions,
}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def option(argv, name: str) -> str:
    for a in argv:
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return argv[list(argv).index(name) + 1]


def _lines(sets) -> str:
    return "".join(render_set(s) + "\n" for s in sorted(sets, key=set_key))


def cqa_status(db, sets, apply, query) -> str:
    if not sets:
        return "no-repairs"
    holding = sum(
        1 for s in sets
        if all((l.atom in apply(db, s)) == l.positive for l in query)
    )
    if holding == len(sets):
        return "true"
    return "false" if holding == 0 else "unknown"


# -- transformations, restated from the paper ----------------------------


def to_rev(program) -> tuple:
    out = []
    for r in program:
        up = {Literal(a.atom, not a.insert) for a in r.head}
        out.append(RevRule(
            frozenset(RevLiteral(a.atom, a.insert) for a in r.head),
            frozenset(RevLiteral(l.atom, l.positive) for l in r.body - up),
        ))
    return tuple(out)


def to_aic(program) -> tuple:
    out = []
    for r in program:
        head = {a for a in r.head if a.dual() not in r.body}
        body = {Literal(b.atom, b.is_in) for b in r.body}
        body |= {Literal(a.atom, not a.is_in) for a in head}
        out.append(AicRule(
            frozenset(body), frozenset(UpdateAction(a.atom, a.is_in) for a in head)
        ))
    return tuple(out)


def _dual(x, by):
    return x.dual() if x.atom in by else x


def shifted_text(inst: Instance, by: frozenset[str]) -> str:
    rules = []
    for r in inst.program:
        if isinstance(r, AicRule):
            rules.append(AicRule(
                frozenset(_dual(l, by) for l in r.body),
                frozenset(_dual(a, by) for a in r.head),
            ))
        else:
            rules.append(RevRule(
                frozenset(_dual(l, by) for l in r.head),
                frozenset(_dual(l, by) for l in r.body),
            ))
    return render_instance(inst.kind, inst.atoms, inst.db ^ by, rules)


# -- oracle-small --------------------------------------------------------


def oracle_stdout(req: Request) -> str:
    """The exact stdout a correct engine prints for a small request."""
    inst, argv = req.instance, req.argv
    atoms, db, program = inst.atoms, inst.db, inst.program
    command = argv[0]
    if command == "answer-sets":
        models = oracles.answer_sets(program, atoms)
        return "".join(
            "{" + ", ".join(sorted(m)) + "}\n" for m in sorted(models, key=sorted)
        )
    if command == "translate":
        if option(argv, "--to") == "rev":
            return render_instance("rev", atoms, db, to_rev(program))
        return render_instance("aic", atoms, db, to_aic(program))
    if command == "normalize":
        norm = oracles.normalize if inst.kind == "aic" else oracles.normalize_rev
        return render_instance(inst.kind, atoms, db, norm(program))
    cls = option(argv, "--class")
    if inst.kind == "aic":
        sets = AIC_ORACLES[cls](db, program, atoms)
        apply = oracles.apply
    else:
        sets = REV_ORACLES[cls](db, program, atoms)
        apply = oracles.apply_rev
    if command in ("repair", "revise"):
        return _lines(sets)
    if command == "check":
        return ("true" if parse_set(option(argv, "--set")) in sets else "false") + "\n"
    query = parse_query(option(argv, "--query"))
    return cqa_status(db, sets, apply, query) + "\n"


# -- parsing the engine's text output ------------------------------------

_ITEM = re.compile(r"([+-])([a-z]\w*)|(in|out)\(([a-z]\w*)\)")


def parse_set(text: str) -> frozenset:
    """``{+a, -b}``, ``+a,-b`` or ``in(a),out(b)`` as a set of actions or
    revision literals."""
    items = []
    for m in _ITEM.finditer(text):
        if m.group(1):
            items.append(UpdateAction(m.group(2), m.group(1) == "+"))
        else:
            items.append(RevLiteral(m.group(4), m.group(3) == "in"))
    return frozenset(items)


def parse_query(text: str) -> frozenset[Literal]:
    out = []
    for part in text.split(","):
        words = part.split()
        out.append(Literal(words[-1], words[0] != "not"))
    return frozenset(out)


# -- recorded references -------------------------------------------------


def load(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as f:
        return json.load(f)


def entry(code: int, stdout: str, stderr: str) -> dict:
    return {
        "code": code,
        "sha256": digest(stdout),
        "lines": stdout.count("\n"),
        "stderr": stderr.strip(),
    }


def matches(expected: dict, code: int, stdout: str, stderr: str) -> bool:
    return entry(code, stdout, stderr) == expected
