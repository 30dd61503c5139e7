"""Record and validate the references of the pool workloads.

    python3 perfbench/record.py [repair-dense repair-wide lattice-verify]

Runs every request of each workload's instance pool once through
``aicrepair.cli.main``, validates the answer, and writes the exit code,
stdout digest and stderr to ``perfbench/refs/<workload>.json``. Nothing is
written unless every answer validates:

- every set a ``repair``, ``revise`` or ``lattice`` request prints passes
  the engine's ``check_membership`` for its class, and is printed once in
  canonical form and order;
- ``weak-repair`` output equals the brute-force set of weak repairs: every
  subset of the essential actions whose result satisfies the program by
  ``oracles.satisfies``;
- ``cqa`` and ``check`` agree with the enumeration of their class;
- ``lattice --verify`` and ``shift --verify`` report ok, ``shift`` prints
  the shifted instance and ``translate`` the translated one, both restated
  here from the paper's definitions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from aicrepair import cli, repairs, revisions  # noqa: E402
from aicrepair.model import Universe, UpdateAction  # noqa: E402

_SET = re.compile(r"\{[^}]*\}")


def call(req, path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(req.resolve(path))
    return code, out.getvalue(), err.getvalue()


def checked_sets(inst, cls: str, texts) -> list[frozenset]:
    """Parse printed sets; each must be canonical, in order, and a member
    of ``cls`` by the engine's own membership test."""
    sets = [reference.parse_set(t) for t in texts]
    for text, s in zip(texts, sets):
        if workloads.render_set(s) != text:
            raise AssertionError(f"not canonical: {text}")
    keys = [workloads.set_key(s) for s in sets]
    if keys != sorted(set(keys)):
        raise AssertionError(f"{cls}: sets out of order or repeated")
    side = repairs if inst.kind == "aic" else revisions
    enum = repairs.RepairClass if inst.kind == "aic" else revisions.RevisionClass
    uni = Universe(inst.atoms)
    for s in sets:
        if not side.check_membership(inst.db, inst.program, enum(cls), s, uni):
            raise AssertionError(f"{cls}: {workloads.render_set(s)} fails check_membership")
    return sets


def brute_weak_repairs(inst) -> set[frozenset]:
    essential = [UpdateAction(a, a not in inst.db) for a in inst.atoms]
    return {
        frozenset(u)
        for k in range(len(essential) + 1)
        for u in itertools.combinations(essential, k)
        if oracles.satisfies(oracles.apply(inst.db, u), inst.program)
    }


def validate(req, code: int, stdout: str, stderr: str, sets_of: dict) -> None:
    inst, argv = req.instance, req.argv
    if code != 0:
        raise AssertionError(f"exit {code}: {stderr.strip()}")
    command = argv[0]
    if command in ("repair", "revise"):
        cls = reference.option(argv, "--class")
        sets = checked_sets(inst, cls, stdout.splitlines())
        if cls == "weak-repair" and set(sets) != brute_weak_repairs(inst):
            raise AssertionError("weak repairs differ from the brute-force set")
        sets_of[cls] = sets
    elif command == "cqa":
        sets = sets_of[reference.option(argv, "--class")]
        query = reference.parse_query(reference.option(argv, "--query"))
        want = reference.cqa_status(inst.db, sets, oracles.apply, query)
        if stdout != want + "\n":
            raise AssertionError(f"cqa printed {stdout!r}, enumeration gives {want}")
    elif command == "check":
        member = reference.parse_set(reference.option(argv, "--set")) in sets_of[
            reference.option(argv, "--class")
        ]
        if stdout != ("true\n" if member else "false\n"):
            raise AssertionError(f"check printed {stdout!r}, enumeration says {member}")
    elif command == "lattice":
        lines = stdout.splitlines()
        if not lines[-1].startswith("lattice: ok"):
            raise AssertionError(lines[-1])
        for line in lines[:-1]:
            cls, _, rest = line.partition(":")
            checked_sets(inst, cls, _SET.findall(rest))
    elif command == "shift":
        by = frozenset(reference.option(argv, "--by").split(","))
        if not stderr.startswith("shift-verify: ok"):
            raise AssertionError(stderr)
        if stdout != reference.shifted_text(inst, by):
            raise AssertionError("shifted instance differs")
    elif command == "translate":
        if reference.option(argv, "--to") == "rev":
            want = workloads.render_instance("rev", inst.atoms, inst.db, reference.to_rev(inst.program))
        else:
            want = workloads.render_instance("aic", inst.atoms, inst.db, reference.to_aic(inst.program))
        if stdout != want:
            raise AssertionError("translated instance differs")
    else:
        raise AssertionError(f"no validation for {command}")


def record(workload: str, work: str) -> dict:
    requests = workloads.pool_requests(workload)
    instances: dict[str, str] = {}
    entries: dict[str, dict] = {}
    sets_of: dict[str, dict] = {}
    for req in requests:
        inst = req.instance
        path = os.path.join(work, f"{inst.name}.{inst.kind}")
        if inst.name not in instances:
            with open(path, "w", encoding="utf-8") as f:
                f.write(inst.text)
            instances[inst.name] = reference.digest(inst.text)
        code, stdout, stderr = call(req, path)
        try:
            validate(req, code, stdout, stderr, sets_of.setdefault(inst.name, {}))
        except AssertionError as exc:
            raise SystemExit(f"record: {req.key}: {exc}") from None
        entries[req.key] = reference.entry(code, stdout, stderr)
        print(f"  ok {req.key} ({stdout.count(chr(10))} lines)", flush=True)
    return {"workload": workload, "instances": instances, "requests": entries}


def main(argv: list[str]) -> int:
    names = argv or list(workloads.POOLS)
    work = os.path.join(ROOT, ".perfbench", "record")
    os.makedirs(work, exist_ok=True)
    os.makedirs(reference.REFS_DIR, exist_ok=True)
    for name in names:
        print(f"recording {name}", flush=True)
        refs = record(name, work)
        with open(os.path.join(reference.REFS_DIR, f"{name}.json"), "w", encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
