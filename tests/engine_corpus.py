"""A frozen corpus of engine outcomes: seeded instances of 8-32 atoms and
what the command line answers on them.

``python tests/engine_corpus.py`` writes ``tests/golden/engine_corpus.json``.
Each entry holds the sha256 of one instance text and, per command, the exit
code, the line count and sha256 of stdout, and stderr. The commands are
``repair`` or ``revise`` for every class, ``lattice --verify``, ``cqa`` on
two queries and ``check`` on three candidates. ``test_cli.py`` builds every
instance again from its seed, runs the same commands in-process and
requires the same outcomes, so an engine change cannot move a listing, a
verdict or a refusal unseen past the sizes the oracles reach.

The instances are ``aic:`` or ``rev:`` programs, normal, disjunctive or
(``rev:`` only) improper: one connected part, or parts of 3-5 atoms under
contiguous or interleaved names, plus 0-3 atoms in no rule, with or
without a ``universe:`` line. About half the databases make the body of
the first rule of every part hold. A command runs under ``--max-atoms`` of the instance's size,
or under the default bound, which refuses the larger instances; a command
that lists every weak repair gets the raised bound only when the instance
has at most ``WEAK_ROWS`` of them, counted part by part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import string
import tempfile

from aicrepair import cli
from aicrepair.model import AicRule, Literal, RevLiteral, RevRule, Universe, UpdateAction
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass
from aicrepair.syntax import Instance, print_instance

PATH = os.path.join(os.path.dirname(__file__), "golden", "engine_corpus.json")

#: Two-letter atom names, which sort in the order they are made.
NAMES = tuple(a + b for a in string.ascii_lowercase for b in string.ascii_lowercase)
SIZES = (8, 12, 16, 20, 24, 32)
SHAPES = ("one", "contiguous", "interleaved")
WEAK_ROWS = 16384
#: Three rounds of every kind, shape and size.
INSTANCES = 3 * 2 * len(SHAPES) * len(SIZES)
#: The placeholder for the instance file in a command line.
FILE = "FILE"


def _rule_atoms(rnd: random.Random, part: list[str], k: int) -> list[str]:
    """Two or three atoms of ``part``. Rule ``k`` ties atom ``k`` to an
    earlier atom, so the rules of a part connect it."""
    if 0 < k < len(part):
        atoms = [part[k], rnd.choice(part[:k])]
    else:
        atoms = rnd.sample(part, 2)
    rest = [a for a in part if a not in atoms]
    if rest and rnd.random() < 0.7:
        atoms.append(rnd.choice(rest))
    return atoms


def _head_size(rnd: random.Random, normal: bool) -> int:
    if rnd.random() < 0.05:
        return 0
    return 1 if normal else rnd.choice((1, 1, 2))


def _rule(rnd, kind: str, part: list[str], k: int, normal: bool, proper: bool):
    atoms = _rule_atoms(rnd, part, k)
    if kind == "aic":
        body = [Literal(a, rnd.random() < 0.5) for a in atoms]
        heads = rnd.sample(body, _head_size(rnd, normal))
        return AicRule(body, (UpdateAction(l.atom, not l.positive) for l in heads))
    literals = [RevLiteral(a, rnd.random() < 0.5) for a in atoms]
    head = rnd.sample(literals, min(_head_size(rnd, normal), len(atoms) - 1))
    body = [l for l in literals if l not in head]
    if head and not proper and rnd.random() < 0.4:
        body.append(head[0].dual())
    return RevRule(head, body)


def _holds(kind: str, state: frozenset[str], literals) -> bool:
    if kind == "aic":
        return all((l.atom in state) == l.positive for l in literals)
    return all((l.atom in state) == l.is_in for l in literals)


def _satisfied(kind: str, state: frozenset[str], rule) -> bool:
    """The rule holds in ``state``: an AIC's body fails, a revision rule's
    body fails or one of its head literals holds."""
    if kind == "aic":
        return not _holds(kind, state, rule.body)
    return not _holds(kind, state, rule.body) or any(
        _holds(kind, state, [l]) for l in rule.head
    )


def _weak_count(kind: str, part: list[str], rules) -> int:
    """The states of ``part`` that satisfy its rules: the weak repairs or
    revisions of the part, one per state. A part of more than 12 atoms is
    not counted: it counts as too many."""
    if len(part) > 12:
        return WEAK_ROWS + 1
    states = itertools.product((False, True), repeat=len(part))
    return sum(
        all(_satisfied(kind, frozenset(itertools.compress(part, s)), r) for r in rules)
        for s in states
    )


def _sizes(rnd: random.Random, n: int) -> list[int]:
    sizes = []
    while n > 5:
        sizes.append(rnd.randint(3, min(5, n - 3)))
        n -= sizes[-1]
    return sizes + [n]


def _greedy(kind: str, db: frozenset[str], program) -> frozenset[str]:
    """A final state reached from ``db`` by flipping, again and again, the
    smallest atom of the head of the first broken rule (of its body, when
    the head is empty), at most as many times as the program has rules."""
    state = set(db)
    for _ in program:
        broken = [r for r in program if not _satisfied(kind, frozenset(state), r)]
        if not broken:
            break
        r = broken[0]
        atom = min(x.atom for x in (r.head or r.body))
        state ^= {atom}
    return frozenset(state)


def _set_text(kind: str, db: frozenset[str], flips) -> str:
    """The candidate that flips ``flips`` away from ``db``."""
    if kind == "aic":
        return ",".join(("-" if a in db else "+") + a for a in sorted(flips))
    return ",".join(("out" if a in db else "in") + f"({a})" for a in sorted(flips))


def build(seed: int) -> tuple[str, str, list[list[str]]]:
    """Instance ``seed``'s kind, text and command lines, ``FILE`` for its
    path. Its kind, shape and size cycle with the seed, so every
    combination occurs."""
    rnd = random.Random(f"engine-corpus-{seed}")
    kind = ("aic", "rev")[seed % 2]
    shape = SHAPES[seed // 2 % 3]
    n = SIZES[seed // 6 % len(SIZES)]
    normal = rnd.random() < 0.4
    proper = kind == "aic" or rnd.random() < 0.5
    free = rnd.randint(0, 3)
    sizes = [n - free] if shape == "one" else _sizes(rnd, n - free)
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    groups = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    groups += [[i] for i in range(starts[-1], n)]
    if shape == "interleaved":
        turns = [g[k] for k in range(max(sizes)) for g in groups if k < len(g)]
        name = dict(zip(turns, NAMES))
    else:
        name = dict(zip(range(n), NAMES))
    parts = [[name[i] for i in g] for g in groups[: len(sizes)]]
    atoms = sorted(name.values())

    program, weak = [], 2 ** free
    db = {a for a in atoms if rnd.random() < 0.5}
    violate = rnd.random() < 0.5
    for part in parts:
        count = len(part) if shape == "one" else rnd.randint(len(part), len(part) + 3)
        rules = [_rule(rnd, kind, part, k, normal, proper) for k in range(count)]
        program += rules
        weak *= _weak_count(kind, part, rules)
        if violate:
            for l in rules[0].body:
                positive = l.positive if kind == "aic" else l.is_in
                (db.add if positive else db.discard)(l.atom)
    db = frozenset(db)
    universe = Universe(atoms) if rnd.random() < 0.5 else None
    text = print_instance(Instance(kind, db, tuple(program), universe))

    bound = rnd.choice((None, n, n, n))
    weak_bound = bound if weak <= WEAK_ROWS else None

    def limit(b):
        return [] if b is None else ["--max-atoms", str(b)]

    classes = list(RepairClass if kind == "aic" else RevisionClass)
    verb = "repair" if kind == "aic" else "revise"

    def listed(c):
        """The bound of a request for class ``c``: the weak bound when
        answering it lists the weak repairs."""
        return weak_bound if "weak" in c.value or "supported" in c.value else bound

    commands = [[verb, FILE, "--class", c.value, *limit(listed(c))] for c in classes]
    commands.append(["lattice", FILE, "--verify", *limit(weak_bound)])
    for c in (classes[1], rnd.choice(classes)):
        picked = rnd.sample(atoms, rnd.randint(1, 3))
        query = ", ".join(("" if rnd.random() < 0.5 else "not ") + a for a in picked)
        commands.append(["cqa", FILE, "--class", c.value, "--query", query,
                         *limit(listed(c))])
    greedy = db ^ _greedy(kind, db, program)
    extra = greedy | {rnd.choice(atoms)}
    some = {a for a in atoms if rnd.random() < 0.15}
    for flips in (greedy, extra, some):
        candidate = _set_text(kind, db, flips)
        if flips is some and rnd.random() < 0.5:
            # The no-effect action of one atom; with its flip, both polarities.
            atom = rnd.choice(atoms)
            no_effect = _set_text(kind, db ^ {atom}, [atom])
            candidate = f"{candidate},{no_effect}" if candidate else no_effect
        commands.append(["check", FILE, "--class", rnd.choice(classes).value,
                         f"--set={candidate}", *limit(bound)])
    return kind, text, commands


def run(argv: list[str]) -> list:
    """``[exit code, stdout lines, stdout sha256, stderr]`` of one command,
    in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    return [code, stdout.count("\n"), _sha(stdout), err.getvalue()]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcomes(seed: int) -> dict:
    """The seed, the sha256 of the instance text and, per command line, its
    outcome."""
    kind, text, commands = build(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance." + kind)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        found = {
            shlex.join(argv): run([path if a == FILE else a for a in argv])
            for argv in commands
        }
    return {"seed": seed, "sha256": _sha(text), "outcomes": found}


def corpus() -> list[dict]:
    return [outcomes(seed) for seed in range(INSTANCES)]


def dump(entries: list[dict]) -> str:
    """One entry per line."""
    lines = (json.dumps(e, ensure_ascii=True) for e in entries)
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    # The default bound must be the built-in one, not the environment's.
    os.environ.pop("AICREPAIR_MAX_ATOMS", None)
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write(dump(corpus()))
