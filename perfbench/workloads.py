"""Seeded instance generators and request lists for the four workloads.

Every workload is a list of CLI requests (argument vectors) over instance
files that this module renders itself, so a change to the program's own
printer cannot change the inputs. Rules are built from the package's plain
data classes, like ``tests/gen.py`` does.

``repair-dense``, ``repair-wide`` and ``lattice-verify`` draw their
instances from a fixed pool: pool instance ``i`` is generated from
``random.Random(f"<workload>/{i}")``, and its references are recorded once
and validated by ``record.py``. A run makes whole passes over every request
of the pool; the run seed decides their order (see ``sequence``).
``oracle-small`` generates its instances straight from the run seed; its
references come from the brute-force oracles at run time. Generators never
iterate over a set, so the instances do not depend on string hashing.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from aicrepair.model import AicRule, Literal, RevLiteral, RevRule, UpdateAction

import gen  # tests/gen.py


@dataclass(frozen=True)
class Instance:
    """One generated instance: what the oracles need and the file text."""

    name: str
    kind: str  # "aic", "rev" or "lp"
    atoms: tuple[str, ...]  # declared universe
    db: frozenset[str]
    program: tuple

    @property
    def text(self) -> str:
        return render_instance(self.kind, self.atoms, self.db, self.program)


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` names the instance file as ``{file}``."""

    instance: Instance
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return self.instance.name + " " + " ".join(self.argv)

    def resolve(self, path: str) -> list[str]:
        return [path if a == "{file}" else a for a in self.argv]


# ---------------------------------------------------------------------------
# Canonical rendering, written against the documented instance syntax


def _lit_key(x) -> tuple:
    flag = x.positive if isinstance(x, Literal) else (
        x.insert if isinstance(x, UpdateAction) else x.is_in
    )
    return (x.atom, 0 if flag else 1)


def render_item(x) -> str:
    if isinstance(x, Literal):
        return x.atom if x.positive else f"not {x.atom}"
    if isinstance(x, UpdateAction):
        return ("+" if x.insert else "-") + x.atom
    return f"in({x.atom})" if x.is_in else f"out({x.atom})"


def render_items(xs, sep: str) -> str:
    return sep.join(render_item(x) for x in sorted(xs, key=_lit_key))


def set_key(xs) -> tuple:
    """The order in which the CLI lists result sets."""
    return tuple(_lit_key(x) for x in sorted(xs, key=_lit_key))


def render_set(xs) -> str:
    return "{" + render_items(xs, ", ") + "}"


def render_rule(rule) -> str:
    if isinstance(rule, AicRule):
        body = render_items(rule.body, ", ")
        head = render_items(rule.head, " | ") or "false"
        return f"{body} -> {head}." if body else f"-> {head}."
    if isinstance(rule, RevRule):
        head = render_items(rule.head, " | ") or "false"
        body = render_items(rule.body, ", ")
        return f"{head} <- {body}." if body else f"{head} <- ."
    head = " | ".join(sorted(rule.head)) or "false"
    body = ", ".join(
        sorted(rule.pos_body) + [f"not {a}" for a in sorted(rule.neg_body)]
    )
    return f"{head} :- {body}." if body else f"{head}."


def render_instance(kind, atoms, db, program) -> str:
    lines = [f"universe: {', '.join(sorted(atoms))}."]
    lines.append(f"db: {', '.join(sorted(db))}." if db else "db: .")
    lines.append(f"{kind}:")
    lines.extend(render_rule(r) for r in program)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shapes


def _atoms(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def _aic_rule(rnd: random.Random, body_atoms, heads: int) -> AicRule:
    """A constraint over ``body_atoms`` whose head repairs ``heads`` of its
    body literals (the updatability condition holds by construction)."""
    body = [Literal(a, rnd.random() < 0.5) for a in body_atoms]
    head = [UpdateAction(l.atom, not l.positive) for l in rnd.sample(body, heads)]
    return AicRule(frozenset(body), frozenset(head))


def connected_aic(rnd: random.Random, atoms, rules: int) -> tuple[AicRule, ...]:
    """Sparse constraints with 3-literal bodies and 1-2 head actions. Rule k
    ties atom k to an earlier atom, so the atoms form one component."""
    out = []
    for k in range(rules):
        if 0 < k < len(atoms):
            others = [a for a in atoms if a != atoms[k]]
            body_atoms = [atoms[k], rnd.choice(atoms[:k])]
            body_atoms.append(rnd.choice([a for a in others if a not in body_atoms]))
        else:
            body_atoms = rnd.sample(atoms, 3)
        out.append(_aic_rule(rnd, body_atoms, rnd.choice((1, 1, 2))))
    return tuple(out)


def _db(rnd: random.Random, atoms) -> frozenset[str]:
    return frozenset(a for a in atoms if rnd.random() < 0.5)


def _query(rnd: random.Random, atoms) -> str:
    picks = rnd.sample(atoms, 2)
    return ",".join(a if rnd.random() < 0.5 else f"not {a}" for a in picks)


def _action_set(rnd: random.Random, atoms, db) -> str:
    """A set of essential actions (each one changes the database)."""
    picks = [a for a in atoms if rnd.random() < 0.25] or [rnd.choice(atoms)]
    return ",".join(("-" if a in db else "+") + a for a in picks)


# -- repair-dense --------------------------------------------------------

DENSE_SIZES = (11, 12)
DENSE_CLASSES = (
    "weak-repair",
    "repair",
    "founded-repair",
    "founded-weak-repair",
    "justified-repair",
    "justified-repair-normalized",
)


def dense_instance(index: int) -> Instance:
    rnd = random.Random(f"repair-dense/{index}")
    atoms = _atoms(DENSE_SIZES[index % len(DENSE_SIZES)])
    program = connected_aic(rnd, atoms, len(atoms))
    return Instance(f"dense{index}", "aic", atoms, _db(rnd, atoms), program)


def dense_requests(index: int) -> list[Request]:
    inst = dense_instance(index)
    rnd = random.Random(f"repair-dense/{index}/requests")
    reqs = [Request(inst, ("repair", "{file}", "--class", c)) for c in DENSE_CLASSES]
    reqs.append(Request(inst, (
        "cqa", "{file}", "--class", "repair", f"--query={_query(rnd, inst.atoms)}"
    )))
    reqs.append(Request(inst, (
        "check", "{file}", "--class", rnd.choice(DENSE_CLASSES),
        f"--set={_action_set(rnd, inst.atoms, inst.db)}",
    )))
    return reqs


# -- repair-wide ---------------------------------------------------------

WIDE_SIZES = (14, 15, 16)
# Component sizes and free atoms per size: 3-4 components of 3-4 atoms
# plus 2-4 free atoms, fixed per size so that the instances of one size
# cost about the same.
WIDE_SHAPES = {14: ((3, 3, 3, 3), 2), 15: ((4, 4, 4), 3), 16: ((4, 4, 4), 4)}
WIDE_CLASSES = ("weak-repair", "repair", "founded-repair")


def wide_instance(index: int) -> Instance:
    """Disjoint connected components plus free atoms (in the universe, in
    no rule), as ``WIDE_SHAPES`` gives them for the pool index's size."""
    rnd = random.Random(f"repair-wide/{index}")
    parts, free = WIDE_SHAPES[WIDE_SIZES[index % len(WIDE_SIZES)]]
    atoms = _atoms(sum(parts) + free)
    program: list[AicRule] = []
    start = 0
    for n in parts:
        program.extend(connected_aic(rnd, atoms[start:start + n], n))
        start += n
    return Instance(f"wide{index}", "aic", atoms, _db(rnd, atoms), tuple(program))


def wide_requests(index: int) -> list[Request]:
    inst = wide_instance(index)
    rnd = random.Random(f"repair-wide/{index}/requests")
    bound = ("--max-atoms", "16")
    reqs = [
        Request(inst, ("repair", "{file}", "--class", c) + bound)
        for c in WIDE_CLASSES
    ]
    reqs.append(Request(inst, (
        "cqa", "{file}", "--class", "repair", f"--query={_query(rnd, inst.atoms)}"
    ) + bound))
    return reqs


# -- lattice-verify ------------------------------------------------------

LATTICE_SIZES = (9, 10)


def _rev_rule(rnd: random.Random, atoms, normal: bool, proper: bool) -> RevRule:
    """A revision rule with 1-2 head literals and a 1-3 literal body; an
    improper rule repeats the dual of a head literal in its body."""
    picks = rnd.sample(atoms, 4)
    heads = 1 if normal else rnd.choice((1, 2))
    head = [RevLiteral(a, rnd.random() < 0.5) for a in picks[:heads]]
    body = {RevLiteral(a, rnd.random() < 0.5) for a in picks[heads:heads + rnd.randint(1, 2)]}
    if not proper:
        body.add(head[0].dual())
    return RevRule(frozenset(head), frozenset(body))


def _choice_chain(atoms) -> tuple[RevRule, ...]:
    """``in(x) | out(y) <- .`` pairs along a chain of atoms."""
    return tuple(
        RevRule(frozenset({RevLiteral(x, True), RevLiteral(y, False)}), frozenset())
        for x, y in zip(atoms, atoms[1:])
    )


def lattice_instances(index: int) -> list[Instance]:
    """One AIC and one revision instance. The revision side cycles through
    normal, disjunctive, improper and choice-pair-chain programs."""
    rnd = random.Random(f"lattice-verify/{index}")
    atoms = _atoms(LATTICE_SIZES[index % len(LATTICE_SIZES)])
    aic = Instance(
        f"lat{index}a", "aic", atoms, _db(rnd, atoms),
        connected_aic(rnd, atoms, len(atoms) - 1),
    )
    shape = ("normal", "disjunctive", "improper", "chain")[index // 2 % 4]
    n = len(atoms) - 2
    if shape == "chain":
        program = _choice_chain(atoms[:4]) + tuple(
            _rev_rule(rnd, atoms, True, True) for _ in range(n - 3)
        )
    else:
        program = tuple(
            _rev_rule(
                rnd, atoms,
                normal=shape == "normal" or rnd.random() < 0.5,
                proper=shape != "improper" or rnd.random() < 0.5,
            )
            for _ in range(n)
        )
    rev = Instance(f"lat{index}r", "rev", atoms, _db(rnd, atoms), program)
    return [aic, rev]


def lattice_requests(index: int) -> list[Request]:
    rnd = random.Random(f"lattice-verify/{index}/requests")
    reqs = []
    for inst in lattice_instances(index):
        by = ",".join(rnd.sample(inst.atoms, 3))
        reqs.append(Request(inst, ("lattice", "{file}", "--verify")))
        reqs.append(Request(inst, ("shift", "{file}", "--by", by, "--verify")))
        if inst.kind == "aic":
            reqs.append(Request(inst, ("translate", "{file}", "--to", "rev")))
        elif all(r.proper for r in inst.program):
            reqs.append(Request(inst, ("translate", "{file}", "--to", "aic")))
        if inst.kind == "rev" and all(len(r.head) <= 1 for r in inst.program):
            reqs.append(Request(inst, (
                "revise", "{file}", "--class", "supported-revision"
            )))
    return reqs


# -- oracle-small --------------------------------------------------------

SMALL_SIZES = (3, 4, 5, 6)
SMALL_SIZE_WEIGHTS = (30, 35, 25, 10)
SMALL_COMMANDS = (
    "repair", "revise", "check", "cqa", "answer-sets", "translate", "normalize"
)
AIC_CLASSES = (
    "weak-repair",
    "repair",
    "founded-weak-repair",
    "founded-repair",
    "justified-weak-repair",
    "justified-repair",
)
REV_CLASSES = (
    "weak-revision",
    "revision",
    "founded-weak-revision",
    "founded-revision",
    "justified-weak-revision",
    "justified-revision",
    "supported-revision",
)


def small_request(rnd: random.Random, index: int) -> Request:
    """One tiny instance in the shapes of ``tests/gen.py`` and one request
    on it; the command cycles through ``SMALL_COMMANDS``."""
    command = SMALL_COMMANDS[index % len(SMALL_COMMANDS)]
    size = rnd.choices(SMALL_SIZES, weights=SMALL_SIZE_WEIGHTS)[0]
    atoms = gen.atom_pool(rnd, size)
    normal = rnd.random() < 0.5
    name = f"small{index}"
    if command == "answer-sets":
        inst = Instance(name, "lp", atoms, frozenset(), gen.lp_program(rnd, atoms, normal))
        return Request(inst, ("answer-sets", "{file}"))
    kind = {"repair": "aic", "revise": "rev"}.get(command) or rnd.choice(("aic", "rev"))
    if kind == "aic":
        program = gen.aic_program(rnd, atoms, normal)
        classes = AIC_CLASSES
    else:
        program = gen.rev_program(rnd, atoms, normal)
        classes = [c for c in REV_CLASSES if c != "supported-revision" or normal]
    inst = Instance(name, kind, atoms, gen.database(rnd, atoms), program)
    cls = rnd.choice(classes)
    if command in ("repair", "revise"):
        argv = (command, "{file}", "--class", cls)
    elif command == "check":
        items = (
            gen.action_set(rnd, atoms) if kind == "aic"
            else gen.rev_literal_set(rnd, atoms)
        )
        argv = ("check", "{file}", "--class", cls, f"--set={render_items(items, ',')}")
    elif command == "cqa":
        query = render_items({Literal(a, rnd.random() < 0.5) for a in rnd.sample(atoms, 2)}, ",")
        argv = ("cqa", "{file}", "--class", cls, f"--query={query}")
    elif command == "translate":
        argv = ("translate", "{file}", "--to", "rev" if kind == "aic" else "aic")
    else:
        argv = ("normalize", "{file}")
    return Request(inst, argv)


# ---------------------------------------------------------------------------
# Request sequences

SMALL_POOL = 2100
# workload -> (requests of pool index, pool size); the index also fixes
# the instance's size (and, for lattice-verify, its revision program shape).
POOLS = {
    "repair-dense": (dense_requests, 8),
    "repair-wide": (wide_requests, 9),
    "lattice-verify": (lattice_requests, 16),
}
NAMES = ("repair-dense", "repair-wide", "lattice-verify", "oracle-small")


def pool_requests(workload: str) -> list[Request]:
    make, size = POOLS[workload]
    return [r for i in range(size) for r in make(i)]


def sequence(workload: str, seed: int):
    """The endless request stream of a run.

    Pool workloads repeat passes over every request of the pool, each pass
    in a new order drawn from the seed, so that whole passes do the same
    work in every run: the cost of one request varies by up to 2x between
    instances of one size, and runs that drew different instances differed
    by 10-20%. oracle-small cycles through ``SMALL_POOL`` seeded requests.
    """
    rnd = random.Random(seed)
    reqs = ([small_request(rnd, i) for i in range(SMALL_POOL)]
            if workload == "oracle-small" else pool_requests(workload))
    while True:
        if workload != "oracle-small":
            rnd.shuffle(reqs)
        yield from reqs
