"""Seed-pinned random instance generators shared by the test suites.

Every generator takes an explicit ``random.Random`` so any failing case can
be reproduced from its seed alone. Universes stay small (two to four atoms,
weighted toward two) because the oracles enumerate candidate spaces
exhaustively and the suites run thousands of instances.
"""

from __future__ import annotations

import random
import string

from aicrepair.asp import LpRule
from aicrepair.model import AicRule, Literal, RevLiteral, RevRule, UpdateAction

SIZES = (2, 3, 4)
SIZE_WEIGHTS = (35, 45, 20)


def atom_pool(rnd: random.Random, size: int | None = None) -> tuple[str, ...]:
    """``size`` atom names in sorted order: the letters from ``a``, then,
    past 26, ``z00``, ``z01``... which sort after ``z``."""
    if size is None:
        size = rnd.choices(SIZES, weights=SIZE_WEIGHTS)[0]
    width = max(2, len(str(size - 27)))
    extra = (f"z{i:0{width}d}" for i in range(size - 26))
    return tuple(string.ascii_lowercase[:size]) + tuple(extra)


def database(rnd: random.Random, atoms) -> frozenset[str]:
    return frozenset(a for a in atoms if rnd.random() < 0.5)


def _head_size(rnd: random.Random, atoms, normal: bool) -> int:
    if rnd.random() < 0.1:
        return 0
    if normal or len(atoms) < 2:
        return 1
    return rnd.choices((1, 2), weights=(7, 3))[0]


def aic_rule(rnd: random.Random, atoms, normal: bool = False) -> AicRule:
    """One constraint whose head actions always have their dual literals in
    the body, plus random extra body literals over the other atoms."""
    head_atoms = rnd.sample(atoms, _head_size(rnd, atoms, normal))
    head = frozenset(UpdateAction(a, rnd.random() < 0.5) for a in head_atoms)
    body = {Literal(a.atom, not a.insert) for a in head}
    for a in atoms:
        if a not in head_atoms and rnd.random() < 0.55:
            body.add(Literal(a, rnd.random() < 0.5))
    if not body:
        body.add(Literal(rnd.choice(atoms), rnd.random() < 0.5))
    return AicRule(frozenset(body), head)


def aic_program(
    rnd: random.Random, atoms, normal: bool = False, rules: tuple[int, int] = (1, 3)
) -> tuple[AicRule, ...]:
    return tuple(
        aic_rule(rnd, atoms, normal) for _ in range(rnd.randint(*rules))
    )


def connected_aic(rnd: random.Random, atoms, rules: int) -> tuple[AicRule, ...]:
    """Sparse constraints with 3-literal bodies and 1-2 head actions, the
    shape of the benchmark's connected instances (bodies of every atom
    when ``atoms`` holds fewer than 3). Rule ``k`` ties atom ``k`` to an
    earlier atom, so the atoms form one component."""
    out = []
    for k in range(rules):
        if 0 < k < len(atoms):
            body_atoms = [atoms[k], rnd.choice(atoms[:k])]
            others = [a for a in atoms if a not in body_atoms]
            if others:
                body_atoms.append(rnd.choice(others))
        else:
            body_atoms = rnd.sample(atoms, min(3, len(atoms)))
        body = [Literal(a, rnd.random() < 0.5) for a in body_atoms]
        heads = rnd.sample(body, min(len(body), rnd.choice((1, 1, 2))))
        head = frozenset(UpdateAction(l.atom, not l.positive) for l in heads)
        out.append(AicRule(frozenset(body), head))
    return tuple(out)


def components_aic(
    rnd: random.Random, parts, free: int
) -> tuple[tuple[str, ...], frozenset[str], tuple[AicRule, ...]]:
    """``(atoms, db, program)``: one ``connected_aic`` component per size in
    ``parts``, on consecutive atoms, then ``free`` atoms in no rule. A weak
    repair takes one weak repair of each component and flips each free
    atom or not, so weak listings grow as the product of those counts."""
    atoms = atom_pool(rnd, sum(parts) + free)
    program: list[AicRule] = []
    start = 0
    for n in parts:
        program += connected_aic(rnd, atoms[start:start + n], n)
        start += n
    return atoms, database(rnd, atoms), tuple(program)


#: The component sizes of the product gates, each with 0-4 free atoms.
PRODUCT_PARTS = ((1,), (5,), (3, 4), (4, 4, 4))


def product_instances():
    """``(name, atoms, db, program)``: a ``components_aic`` instance per
    entry of ``PRODUCT_PARTS`` and number of free atoms, under its own
    database and under one that violates every component."""
    for parts in PRODUCT_PARTS:
        for free in range(5):
            name = f"product-{'-'.join(map(str, parts))}-{free}"
            atoms, db, program = components_aic(random.Random(name), parts, free)
            yield name, atoms, db, program
            yield f"{name}-violated", atoms, violating(db, program), program


def violating(db, program) -> frozenset[str]:
    """``db`` changed so that the body of each rule holds whose atoms are
    consistent and outside the bodies made to hold before it: on a
    ``components_aic`` program, at least the first rule of every
    component."""
    out, fixed = set(db), set()
    for r in program:
        atoms = {l.atom for l in r.body}
        if len(atoms) == len(r.body) and fixed.isdisjoint(atoms):
            fixed |= atoms
            for l in r.body:
                (out.add if l.positive else out.discard)(l.atom)
    return frozenset(out)


def rev_rule(
    rnd: random.Random, atoms, normal: bool = False, proper: bool = True
) -> RevRule:
    """One revision rule. With ``proper`` set (the default) no head literal's
    dual lands in the body; otherwise that happens now and then."""
    head_atoms = rnd.sample(atoms, _head_size(rnd, atoms, normal))
    head = frozenset(RevLiteral(a, rnd.random() < 0.5) for a in head_atoms)
    by_atom = {l.atom: l for l in head}
    body: set[RevLiteral] = set()
    for a in atoms:
        roll = rnd.random()
        if a in by_atom:
            if roll < 0.12:
                body.add(by_atom[a])
            elif not proper and roll < 0.25:
                body.add(by_atom[a].dual())
        elif roll < 0.55:
            body.add(RevLiteral(a, rnd.random() < 0.5))
    if not head and not body:
        body.add(RevLiteral(rnd.choice(atoms), rnd.random() < 0.5))
    return RevRule(head, frozenset(body))


def rev_program(
    rnd: random.Random,
    atoms,
    normal: bool = False,
    proper: bool = True,
    rules: tuple[int, int] = (1, 3),
) -> tuple[RevRule, ...]:
    return tuple(
        rev_rule(rnd, atoms, normal, proper) for _ in range(rnd.randint(*rules))
    )


def lp_rule(rnd: random.Random, atoms, normal: bool = False) -> LpRule:
    """One simple rule: a sampled atom list split into head, positive body,
    and negative body, so no atom occurs twice."""
    picks = rnd.sample(atoms, rnd.randint(1, len(atoms)))
    k = min(_head_size(rnd, atoms, normal), len(picks))
    head, rest = picks[:k], picks[k:]
    pos = [a for a in rest if rnd.random() < 0.5]
    neg = [a for a in rest if a not in pos and rnd.random() < 0.6]
    if not head and not pos and not neg:
        neg = rest[:1]
    return LpRule(frozenset(head), frozenset(pos), frozenset(neg))


def lp_program(
    rnd: random.Random, atoms, normal: bool = False, rules: tuple[int, int] = (1, 3)
) -> tuple[LpRule, ...]:
    return tuple(lp_rule(rnd, atoms, normal) for _ in range(rnd.randint(*rules)))


def sparse_lp(rnd: random.Random, atoms, normal: bool = True) -> tuple[LpRule, ...]:
    """One rule per atom ``q``, ``q :- x, y.``, ``x`` and ``y`` two other
    atoms, each negated with probability 0.6. Unless ``normal``, a third
    atom joins the head now and then. On enough atoms its encoding is one
    connected part."""
    program = []
    for q in atoms:
        others = [a for a in atoms if a != q]
        body = rnd.sample(others, 2)
        neg = {a for a in body if rnd.random() < 0.6}
        head = {q}
        if not normal and len(others) > 2 and rnd.random() < 0.3:
            head.add(rnd.choice([a for a in others if a not in body]))
        program.append(LpRule(head, set(body) - neg, neg))
    return tuple(program)


def action_set(rnd: random.Random, atoms, p: float = 0.5) -> frozenset[UpdateAction]:
    """A random consistent set of update actions, at most one per atom."""
    return frozenset(
        UpdateAction(a, rnd.random() < 0.5) for a in atoms if rnd.random() < p
    )


def rev_literal_set(
    rnd: random.Random, atoms, p: float = 0.5
) -> frozenset[RevLiteral]:
    return frozenset(
        RevLiteral(a, rnd.random() < 0.5) for a in atoms if rnd.random() < p
    )
