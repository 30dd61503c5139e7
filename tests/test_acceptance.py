"""End-to-end acceptance gates.

One test per gate: golden instances with frozen expected sets, randomized
cross-validation of every semantics against the definitional oracles plus
the containment lattice between them, the translation correspondence, the
shifting transport, the logic-program bridge, checker agreement over full
candidate spaces, one multi-class scan matching per-class enumeration, the
repair tree of the change-minimal classes matching the scan, the clause
search matching a plain scan of every subset, the engine's tests on masks
matching their definitions on sets, the search split into position
blocks matching a brute-force scan, every class matching the product of
its component classes, and the repair tree's column filter keeping what a
pairwise scan keeps.
All frozen values below were computed by ``tests/oracles.py`` and
hand-checked before being written down.

Random cases are seed-pinned; every assertion message carries the seed that
rebuilds its instance.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from pathlib import Path

import pytest

import gen
import oracles
from aicrepair import asp, cli, model, repairs, revisions, transforms
from aicrepair.errors import UniverseTooLarge
from aicrepair.model import (
    DEFAULT_MAX_ATOMS,
    AicRule,
    Limits,
    Literal,
    RevLiteral,
    RevRule,
    Universe,
    UpdateAction,
    apply_update,
    clause_search,
    entails,
    essential_actions,
    is_normal,
    lit,
    positions,
    rev_literal,
    ua,
)
from aicrepair.repairs import RepairClass, enumerate_repairs
from aicrepair.revisions import RevisionClass, enumerate_revisions
from aicrepair.syntax import format_set, parse_instance, parse_program

GOLDEN = Path(__file__).parent / "golden"

SEMANTICS_INSTANCES = 1000
CORRESPONDENCE_INSTANCES = 1000
SHIFT_INSTANCES = 300
BRIDGE_PROGRAMS = 500
NON_SIMPLE_PROGRAMS = 3000
CHECKER_INSTANCES = 150

AIC_CLASSES = {
    "wr": RepairClass.WEAK_REPAIR,
    "r": RepairClass.REPAIR,
    "fwr": RepairClass.FOUNDED_WEAK_REPAIR,
    "fr": RepairClass.FOUNDED_REPAIR,
    "jwr": RepairClass.JUSTIFIED_WEAK_REPAIR,
    "jr": RepairClass.JUSTIFIED_REPAIR,
}

REV_CLASSES = {
    "wr": RevisionClass.WEAK_REVISION,
    "r": RevisionClass.REVISION,
    "fwr": RevisionClass.FOUNDED_WEAK_REVISION,
    "fr": RevisionClass.FOUNDED_REVISION,
    "jwr": RevisionClass.JUSTIFIED_WEAK_REVISION,
    "jr": RevisionClass.JUSTIFIED_REVISION,
}


def _aic_oracle(db, program, atoms):
    return {
        "wr": oracles.weak_repairs(db, program, atoms),
        "r": oracles.repairs(db, program, atoms),
        "fwr": oracles.founded_weak_repairs(db, program, atoms),
        "fr": oracles.founded_repairs(db, program, atoms),
        "jwr": oracles.justified_weak_repairs(db, program, atoms),
        "jr": oracles.justified_repairs(db, program, atoms),
    }


def _rev_oracle(db, program, atoms):
    return {
        "wr": oracles.weak_revisions(db, program, atoms),
        "r": oracles.revisions(db, program, atoms),
        "fwr": oracles.founded_weak_revisions(db, program, atoms),
        "fr": oracles.founded_revisions(db, program, atoms),
        "jwr": oracles.justified_weak_revisions(db, program, atoms),
        "jr": oracles.justified_revisions(db, program, atoms),
    }


def _aic_engine(db, program, uni):
    return {
        key: set(enumerate_repairs(db, program, cls, uni).sets)
        for key, cls in AIC_CLASSES.items()
    }


def _rev_engine(db, program, uni):
    return {
        key: set(enumerate_revisions(db, program, cls, uni).sets)
        for key, cls in REV_CLASSES.items()
    }


# The containment lattice between the semantics, stated once and checked on
# both sides. ``base`` holds the six classes of the program itself, ``norm``
# those of its normalized version.
RELATIONS = (
    ("normalized justified == normalized justified weak",
     lambda b, n: n["jr"] == n["jwr"]),
    ("normalized justified <= justified", lambda b, n: n["jr"] <= b["jr"]),
    ("justified <= founded", lambda b, n: b["jr"] <= b["fr"]),
    ("founded <= plain", lambda b, n: b["fr"] <= b["r"]),
    ("plain invariant under normalization", lambda b, n: b["r"] == n["r"]),
    ("founded invariant under normalization", lambda b, n: b["fr"] == n["fr"]),
    ("justified <= justified weak", lambda b, n: b["jr"] <= b["jwr"]),
    ("founded <= founded weak", lambda b, n: b["fr"] <= b["fwr"]),
    ("plain <= weak", lambda b, n: b["r"] <= b["wr"]),
    ("normalized justified weak <= justified weak",
     lambda b, n: n["jwr"] <= b["jwr"]),
    ("justified weak <= founded weak", lambda b, n: b["jwr"] <= b["fwr"]),
    ("founded weak <= weak", lambda b, n: b["fwr"] <= b["wr"]),
    ("weak invariant under normalization", lambda b, n: b["wr"] == n["wr"]),
    ("founded weak invariant under normalization",
     lambda b, n: b["fwr"] == n["fwr"]),
)


def _relation_failures(base, norm):
    return [name for name, holds in RELATIONS if not holds(base, norm)]


def _fmt(sets):
    return [format_set(s) for s in sets]


def _uas(literals):
    return frozenset(ua(l) for l in literals)


def _exactly_one_polarity(actions, atoms) -> bool:
    return all(
        (UpdateAction(a, True) in actions) != (UpdateAction(a, False) in actions)
        for a in atoms
    )


def _load(name):
    return parse_instance((GOLDEN / name).read_text())


# ---------------------------------------------------------------------------
# Gate 1: golden instances with frozen expected sets


GOLDEN_AIC = {
    "pair_delete.aic": {
        "weak-repair": ["{-a}", "{-a, -b}", "{-b}"],
        "repair": ["{-a}", "{-b}"],
        "founded-weak-repair": ["{-a}", "{-b}"],
        "founded-repair": ["{-a}", "{-b}"],
        "justified-weak-repair": ["{-a}", "{-b}"],
        "justified-repair": ["{-a}", "{-b}"],
        "justified-weak-repair-normalized": ["{-a}", "{-b}"],
        "justified-repair-normalized": ["{-a}", "{-b}"],
    },
    "pair_delete_shifted.aic": {
        "weak-repair": ["{+a}", "{+a, -b}", "{-b}"],
        "repair": ["{+a}", "{-b}"],
        "founded-repair": ["{+a}", "{-b}"],
        "justified-repair": ["{+a}", "{-b}"],
        "justified-repair-normalized": ["{+a}", "{-b}"],
    },
    "founded_chain.aic": {
        "weak-repair": ["{+a}", "{+a, +b, +c}"],
        "repair": ["{+a}"],
        "founded-weak-repair": ["{+a}", "{+a, +b, +c}"],
        "founded-repair": ["{+a}"],
        "justified-weak-repair": ["{+a}"],
        "justified-repair": ["{+a}"],
    },
    "founded_no_minimal.aic": {
        "weak-repair": ["{+a}", "{+a, +b, +c}"],
        "repair": ["{+a}"],
        "founded-weak-repair": ["{+a, +b, +c}"],
        "founded-repair": [],
        "justified-weak-repair": [],
        "justified-repair": [],
    },
    "circular_support.aic": {
        "weak-repair": ["{-a, -b}"],
        "repair": ["{-a, -b}"],
        "founded-weak-repair": ["{-a, -b}"],
        "founded-repair": ["{-a, -b}"],
        "justified-weak-repair": [],
        "justified-repair": [],
    },
    "broken_circle.aic": {
        "weak-repair": ["{-a, -b}"],
        "repair": ["{-a, -b}"],
        "founded-repair": ["{-a, -b}"],
        "justified-weak-repair": ["{-a, -b}"],
        "justified-repair": ["{-a, -b}"],
        "justified-weak-repair-normalized": [],
        "justified-repair-normalized": [],
    },
    "mutual_flip.aic": {
        "weak-repair": ["{}", "{+a, +b}"],
        "repair": ["{}"],
        "founded-weak-repair": ["{}", "{+a, +b}"],
        "founded-repair": ["{}"],
        "justified-weak-repair": ["{}", "{+a, +b}"],
        "justified-repair": ["{}"],
        "justified-weak-repair-normalized": ["{}"],
        "justified-repair-normalized": ["{}"],
    },
    "disjunctive_pick.aic": {
        "weak-repair": ["{+a, +b}"],
        "repair": ["{+a, +b}"],
        "founded-repair": ["{+a, +b}"],
        "justified-weak-repair": ["{+a, +b}"],
        "justified-repair": ["{+a, +b}"],
        "justified-weak-repair-normalized": [],
        "justified-repair-normalized": [],
    },
}

GOLDEN_REV = {
    "choice_pair.rev": {
        "weak-revision": ["{}", "{in(a), in(b)}"],
        "revision": ["{}"],
        "founded-weak-revision": ["{}", "{in(a), in(b)}"],
        "founded-revision": ["{}"],
        "justified-weak-revision": ["{}", "{in(a), in(b)}"],
        "justified-revision": ["{}"],
        "justified-weak-revision-normalized": ["{}"],
        "justified-revision-normalized": ["{}"],
    },
    "choice_pair_chain.rev": {
        "weak-revision": [
            "{in(a), in(b), in(c)}",
            "{in(a), in(b), in(c), in(d)}",
            "{in(a), in(b), in(d)}",
            "{in(c)}",
            "{in(c), in(d)}",
            "{in(d)}",
        ],
        "revision": ["{in(c)}", "{in(d)}"],
        "founded-weak-revision": ["{in(a), in(b), in(c)}", "{in(c)}"],
        "founded-revision": ["{in(c)}"],
        "justified-weak-revision": ["{in(a), in(b), in(c)}", "{in(c)}"],
        "justified-revision": ["{in(c)}"],
        "justified-weak-revision-normalized": ["{in(c)}"],
        "justified-revision-normalized": ["{in(c)}"],
    },
    "case_reasoning.rev": {
        "weak-revision": ["{in(a)}"],
        "revision": ["{in(a)}"],
        "founded-weak-revision": ["{in(a)}"],
        "founded-revision": ["{in(a)}"],
        "justified-weak-revision": [],
        "justified-revision": [],
        "supported-revision": ["{in(a)}"],
    },
    "mutual_pair_chain.rev": {
        "weak-revision": [
            "{in(a), in(b), in(c)}",
            "{in(a), in(b), in(c), in(d)}",
            "{in(a), in(b), in(d)}",
            "{in(c)}",
            "{in(c), in(d)}",
            "{in(d)}",
        ],
        "revision": ["{in(c)}", "{in(d)}"],
        "founded-weak-revision": ["{in(a), in(b), in(c)}", "{in(c)}"],
        "founded-revision": ["{in(c)}"],
        "justified-weak-revision": ["{in(c)}"],
        "justified-revision": ["{in(c)}"],
        "supported-revision": ["{in(a), in(b), in(c)}", "{in(c)}"],
    },
    "policy_mix.rev": {
        "weak-revision": [
            "{in(b), in(c), in(d)}",
            "{in(b), in(d)}",
            "{in(c), in(d)}",
            "{in(d)}",
        ],
        "revision": ["{in(d)}"],
        "founded-weak-revision": ["{in(d)}"],
        "founded-revision": ["{in(d)}"],
        "justified-weak-revision": ["{in(d)}"],
        "justified-revision": ["{in(d)}"],
        "justified-weak-revision-normalized": ["{in(d)}"],
        "justified-revision-normalized": ["{in(d)}"],
    },
    "improper_heads.rev": {
        "weak-revision": [
            "{}",
            "{in(a), in(b)}",
            "{in(a), in(b), in(c)}",
            "{in(a), in(b), in(c), in(d)}",
            "{in(b)}",
            "{in(b), in(c)}",
            "{in(b), in(c), in(d)}",
            "{in(c)}",
            "{in(c), in(d)}",
        ],
        "revision": ["{}"],
        "founded-weak-revision": ["{}"],
        "founded-revision": ["{}"],
        "justified-weak-revision": ["{}"],
        "justified-revision": ["{}"],
        "justified-weak-revision-normalized": ["{}"],
        "justified-revision-normalized": ["{}"],
    },
}

GOLDEN_LP = {
    "split_choice.lp": {frozenset({"a", "c"}), frozenset({"b", "c"})},
    "even_loop.lp": {frozenset({"a"}), frozenset({"b"})},
}


def test_golden_examples():
    for name, table in GOLDEN_AIC.items():
        inst = _load(name)
        for value, want in table.items():
            got = enumerate_repairs(inst.db, inst.program, RepairClass(value)).sets
            assert _fmt(got) == want, f"{name}: {value}"
    for name, table in GOLDEN_REV.items():
        inst = _load(name)
        for value, want in table.items():
            got = enumerate_revisions(inst.db, inst.program, RevisionClass(value)).sets
            assert _fmt(got) == want, f"{name}: {value}"
    for name, want in GOLDEN_LP.items():
        inst = _load(name)
        got = set(asp.answer_sets(inst.program, inst.universe()))
        assert got == want, name

    # the recorded shift of pair_delete is exactly pair_delete_shifted
    source = _load("pair_delete.aic")
    target = _load("pair_delete_shifted.aic")
    witness = transforms.shift_instance(source.db, source.program, {"a"})
    assert witness.shifted_db == target.db
    assert frozenset(witness.shifted_program) == frozenset(target.program)
    for value in ("founded-repair", "justified-weak-repair"):
        base = enumerate_repairs(source.db, source.program, RepairClass(value)).sets
        moved = enumerate_repairs(target.db, target.program, RepairClass(value)).sets
        assert set(witness.transport(base)) == set(moved), value

    # both translation directions against written-down expectations
    assert frozenset(transforms.to_rev(source.program)) == frozenset(
        parse_program("out(a) | out(b) <- .", "rev")
    )
    policy = _load("policy_mix.rev")
    expected = parse_program(
        "a, b, not c -> -a | +c.\nnot d -> +d.\na -> false.", "aic"
    )
    assert frozenset(
        transforms.to_aic(transforms.properize(policy.program))
    ) == frozenset(expected)


# ---------------------------------------------------------------------------
# Gate 2: every semantics against its oracle, plus the lattice between them


def _check_aic_instance(i: int) -> None:
    seed = f"sem-aic-{i}"
    rnd = random.Random(seed)
    atoms = gen.atom_pool(rnd)
    db = gen.database(rnd, atoms)
    program = gen.aic_program(rnd, atoms, normal=rnd.random() < 0.3)
    normalized = transforms.normalize_aic(program)
    uni = Universe(tuple(atoms))

    o_base = _aic_oracle(db, program, atoms)
    o_norm = _aic_oracle(db, normalized, atoms)
    e_base = _aic_engine(db, program, uni)
    e_norm = _aic_engine(db, normalized, uni)
    for key in AIC_CLASSES:
        assert e_base[key] == o_base[key], f"{seed}: engine != oracle on {key}"
        assert e_norm[key] == o_norm[key], f"{seed}: engine != oracle on {key}^n"
    if i % 5 == 0:
        for cls, want in (
            (RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED, o_norm["jwr"]),
            (RepairClass.JUSTIFIED_REPAIR_NORMALIZED, o_norm["jr"]),
        ):
            got = set(enumerate_repairs(db, program, cls, uni).sets)
            assert got == want, f"{seed}: {cls.value}"

    bad = _relation_failures(o_base, o_norm)
    assert not bad, f"{seed}: {bad}"

    # every justified weak repair settles each atom exactly once, satisfies
    # the program, and is founded
    for e in o_base["jwr"]:
        u = e | oracles.ne(db, oracles.apply(db, e), atoms)
        assert _exactly_one_polarity(u, atoms), f"{seed}: {format_set(e)}"
        assert oracles.satisfies(oracles.apply(db, e), program), seed
        assert oracles.founded_set(db, program, e), seed

    # for normal programs, and whenever no head action is a no-op on the
    # database, justified weak repairs are already minimal
    if is_normal(program):
        assert o_base["jwr"] == o_base["jr"], seed
    heads = [a for r in program for a in r.head]
    if all(oracles.holds(db, lit(a).dual()) for a in heads):
        assert o_base["jwr"] == o_base["jr"], seed

    # update application: consistent unions compose, and no-effect actions
    # never change anything
    u1, u2 = gen.action_set(rnd, atoms), gen.action_set(rnd, atoms)
    if oracles.consistent(u1 | u2):
        assert oracles.apply(db, u1 | u2) == oracles.apply(
            oracles.apply(db, u1), u2
        ), seed
    r1 = gen.database(rnd, atoms)
    r2 = r1 if rnd.random() < 0.5 else gen.database(rnd, atoms)
    if oracles.ne(db, r1, atoms) <= oracles.ne(db, r2, atoms):
        assert oracles.apply(r2, oracles.ne(db, r1, atoms)) == r2, seed
    e = gen.action_set(rnd, atoms)
    core = oracles.ne(db, oracles.apply(db, e), atoms)
    assert oracles.consistent(e | core), seed
    sub = frozenset(a for a in e if rnd.random() < 0.5)
    assert oracles.apply(db, sub) == oracles.apply(db, sub | core), seed


def _check_rev_instance(i: int) -> None:
    seed = f"sem-rev-{i}"
    rnd = random.Random(seed)
    atoms = gen.atom_pool(rnd)
    db = gen.database(rnd, atoms)
    program = gen.rev_program(
        rnd, atoms, normal=rnd.random() < 0.35, proper=rnd.random() < 0.6
    )
    normalized = transforms.normalize_rev(program)
    uni = Universe(tuple(atoms))

    o_base = _rev_oracle(db, program, atoms)
    o_norm = _rev_oracle(db, normalized, atoms)
    e_base = _rev_engine(db, program, uni)
    e_norm = _rev_engine(db, normalized, uni)
    for key in REV_CLASSES:
        assert e_base[key] == o_base[key], f"{seed}: engine != oracle on {key}"
        assert e_norm[key] == o_norm[key], f"{seed}: engine != oracle on {key}^n"
    if i % 5 == 0:
        for cls, want in (
            (RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED, o_norm["jwr"]),
            (RevisionClass.JUSTIFIED_REVISION_NORMALIZED, o_norm["jr"]),
        ):
            got = set(enumerate_revisions(db, program, cls, uni).sets)
            assert got == want, f"{seed}: {cls.value}"

    bad = _relation_failures(o_base, o_norm)
    assert not bad, f"{seed}: {bad}"

    # justified updates and justified weak revisions land on databases that
    # satisfy the program
    for e in o_base["jwr"]:
        assert oracles.satisfies_rev(oracles.apply_rev(db, e), program), seed
    for u in oracles.justified_updates(db, program, atoms):
        assert oracles.satisfies_rev(oracles.apply_rev(db, u), program), seed

    if is_normal(program):
        assert o_base["jwr"] == o_base["jr"], seed
        supported = oracles.supported_revisions(db, program, atoms)
        got = set(
            enumerate_revisions(
                db, program, RevisionClass.SUPPORTED_REVISION, uni
            ).sets
        )
        assert got == supported, f"{seed}: supported engine != oracle"
        assert o_base["fwr"] == supported, f"{seed}: founded weak != supported"
        for e in supported:
            assert oracles.satisfies_rev(oracles.apply_rev(db, e), program), seed

    heads = [a for r in program for a in r.head]
    if all(oracles.holds_rev(db, a.dual()) for a in heads):
        assert o_base["jwr"] == o_base["jr"], seed


def test_semantics_relations_random():
    for i in range(SEMANTICS_INSTANCES):
        _check_aic_instance(i)
        _check_rev_instance(i)


# ---------------------------------------------------------------------------
# Gate 3: the revision side maps onto the repair side action-for-action


def test_revision_repair_correspondence():
    for i in range(CORRESPONDENCE_INSTANCES):
        seed = f"corr-{i}"
        rnd = random.Random(seed)
        atoms = gen.atom_pool(rnd)
        db = gen.database(rnd, atoms)
        program = gen.rev_program(rnd, atoms, proper=True)
        uni = Universe(tuple(atoms))
        image = transforms.to_aic(program)

        rev_sets = _rev_engine(db, program, uni)
        repair_sets = _aic_engine(db, image, uni)
        for key in REV_CLASSES:
            assert {_uas(e) for e in rev_sets[key]} == repair_sets[key], (
                f"{seed}: {key} does not carry over"
            )

        # the round trip is the identity, and translation commutes with
        # normalization rule-for-rule
        assert frozenset(transforms.to_rev(image)) == frozenset(program), seed
        assert frozenset(
            transforms.to_aic(transforms.normalize_rev(program))
        ) == frozenset(transforms.normalize_aic(image)), seed

        # closedness carries over for arbitrary literal sets, consistent
        # or not
        pool = oracles.all_rev_literals(atoms)
        for _ in range(4):
            cand = frozenset(l for l in pool if rnd.random() < 0.4)
            assert revisions.is_closed_rev(program, cand) == repairs.is_closed(
                image, _uas(cand)
            ), seed

        # dropping unsatisfiable head literals never changes any semantics
        if i % 3 == 0:
            raw = gen.rev_program(rnd, atoms, proper=False)
            proper = transforms.properize(raw)
            transforms.to_aic(proper)
            for key in ("wr", "fwr", "jwr"):
                a = set(enumerate_revisions(db, raw, REV_CLASSES[key], uni).sets)
                b = set(enumerate_revisions(db, proper, REV_CLASSES[key], uni).sets)
                assert a == b, f"{seed}: properize changed {key}"


# ---------------------------------------------------------------------------
# Gate 4: shifting transports every semantics across databases


def test_shifting_transport():
    for i in range(SHIFT_INSTANCES):
        seed = f"shift-{i}"
        rnd = random.Random(seed)
        atoms = gen.atom_pool(rnd)
        db = gen.database(rnd, atoms)
        uni = Universe(tuple(atoms))
        w = db if i % 5 == 0 else frozenset(a for a in atoms if rnd.random() < 0.4)
        shifted_db = transforms.shift_db(db, w)
        if i % 5 == 0:
            assert shifted_db == frozenset(), seed

        # pointwise transport facts
        for a in atoms:
            l = Literal(a, rnd.random() < 0.5)
            act = UpdateAction(a, rnd.random() < 0.5)
            assert transforms.shift(lit(act), w) == lit(
                transforms.shift(act, w)
            ), seed
            assert oracles.holds(db, l) == oracles.holds(
                shifted_db, transforms.shift(l, w)
            ), seed
        r1 = gen.database(rnd, atoms)
        assert transforms.shift(oracles.ne(db, r1, atoms), w) == oracles.ne(
            shifted_db, transforms.shift_db(r1, w), atoms
        ), seed
        u = gen.action_set(rnd, atoms)
        assert transforms.shift_db(oracles.apply(db, u), w) == oracles.apply(
            shifted_db, transforms.shift(u, w)
        ), seed
        probe = Literal(rnd.choice(atoms), rnd.random() < 0.5)
        assert oracles.holds(oracles.apply(db, u), probe) == oracles.holds(
            oracles.apply(shifted_db, transforms.shift(u, w)),
            transforms.shift(probe, w),
        ), seed

        if i % 2 == 0:
            program = gen.aic_program(rnd, atoms)
            witness = transforms.shift_instance(db, program, w, uni)
            assert witness.shifted_db == shifted_db, seed
            assert transforms.shift(witness.shifted_program, w) == program, seed
            for r in program:
                assert transforms.shift(r, w).nup == transforms.shift(
                    r.nup, w
                ), seed
            base = _aic_engine(db, program, uni)
            moved = _aic_engine(shifted_db, witness.shifted_program, uni)
            for key in AIC_CLASSES:
                assert {transforms.shift(e, w) for e in base[key]} == moved[
                    key
                ], f"{seed}: {key}"
            cand = frozenset(
                a for a in oracles.all_actions(atoms) if rnd.random() < 0.35
            )
            jwr = RepairClass.JUSTIFIED_WEAK_REPAIR
            assert repairs.check_membership(
                db, program, jwr, cand, uni
            ) == repairs.check_membership(
                shifted_db, witness.shifted_program, jwr, transforms.shift(cand, w), uni
            ), seed
            if i % 6 == 0:
                got = {
                    transforms.shift(x, w)
                    for x in oracles.justified_action_sets(db, program, atoms)
                }
                assert got == oracles.justified_action_sets(
                    shifted_db, witness.shifted_program, atoms
                ), seed
                assert oracles.weak_repairs(
                    shifted_db, witness.shifted_program, atoms
                ) == {transforms.shift(e, w) for e in base["wr"]}, seed
        else:
            program = gen.rev_program(rnd, atoms, proper=rnd.random() < 0.6)
            witness = transforms.shift_instance(db, program, w, uni)
            assert transforms.shift(witness.shifted_program, w) == program, seed
            base = _rev_engine(db, program, uni)
            moved = _rev_engine(shifted_db, witness.shifted_program, uni)
            for key in REV_CLASSES:
                assert {transforms.shift(e, w) for e in base[key]} == moved[
                    key
                ], f"{seed}: {key}"
            # shifting commutes with properization, translation, and the
            # action view of revision literals
            assert frozenset(
                transforms.shift(transforms.properize(program), w)
            ) == frozenset(transforms.properize(witness.shifted_program)), seed
            proper = transforms.properize(program)
            assert frozenset(
                transforms.shift(transforms.to_aic(proper), w)
            ) == frozenset(transforms.to_aic(transforms.shift(proper, w))), seed
            e = gen.rev_literal_set(rnd, atoms)
            assert transforms.shift(_uas(e), w) == _uas(
                transforms.shift(e, w)
            ), seed


# ---------------------------------------------------------------------------
# Gate 5: answer sets and the constraint encoding of logic programs


def test_answer_set_bridge():
    for i in range(BRIDGE_PROGRAMS):
        seed = f"lp-{i}"
        rnd = random.Random(seed)
        atoms = gen.atom_pool(rnd)
        normal = i % 2 == 1
        program = gen.lp_program(rnd, atoms, normal=normal)
        assert asp.is_simple(program), seed
        uni = Universe(tuple(atoms))

        want = oracles.answer_sets(program, atoms)
        got = set(asp.answer_sets(program, uni))
        assert got == want, seed

        encoded = asp.aic_of_program(program)
        jwr_engine = set(
            enumerate_repairs(
                frozenset(), encoded, RepairClass.JUSTIFIED_WEAK_REPAIR, uni
            ).sets
        )
        assert jwr_engine == oracles.justified_weak_repairs(
            frozenset(), encoded, atoms
        ), seed
        assert {
            frozenset(UpdateAction(a, True) for a in m) for m in got
        } == jwr_engine, seed

        # models of the reduct are exactly the closed insertion/deletion sets
        m = frozenset(a for a in atoms if rnd.random() < 0.5)
        sub = frozenset(a for a in m if rnd.random() < 0.6)
        cand = frozenset(UpdateAction(a, True) for a in sub) | frozenset(
            UpdateAction(a, False) for a in atoms if a not in m
        )
        closed = oracles.closed_under(encoded, cand)
        assert oracles.models_positive(sub, oracles.reduct(program, m)) == closed, seed
        assert repairs.is_closed(encoded, cand) == closed, seed

        if normal:
            jr_engine = set(
                enumerate_repairs(
                    frozenset(), encoded, RepairClass.JUSTIFIED_REPAIR, uni
                ).sets
            )
            assert jr_engine == jwr_engine, seed


def test_answer_sets_of_non_simple_programs():
    # gen.lp_program builds simple rules only; here an atom may sit in any
    # two parts of a rule, and every interpretation is tested.
    overlaps = {"head/pos": 0, "head/neg": 0, "pos/neg": 0}
    for i in range(NON_SIMPLE_PROGRAMS):
        seed = f"lp-any-{i}"
        rnd = random.Random(seed)
        atoms = "abcde"[: rnd.randint(1, 5)]
        program = tuple(
            asp.LpRule(*(
                frozenset(a for a in atoms if rnd.random() < 0.3) for _ in range(3)
            ))
            for _ in range(rnd.randint(1, 4))
        )
        for r in program:
            overlaps["head/pos"] += bool(r.head & r.pos_body)
            overlaps["head/neg"] += bool(r.head & r.neg_body)
            overlaps["pos/neg"] += bool(r.pos_body & r.neg_body)
        want = oracles.answer_sets(program, atoms)
        got = {m for m in oracles.subsets(atoms) if asp.is_answer_set(program, m)}
        assert got == want, seed
        assert set(asp.answer_sets(program, Universe(tuple(atoms)))) == want, seed
    assert min(overlaps.values()) > 100, overlaps


# ---------------------------------------------------------------------------
# Gate 6: membership checkers agree with the oracles over whole candidate
# spaces, inconsistent candidates included


def test_checkers_agree_with_oracles():
    for i in range(CHECKER_INSTANCES):
        seed = f"checker-{i}"
        rnd = random.Random(seed)
        atoms = gen.atom_pool(rnd, size=rnd.choice((2, 2, 3)))
        db = gen.database(rnd, atoms)
        uni = Universe(tuple(atoms))

        program = gen.aic_program(rnd, atoms, normal=rnd.random() < 0.4)
        o = _aic_oracle(db, program, atoms)
        norm = transforms.normalize_aic(program)
        o_njwr = oracles.justified_weak_repairs(db, norm, atoms)
        o_njr = oracles.justified_repairs(db, norm, atoms)
        for raw in oracles.subsets(oracles.all_actions(atoms)):
            cand = frozenset(raw)
            for key, cls in AIC_CLASSES.items():
                assert repairs.check_membership(db, program, cls, cand, uni) == (
                    cand in o[key]
                ), f"{seed}: {key}"
            assert repairs.check_justified_weak_repair(db, program, cand, uni) == (
                cand in o["jwr"]
            ), seed
            assert repairs.check_membership(
                db, program, RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED, cand, uni
            ) == (cand in o_njwr), seed
            assert repairs.check_membership(
                db, program, RepairClass.JUSTIFIED_REPAIR_NORMALIZED, cand, uni
            ) == (cand in o_njr), seed

        rprogram = gen.rev_program(
            rnd, atoms, normal=rnd.random() < 0.5, proper=rnd.random() < 0.7
        )
        ro = _rev_oracle(db, rprogram, atoms)
        rnorm = transforms.normalize_rev(rprogram)
        ro_njwr = oracles.justified_weak_revisions(db, rnorm, atoms)
        ro_njr = oracles.justified_revisions(db, rnorm, atoms)
        rnormal = is_normal(rprogram)
        if rnormal:
            ro_sr = oracles.supported_revisions(db, rprogram, atoms)
        for raw in oracles.subsets(oracles.all_rev_literals(atoms)):
            cand = frozenset(raw)
            for key, cls in REV_CLASSES.items():
                assert revisions.check_membership(db, rprogram, cls, cand, uni) == (
                    cand in ro[key]
                ), f"{seed}: {key}"
            assert revisions.check_justified_weak_revision(
                db, rprogram, cand, uni
            ) == (cand in ro["jwr"]), seed
            if rnormal:
                assert revisions.check_supported_revision(
                    db, rprogram, cand, uni
                ) == (cand in ro_sr), seed
            assert revisions.check_membership(
                db,
                rprogram,
                RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED,
                cand,
                uni,
            ) == (cand in ro_njwr), seed
            assert revisions.check_membership(
                db, rprogram, RevisionClass.JUSTIFIED_REVISION_NORMALIZED, cand, uni
            ) == (cand in ro_njr), seed


# ---------------------------------------------------------------------------
# Gate 7: one scan gives what one enumeration per class gives

ONE_SCAN_INSTANCES = 150


def _one_scan_matches(kind, db, program, uni, seed) -> None:
    if kind == "aic":
        engine, enumerate_one, classes = repairs, enumerate_repairs, list(RepairClass)
    else:
        engine, enumerate_one = revisions, enumerate_revisions
        classes = [
            c
            for c in RevisionClass
            if c is not RevisionClass.SUPPORTED_REVISION or is_normal(program)
        ]
    together = engine.enumerate_classes(db, program, classes, uni)
    assert list(together) == classes, seed
    for cls in classes:
        alone = enumerate_one(db, program, cls, uni)
        # ``examined`` differs by design: a class alone counts only the
        # repair tree or only the clause search, a request with both kinds
        # of class counts the sets of both.
        got = together[cls]
        assert got.semantics is cls
        assert got.sets == alone.sets, f"{seed}: {cls.value}"
        # Every class is a product over the ranges of the positions
        # searched, which a grounded class alone keeps to the head actions.
        if got.actions == alone.actions:
            assert got.blocks == alone.blocks, f"{seed}: {cls.value}"
        else:
            assert repairs._TABLE[revisions._REPAIR_CLASS.get(cls, cls)][1], seed


def test_one_scan_matches_per_class_enumeration(capsys):
    cases = (
        ("pair_delete.aic", "repair", "justified-repair"),
        ("founded_chain.aic", "repair", "founded-weak-repair"),
        ("mutual_pair_chain.rev", "revise", "justified-weak-revision"),
    )
    for path in sorted(GOLDEN.glob("*.aic")) + sorted(GOLDEN.glob("*.rev")):
        inst = _load(path.name)
        args = (inst.kind, inst.db, inst.program, inst.universe(), path.name)
        if len(inst.universe()) > DEFAULT_MAX_ATOMS:
            # long_chain.aic is there for one membership check; enumerating
            # its 40 atoms is refused.
            with pytest.raises(UniverseTooLarge):
                _one_scan_matches(*args)
            continue
        _one_scan_matches(*args)
    for name, command, cls in cases:
        code = cli.main(
            [command, "--class", cls, "--format", "json", str(GOLDEN / name)]
        )
        assert code == 0, name
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["class"] == cls

    for i in range(ONE_SCAN_INSTANCES):
        seed = f"one-scan-{i}"
        rnd = random.Random(seed)
        atoms = gen.atom_pool(rnd)
        db = gen.database(rnd, atoms)
        uni = Universe(tuple(atoms))
        normal = rnd.random() < 0.5
        program = gen.aic_program(rnd, atoms, normal=normal)
        _one_scan_matches("aic", db, program, uni, seed)
        program = gen.rev_program(rnd, atoms, normal=normal, proper=rnd.random() < 0.5)
        _one_scan_matches("rev", db, program, uni, seed)


# ---------------------------------------------------------------------------
# Gate 8: the repair tree gives what the scan gives, and what the oracles give

TREE_INSTANCES = 300
TREE_ORACLE_ATOMS = 5
TREE_MEMBERSHIP_ATOMS = 4

# Each change-minimal class and its weak counterpart, the class of the same
# grounding without minimality.
MINIMAL_REPAIR_CLASSES = {
    RepairClass.REPAIR: RepairClass.WEAK_REPAIR,
    RepairClass.FOUNDED_REPAIR: RepairClass.FOUNDED_WEAK_REPAIR,
    RepairClass.JUSTIFIED_REPAIR: RepairClass.JUSTIFIED_WEAK_REPAIR,
    RepairClass.JUSTIFIED_REPAIR_NORMALIZED: (
        RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED
    ),
}
MINIMAL_REVISION_CLASSES = {
    RevisionClass.REVISION: RevisionClass.WEAK_REVISION,
    RevisionClass.FOUNDED_REVISION: RevisionClass.FOUNDED_WEAK_REVISION,
    RevisionClass.JUSTIFIED_REVISION: RevisionClass.JUSTIFIED_WEAK_REVISION,
    RevisionClass.JUSTIFIED_REVISION_NORMALIZED: (
        RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED
    ),
}


def _database(rnd, atoms, program):
    """A random database; half the time the first rule's body is made to
    hold in it, so the walk has a violation to repair."""
    db = set(gen.database(rnd, atoms))
    if program and rnd.random() < 0.5:
        for l in program[0].body:
            (db.add if l.positive else db.discard)(l.atom)
    return frozenset(db)


def _tree_matches_scan(engine, weak, counterparts, db, program, uni, seed) -> dict:
    """Each change-minimal class alone (the repair tree) against its
    definition on the listings of the clause search: the minimal members
    of the ``weak`` listing that its weak counterpart lists too. Returns
    the sets per class."""
    listed = engine.enumerate_classes(db, program, counterparts.values(), uni)
    sets = listed[weak].sets
    minimal = {u for u in sets if not any(v < u for v in sets)}
    got = {}
    for cls, counterpart in counterparts.items():
        tree = engine.enumerate_classes(db, program, [cls], uni)[cls].sets
        want = tuple(u for u in listed[counterpart].sets if u in minimal)
        assert tree == want, f"{seed}: {cls.value}"
        got[cls] = set(tree)
    return got


def test_repair_tree_matches_scan_and_oracles():
    for i in range(TREE_INSTANCES):
        seed = f"repair-tree-{i}"
        rnd = random.Random(seed)
        size = rnd.randint(2, 8)
        atoms = gen.atom_pool(rnd, size)
        uni = Universe(atoms)
        normal = rnd.random() < 0.5
        rules = (1, max(3, size))

        program = gen.aic_program(rnd, atoms, normal=normal, rules=rules)
        db = _database(rnd, atoms, program)
        got = _tree_matches_scan(
            repairs, RepairClass.WEAK_REPAIR, MINIMAL_REPAIR_CLASSES,
            db, program, uni, seed,
        )
        rprogram = gen.rev_program(
            rnd, atoms, normal=normal, proper=rnd.random() < 0.5, rules=rules
        )
        rdb = _database(rnd, atoms, revisions._aic(rprogram))
        rgot = _tree_matches_scan(
            revisions, RevisionClass.WEAK_REVISION, MINIMAL_REVISION_CLASSES,
            rdb, rprogram, uni, seed,
        )
        if size > TREE_ORACLE_ATOMS:
            continue

        norm = transforms.normalize_aic(program)
        want = {
            RepairClass.REPAIR: oracles.repairs(db, program, atoms),
            RepairClass.FOUNDED_REPAIR: oracles.founded_repairs(db, program, atoms),
            RepairClass.JUSTIFIED_REPAIR: oracles.justified_repairs(db, program, atoms),
            RepairClass.JUSTIFIED_REPAIR_NORMALIZED: oracles.justified_repairs(
                db, norm, atoms
            ),
        }
        assert got == want, seed
        rnorm = transforms.normalize_rev(rprogram)
        rwant = {
            RevisionClass.REVISION: oracles.revisions(rdb, rprogram, atoms),
            RevisionClass.FOUNDED_REVISION: oracles.founded_revisions(
                rdb, rprogram, atoms
            ),
            RevisionClass.JUSTIFIED_REVISION: oracles.justified_revisions(
                rdb, rprogram, atoms
            ),
            RevisionClass.JUSTIFIED_REVISION_NORMALIZED: oracles.justified_revisions(
                rdb, rnorm, atoms
            ),
        }
        assert rgot == rwant, seed
        if size > TREE_MEMBERSHIP_ATOMS:
            continue

        # The restricted walk decides change-minimality of every candidate,
        # inconsistent and non-essential ones included.
        for raw in oracles.subsets(oracles.all_actions(atoms)):
            cand = frozenset(raw)
            for cls, members in want.items():
                assert repairs.check_membership(db, program, cls, cand, uni) == (
                    cand in members
                ), f"{seed}: {cls.value} {format_set(cand)}"


# ---------------------------------------------------------------------------
# Gate 9: the clause search gives what a plain scan of every subset gives

PLAIN_INSTANCES = 300
PLAIN_ORACLE_ATOMS = 5


def _justified_on_sets(db, program, e, atoms) -> bool:
    """The justified test on frozensets: ``e`` and its no-effect actions
    ``ne`` are disjoint, ``e | ne`` is closed, and a search up from ``ne``,
    where a set that violates a rule grows by one of that rule's head
    actions in ``e``, reaches no closed set but ``e | ne``."""
    ne = oracles.ne(db, oracles.apply(db, e), atoms)
    full = e | ne
    if e & ne or not repairs.is_closed(program, full):
        return False
    todo, seen = [ne], {ne}
    while todo:
        s = todo.pop()
        rule = next((r for r in program if r.trigger <= s and not r.head & s), None)
        if rule is None and s != full:
            return False
        for t in (s | {a} for a in (rule.head & e if rule else ())):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return True


def _grounded_on_sets(grounding, db, program, u, uni) -> bool:
    if grounding == "founded":
        return repairs.is_founded_set(db, program, u)
    if grounding == "justified":
        return _justified_on_sets(db, program, u, uni.atoms)
    return True


def _plain_repair_classes(db, program, uni, classes) -> dict:
    """Each class from a plain scan: the subsets of the essential actions
    after which no rule body holds, in canonical order; a change-minimal
    class keeps those with no proper subset among them, a grounded class
    those that pass the grounding test on frozensets."""
    essential = essential_actions(db, uni)
    every = (
        frozenset(c)
        for k in range(len(essential) + 1)
        for c in itertools.combinations(essential, k)
    )
    weak = sorted(
        (u for u in every if entails(apply_update(db, u), program)),
        key=oracles.canonical_key,
    )
    kept: list = []
    for u in sorted(weak, key=len):
        if not any(v < u for v in kept):
            kept.append(u)
    minimal = set(kept)
    programs = {False: program, True: transforms.normalize_aic(program)}
    grounded = {
        (normalized, g): {
            u for u in weak if _grounded_on_sets(g, db, programs[normalized], u, uni)
        }
        for normalized, g in {repairs._TABLE[c][:2] for c in classes}
    }
    out = {}
    for cls in classes:
        normalized, grounding, change_minimal = repairs._TABLE[cls]
        out[cls] = tuple(
            u
            for u in weak
            if (u in minimal or not change_minimal)
            and u in grounded[normalized, grounding]
        )
    return out


def _plain_revision_classes(db, program, uni, classes) -> dict:
    aic = revisions._aic(program)
    plain = _plain_repair_classes(
        db, aic, uni, {revisions._REPAIR_CLASS[c] for c in classes}
    )
    return {
        c: tuple(
            frozenset(map(rev_literal, u)) for u in plain[revisions._REPAIR_CLASS[c]]
        )
        for c in classes
    }


def _with_dual_pair(rnd, program, atoms):
    """Now and then one rule's body also holds an atom and its dual; such a
    body never holds."""
    if not program or rnd.random() < 0.7:
        return program
    k = rnd.randrange(len(program))
    r, a = program[k], rnd.choice(atoms)
    if isinstance(r, AicRule):
        r = AicRule(r.body | {Literal(a), Literal(a, False)}, r.head)
    else:
        r = RevRule(r.head, r.body | {RevLiteral(a, True), RevLiteral(a, False)})
    return program[:k] + (r,) + program[k + 1:]


def _matches_plain(engine, classes, grounded, want, db, program, uni, rnd, seed):
    """All classes in one call (as ``lattice`` asks), the founded and
    justified ones alone (their search flips head actions only), and a
    random mix."""
    mix = rnd.sample(classes, rnd.randint(1, len(classes)))
    for request in (classes, grounded, mix):
        got = engine.enumerate_classes(db, program, request, uni)
        for cls in request:
            assert got[cls].sets == want[cls], f"{seed}: {cls.value} of {request}"


def test_clause_search_matches_plain_scan_and_oracles():
    aic_grounded = [c for c in RepairClass if repairs._TABLE[c][1]]
    for i in range(PLAIN_INSTANCES):
        seed = f"clause-search-{i}"
        rnd = random.Random(seed)
        size = rnd.randint(2, 10)
        atoms = gen.atom_pool(rnd, size)
        # Atoms past ``used`` are free: declared, but in no rule.
        used = atoms[: max(1, size - rnd.choice((0, 0, 1, 2)))]
        uni = Universe(atoms)
        normal = rnd.random() < 0.5
        rules = (1, max(3, size))

        program = gen.aic_program(rnd, used, normal=normal, rules=rules)
        program = _with_dual_pair(rnd, program, used)
        db = _database(rnd, atoms, program)
        classes = list(RepairClass)
        want = _plain_repair_classes(db, program, uni, classes)
        _matches_plain(
            repairs, classes, aic_grounded, want, db, program, uni, rnd, seed
        )

        rprogram = gen.rev_program(
            rnd, used, normal=normal, proper=rnd.random() < 0.5, rules=rules
        )
        rprogram = _with_dual_pair(rnd, rprogram, used)
        rdb = _database(rnd, atoms, revisions._aic(rprogram))
        rclasses = [
            c
            for c in RevisionClass
            if c is not RevisionClass.SUPPORTED_REVISION or is_normal(rprogram)
        ]
        rwant = _plain_revision_classes(rdb, rprogram, uni, rclasses)
        rgrounded = [c for c in rclasses if revisions._REPAIR_CLASS[c] in aic_grounded]
        _matches_plain(
            revisions, rclasses, rgrounded, rwant, rdb, rprogram, uni, rnd, seed
        )
        if size > PLAIN_ORACLE_ATOMS:
            continue

        norm = oracles.normalize(program)
        assert {key: set(want[cls]) for key, cls in AIC_CLASSES.items()} == (
            _aic_oracle(db, program, atoms)
        ), seed
        assert set(want[RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED]) == (
            oracles.justified_weak_repairs(db, norm, atoms)
        ), seed
        rnorm = oracles.normalize_rev(rprogram)
        assert {key: set(rwant[cls]) for key, cls in REV_CLASSES.items()} == (
            _rev_oracle(rdb, rprogram, atoms)
        ), seed
        assert set(rwant[RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED]) == (
            oracles.justified_weak_revisions(rdb, rnorm, atoms)
        ), seed
        if RevisionClass.SUPPORTED_REVISION in rwant:
            assert set(rwant[RevisionClass.SUPPORTED_REVISION]) == (
                oracles.supported_revisions(rdb, rprogram, atoms)
            ), seed


# ---------------------------------------------------------------------------
# Gate 10: the engine's tests on masks give what the definitions on sets give

MASK_INSTANCES = 300
MASK_ORACLE_ATOMS = 5


def _masks_match_sets(db, program, uni, seed) -> dict:
    """Every weak repair of a plain scan, as a mask over all essential
    actions and, when inside the heads, over the essential head actions
    alone (the positions of a request of grounded classes only): founded,
    justified on the program and on its normalization, and the
    change-minimal sets of the repair tree each agree with their
    definitions on sets.
    Returns each class as a set of frozensets."""
    essential = essential_actions(db, uni)
    weak = [
        frozenset(c)
        for k in range(len(essential) + 1)
        for c in itertools.combinations(essential, k)
        if entails(apply_update(db, frozenset(c)), program)
    ]
    minimal = [u for u in weak if not any(v < u for v in weak)]
    norm = transforms.normalize_aic(program)
    heads = frozenset().union(*(r.head for r in program))
    got = {"wr": set(weak), "fwr": set(), "jwr": set(), "njwr": set()}
    for actions in (essential, tuple(a for a in essential if a in heads)):
        compiled = repairs._Compiled(repairs._compile(db, program, actions))
        normalized = repairs._Compiled(repairs._compile(db, norm, actions))
        least = sorted(
            (
                sum(1 << i for i, a in enumerate(actions) if a in u)
                for u in minimal
                if u <= set(actions)
            ),
            key=positions,
        )
        full = (1 << len(actions)) - 1
        assert repairs._least(compiled.clauses, full) == least, (
            f"{seed}: over {len(actions)} positions"
        )
        for u in weak:
            if not u <= set(actions):
                continue
            x = sum(1 << i for i, a in enumerate(actions) if a in u)
            where = f"{seed}: {format_set(u)} over {len(actions)} positions"
            founded = compiled.founded(x)
            assert founded == repairs.is_founded_set(db, program, u), where
            justified = compiled.justified(x)
            assert justified == _justified_on_sets(db, program, u, uni.atoms), where
            njustified = normalized.justified(x)
            assert njustified == _justified_on_sets(db, norm, u, uni.atoms), where
            for key, member in (("fwr", founded), ("jwr", justified), ("njwr", njustified)):
                if member:
                    got[key].add(u)
    got["r"] = set(minimal)
    return got


def test_mask_predicates_match_the_definitions_on_sets():
    for i in range(MASK_INSTANCES):
        seed = f"masks-{i}"
        rnd = random.Random(seed)
        size = rnd.randint(2, 10)
        atoms = gen.atom_pool(rnd, size)
        # Atoms past ``used`` are free: declared, but in no rule.
        used = atoms[: max(1, size - rnd.choice((0, 0, 1, 2)))]
        uni = Universe(atoms)
        normal = rnd.random() < 0.5
        rules = (1, max(3, size))

        program = gen.aic_program(rnd, used, normal=normal, rules=rules)
        program = _with_dual_pair(rnd, program, used)
        db = _database(rnd, atoms, program)
        got = _masks_match_sets(db, program, uni, seed)

        rprogram = gen.rev_program(
            rnd, used, normal=normal, proper=rnd.random() < 0.5, rules=rules
        )
        rprogram = _with_dual_pair(rnd, rprogram, used)
        raic = revisions._aic(rprogram)
        rdb = _database(rnd, atoms, raic)
        rgot = _masks_match_sets(rdb, raic, uni, seed)
        if size > MASK_ORACLE_ATOMS:
            continue

        assert got == {
            "wr": oracles.weak_repairs(db, program, atoms),
            "r": oracles.repairs(db, program, atoms),
            "fwr": oracles.founded_weak_repairs(db, program, atoms),
            "jwr": oracles.justified_weak_repairs(db, program, atoms),
            "njwr": oracles.justified_weak_repairs(
                db, oracles.normalize(program), atoms
            ),
        }, seed
        rnorm = oracles.normalize_rev(rprogram)
        assert {
            key: {frozenset(map(rev_literal, u)) for u in sets}
            for key, sets in rgot.items()
        } == {
            "wr": oracles.weak_revisions(rdb, rprogram, atoms),
            "r": oracles.revisions(rdb, rprogram, atoms),
            "fwr": oracles.founded_weak_revisions(rdb, rprogram, atoms),
            "jwr": oracles.justified_weak_revisions(rdb, rprogram, atoms),
            "njwr": oracles.justified_weak_revisions(rdb, rnorm, atoms),
        }, seed


# ---------------------------------------------------------------------------
# Gate 11: the search split into position blocks gives what a brute-force
# scan gives, on clause sets at every table width and on instances made of
# components, and past brute force what the node-by-node search gives

BLOCK_CLAUSE_SETS = 20000
BLOCK_POSITIONS = 10
COMPONENT_INSTANCES = 40
COMPONENT_ATOMS = 12

#: Every mask over ``n`` positions, in the order of their sorted positions.
_CANONICAL = [sorted(range(1 << n), key=positions) for n in range(BLOCK_POSITIONS + 1)]


def _clause_set(rnd, n) -> list[tuple[int, int]]:
    """0-6 clauses over ``n`` positions. In half the sets each clause lies
    in a window of 1-3 positions, so cuts fire; positions in no clause are
    free. Now and then a clause has no position, and always when ``n`` is
    0: then no mask qualifies."""
    narrow = rnd.random() < 0.5
    clauses = []
    for _ in range(rnd.randint(0, 6)):
        if not n or rnd.random() < 0.02:
            clauses.append((0, 0))
            continue
        lo = rnd.randrange(n) if narrow else 0
        window = range(lo, min(n, lo + rnd.randint(1, 3))) if narrow else range(n)
        held = [i for i in window if rnd.random() < 0.6] or [rnd.choice(window)]
        m = sum(1 << i for i in held)
        clauses.append((m, m & rnd.getrandbits(n)))
    return clauses


def _ranges(clauses, n) -> list[tuple[int, int]]:
    """The ranges of ``n`` positions split at every cut: a position that no
    clause holds bits both below and at or above."""
    cuts = [
        i for i in range(1, n)
        if not any(m & ((1 << i) - 1) and m >> i for m, _ in clauses)
    ]
    starts = [0, *cuts, n]
    return list(zip(starts, starts[1:]))


def _block_gate() -> None:
    for i in range(BLOCK_CLAUSE_SETS):
        rnd = random.Random(f"block-search-{i}")
        n = rnd.randint(0, BLOCK_POSITIONS)
        clauses = _clause_set(rnd, n)
        want = _CANONICAL[n]
        for m, f in clauses:
            want = [x for x in want if x & m != f]
        # Each range is searched on the clauses that lie in it; a clause
        # with no position goes with the last, as the split puts it.
        ranges, blocks = _ranges(clauses, n), []
        for lo, hi in ranges:
            own = [
                (m, f) for m, f in clauses
                if m >> lo and not m >> hi or not m and hi == n
            ]
            found, nodes = clause_search(own, lo, hi)
            blocks.append(found)
            where = f"block-search-{i}: {lo}-{hi}"
            assert (nodes == 0) == any(not m for m, _ in own), where
        found = list(model._product(blocks))
        assert found == want, f"block-search-{i}: {n} positions, {clauses}"


def test_block_search_matches_brute_force():
    _block_gate()


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_block_search_matches_brute_force_at_narrow_widths(monkeypatch, bits):
    # At the full table width no block of the gate is wider than the
    # table, so it is read once; narrower tables make blocks whose low
    # positions are searched again below the top table and joined to it,
    # and at width 1 a block of 10 positions recurses 10 deep.
    monkeypatch.setattr(model, "_TABLE_BITS", bits)
    _block_gate()


#: Connected instances per size for the differential gate below: 10 each
#: of 11-18 positions, and 2 each of 21 and 22, each one block whose top
#: two tables sit above a prefix of 1-2 positions.
CONNECTED_SIZES = [*((n, 10) for n in range(11, 19)), (21, 2), (22, 2)]


def test_table_search_matches_the_node_search_past_brute_force():
    # Connected instances of 11-22 positions in the shape of the
    # benchmark's pools, and ``wide16.aic`` renamed so that its components
    # interleave, each hold a block wider than a table: its low positions'
    # masks joined to the tables above them must list what the node-by-node
    # search lists, in the same order.
    cases = []
    for n, count in CONNECTED_SIZES:
        for k in range(count):
            rnd = random.Random(f"connected-{n}-{k}")
            atoms = gen.atom_pool(rnd, n)
            program = gen.connected_aic(rnd, atoms, n)
            db = gen.database(rnd, atoms)
            cases.append((f"connected-{n}-{k}", db, program, atoms))
    wide = _load("wide16.aic")
    names = "abcdefghijklmnop"
    to = {a: names[4 * (i % 4) + i // 4] for i, a in enumerate(names)}
    cases.append((
        "wide16-interleaved",
        frozenset(to[a] for a in wide.db),
        _renamed(wide.program, to),
        tuple(names),
    ))
    for where, db, program, atoms in cases:
        actions = essential_actions(db, Universe(atoms))
        rules = repairs._compile(db, program, actions)
        clauses = repairs._Compiled(rules).clauses
        ranges, parts = repairs._split(rules, len(actions))
        blocks = [clause_search(p.clauses, lo, hi)[0] for p, (lo, hi) in zip(parts, ranges)]
        found = list(model._product(blocks))
        assert found == oracles.clause_search(clauses, len(actions)), where


def _renamed(program, to: dict):
    """The program with every atom ``a`` renamed to ``to[a]``."""
    def move(xs):
        return frozenset(x._replace(atom=to[x.atom]) for x in xs)

    return tuple(
        AicRule(move(r.body), move(r.head))
        if isinstance(r, AicRule)
        else RevRule(move(r.head), move(r.body))
        for r in program
    )


def _components(rnd):
    """2-4 components of 2-3 atoms over contiguous names, then 0-3 free
    atoms, at most ``COMPONENT_ATOMS`` in all; returns the atoms, the
    components and the free atoms as one-atom groups."""
    sizes = [rnd.randint(2, 3) for _ in range(rnd.randint(2, 4))]
    free = rnd.randint(0, min(3, COMPONENT_ATOMS - sum(sizes)))
    atoms = gen.atom_pool(rnd, sum(sizes) + free)
    starts = list(itertools.accumulate(sizes, initial=0))
    components = [atoms[a:b] for a, b in zip(starts, starts[1:])]
    return atoms, components, [(a,) for a in atoms[starts[-1]:]]


def test_position_blocks_match_plain_scan(monkeypatch):
    blocks = {"contiguous": 0, "interleaved": 0}
    search = model.clause_search
    depth = 0

    def counting(clauses, lo, hi):
        # A block wider than a table searches its low positions through
        # this name again; only the outermost call is a block.
        nonlocal depth
        blocks[naming] += not depth
        depth += 1
        try:
            return search(clauses, lo, hi)
        finally:
            depth -= 1

    monkeypatch.setattr(model, "clause_search", counting)
    monkeypatch.setattr(repairs, "clause_search", counting)
    aic_grounded = [c for c in RepairClass if repairs._TABLE[c][1]]
    for i in range(COMPONENT_INSTANCES):
        seed = f"position-blocks-{i}"
        rnd = random.Random(seed)
        atoms, components, free = _components(rnd)
        uni = Universe(atoms)
        normal = rnd.random() < 0.5
        program, rprogram, db, rdb = (), (), frozenset(), frozenset()
        for part in components:
            rules = (1, len(part) + 1)
            p = gen.aic_program(rnd, part, normal=normal, rules=rules)
            r = gen.rev_program(
                rnd, part, normal=normal, proper=rnd.random() < 0.5, rules=rules
            )
            program, rprogram = program + p, rprogram + r
            db |= _database(rnd, part, p)
            rdb |= _database(rnd, part, revisions._aic(r))
        db |= gen.database(rnd, [a for (a,) in free])
        rdb |= gen.database(rnd, [a for (a,) in free])
        # The interleaved naming takes one atom of each group in turn, so
        # the clauses of each component cross those of the others.
        groups = components + free
        turns = [g[k] for k in range(3) for g in groups if k < len(g)]
        for naming, to in (
            ("contiguous", {a: a for a in atoms}),
            ("interleaved", dict(zip(turns, atoms))),
        ):
            where = f"{seed} {naming}"
            p, r = _renamed(program, to), _renamed(rprogram, to)
            d = frozenset(to[a] for a in db)
            rd = frozenset(to[a] for a in rdb)
            classes = list(RepairClass)
            want = _plain_repair_classes(d, p, uni, classes)
            _matches_plain(repairs, classes, aic_grounded, want, d, p, uni, rnd, where)
            rclasses = [
                c
                for c in RevisionClass
                if c is not RevisionClass.SUPPORTED_REVISION or is_normal(r)
            ]
            rwant = _plain_revision_classes(rd, r, uni, rclasses)
            rgrounded = [
                c for c in rclasses if revisions._REPAIR_CLASS[c] in aic_grounded
            ]
            _matches_plain(
                revisions, rclasses, rgrounded, rwant, rd, r, uni, rnd, where
            )
    assert blocks["contiguous"] > 2 * blocks["interleaved"], blocks


# ---------------------------------------------------------------------------
# Gate 12: every class is the product of its classes on the components

PRODUCT_GATE_INSTANCES = 40

#: Each class and its definition on sets: ``(db, program, atoms) -> sets``.
AIC_ORACLES = {
    RepairClass.WEAK_REPAIR: oracles.weak_repairs,
    RepairClass.REPAIR: oracles.repairs,
    RepairClass.FOUNDED_WEAK_REPAIR: oracles.founded_weak_repairs,
    RepairClass.FOUNDED_REPAIR: oracles.founded_repairs,
    RepairClass.JUSTIFIED_WEAK_REPAIR: oracles.justified_weak_repairs,
    RepairClass.JUSTIFIED_REPAIR: oracles.justified_repairs,
    RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED: lambda db, p, atoms: (
        oracles.justified_weak_repairs(db, oracles.normalize(p), atoms)
    ),
    RepairClass.JUSTIFIED_REPAIR_NORMALIZED: lambda db, p, atoms: (
        oracles.justified_repairs(db, oracles.normalize(p), atoms)
    ),
}
REV_ORACLES = {
    RevisionClass.WEAK_REVISION: oracles.weak_revisions,
    RevisionClass.REVISION: oracles.revisions,
    RevisionClass.FOUNDED_WEAK_REVISION: oracles.founded_weak_revisions,
    RevisionClass.FOUNDED_REVISION: oracles.founded_revisions,
    RevisionClass.JUSTIFIED_WEAK_REVISION: oracles.justified_weak_revisions,
    RevisionClass.JUSTIFIED_REVISION: oracles.justified_revisions,
    RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED: lambda db, p, atoms: (
        oracles.justified_weak_revisions(db, oracles.normalize_rev(p), atoms)
    ),
    RevisionClass.JUSTIFIED_REVISION_NORMALIZED: lambda db, p, atoms: (
        oracles.justified_revisions(db, oracles.normalize_rev(p), atoms)
    ),
    RevisionClass.SUPPORTED_REVISION: oracles.supported_revisions,
}


def _oracle_product(oracle, db, program, groups) -> set[frozenset]:
    """The unions of one member per group of the class the oracle defines,
    each group of atoms with the rules over it and its share of ``db``."""
    out = {frozenset()}
    for atoms in groups:
        rules = tuple(r for r in program if r.atoms() <= set(atoms))
        part = oracle(db & set(atoms), rules, atoms)
        out = {u | v for u in out for v in part}
    return out


def _products_match(engine, oracles_of, db, program, groups, uni, where) -> None:
    """Every class, in one call and alone, is the product of its oracle
    classes on the groups, in canonical order; every report of the call is
    a product over the same ranges, and a class with no member is one
    empty block."""
    classes = [
        c for c in oracles_of
        if c is not RevisionClass.SUPPORTED_REVISION or is_normal(program)
    ]
    together = engine.enumerate_classes(db, program, classes, uni)
    ranges = {len(rep.blocks) for rep in together.values() if rep.size}
    assert len(ranges) <= 1, where
    for cls in classes:
        want = sorted(
            _oracle_product(oracles_of[cls], db, program, groups),
            key=lambda u: sorted(map(model._key, u)),
        )
        for got in (together[cls], engine.enumerate_classes(db, program, [cls], uni)[cls]):
            assert list(got.sets) == want, f"{where}: {cls.value}"
            assert got.size or got.blocks == ((),), f"{where}: {cls.value}"


def test_every_class_is_the_product_of_its_component_classes():
    # 2-4 components of 2-3 atoms, each with its own rules (normal or
    # disjunctive, now and then a body with an atom and its dual, proper
    # or improper rev: rules), and 0-3 free atoms, at most 12 atoms.
    for i in range(PRODUCT_GATE_INSTANCES):
        seed = f"component-product-{i}"
        rnd = random.Random(seed)
        atoms, components, free = _components(rnd)
        uni, normal = Universe(atoms), rnd.random() < 0.5
        program, rprogram, db, rdb = (), (), frozenset(), frozenset()
        for part in components:
            rules = (1, len(part) + 1)
            p = gen.aic_program(rnd, part, normal=normal, rules=rules)
            p = _with_dual_pair(rnd, p, part)
            r = gen.rev_program(
                rnd, part, normal=normal, proper=rnd.random() < 0.5, rules=rules
            )
            r = _with_dual_pair(rnd, r, part)
            program, rprogram = program + p, rprogram + r
            db |= _database(rnd, part, p)
            rdb |= _database(rnd, part, revisions._aic(r))
        db |= gen.database(rnd, [a for (a,) in free])
        rdb |= gen.database(rnd, [a for (a,) in free])
        groups = components + free
        _products_match(repairs, AIC_ORACLES, db, program, groups, uni, seed)
        _products_match(revisions, REV_ORACLES, rdb, rprogram, groups, uni, seed)


def test_wall_1_repairs_come_from_one_small_tree_per_component():
    # 8 connected components of 4 atoms and 2 free atoms, each component's
    # first rule violated: 1,296 repairs. One tree over all 34 positions
    # visited 131,278 sets; one tree per range visits 48.
    atoms, db, program = gen.components_aic(random.Random("probe/8/0"), (4,) * 8, 2)
    db = gen.violating(db, program)
    uni, limits = Universe(atoms), Limits(34)
    report = enumerate_repairs(db, program, RepairClass.REPAIR, uni, limits)
    assert report.examined <= 200
    groups = [atoms[k:k + 4] for k in range(0, 32, 4)] + [(a,) for a in atoms[32:]]
    want = _oracle_product(oracles.repairs, db, program, groups)
    assert list(report.sets) == sorted(want, key=oracles.canonical_key)
    assert report.size == 1296


# ---------------------------------------------------------------------------
# Gate 13: the repair tree's column filter keeps the leaves that the pairwise
# scan keeps

LEAST_INSTANCES = 150
LEAST_ATOMS = 12
LEAST_ORACLE_ATOMS = 8


def _pairwise_least(clauses, moves) -> list[int]:
    """The change-minimal leaves of the repair tree by the pairwise scan:
    smallest first, a leaf is kept when no leaf kept before it is inside
    it."""
    kept: list[int] = []
    for u in sorted(model.walk(0, repairs._tree(clauses, moves)), key=int.bit_count):
        if all(v & u != v for v in kept):
            kept.append(u)
    return sorted(kept, key=positions)


def test_least_keeps_what_the_pairwise_scan_keeps():
    # Connected programs under a violating database (the shape of Wall 3,
    # one large component) and random ones; each range of positions is
    # filtered on its own, as the engine filters it.
    filtered = 0
    for i in range(LEAST_INSTANCES):
        seed = f"least-{i}"
        rnd = random.Random(seed)
        size = rnd.randint(2, LEAST_ATOMS)
        atoms = gen.atom_pool(rnd, size)
        if rnd.random() < 0.5:
            program = gen.connected_aic(rnd, atoms, rnd.randint(1, size))
        else:
            program = gen.aic_program(rnd, atoms, rnd.random() < 0.5, (1, max(3, size)))
        db = gen.violating(gen.database(rnd, atoms), program)
        uni = Universe(atoms)
        actions = essential_actions(db, uni)
        rules = repairs._compile(db, program, actions)
        ranges, parts = repairs._split(rules, len(actions))
        for (lo, hi), part in zip(ranges, parts):
            moves = (1 << hi) - (1 << lo)
            want = _pairwise_least(part.clauses, moves)
            assert repairs._least(part.clauses, moves) == want, f"{seed}: {lo}-{hi}"
            filtered += len(want) > 1
        if size <= LEAST_ORACLE_ATOMS:
            got = enumerate_repairs(db, program, RepairClass.REPAIR, uni, Limits(size))
            want = sorted(oracles.repairs(db, program, atoms), key=oracles.canonical_key)
            assert list(got.sets) == want, seed
    assert filtered >= LEAST_INSTANCES // 2


# ---------------------------------------------------------------------------
# Gate 14: the parts of the split partition the compiled rules

SPLIT_INSTANCES = 90


def _split_instances():
    """``(seed, db, program, atoms)``: connected programs, and programs of
    components with free atoms; every other one has a body that holds an
    atom of the rule and its dual, and every third one a rule with no
    body, which no set can satisfy."""
    for i in range(SPLIT_INSTANCES):
        seed = f"split-{i}"
        rnd = random.Random(seed)
        if i % 2:
            atoms = gen.atom_pool(rnd, rnd.randint(1, 10))
            program = gen.connected_aic(rnd, atoms, rnd.randint(1, len(atoms)))
            db = gen.database(rnd, atoms)
        else:
            parts = [rnd.randint(1, 4) for _ in range(rnd.randint(1, 4))]
            atoms, db, program = gen.components_aic(rnd, parts, rnd.randint(0, 3))
        if i % 4 < 2:
            k = rnd.randrange(len(program))
            r = program[k]
            a = rnd.choice(sorted(r.atoms()))
            r = AicRule(r.body | {Literal(a), Literal(a, False)}, r.head)
            program = program[:k] + (r,) + program[k + 1:]
        if i % 3 == 0:
            k = rnd.randint(0, len(program))
            program = program[:k] + (AicRule((), ()),) + program[k:]
        yield seed, db, program, atoms


def test_the_split_partitions_the_compiled_rules():
    # Over all essential actions, and over the head actions alone (the
    # positions of a request of grounded classes only, where a body on
    # other atoms that holds in db is a rule with no bit).
    counts = {"parts": 0, "dual": 0, "no bit": 0}
    for seed, db, program, atoms in _split_instances():
        uni = Universe(atoms)
        essential = essential_actions(db, uni)
        heads = frozenset().union(*(r.head for r in program))
        for actions in (essential, tuple(a for a in essential if a in heads)):
            where = f"{seed} over {len(actions)} positions"
            rules = repairs._compile(db, program, actions)
            whole = repairs._Compiled(rules)
            ranges, parts = repairs._split(rules, len(actions))
            starts = [lo for lo, _ in ranges]
            assert starts == [0, *(hi for _, hi in ranges[:-1])], where
            assert ranges[-1][1] == len(actions) and len(parts) == len(ranges), where

            def part_of(m):
                """The range that holds the bits ``m``; the last, for none."""
                if not m:
                    return len(ranges) - 1
                return bisect_right(starts, (m & -m).bit_length() - 1) - 1

            for (lo, hi), part in zip(ranges, parts):
                span = (1 << hi) - (1 << lo)
                for te, tn, he, hn in part.rules:
                    assert not (te | tn | he | hn) & ~span, where
                for b in part.support:
                    assert b & span, where
            # Each part's rules, clauses and support are the whole
            # program's that lie in its range, in program order.
            by_part = sorted(rules, key=lambda r: part_of(r[0] | r[1] | r[2] | r[3]))
            assert [r for p in parts for r in p.rules] == by_part, where
            by_part = sorted(whole.clauses, key=lambda c: part_of(c[0]))
            assert [c for p in parts for c in p.clauses] == by_part, where
            support = {b: s for p in parts for b, s in p.support.items()}
            assert support == whole.support, where
            # A rule with no bit leaves the last range with no weak repair.
            if (0, 0, 0, 0) in rules:
                assert (0, 0) in parts[-1].clauses, where
                assert clause_search(parts[-1].clauses, *ranges[-1]) == ([], 0), where
                counts["no bit"] += 1
            counts["parts"] += len(parts) > 1
            counts["dual"] += any((te | hn) & (tn | he) for te, tn, he, hn in rules)
        for cls in (RepairClass.WEAK_REPAIR, RepairClass.FOUNDED_WEAK_REPAIR):
            limits = Limits(len(atoms))
            report = repairs.enumerate_classes(db, program, [cls], uni, limits)[cls]
            rules = repairs._compile(db, program, report.actions)
            if (0, 0, 0, 0) in rules:
                assert report.blocks == ((),), f"{seed}: {cls.value}"
    assert min(counts.values()) >= SPLIT_INSTANCES // 4, counts
