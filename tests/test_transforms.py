"""Normalization, properization, translation, and shifting."""

import random

import pytest

import gen
from aicrepair import repairs, revisions
from aicrepair.errors import NotProperProgram, UnknownAtom
from aicrepair.model import (
    AicRule,
    Literal,
    RevLiteral,
    RevRule,
    Universe,
    UpdateAction,
    is_normal,
    is_proper,
)
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass
from aicrepair.syntax import parse_program
from aicrepair.transforms import (
    normalize_aic,
    normalize_rev,
    properize,
    shift,
    shift_db,
    shift_instance,
    to_aic,
    to_aic_rule,
    to_rev,
    to_rev_rule,
)


def aic(text):
    return parse_program(text, "aic")


def rev(text):
    return parse_program(text, "rev")


def program_text(program):
    return "\n".join(str(r) for r in program)


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_aic_splits_heads_and_keeps_bodies():
    program = aic("a, b -> -a | -b.")
    assert program_text(normalize_aic(program)) == "a, b -> -a.\na, b -> -b."


def test_normalize_rev_adds_duals_of_removed_head_literals():
    program = rev("in(a) | in(b) <- in(c).")
    assert program_text(normalize_rev(program)) == (
        "in(a) <- out(b), in(c).\nin(b) <- out(a), in(c)."
    )


def test_normalization_passes_normal_rules_through():
    program = aic("a -> -a.\nb -> false.")
    assert normalize_aic(program) == program
    constraint = rev("false <- in(a).\nin(b) <- .")
    assert normalize_rev(constraint) == constraint


def test_normalization_is_idempotent():
    rnd = random.Random("normalize-idempotent")
    for _ in range(100):
        atoms = gen.atom_pool(rnd, 3)
        p = gen.aic_program(rnd, atoms)
        q = gen.rev_program(rnd, atoms)
        assert normalize_aic(normalize_aic(p)) == normalize_aic(p)
        assert normalize_rev(normalize_rev(q)) == normalize_rev(q)
        assert is_normal(normalize_aic(p))
        assert is_normal(normalize_rev(q))


# ---------------------------------------------------------------------------
# Properization


def test_properize_drops_self_defeating_head_literals():
    program = rev("in(a) | in(b) <- out(a), in(c).")
    (r,) = properize(program)
    assert r.head == frozenset({RevLiteral("b", True)})
    assert r.body == program[0].body


def test_properize_can_turn_a_rule_into_a_constraint():
    program = rev("in(a) <- out(a).")
    (r,) = properize(program)
    assert r.head == frozenset()
    assert is_proper(properize(program))


def test_properize_is_idempotent_and_preserves_normality():
    rnd = random.Random("properize-idempotent")
    for _ in range(100):
        atoms = gen.atom_pool(rnd, 3)
        q = gen.rev_program(rnd, atoms, proper=False)
        assert properize(properize(q)) == properize(q)
        assert is_proper(properize(q))
        if is_normal(q):
            assert is_normal(properize(q))


# ---------------------------------------------------------------------------
# Translation


def test_translation_of_a_choice_rule():
    (r,) = to_aic(rev("in(a) | out(b) <- in(c)."))
    assert r.body == frozenset({Literal("c"), Literal("a", False), Literal("b")})
    assert r.head == frozenset({UpdateAction("a", True), UpdateAction("b", False)})
    assert to_rev_rule(r) == rev("in(a) | out(b) <- in(c).")[0]


def test_translation_of_a_constraint():
    (r,) = to_aic(rev("false <- in(a), out(b)."))
    assert r.head == frozenset()
    assert r.body == frozenset({Literal("a"), Literal("b", False)})


def test_translation_rejects_improper_rules():
    with pytest.raises(NotProperProgram):
        to_aic_rule(rev("in(a) <- out(a).")[0])


def test_translation_round_trips():
    rnd = random.Random("translate-round-trip")
    for _ in range(200):
        atoms = gen.atom_pool(rnd, 3)
        p = gen.aic_program(rnd, atoms)
        assert to_aic(to_rev(p)) == p
        q = gen.rev_program(rnd, atoms, proper=True)
        assert to_rev(to_aic(q)) == q


def test_translation_commutes_with_normalization():
    rnd = random.Random("translate-normalize")
    for _ in range(100):
        atoms = gen.atom_pool(rnd, 3)
        p = gen.aic_program(rnd, atoms)
        assert to_rev(normalize_aic(p)) == normalize_rev(to_rev(p))


# ---------------------------------------------------------------------------
# Shifting


def test_shift_dualizes_only_atoms_in_the_set():
    assert shift(Literal("a"), {"a"}) == Literal("a", False)
    assert shift(UpdateAction("a", True), {"b"}) == UpdateAction("a", True)
    assert shift(RevLiteral("a", True), {"a"}) == RevLiteral("a", False)
    rule = aic("a, not b -> -a.")[0]
    shifted = shift(rule, {"a", "b"})
    assert shifted == aic("not a, b -> +a.")[0]


def test_shift_rejects_unknown_types():
    with pytest.raises(TypeError):
        shift("a", {"a"})


def test_shift_is_an_involution():
    rnd = random.Random("shift-involution")
    for _ in range(200):
        atoms = gen.atom_pool(rnd, 3)
        by = frozenset(a for a in atoms if rnd.random() < 0.5)
        p = gen.aic_program(rnd, atoms)
        q = gen.rev_program(rnd, atoms, proper=False)
        db = gen.database(rnd, atoms)
        assert shift(shift(p, by), by) == p
        assert shift(shift(q, by), by) == q
        assert shift_db(shift_db(db, by), by) == db


def test_shift_db_is_symmetric_difference():
    assert shift_db(frozenset({"a", "b"}), {"b", "c"}) == frozenset({"a", "c"})


def test_shift_instance_builds_a_witness():
    db = frozenset({"a", "b"})
    program = aic("a, b -> -a | -b.")
    witness = shift_instance(db, program, {"a"})
    assert witness.shifted_db == frozenset({"b"})
    assert witness.shifted_program == aic("not a, b -> +a | -b.")
    back = witness.transport(witness.transport([frozenset({UpdateAction("a", False)})]))
    assert back == (frozenset({UpdateAction("a", False)}),)


def test_shifting_transports_the_searched_actions():
    # Shifting flips the database at exactly the atoms whose actions it
    # dualizes, so both sides of a shift search the same positions: the
    # transport of one side's actions is the other's, position for
    # position, as update actions and as revision literals, over all
    # essential actions and over the head actions alone (a request of
    # grounded classes only).
    rnd = random.Random("shift-transport")
    for i in range(3000):
        atoms = gen.atom_pool(rnd, rnd.randint(1, 8))
        uni, db = Universe(atoms), gen.database(rnd, atoms)
        by = frozenset(a for a in atoms if rnd.random() < 0.5)
        for engine, program, classes in (
            (
                repairs,
                gen.aic_program(rnd, atoms),
                (RepairClass.WEAK_REPAIR, RepairClass.FOUNDED_REPAIR),
            ),
            (
                revisions,
                gen.rev_program(rnd, atoms),
                (RevisionClass.WEAK_REVISION, RevisionClass.JUSTIFIED_REVISION),
            ),
        ):
            witness = shift_instance(db, program, by, uni)
            for c in classes:
                actions, shifted = (
                    engine.enumerate_classes(d, p, [c], uni)[c].actions
                    for d, p in (
                        (db, program),
                        (witness.shifted_db, witness.shifted_program),
                    )
                )
                assert witness.transport(actions) == shifted, (i, c)


def test_shift_instance_validates_the_shift_set():
    uni = Universe(("a",))
    with pytest.raises(UnknownAtom):
        shift_instance(frozenset({"a"}), (), {"b"}, uni)
