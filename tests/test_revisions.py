"""Revision semantics, including the supported class and its constraint
handling."""

import random

import pytest

import gen
import oracles
from aicrepair.errors import NotNormalProgram, UnknownAtom
from aicrepair.model import Universe
from aicrepair.revisions import (
    RevisionClass,
    check_justified_weak_revision,
    check_membership,
    check_supported_revision,
    enumerate_revisions,
    is_closed_rev,
    is_founded_rev_set,
)
from aicrepair.syntax import parse_program, parse_rev_literals

SELF = parse_program("in(a) <- in(a).", "rev")
CHOICE = parse_program("in(a) | in(b) <- .", "rev")


def rls(text):
    return parse_rev_literals(text)


def test_weak_revision_rejects_inertia_literals():
    db = frozenset({"a"})
    program = parse_program("in(a) <- .", "rev")
    assert check_membership(db, program, RevisionClass.WEAK_REVISION, frozenset())
    assert not check_membership(
        db, program, RevisionClass.WEAK_REVISION, rls("in(a)")
    )


def test_revision_is_a_minimal_weak_revision():
    db = frozenset({"a"})
    assert check_membership(db, SELF, RevisionClass.WEAK_REVISION, rls("out(a)"))
    assert not check_membership(db, SELF, RevisionClass.REVISION, rls("out(a)"))
    assert check_membership(db, SELF, RevisionClass.REVISION, frozenset())


def test_foundedness_on_the_choice_rule():
    db = frozenset()
    assert is_founded_rev_set(db, CHOICE, rls("in(a)"))
    assert not is_founded_rev_set(db, CHOICE, rls("in(a), in(b)"))
    assert check_membership(
        db, CHOICE, RevisionClass.FOUNDED_WEAK_REVISION, rls("in(b)")
    )


def test_closedness_blocks_on_constraints():
    program = parse_program("false <- in(b).", "rev")
    assert is_closed_rev(program, rls("out(b)"))
    assert not is_closed_rev(program, rls("in(b)"))
    improper = parse_program("in(a) <- out(a).", "rev")
    assert is_closed_rev(improper, rls("in(a), out(a)"))


def test_self_support_separates_justified_from_weak():
    db = frozenset({"a"})
    assert check_justified_weak_revision(db, SELF, frozenset())
    assert not check_justified_weak_revision(db, SELF, rls("out(a)"))


def test_justified_revision_requires_minimality():
    db = frozenset({"a", "b"})
    program = parse_program("out(a) <- .\nout(b) <- out(a).", "rev")
    jr = RevisionClass.JUSTIFIED_REVISION
    assert check_membership(db, program, jr, rls("out(a), out(b)"))
    assert not check_membership(db, program, jr, rls("out(b)"))


def test_supported_update_equation():
    assert check_supported_revision(frozenset(), SELF, frozenset())
    assert check_supported_revision(frozenset(), SELF, rls("in(a)"))
    # out(a) triggers no rule, so the heads of the triggered rules are empty
    assert not check_supported_revision(frozenset({"a"}), SELF, rls("out(a)"))


def test_triggered_constraint_defeats_supported_candidates():
    db = frozenset({"b"})
    constraint = parse_program("false <- in(b).", "rev")
    assert not check_supported_revision(db, constraint, frozenset())
    assert not check_supported_revision(db, constraint, rls("out(b)"))
    program = parse_program("false <- in(b).\nout(b) <- in(a).", "rev")
    assert check_supported_revision(frozenset({"a", "b"}), program, rls("out(b)"))


def test_supported_revision_strips_inertia():
    assert check_supported_revision(frozenset(), SELF, rls("in(a)"))
    assert not check_supported_revision(frozenset({"a"}), SELF, rls("in(a)"))
    assert check_supported_revision(frozenset({"a"}), SELF, frozenset())


def test_supported_revisions_need_not_be_minimal():
    report = enumerate_revisions(
        frozenset(), SELF, RevisionClass.SUPPORTED_REVISION
    )
    assert report.sets == (frozenset(), rls("in(a)"))


def test_supported_semantics_refuse_disjunctive_programs():
    with pytest.raises(NotNormalProgram):
        check_supported_revision(frozenset(), CHOICE, frozenset())
    with pytest.raises(NotNormalProgram):
        enumerate_revisions(frozenset(), CHOICE, RevisionClass.SUPPORTED_REVISION)


def test_supported_revisions_can_be_strictly_fewer_than_weak():
    program = parse_program("in(a) <- out(a).", "rev")
    weak = enumerate_revisions(frozenset(), program, RevisionClass.WEAK_REVISION)
    supported = enumerate_revisions(
        frozenset(), program, RevisionClass.SUPPORTED_REVISION
    )
    assert weak.sets == (rls("in(a)"),)
    assert supported.sets == ()


def test_membership_dispatch_matches_direct_checks():
    rnd = random.Random("rev-membership")
    for _ in range(50):
        atoms = gen.atom_pool(rnd, 3)
        db = gen.database(rnd, atoms)
        program = gen.rev_program(rnd, atoms, normal=True)
        u = gen.rev_literal_set(rnd, atoms)
        direct = {
            RevisionClass.WEAK_REVISION: oracles.weak_revisions,
            RevisionClass.REVISION: oracles.revisions,
            RevisionClass.JUSTIFIED_WEAK_REVISION: oracles.justified_weak_revisions,
            RevisionClass.SUPPORTED_REVISION: oracles.supported_revisions,
        }
        for revision_class, definition in direct.items():
            want = u in definition(db, program, atoms)
            assert check_membership(db, program, revision_class, u) == want


def test_checks_validate_against_a_declared_universe():
    uni = Universe(("a",))
    with pytest.raises(UnknownAtom):
        check_justified_weak_revision(frozenset({"a"}), (), rls("out(b)"), uni)


def test_enumeration_orders_sets_canonically():
    db = frozenset()
    report = enumerate_revisions(db, CHOICE, RevisionClass.WEAK_REVISION)
    assert report.sets == (rls("in(a)"), rls("in(a), in(b)"), rls("in(b)"))


def test_normalized_enumeration_reports_the_requested_class():
    report = enumerate_revisions(
        frozenset(), CHOICE, RevisionClass.JUSTIFIED_REVISION_NORMALIZED
    )
    assert report.revision_class is RevisionClass.JUSTIFIED_REVISION_NORMALIZED
    assert all(
        check_membership(
            frozenset(), CHOICE, RevisionClass.JUSTIFIED_REVISION_NORMALIZED, u
        )
        for u in report.sets
    )
