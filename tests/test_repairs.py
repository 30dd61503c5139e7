"""Repair semantics: membership checks, the normal-program fast path, and
enumeration behaviour (atom bound, canonical order)."""

import random

import pytest

import gen
from aicrepair.errors import (
    NotNormalProgram,
    UniverseTooLarge,
    UnknownAtom,
)
from aicrepair.model import Limits, Universe, UpdateAction
from aicrepair.repairs import (
    RepairClass,
    check_justified_weak_repair,
    check_membership,
    check_weak_repair,
    decide_jwr_normal,
    enumerate_repairs,
    is_closed,
    is_founded_set,
    least_closure,
    sort_key,
)
from aicrepair.syntax import parse_actions, parse_program
from aicrepair.transforms import normalize_aic

CHAIN = parse_program("not a -> +a.\na, not b -> +b.", "aic")
PAIR = parse_program("a, b -> -a | -b.", "aic")


def uas(text):
    return parse_actions(text)


def test_least_closure_runs_the_chain():
    assert least_closure(frozenset(), CHAIN) == uas("+a, +b")
    assert least_closure(uas("+a"), CHAIN) == uas("+a, +b")


def test_least_closure_is_none_when_a_constraint_fires():
    program = parse_program("a -> false.\nnot a -> +a.", "aic")
    assert least_closure(frozenset(), program) is None
    assert least_closure(frozenset(), parse_program("a -> false.", "aic")) == frozenset()


def test_normal_only_operations_refuse_disjunctive_programs():
    with pytest.raises(NotNormalProgram):
        least_closure(frozenset(), PAIR)
    with pytest.raises(NotNormalProgram):
        decide_jwr_normal(frozenset({"a", "b"}), PAIR, frozenset())


def test_inconsistent_candidates_are_rejected_not_errors():
    bad = uas("+a, -a")
    assert not check_weak_repair(frozenset(), CHAIN, bad)
    assert not check_justified_weak_repair(frozenset(), CHAIN, bad)
    for cls in RepairClass:
        assert not check_membership(frozenset(), CHAIN, cls, bad)
    assert not decide_jwr_normal(frozenset(), CHAIN, bad)


def test_weak_repair_requires_every_action_to_change_something():
    db = frozenset({"a"})
    program = parse_program("a, not b -> +b.", "aic")
    assert check_weak_repair(db, program, uas("+b"))
    assert not check_weak_repair(db, program, uas("+a, +b"))


def test_repair_is_a_minimal_weak_repair():
    db = frozenset({"a", "b"})
    program = parse_program("a, b -> -a.", "aic")
    assert check_weak_repair(db, program, uas("-a, -b"))
    for u, member in (("-a, -b", False), ("-a", True), ("-b", True)):
        assert check_membership(db, program, RepairClass.REPAIR, uas(u)) is member


def test_foundedness_needs_a_witness_rule():
    db = frozenset({"a", "b"})
    program = parse_program("a, b -> -a.", "aic")
    assert is_founded_set(db, program, uas("-a"))
    assert not is_founded_set(db, program, uas("-b"))


def test_closedness_on_the_pair_constraint():
    assert is_closed(PAIR, uas("-a"))
    assert is_closed(PAIR, uas("-b, +c"))
    assert not is_closed(PAIR, frozenset())
    assert not is_closed(PAIR, uas("+a, +b"))


def test_justified_weak_repair_on_the_chain():
    db = frozenset()
    assert decide_jwr_normal(db, CHAIN, uas("+a, +b"))
    assert not decide_jwr_normal(db, CHAIN, uas("+a"))
    assert check_justified_weak_repair(db, CHAIN, uas("+a, +b"))
    assert not check_justified_weak_repair(db, CHAIN, uas("+a"))


def test_fast_path_agrees_with_the_generic_checker():
    rnd = random.Random("jwr-fast-path")
    for i in range(300):
        atoms = gen.atom_pool(rnd, rnd.randrange(1, 5))
        db = gen.database(rnd, atoms)
        program = gen.aic_program(rnd, atoms, normal=True)
        u = gen.action_set(rnd, atoms)
        want = check_justified_weak_repair(db, program, u)
        assert decide_jwr_normal(db, program, u) == want, f"case {i}"


def test_fast_path_scales_to_long_chains():
    atoms = [f"x{i}" for i in range(50)]
    rules = ["not x0 -> +x0."]
    rules += [f"x{i - 1}, not x{i} -> +x{i}." for i in range(1, 50)]
    program = parse_program("\n".join(rules), "aic")
    everything = frozenset(UpdateAction(a, True) for a in atoms)
    assert decide_jwr_normal(frozenset(), program, everything)
    assert not decide_jwr_normal(frozenset(), program, everything - {UpdateAction("x49", True)})


def test_membership_dispatch_matches_direct_checks():
    db = frozenset({"a", "b"})
    for u in (uas("-a"), uas("-a, -b"), frozenset()):
        justified = check_membership(db, PAIR, RepairClass.JUSTIFIED_WEAK_REPAIR, u)
        assert justified == check_justified_weak_repair(db, PAIR, u)
        normalized = check_membership(
            db, PAIR, RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED, u
        )
        assert normalized == check_justified_weak_repair(db, normalize_aic(PAIR), u)


def test_checks_validate_against_a_declared_universe():
    uni = Universe(("a",))
    with pytest.raises(UnknownAtom):
        check_justified_weak_repair(frozenset({"a"}), (), uas("-b"), uni)


def test_subset_searching_checks_bound_the_candidate_not_the_universe():
    db = frozenset({"a", "b", "c"})
    program = parse_program("a, b, c -> -a.", "aic")
    wide = Universe(["a", "b", "c"] + [f"x{i}" for i in range(13)])
    polynomial = {RepairClass.WEAK_REPAIR, RepairClass.FOUNDED_WEAK_REPAIR}
    for cls in RepairClass:
        # A one-atom candidate over a 16-atom universe: bounded or not, the
        # search has one proper subset, so every class answers.
        assert check_membership(db, program, cls, uas("-a"), wide)
        assert check_membership(db, program, cls, uas("-a"), wide, Limits())
        two = uas("-a, -b")
        if cls in polynomial:
            bounded = check_membership(db, program, cls, two, limits=Limits(1))
            assert bounded == check_membership(db, program, cls, two)
        else:
            with pytest.raises(UniverseTooLarge, match="candidate has 2 atoms"):
                check_membership(db, program, cls, two, limits=Limits(1))


def test_enumeration_orders_sets_canonically():
    db = frozenset({"a", "b"})
    report = enumerate_repairs(db, PAIR, RepairClass.WEAK_REPAIR)
    assert report.sets == (uas("-a"), uas("-a, -b"), uas("-b"))
    assert report.examined == 4
    assert [sort_key(s) for s in report.sets] == sorted(
        sort_key(s) for s in report.sets
    )


def test_enumeration_respects_the_atom_bound():
    db = frozenset({"a", "b", "c"})
    program = parse_program("a, b, c -> -a.", "aic")
    with pytest.raises(UniverseTooLarge):
        enumerate_repairs(db, program, RepairClass.REPAIR, limits=Limits(max_atoms=2))


def test_normalized_enumeration_reports_the_requested_class():
    db = frozenset({"a", "b"})
    report = enumerate_repairs(db, PAIR, RepairClass.JUSTIFIED_REPAIR_NORMALIZED)
    assert report.repair_class is RepairClass.JUSTIFIED_REPAIR_NORMALIZED
