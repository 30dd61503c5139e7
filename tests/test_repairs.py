"""Repair semantics: membership checks, the justification search, and
enumeration behaviour (atom bound, canonical order)."""

import random

import pytest
from hypothesis import given, strategies as st

import gen
import oracles
from aicrepair.errors import (
    UniverseTooLarge,
    UnknownAtom,
)
from aicrepair.model import Limits, Universe, UpdateAction
from aicrepair.repairs import (
    RepairClass,
    check_justified_weak_repair,
    check_membership,
    check_weak_repair,
    enumerate_repairs,
    is_closed,
    is_founded_set,
    _minimal,
)
from aicrepair.syntax import parse_actions, parse_program
from aicrepair.transforms import normalize_aic

CHAIN = parse_program("not a -> +a.\na, not b -> +b.", "aic")
PAIR = parse_program("a, b -> -a | -b.", "aic")


def uas(text):
    return parse_actions(text)


def test_justified_check_accepts_disjunctive_programs():
    db = frozenset({"a", "b"})
    assert not check_justified_weak_repair(db, PAIR, frozenset())
    assert check_justified_weak_repair(db, PAIR, uas("-a"))
    assert check_justified_weak_repair(db, PAIR, uas("-b"))
    assert not check_justified_weak_repair(db, PAIR, uas("-a, -b"))


def test_inconsistent_candidates_are_rejected_not_errors():
    bad = uas("+a, -a")
    assert not check_weak_repair(frozenset(), CHAIN, bad)
    assert not check_justified_weak_repair(frozenset(), CHAIN, bad)
    for cls in RepairClass:
        assert not check_membership(frozenset(), CHAIN, cls, bad)
    assert not is_founded_set(frozenset(), CHAIN, bad)


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


@given(st.lists(st.integers(0, 31), max_size=12))
def test_minimal_filter_on_sets_listed_smallest_first(masks):
    # Sets are masks: ``v`` is a proper subset of ``u`` when ``v & u == v``
    # and ``v != u``. The filter keeps the order it was given.
    want = [u for u in masks if not any(v & u == v != u for v in masks)]
    assert _minimal(masks) == want


def test_closedness_on_the_pair_constraint():
    assert is_closed(PAIR, uas("-a"))
    assert is_closed(PAIR, uas("-b, +c"))
    assert not is_closed(PAIR, frozenset())
    assert not is_closed(PAIR, uas("+a, +b"))


def test_closedness_agrees_with_the_oracle_on_every_action_set():
    rnd = random.Random("closedness")
    for i in range(200):
        atoms = gen.atom_pool(rnd, rnd.randint(1, 3))
        program = gen.aic_program(rnd, atoms, normal=i % 2 == 0)
        # Inconsistent sets included: closedness does not ask for consistency.
        for u in oracles.subsets(oracles.all_actions(atoms)):
            assert is_closed(program, u) == oracles.closed_under(program, u), i


def test_justified_weak_repair_on_the_chain():
    db = frozenset()
    assert check_justified_weak_repair(db, CHAIN, uas("+a, +b"))
    assert not check_justified_weak_repair(db, CHAIN, uas("+a"))


def test_fast_path_agrees_with_the_generic_checker():
    rnd = random.Random("jwr-fast-path")
    for i in range(300):
        atoms = gen.atom_pool(rnd, rnd.randrange(1, 6))
        db = gen.database(rnd, atoms)
        program = gen.aic_program(rnd, atoms, normal=i % 2 == 0)
        want = oracles.justified_weak_repairs(db, program, atoms)
        uni = Universe(atoms)
        for u in want | {gen.action_set(rnd, atoms) for _ in range(4)}:
            got = check_justified_weak_repair(db, program, u, uni)
            assert got == (u in want), f"case {i}"


def test_fast_path_scales_to_long_chains():
    # At 50 atoms a walk over the subsets of the candidate could not finish.
    atoms = [f"x{i}" for i in range(50)]
    rules = ["not x0 -> +x0."]
    rules += [f"x{i - 1}, not x{i} -> +x{i}." for i in range(1, 50)]
    program = parse_program("\n".join(rules), "aic")
    everything = frozenset(UpdateAction(a, True) for a in atoms)
    assert check_justified_weak_repair(frozenset(), program, everything)
    last = UpdateAction("x49", True)
    assert not check_justified_weak_repair(frozenset(), program, everything - {last})


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
    wide = Universe(["a", "b", "c"] + [f"x{i}" for i in range(13)])
    polynomial = {RepairClass.WEAK_REPAIR, RepairClass.FOUNDED_WEAK_REPAIR}
    jwr = RepairClass.JUSTIFIED_WEAK_REPAIR
    normalized = RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED
    # On a normal program the justified walk is a closure; a disjunctive
    # head makes it branch, except on the normalized program.
    for text, answered in (
        ("a, b, c -> -a.", polynomial | {jwr, normalized}),
        ("a, b, c -> -a | -b.", polynomial | {normalized}),
    ):
        program = parse_program(text, "aic")
        for cls in RepairClass:
            # A one-atom candidate over a 16-atom universe: bounded or not,
            # the search has one proper subset, so every class answers.
            assert check_membership(db, program, cls, uas("-a"), wide)
            assert check_membership(db, program, cls, uas("-a"), wide, Limits())
            two = uas("-a, -b")
            if cls in answered:
                bounded = check_membership(db, program, cls, two, limits=Limits(1))
                assert bounded == check_membership(db, program, cls, two)
            else:
                with pytest.raises(UniverseTooLarge, match="candidate has 2 atoms"):
                    check_membership(db, program, cls, two, limits=Limits(1))


def test_enumeration_orders_sets_canonically():
    db = frozenset({"a", "b"})
    report = enumerate_repairs(db, PAIR, RepairClass.WEAK_REPAIR)
    assert report.sets == (uas("-a"), uas("-a, -b"), uas("-b"))
    assert report.examined == 6
    keys = [oracles.canonical_key(s) for s in report.sets]
    assert keys == sorted(keys)
    assert report.actions == (UpdateAction("a", False), UpdateAction("b", False))
    assert report.hits == (0b01, 0b11, 0b10)


def test_the_repair_tree_counts_the_sets_it_visits():
    # A weak class runs the clause search (see above): it visits the root,
    # both choices for -a, and the three sets that flip a or b but not the
    # empty one, which the rule's clause cuts. The repair tree visits the
    # empty set, then -a and -b, which are leaves.
    report = enumerate_repairs(frozenset({"a", "b"}), PAIR, RepairClass.REPAIR)
    assert report.sets == (uas("-a"), uas("-b"))
    assert report.examined == 3


def test_refusal_names_one_atom_in_the_singular():
    one = parse_program("a -> -a.", "aic")
    for program, said in ((one, "1 atom, "), (PAIR, "2 atoms, ")):
        with pytest.raises(UniverseTooLarge, match="universe has " + said):
            enumerate_repairs(
                frozenset({"a"}), program, RepairClass.REPAIR, limits=Limits(0)
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
