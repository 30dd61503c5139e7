"""Repair semantics: membership checks, the justification search, and
enumeration behaviour (atom bound, canonical order)."""

import random
from collections import Counter
from pathlib import Path

import pytest

import gen
import oracles
from aicrepair import repairs, revisions
from aicrepair.errors import (
    UniverseTooLarge,
    UnknownAtom,
)
from aicrepair.model import Limits, Universe, UpdateAction, essential_actions, walk
from aicrepair.repairs import (
    RepairClass,
    check_justified_weak_repair,
    check_membership,
    enumerate_repairs,
    is_closed,
    is_founded_set,
    _Compiled,
    _compile,
    _least,
)
from aicrepair.syntax import parse_actions, parse_instance, parse_program
from aicrepair.transforms import normalize_aic

GOLDEN = Path(__file__).parent / "golden"
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
    assert not check_justified_weak_repair(frozenset(), CHAIN, bad)
    for cls in RepairClass:
        assert not check_membership(frozenset(), CHAIN, cls, bad)
    assert not is_founded_set(frozenset(), CHAIN, bad)


def test_weak_repair_requires_every_action_to_change_something():
    db = frozenset({"a"})
    program = parse_program("a, not b -> +b.", "aic")
    weak = RepairClass.WEAK_REPAIR
    assert check_membership(db, program, weak, uas("+b"))
    assert not check_membership(db, program, weak, uas("+a, +b"))


def test_repair_is_a_minimal_weak_repair():
    db = frozenset({"a", "b"})
    program = parse_program("a, b -> -a.", "aic")
    assert check_membership(db, program, RepairClass.WEAK_REPAIR, uas("-a, -b"))
    for u, member in (("-a, -b", False), ("-a", True), ("-b", True)):
        assert check_membership(db, program, RepairClass.REPAIR, uas(u)) is member


def test_foundedness_needs_a_witness_rule():
    db = frozenset({"a", "b"})
    program = parse_program("a, b -> -a.", "aic")
    assert is_founded_set(db, program, uas("-a"))
    assert not is_founded_set(db, program, uas("-b"))


def test_least_drops_a_leaf_reached_before_a_smaller_leaf_inside_it():
    # Over +a, +b, +c (bits 0, 1, 2), the first rule branches on all three
    # at the empty set, highest bit first. From {+c} the second rule adds
    # +b, so the walk reaches the leaf {+b, +c} before the leaf {+b}
    # inside it, and then {+a}. Smallest first, {+a} and {+b} are kept,
    # and {+b, +c} is dropped, though {+a}, the leaf kept last, is not
    # inside it.
    program = parse_program(
        "not a, not b, not c -> +a | +b | +c.\nc, not b -> +b.", "aic"
    )
    actions = tuple(UpdateAction(atom, True) for atom in "abc")
    compiled = _Compiled(_compile(frozenset(), program, actions))
    seen = set()
    assert _least(compiled.clauses, 0b111, seen) == [0b001, 0b010]
    assert seen == {0b000, 0b001, 0b010, 0b100, 0b110}


def test_change_minimal_check_stops_at_the_first_leaf_other_than_the_set(
    monkeypatch,
):
    # Over +a, +b, +c the repair tree of {+a, +b, +c} branches on all three
    # at the empty set, and each one is a leaf. The set is a weak repair
    # but not change-minimal, and the check stops at the first leaf it
    # reaches, {+c}, of the three. Over {+c} alone the one leaf is {+c}.
    program = parse_program("not a, not b, not c -> +a | +b | +c.", "aic")
    leaves = []

    def counting_walk(*args):
        for leaf in walk(*args):
            leaves.append(leaf)
            yield leaf

    monkeypatch.setattr(repairs, "walk", counting_walk)
    repair = RepairClass.REPAIR
    assert not check_membership(frozenset(), program, repair, uas("+a, +b, +c"))
    assert leaves == [0b100]
    leaves.clear()
    assert check_membership(frozenset(), program, repair, uas("+c"))
    assert leaves == [0b100]


def test_a_body_with_an_atom_and_its_dual_keeps_its_rule():
    # Over db = {} and +x, +y (bits 0, 1): in ``x, not x`` the literal
    # ``x`` fails in db and is a trigger literal (te), and ``not x`` holds
    # and is the dual of the head action +x (he); in ``y, not y`` both are
    # duals of head actions, ``y`` failing (hn). Neither body ever holds,
    # so neither has a clause, but each rule stays for the justified walk,
    # and ``body − {not x}`` (``{x}``, bit 0 failing) supports +x, as
    # ``{y}`` supports +y.
    actions = (UpdateAction("x", True), UpdateAction("y", True))
    for text, rules, support in (
        ("x, not x -> +x.", [(0b01, 0, 0b01, 0)], {0b01: [(0b01, 0b01)]}),
        ("y, not y -> +y | -y.", [(0, 0, 0b10, 0b10)], {0b10: [(0b10, 0b10)]}),
    ):
        program = parse_program(text, "aic")
        compiled = _Compiled(_compile(frozenset(), program, actions))
        assert compiled.rules == rules, text
        assert compiled.clauses == [], text
        assert compiled.support == support, text
    # The empty set does not hold the trigger +x, so it is closed and
    # {+x} is not justified. {+y} is: the empty set violates the rule,
    # whose head +y is the one move inside {+y}.
    jwr = RepairClass.JUSTIFIED_WEAK_REPAIR
    x_rule = parse_program("x, not x -> +x.", "aic")
    y_rule = parse_program("y, not y -> +y | -y.", "aic")
    assert not check_membership(frozenset(), x_rule, jwr, uas("+x"))
    assert check_membership(frozenset(), y_rule, jwr, uas("+y"))


def test_the_normalized_program_is_split_from_the_compiled_rules():
    # Over db = {a, b}: a head with +a and -a, an empty head, a no-effect
    # head action (+a), and a body literal (c) that fails outside the
    # head positions, which drops its rule there.
    hand_built = (
        frozenset({"a", "b"}),
        parse_program(
            "a, not a, b -> +a | -a.\na, not b -> false.\n"
            "not a, b -> +a | -b.\na, c -> -a.",
            "aic",
        ),
    )
    # Then seeded programs of 2-6 atoms, normal and disjunctive.
    rnd = random.Random("normalized-split")
    instances = [hand_built]
    for i in range(1000):
        atoms = gen.atom_pool(rnd, rnd.randint(2, 6))
        program = gen.aic_program(rnd, atoms, normal=i % 2 == 0, rules=(1, 6))
        instances.append((gen.database(rnd, atoms), program))
    for i, (db, program) in enumerate(instances):
        essential = essential_actions(db, Universe.collect(db, program))
        heads = frozenset().union(*(r.head for r in program))
        # Over all essential actions, and over the head actions alone.
        for actions in (essential, tuple(a for a in essential if a in heads)):
            compiled = _Compiled(_compile(db, program, actions))
            want = _compile(db, normalize_aic(program), actions)
            assert Counter(compiled.normalized().rules) == Counter(want), i
    # A normal program is its own normalization.
    compiled = _Compiled(_compile(frozenset(), CHAIN, uas("+a, +b")))
    assert compiled.normalized() is compiled


def test_every_justified_walk_runs_on_a_founded_set(monkeypatch):
    # A justified weak repair is founded, on the program and on its
    # normalization alike, so a mask that fails ``founded`` on the
    # program is never walked, by an enumeration or a membership check.
    # A part holds no actions, so each call's walked masks are paired with
    # the positions that call searched: its report's actions, or the
    # essential actions for a membership check.
    walked, calls = [], []
    justified = _Compiled.justified

    def recording(self, x):
        walked.append(x)
        return justified(self, x)

    def searched(actions):
        calls.extend((actions, x) for x in walked)
        walked.clear()

    monkeypatch.setattr(_Compiled, "justified", recording)
    classes = [c for c in RepairClass if repairs._TABLE[c][1] == "justified"]
    rnd = random.Random("cascade")
    unfounded = walks = 0
    for i in range(150):
        atoms = gen.atom_pool(rnd, rnd.randint(2, 6))
        db, uni = gen.database(rnd, atoms), Universe(atoms)
        program = gen.aic_program(rnd, atoms, normal=i % 2 == 0, rules=(1, 6))
        reports = repairs.enumerate_classes(db, program, RepairClass, uni)
        weak = reports[RepairClass.WEAK_REPAIR]
        searched(weak.actions)
        essential = essential_actions(db, uni)
        for c in classes:
            searched(repairs.enumerate_classes(db, program, [c], uni)[c].actions)
            for u in weak.sets:
                check_membership(db, program, c, u, uni)
                searched(essential)
        unfounded += weak.size - reports[RepairClass.FOUNDED_WEAK_REPAIR].size
        # Each mask against the whole program, compiled again.
        for actions, x in calls:
            assert _Compiled(_compile(db, program, actions)).founded(x), i
        walks += len(calls)
        calls.clear()
    # Both kinds of weak repair occur: the walks ran, and they skipped some.
    assert walks and unfounded


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
    # One block of both positions, which one table decides: its 2**2
    # rows.
    assert report.examined == 4
    keys = [oracles.canonical_key(s) for s in report.sets]
    assert keys == sorted(keys)
    assert report.actions == (UpdateAction("a", False), UpdateAction("b", False))
    assert report.blocks == ((0b01, 0b11, 0b10),)


def test_the_repair_tree_counts_the_sets_it_visits():
    # A weak class runs the clause search (see above): one table of 4
    # rows. The repair tree visits the empty set, then -a and -b, which
    # are leaves.
    report = enumerate_repairs(frozenset({"a", "b"}), PAIR, RepairClass.REPAIR)
    assert report.sets == (uas("-a"), uas("-b"))
    assert report.examined == 3


#: Per instance of several ranges, the sets examined by one engine call
#: for every class, for the change-minimal class alone and for the weak
#: class alone: the tree's sets and the tables' rows, summed over ranges.
EXAMINED = {
    "wall42.aic": (231, 67, 164),
    "weak26.aic": (115, 15, 100),
    "widetop23.aic": (32_817, 1, 32_816),
    "mutual_pair_chain.rev": (11, 3, 8),
}


@pytest.mark.parametrize("name", sorted(EXAMINED))
def test_examined_sums_over_the_ranges(name):
    instance = parse_instance((GOLDEN / name).read_text())
    db, program, uni = instance.db, instance.program, instance.universe()
    engine, kinds = (
        (revisions, revisions.RevisionClass) if name.endswith(".rev")
        else (repairs, RepairClass)
    )
    kinds = list(kinds)
    got = []
    for classes in (kinds, kinds[1:2], kinds[:1]):
        reports = engine.enumerate_classes(db, program, classes, uni, Limits(64))
        assert len({r.examined for r in reports.values()}) == 1, name
        got.append(reports[classes[0]].examined)
    assert tuple(got) == EXAMINED[name]


def test_a_rule_with_no_bit_leaves_the_earlier_ranges_searched():
    # ``-> false`` has no bit, so it goes to the last of the two ranges and
    # empties every class; the range of ``a`` is still searched: a weak
    # class reads its table of 2 rows, and the repair tree visits the empty
    # set and ``-a``.
    instance = parse_instance("universe: a, b. db: a. aic: a -> -a. -> false.")
    db, program, uni = instance.db, instance.program, instance.universe()
    for cls in (RepairClass.WEAK_REPAIR, RepairClass.REPAIR):
        report = repairs.enumerate_classes(db, program, [cls], uni)[cls]
        assert (report.blocks, report.size, report.examined) == (((),), 0, 2)


def test_no_class_asked_for_searches_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched for no class")

    monkeypatch.setattr(repairs, "_least", refuse)
    monkeypatch.setattr(repairs, "clause_search", refuse)
    assert repairs.enumerate_classes(frozenset({"a", "b"}), PAIR, []) == {}


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
    assert report.semantics is RepairClass.JUSTIFIED_REPAIR_NORMALIZED
