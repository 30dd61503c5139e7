"""Core model: literals, actions, the update algebra, and universes."""

import collections
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import aicrepair
from aicrepair.errors import (
    InconsistentUpdateSet,
    InputError,
    UniverseTooLarge,
    UnknownAtom,
    UpdatableConditionViolated,
)
from aicrepair.model import (
    AicRule,
    DEFAULT_MAX_ATOMS,
    Limits,
    Literal,
    RevLiteral,
    RevRule,
    Universe,
    UpdateAction,
    apply_revision,
    apply_update,
    clause,
    clause_search,
    entails,
    essential_actions,
    holds,
    inertia_set,
    is_consistent,
    is_normal,
    is_proper,
    lit,
    no_effect_set,
    ordered,
    positions,
    rev_literal,
    ua,
    walk,
)

atoms_st = st.sampled_from(("a", "b", "c", "dee", "x1"))
literals_st = st.builds(Literal, atoms_st, st.booleans())
actions_st = st.builds(UpdateAction, atoms_st, st.booleans())
rev_literals_st = st.builds(RevLiteral, atoms_st, st.booleans())
db_st = st.frozensets(atoms_st)


@given(st.one_of(literals_st, actions_st, rev_literals_st))
def test_dual_is_an_involution(x):
    assert x.dual() != x
    assert x.dual().dual() == x
    assert x.dual().atom == x.atom


@given(literals_st)
def test_literal_conversions_round_trip(l):
    assert lit(ua(l)) == l
    assert lit(rev_literal(l)) == l
    assert ua(rev_literal(l)) == ua(l)


@given(actions_st)
def test_action_conversions_round_trip(a):
    assert ua(lit(a)) == a
    assert ua(rev_literal(a)) == a
    assert rev_literal(lit(a)) == rev_literal(a)


@given(rev_literals_st)
def test_rev_literal_conversions_round_trip(r):
    assert rev_literal(ua(r)) == r
    assert rev_literal(lit(r)) == r
    assert lit(ua(r)) == lit(r)


@given(st.one_of(literals_st, actions_st, rev_literals_st))
def test_conversions_commute_with_dual(x):
    if isinstance(x, Literal):
        assert ua(x.dual()) == ua(x).dual()
    elif isinstance(x, UpdateAction):
        assert lit(x.dual()) == lit(x).dual()
    else:
        assert ua(x.dual()) == ua(x).dual()


def test_conversions_reject_wrong_types():
    with pytest.raises(TypeError):
        ua("+a")
    with pytest.raises(TypeError):
        lit(Literal("a"))
    with pytest.raises(TypeError):
        rev_literal(RevLiteral("a", True))


def test_string_forms():
    assert str(Literal("a")) == "a"
    assert str(Literal("a", False)) == "not a"
    assert str(UpdateAction("a", True)) == "+a"
    assert str(UpdateAction("a", False)) == "-a"
    assert str(RevLiteral("a", True)) == "in(a)"
    assert str(RevLiteral("a", False)) == "out(a)"


def test_ordered_sorts_by_atom_then_polarity():
    xs = [
        UpdateAction("b", False),
        UpdateAction("a", False),
        UpdateAction("b", True),
        UpdateAction("a", True),
    ]
    assert [str(x) for x in ordered(xs)] == ["+a", "-a", "+b", "-b"]


# ---------------------------------------------------------------------------
# Update algebra


def test_apply_update_inserts_and_deletes():
    db = frozenset({"a", "b"})
    u = {UpdateAction("a", False), UpdateAction("c", True)}
    assert apply_update(db, u) == frozenset({"b", "c"})


def test_apply_rejects_inconsistent_sets():
    with pytest.raises(InconsistentUpdateSet):
        apply_update(frozenset(), {UpdateAction("a", True), UpdateAction("a", False)})
    with pytest.raises(InconsistentUpdateSet):
        apply_revision(frozenset(), {RevLiteral("a", True), RevLiteral("a", False)})


# Three atoms with both signs in one set: the error names the smallest,
# whatever order the hash seed gives the set.
CONFLICTS = """\
from aicrepair.errors import InconsistentUpdateSet
from aicrepair.model import RevLiteral, UpdateAction, apply_revision, apply_update
for apply, kind in ((apply_update, UpdateAction), (apply_revision, RevLiteral)):
    try:
        apply(frozenset(), {kind(a, s) for a in "cba" for s in (True, False)})
    except InconsistentUpdateSet as exc:
        print(exc.atom)
"""


def test_the_conflicting_atom_named_does_not_depend_on_the_hash_seed():
    src = str(Path(aicrepair.__file__).parents[1])
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", CONFLICTS],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "a\na\n", ""), seed


@given(db_st, st.frozensets(actions_st), st.frozensets(actions_st))
def test_consistent_updates_compose(db, u1, u2):
    if not is_consistent(u1 | u2):
        return
    assert apply_update(db, u1 | u2) == apply_update(apply_update(db, u1), u2)


@given(db_st, st.frozensets(actions_st))
def test_update_actions_take_effect(db, u):
    if not is_consistent(u):
        return
    result = apply_update(db, u)
    for a in u:
        assert (a.atom in result) == a.insert


def test_no_effect_set_lists_unchanged_atoms():
    uni = Universe(("a", "b", "c", "d"))
    ne = no_effect_set(frozenset({"a", "b"}), frozenset({"a", "c"}), uni)
    assert ne == frozenset({UpdateAction("a", True), UpdateAction("d", False)})


@given(db_st, db_st)
def test_inertia_set_is_the_rev_view_of_no_effect(db, result):
    uni = Universe(("a", "b", "c", "dee", "x1"))
    ne = no_effect_set(db, result, uni)
    assert inertia_set(db, result, uni) == frozenset(rev_literal(a) for a in ne)


@given(db_st, st.frozensets(actions_st))
def test_no_effect_actions_change_nothing(db, u):
    if not is_consistent(u):
        return
    uni = Universe(("a", "b", "c", "dee", "x1"))
    ne = no_effect_set(db, apply_update(db, u), uni)
    assert apply_update(db, u) == apply_update(db, frozenset(u) | ne)


def test_essential_actions_flip_every_atom():
    uni = Universe(("a", "b", "c"))
    db = frozenset({"b"})
    assert essential_actions(db, uni) == (
        UpdateAction("a", True),
        UpdateAction("b", False),
        UpdateAction("c", True),
    )


def _subsets(items) -> list[tuple]:
    return [c for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


def _search(db, bodies, atoms) -> tuple[list[tuple], int]:
    """Compile the bodies over ``atoms`` and search; the masks found come
    back as position tuples."""
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    clauses = [c for c in (clause(db, body, bit) for body in bodies) if c is not None]
    found, nodes = clause_search(clauses, len(atoms))
    return [tuple(positions(x)) for x in found], nodes


def test_subset_iterators():
    # With no bodies the clause search lists every subset once, in the
    # order of their sorted positions, whatever the names of the atoms, and
    # visits every node of the binary tree.
    for atoms in (("d", "a", "c", "b"), ("a",), ()):
        found, nodes = _search(frozenset(), (), atoms)
        assert found == sorted(_subsets(range(len(atoms))))
        assert nodes == 2 ** (len(atoms) + 1) - 1


def test_clause_search_compiles_each_body_once():
    db = frozenset({"a"})
    a, not_a, b, not_b = Literal("a"), Literal("a", False), Literal("b"), Literal("b", False)
    # ``a`` holds unless ``a`` is flipped: its clause is bit 0, failing
    # nowhere; ``a, not a`` never holds.
    assert clause(db, {a}, {"a": 1}) == (1, 0)
    assert clause(db, {a, not_a}, {"a": 1}) is None
    assert _search(db, [{a}], ("a", "b"))[0] == [(0,), (0, 1)]
    assert _search(db, [{a, not_a}], ("a",))[0] == [(), (0,)]
    # ``b`` stays out of ``db`` when it is not searched: ``b`` fails, so
    # the body never holds, and ``not b`` holds, so the body is ``a``.
    assert clause(db, {a, b}, {"a": 1}) is None
    assert clause(db, {a, not_b}, {"a": 1}) == (1, 0)
    assert _search(db, [{a, b}], ("a",))[0] == [(), (0,)]
    assert _search(db, [{a, not_b}], ("a",))[0] == [(0,)]
    # A body left with no searched atom holds whatever is flipped.
    assert _search(db, [{not_b}], ("a",)) == ([], 0)
    assert _search(db, [()], ()) == ([], 0)
    # Each clause cuts where its last atom is assigned: the branch that
    # keeps ``a`` is cut at depth 1, so the nodes are the root, ``{a}``
    # and its two children.
    assert _search(db, [{a}], ("a", "b"))[1] == 4


def test_walk_visits_each_set_once_and_yields_only_leaves():
    calls = collections.Counter()

    def branch(s):
        calls[s] += 1
        if s == 0b001:
            return 0  # a dead end
        return None if s == 0b111 else 0b111 & ~s

    seen = set()
    assert list(walk(0, branch, seen)) == [0b111]
    assert set(calls.values()) == {1}
    assert seen == set(calls) == set(range(8))


def test_walk_from_a_dead_end_or_a_leaf():
    seen = set()
    assert list(walk(0b10, lambda s: 0, seen)) == []
    assert seen == {0b10}
    assert list(walk(0b10, lambda s: None)) == [0b10]


# ---------------------------------------------------------------------------
# Satisfaction


def test_holds_conjunctions_of_literals():
    db = frozenset({"a"})
    assert holds(db, ())
    assert holds(db, {Literal("a")})
    assert not holds(db, {Literal("b")})
    assert holds(db, {Literal("b", False)})
    assert not holds(db, {Literal("a", False)})
    assert holds(db, {Literal("a"), Literal("b", False)})
    assert not holds(db, {Literal("a"), Literal("b")})


def test_entails_a_program_unless_some_whole_body_holds():
    ab = AicRule(frozenset({Literal("a"), Literal("b")}), frozenset())
    not_c = AicRule(
        frozenset({Literal("c", False)}), frozenset({UpdateAction("c", True)})
    )
    assert entails(frozenset(), ())
    assert not entails(frozenset({"a", "b"}), (ab,))
    assert entails(frozenset({"a"}), (ab,))
    assert entails(frozenset({"a", "c"}), (ab, not_c))
    assert not entails(frozenset({"a"}), (ab, not_c))
    assert not entails(frozenset({"a", "b", "c"}), (ab, not_c))
    empty_body = AicRule(frozenset(), frozenset())
    assert not entails(frozenset(), (empty_body,))


# ---------------------------------------------------------------------------
# Rules


def test_aic_rule_enforces_the_updatability_condition():
    with pytest.raises(UpdatableConditionViolated):
        AicRule(frozenset({Literal("a")}), frozenset({UpdateAction("b", True)}))
    r = AicRule(
        frozenset({Literal("a"), Literal("b", False)}),
        frozenset({UpdateAction("a", False), UpdateAction("b", True)}),
    )
    assert r.up == frozenset({Literal("a"), Literal("b", False)})
    assert r.nup == frozenset()


def test_aic_rule_nup_is_the_rest_of_the_body():
    r = AicRule(
        frozenset({Literal("a"), Literal("c")}),
        frozenset({UpdateAction("a", False)}),
    )
    assert r.nup == frozenset({Literal("c")})
    assert r.trigger == frozenset({UpdateAction("c", True)})
    assert r.normal
    assert r.atoms() == frozenset({"a", "c"})


def test_rev_rule_needs_some_content():
    with pytest.raises(InputError):
        RevRule(frozenset(), frozenset())


def test_rev_rule_properness():
    improper = RevRule(
        frozenset({RevLiteral("a", True)}), frozenset({RevLiteral("a", False)})
    )
    assert not improper.proper
    assert improper.normal
    proper = RevRule(
        frozenset({RevLiteral("a", True)}), frozenset({RevLiteral("b", True)})
    )
    assert proper.proper
    assert is_proper((proper,))
    assert not is_proper((improper, proper))


def test_is_normal_looks_at_every_rule():
    wide = RevRule(
        frozenset({RevLiteral("a", True), RevLiteral("b", True)}), frozenset()
    )
    narrow = RevRule(frozenset({RevLiteral("a", True)}), frozenset())
    assert is_normal((narrow,))
    assert not is_normal((narrow, wide))


# ---------------------------------------------------------------------------
# Universes and limits


def test_universe_sorts_and_deduplicates():
    uni = Universe(("b", "a", "b"))
    assert uni.atoms == ("a", "b")
    assert "a" in uni
    assert "z" not in uni
    assert len(uni) == 2


def test_universe_rejects_bad_atom_names():
    for bad in ("Foo", "1a", "not", "false", ""):
        with pytest.raises(InputError):
            Universe((bad,))


def test_universe_require_raises_unknown_atom():
    uni = Universe(("a",))
    uni.require(("a",))
    with pytest.raises(UnknownAtom, match="'b' in db"):
        uni.require(("a", "b"), "db")


def test_universe_collect_mixes_atom_sets_and_rules():
    rule = AicRule(frozenset({Literal("c")}), frozenset())
    uni = Universe.collect(frozenset({"a"}), (rule,), ("b",))
    assert uni.atoms == ("a", "b", "c")


def test_limits_env_override(monkeypatch):
    monkeypatch.delenv("AICREPAIR_MAX_ATOMS", raising=False)
    assert Limits().effective_max_atoms() == DEFAULT_MAX_ATOMS
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", "3")
    assert Limits().effective_max_atoms() == 3
    assert Limits(max_atoms=5).effective_max_atoms() == 5
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", "many")
    with pytest.raises(InputError):
        Limits().effective_max_atoms()


def test_limits_check_universe(monkeypatch):
    monkeypatch.delenv("AICREPAIR_MAX_ATOMS", raising=False)
    uni = Universe(("a", "b", "c"))
    Limits(max_atoms=3).check_universe(uni)
    with pytest.raises(UniverseTooLarge):
        Limits(max_atoms=2).check_universe(uni)


def test_random_consistency_check_agrees_with_definition():
    rnd = random.Random("consistency")
    atoms = ("a", "b", "c")
    for _ in range(200):
        xs = {
            UpdateAction(rnd.choice(atoms), rnd.random() < 0.5)
            for _ in range(rnd.randrange(5))
        }
        by_atom = all(
            not (UpdateAction(a, True) in xs and UpdateAction(a, False) in xs)
            for a in atoms
        )
        assert is_consistent(xs) == by_atom


def test_every_exported_name_resolves():
    for name in aicrepair.__all__:
        assert getattr(aicrepair, name, None) is not None, name
