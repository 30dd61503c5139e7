"""Repair semantics for databases under active integrity constraints.

A candidate is a consistent set of update actions over the universe. The
semantics form a hierarchy: weak repairs only enforce the constraints,
repairs are change-minimal weak repairs, founded (weak) repairs require
every action to be supported by some rule, and justified (weak) repairs
require the stronger grounding property phrased through closed sets.

``check_membership`` is the one membership test per class. It returns
``False`` for candidates that fail the definition (including inconsistent
ones), raises on malformed inputs such as atoms outside the universe, and
validates the universe once; the predicates below it take a validated
universe and never validate again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from . import transforms
from .errors import NotNormalProgram
from .model import (
    AicProgram,
    Limits,
    Universe,
    UpdateAction,
    _key,
    _no_effect,
    apply_update,
    clause_search,
    entails,
    essential_actions,
    holds,
    is_consistent,
    is_normal,
    lit,
    walk,
)


class RepairClass(enum.Enum):
    """The repair semantics the engine can enumerate and check."""

    WEAK_REPAIR = "weak-repair"
    REPAIR = "repair"
    FOUNDED_WEAK_REPAIR = "founded-weak-repair"
    FOUNDED_REPAIR = "founded-repair"
    JUSTIFIED_WEAK_REPAIR = "justified-weak-repair"
    JUSTIFIED_REPAIR = "justified-repair"
    JUSTIFIED_WEAK_REPAIR_NORMALIZED = "justified-weak-repair-normalized"
    JUSTIFIED_REPAIR_NORMALIZED = "justified-repair-normalized"


#: Each class is one point of the paper's framework: whether its grounding
#: is tested on the normalized program, the grounding every action needs
#: (none, founded or justified), and whether the set must be change-minimal.
_TABLE = {
    RepairClass.WEAK_REPAIR: (False, None, False),
    RepairClass.REPAIR: (False, None, True),
    RepairClass.FOUNDED_WEAK_REPAIR: (False, "founded", False),
    RepairClass.FOUNDED_REPAIR: (False, "founded", True),
    RepairClass.JUSTIFIED_WEAK_REPAIR: (False, "justified", False),
    RepairClass.JUSTIFIED_REPAIR: (False, "justified", True),
    RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED: (True, "justified", False),
    RepairClass.JUSTIFIED_REPAIR_NORMALIZED: (True, "justified", True),
}


def _universe_for(db, program, actions=(), universe=None) -> Universe:
    if universe is not None:
        universe.require(db, "database")
        universe.require((a.atom for a in actions), "update set")
        for r in program:
            universe.require(r.atoms(), "constraint")
        return universe
    return Universe.collect(db, (a.atom for a in actions), program)


def _essential(db, actions: frozenset[UpdateAction]) -> bool:
    return all((a.atom not in db) == a.insert for a in actions)


def check_weak_repair(db: frozenset[str], program: AicProgram, actions) -> bool:
    """Consistent, every action changes the database, result satisfies all
    constraints."""
    u = frozenset(actions)
    if not is_consistent(u) or not _essential(db, u):
        return False
    return entails(apply_update(db, u), program)


def is_founded_set(db: frozenset[str], program: AicProgram, actions) -> bool:
    """Every action ``a`` is founded: some rule has ``a`` in its head, and
    its non-updatable body and the duals of its other head actions, that is
    its whole body but the dual of ``a``, hold in the updated database. An
    inconsistent set is not founded."""
    u = frozenset(actions)
    if not is_consistent(u):
        return False
    result = apply_update(db, u)
    return all(
        any(a in r.head and holds(result, r.body - {lit(a).dual()}) for r in program)
        for a in u
    )


def _violated(program: AicProgram, actions: frozenset[UpdateAction]):
    """The first rule whose non-updatable body the set makes true (the set
    holds its ``trigger``) while the set holds none of its head actions, or
    ``None``."""
    return next(
        (r for r in program if r.trigger <= actions and not r.head & actions),
        None,
    )


def _repair_tree(db, program, moves: dict, seen: set | None = None):
    """The leaves of the repair tree, the weak repairs it reaches.

    From the empty set, at a set ``s`` the first rule whose whole body holds
    in ``db∘s`` branches on every body atom that ``s`` leaves alone and that
    ``moves`` (atom to essential action) covers. A change-minimal weak
    repair ``m`` above ``s`` inside the moves keeps the flips of ``s`` and
    satisfies the rule, so it flips one: by :func:`walk`, ``m`` is a leaf."""
    def branch(s):
        result = apply_update(db, s)
        rule = next((r for r in program if holds(result, r.body)), None)
        if rule is None:
            return None
        flips = (moves.get(l.atom) for l in rule.body)
        return [a for a in flips if a is not None and a not in s]
    return walk(frozenset(), branch, seen)


def is_closed(program: AicProgram, actions) -> bool:
    """Closedness under the rules: whenever all non-updatable body literals
    of a rule are made true by the set, the set contains a head action."""
    return _violated(program, frozenset(actions)) is None


def _justified(db, program, e: frozenset[UpdateAction], uni: Universe) -> bool:
    """A consistent ``e`` over a validated universe, together with its
    no-effect actions ``ne``, is a justified action set: ``e`` avoids
    ``ne``, ``e | ne`` is closed, and no ``ne | e'`` with ``e'`` a proper
    subset of ``e`` is closed.

    The last test is a :func:`walk` up from ``ne``: a set that violates a
    rule grows by one of its head actions in ``e``, one of which any closed
    set above it inside ``e | ne`` holds. It branches only at disjunctive
    heads; on a normal program it is the least closure of ``ne``."""
    ne = _no_effect(db, apply_update(db, e), uni)
    full = e | ne
    if e & ne or not is_closed(program, full):
        return False
    def branch(s):
        rule = _violated(program, s)
        return None if rule is None else rule.head & e
    return all(leaf == full for leaf in walk(ne, branch))


def check_justified_weak_repair(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    """The candidate together with its no-effect actions must form a
    justified action set, and must itself avoid no-effect actions."""
    e = frozenset(actions)
    if not is_consistent(e):
        return False
    return _justified(db, program, e, _universe_for(db, program, e, universe))


def _require_normal(program) -> None:
    """Refuse a program with a disjunctive head, naming the first such rule."""
    for r in program:
        if not r.normal:
            raise NotNormalProgram(str(r))


def _grounded(grounding, db, program, u, uni) -> bool:
    if grounding == "founded":
        return is_founded_set(db, program, u)
    if grounding == "justified":
        return _justified(db, program, u, uni)
    return True


def check_membership(
    db: frozenset[str],
    program: AicProgram,
    repair_class: RepairClass,
    actions,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> bool:
    """Membership test for any repair class, including the normalized ones:
    their grounding test runs on the normalized program, which keeps every
    body. Atoms outside a declared universe are rejected up front. Given
    ``limits``, a candidate on more atoms than the bound is refused when
    the test searches its subsets (a change-minimal class, or a justified
    walk on a disjunctive program); without it no check is refused."""
    normalized, grounding, minimal = _TABLE[repair_class]
    u = frozenset(actions)
    uni = _universe_for(db, program, u, universe)
    grounds_on = transforms.normalize_aic(program) if normalized else program
    disjunctive = grounding == "justified" and not is_normal(grounds_on)
    if limits is not None and (minimal or disjunctive):
        limits.check_universe({a.atom for a in u}, "candidate")
    # A weak ``u`` is change-minimal when the repair tree over its own
    # actions reaches no other leaf: any smaller weak repair leads to one.
    tree = _repair_tree(db, program, {a.atom: a for a in u}) if minimal else ()
    return (
        check_weak_repair(db, program, u)
        and _grounded(grounding, db, grounds_on, u, uni)
        and all(leaf == u for leaf in tree)
    )


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class RepairReport:
    """Outcome of enumerating one repair class over an instance.

    ``examined`` counts the candidate sets the engine visited for the
    request: the nodes of the clause search when a weak class is asked
    for, the sets of the repair tree when every class is change-minimal."""

    repair_class: RepairClass
    sets: tuple[frozenset[UpdateAction], ...]
    examined: int


def sort_key(actions: Iterable[UpdateAction]) -> tuple:
    return tuple(sorted(map(_key, actions)))


def _scan(db, program, actions: tuple[UpdateAction, ...]) -> tuple[list, int]:
    """The weak repairs among the subsets of ``actions``, essential actions
    in universe order, in canonical order, and the number of nodes the
    clause search visited."""
    found, nodes = clause_search(
        db, (r.body for r in program), tuple(a.atom for a in actions)
    )
    return [frozenset(map(actions.__getitem__, t)) for t in found], nodes


def _minimal(sets: list[frozenset]) -> list[frozenset]:
    """The members of ``sets`` with no proper subset among them, in the
    order of ``sets``. Smallest first, each set is compared only with the
    minimal ones kept before it."""
    kept: list = []
    for u in sorted(sets, key=len):
        if not any(v < u for v in kept):
            kept.append(u)
    keep = set(kept)
    return [u for u in sets if u in keep]


def enumerate_classes(
    db: frozenset[str],
    program: AicProgram,
    classes: Iterable[RepairClass],
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> dict[RepairClass, RepairReport]:
    """Exhaustively enumerate the members of several repair classes.

    Candidates are the subsets of the essential actions (one polarity per
    universe atom), so consistency and change-effectiveness hold by
    construction. When every class is change-minimal, the leaves of the
    repair tree hold all change-minimal weak repairs; otherwise one clause
    search lists the weak repairs. Every action of a founded or justified
    set is in some rule head, and normalizing keeps the heads, so the
    grounding tests run only on the sets inside the heads; when every class
    is grounded, the search itself flips only head actions. The
    normalized classes are the justified ones of the normalized program,
    whose weak repairs and change-minimal sets are those of the program.
    Results are in canonical order.
    """
    classes = tuple(dict.fromkeys(classes))
    limits = limits or Limits()
    uni = _universe_for(db, program, universe=universe)
    limits.check_universe(uni)
    essential = essential_actions(db, uni)
    heads = frozenset().union(*(r.head for r in program))

    rows = [_TABLE[c] for c in classes]
    if all(m for _, _, m in rows):
        seen: set = set()
        leaves = _repair_tree(db, program, {a.atom: a for a in essential}, seen)
        pool = minimal = _minimal(sorted(leaves, key=sort_key))
        examined = len(seen)
    else:
        if all(g for _, g, _ in rows):
            # Every member is inside the heads, and so are its subsets, the
            # weak repairs its minimality is tested against.
            essential = tuple(a for a in essential if a in heads)
        pool, examined = _scan(db, program, essential)
        minimal = _minimal(pool) if any(m for _, _, m in rows) else []

    programs = {False: program}
    if any(normalized for normalized, _, _ in rows):
        programs[True] = transforms.normalize_aic(program)
    grounded = {
        (normalized, g): {
            u
            for u in pool
            if u <= heads and _grounded(g, db, programs[normalized], u, uni)
        }
        for normalized, g in dict.fromkeys(row[:2] for row in rows if row[1])
    }
    reports = {}
    for c in classes:
        normalized, grounding, change_minimal = _TABLE[c]
        hits = minimal if change_minimal else pool
        if grounding:
            hits = [u for u in hits if u in grounded[normalized, grounding]]
        reports[c] = RepairReport(c, tuple(hits), examined)
    return reports


def enumerate_repairs(
    db: frozenset[str],
    program: AicProgram,
    repair_class: RepairClass,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> RepairReport:
    """Exhaustively enumerate all members of one repair class."""
    return enumerate_classes(db, program, (repair_class,), universe, limits)[
        repair_class
    ]
