"""Repair semantics for databases under active integrity constraints.

A candidate is a consistent set of update actions over the universe. The
semantics form a hierarchy: weak repairs only enforce the constraints,
repairs are change-minimal weak repairs, founded (weak) repairs require
every action to be supported by some rule, and justified (weak) repairs
require the stronger grounding property phrased through closed sets.

All ``check_*`` functions are pure membership tests: they return ``False``
for candidates that fail the definition (including inconsistent ones) and
raise only on malformed inputs such as atoms outside the universe.
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
    apply_update,
    entails,
    essential_actions,
    is_consistent,
    lit,
    no_effect_set,
    ordered,
    proper_subsets,
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


#: Each class is one point of the paper's framework: whether the program
#: is normalized first, the grounding every action needs (none, founded or
#: justified), and whether the set must be change-minimal.
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


def check_repair(db: frozenset[str], program: AicProgram, actions) -> bool:
    """A weak repair no proper subset of which already enforces the
    constraints."""
    return check_membership(db, program, RepairClass.REPAIR, actions)


def _smaller_enforcing(db, program, u: frozenset[UpdateAction]) -> bool:
    return any(
        entails(apply_update(db, sub), program) for sub in proper_subsets(u)
    )


def is_founded_action(
    db: frozenset[str], program: AicProgram, actions, action: UpdateAction
) -> bool:
    """Some rule has ``action`` in its head, its non-updatable body holds in
    the updated database, and the duals of all other head actions hold too."""
    result = apply_update(db, actions)
    for r in program:
        if action not in r.head:
            continue
        if not entails(result, r.nup):
            continue
        others = r.head - {action}
        if all(entails(result, lit(b).dual()) for b in others):
            return True
    return False


def is_founded_set(db: frozenset[str], program: AicProgram, actions) -> bool:
    u = frozenset(actions)
    return all(is_founded_action(db, program, u, a) for a in u)


def check_founded_weak_repair(db, program: AicProgram, actions) -> bool:
    return check_membership(db, program, RepairClass.FOUNDED_WEAK_REPAIR, actions)


def check_founded_repair(db, program: AicProgram, actions) -> bool:
    return check_membership(db, program, RepairClass.FOUNDED_REPAIR, actions)


def is_closed(program: AicProgram, actions) -> bool:
    """Closedness under the rules: whenever all non-updatable body literals
    of a rule are made true by the set, the set contains a head action."""
    u = frozenset(actions)
    made_true = frozenset(lit(a) for a in u)
    for r in program:
        if r.nup <= made_true and not (r.head & u):
            return False
    return True


def check_justified_action_set(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    """Consistent, contains all its own no-effect actions, closed, and
    minimal among closed sets with the same no-effect core."""
    u = frozenset(actions)
    if not is_consistent(u):
        return False
    uni = _universe_for(db, program, u, universe)
    ne = no_effect_set(db, apply_update(db, u), uni)
    if not ne <= u:
        return False
    if not is_closed(program, u):
        return False
    for extra in proper_subsets(u - ne):
        if is_closed(program, ne | extra):
            return False
    return True


def check_justified_weak_repair(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    """The candidate together with its no-effect actions must form a
    justified action set, and must itself avoid no-effect actions."""
    e = frozenset(actions)
    if not is_consistent(e):
        return False
    uni = _universe_for(db, program, e, universe)
    ne = no_effect_set(db, apply_update(db, e), uni)
    if e & ne:
        return False
    return check_justified_action_set(db, program, e | ne, uni)


def check_justified_repair(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    return check_membership(
        db, program, RepairClass.JUSTIFIED_REPAIR, actions, universe
    )


def _require_normal(program) -> None:
    """Refuse a program with a disjunctive head, naming the first such rule."""
    for r in program:
        if not r.normal:
            raise NotNormalProgram(str(r))


def least_closure(
    seed: Iterable[UpdateAction], program: AicProgram
) -> frozenset[UpdateAction] | None:
    """The least superset of ``seed`` closed under a normal program, or
    ``None`` when no closed superset exists (a triggered constraint has an
    empty head, which nothing can satisfy)."""
    _require_normal(program)
    w = set(seed)
    made_true = {lit(a) for a in w}
    changed = True
    while changed:
        changed = False
        for r in program:
            if not r.nup <= made_true:
                continue
            if not r.head:
                return None
            (action,) = r.head
            if action not in w:
                w.add(action)
                made_true.add(lit(action))
                changed = True
    return frozenset(w)


def decide_jwr_normal(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    """Polynomial-time justified-weak-repair test for normal programs.

    For normal programs the unique minimal closed superset of the no-effect
    core can be computed bottom-up, so membership reduces to one fixpoint
    computation instead of a search over subsets.
    """
    _require_normal(program)
    e = frozenset(actions)
    if not is_consistent(e):
        return False
    uni = _universe_for(db, program, e, universe)
    ne = no_effect_set(db, apply_update(db, e), uni)
    if e & ne:
        return False
    closure = least_closure(ne, program)
    return closure is not None and closure == e | ne


def _grounded(grounding, db, program, u, uni) -> bool:
    if grounding == "founded":
        return is_founded_set(db, program, u)
    if grounding == "justified":
        return check_justified_weak_repair(db, program, u, uni)
    return True


def check_membership(
    db: frozenset[str],
    program: AicProgram,
    repair_class: RepairClass,
    actions,
    universe: Universe | None = None,
) -> bool:
    """Membership test for any repair class, including the normalized ones.

    Atoms outside a declared universe are rejected up front, whatever the
    class."""
    normalized, grounding, minimal = _TABLE[repair_class]
    u = frozenset(actions)
    uni = _universe_for(db, program, u, universe)
    if normalized:
        program = transforms.normalize_aic(program)
    return (
        check_weak_repair(db, program, u)
        and _grounded(grounding, db, program, u, uni)
        and not (minimal and _smaller_enforcing(db, program, u))
    )


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class RepairReport:
    """Outcome of enumerating one repair class over an instance."""

    repair_class: RepairClass
    sets: tuple[frozenset[UpdateAction], ...]
    examined: int


def sort_key(actions: Iterable[UpdateAction]) -> tuple:
    return tuple((a.atom, 0 if a.insert else 1) for a in ordered(actions))


def _candidate(index: int, essential: tuple[UpdateAction, ...]) -> frozenset[UpdateAction]:
    return frozenset(
        a for bit, a in enumerate(essential) if index >> bit & 1
    )


def _scan(db, program, essential, groundings, uni) -> tuple[list, dict]:
    """Examine every candidate once: returns the weak repairs and, per
    requested grounding, the weak repairs that have it, in examination
    order."""
    weak: list = []
    grounded: dict = {g: [] for g in groundings}
    for index in range(1 << len(essential)):
        u = _candidate(index, essential)
        if not entails(apply_update(db, u), program):
            continue
        weak.append(u)
        for g, hits in grounded.items():
            if _grounded(g, db, program, u, uni):
                hits.append(u)
    return weak, grounded


def _minimal(sets: list[frozenset]) -> list[frozenset]:
    return [u for u in sets if not any(v < u for v in sets)]


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
    construction. One scan of the program, and one of its normalized form
    when a normalized class is requested, serves every class. Results are
    sorted canonically.
    """
    classes = tuple(dict.fromkeys(classes))
    limits = limits or Limits()
    uni = _universe_for(db, program, universe=universe)
    limits.check_universe(uni)
    essential = essential_actions(db, uni)
    examined = 1 << len(essential)

    reports = {}
    for normalized in (False, True):
        wanted = [c for c in classes if _TABLE[c][0] is normalized]
        if not wanted:
            continue
        prog = transforms.normalize_aic(program) if normalized else program
        groundings = sorted({_TABLE[c][1] for c in wanted} - {None})
        weak, grounded = _scan(db, prog, essential, groundings, uni)
        minimal = None
        for c in wanted:
            _, grounding, change_minimal = _TABLE[c]
            hits = weak if grounding is None else grounded[grounding]
            if change_minimal:
                if minimal is None:
                    minimal = set(_minimal(weak))
                hits = [u for u in hits if u in minimal]
            hits = tuple(sorted(hits, key=sort_key))
            reports[c] = RepairReport(c, hits, examined)
    return {c: reports[c] for c in classes}


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
