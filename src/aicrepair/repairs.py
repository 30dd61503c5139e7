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
from functools import cached_property
from typing import Iterable

from . import transforms
from .errors import NotNormalProgram
from .model import (
    AicProgram,
    Limits,
    Universe,
    UpdateAction,
    apply_update,
    clause,
    clause_search,
    # Unused here: the benchmark's tracer (perfbench/tracing.py) counts the
    # calls made through this name, so it stays importable.
    entails,
    essential_actions,
    holds,
    is_consistent,
    is_normal,
    lit,
    members,
    positions,
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


class _Compiled:
    """A program over the bit positions of ``actions``, essential actions
    in universe order: bit ``i`` of a mask ``x`` flips ``actions[i]``, and
    position order is canonical order. An action that does not flip
    ``db`` is the no-effect action of its atom, the dual of the essential
    one: it is in the no-effect set of ``x`` exactly when ``x`` leaves its
    bit 0, and always outside the positions, where atoms keep their ``db``
    value. Each part is compiled on first use."""

    def __init__(self, db, program: AicProgram, actions: tuple[UpdateAction, ...]):
        self.db, self.program, self.n = db, program, len(actions)
        self.bit = {a.atom: 1 << i for i, a in enumerate(actions)}

    def _split(self, actions) -> tuple[int, int, set[bool]]:
        """The essential bits and the no-effect bits of ``actions``, and
        whether each action outside the positions flips ``db``."""
        e = n = 0
        outside = set()
        for a in actions:
            b, flips = self.bit.get(a.atom, 0), (a.atom in self.db) != a.insert
            if not b:
                outside.add(flips)
            elif flips:
                e |= b
            else:
                n |= b
        return e, n, outside

    @cached_property
    def bodies(self) -> list[tuple[int, int] | None]:
        return [clause(self.db, r.body, self.bit) for r in self.program]

    @cached_property
    def clauses(self) -> list[tuple[int, int]]:
        """The clauses of the bodies that can hold, in program order."""
        return [c for c in self.bodies if c is not None]

    @cached_property
    def support(self) -> dict[int, list[tuple[int, int]]]:
        """Per bit of an essential head action ``a``, the clauses of
        ``body − {dual(a)}``: ``a`` is founded when one of them holds.
        ``dual(a)`` holds in ``db``, so it drops its bit from the clause of
        the body; a body that never holds is compiled again without it."""
        support: dict[int, list] = {}
        for r, body in zip(self.program, self.bodies):
            for a in r.head:
                b = self._split((a,))[0]
                if not b:
                    continue
                if body is None:
                    c = clause(self.db, r.body - {lit(a).dual()}, self.bit)
                else:
                    c = body[0] & ~b, body[1]
                if c is not None:
                    support.setdefault(b, []).append(c)
        return support

    @cached_property
    def rules(self) -> list[tuple[int, int, int, int]]:
        """Each rule some set can violate, its trigger and head split into
        essential and no-effect bits: ``(te, tn, he, hn)``. A trigger flip
        outside the positions is in no set, and a head no-effect action
        outside them in every set; their rules are dropped."""
        out = []
        for r in self.program:
            te, tn, never = self._split(r.trigger)
            he, hn, always = self._split(r.head)
            if True not in never and False not in always:
                out.append((te, tn, he, hn))
        return out

    def weak(self, x: int) -> bool:
        return all(x & m != f for m, f in self.clauses)

    def founded(self, x: int) -> bool:
        support, y = self.support, x
        while y:
            b = y & -y
            y ^= b
            if not any(x & m == f for m, f in support.get(b, ())):
                return False
        return True

    def justified(self, x: int) -> bool:
        """``x`` and its no-effect actions ``ne`` form a justified action
        set: ``x | ne`` is closed, and no ``ne | e`` with ``e`` a proper
        subset of ``x`` is. Only a rule whose no-effect trigger avoids
        ``x`` and whose no-effect head lies inside ``x`` can be violated:
        by ``ne | e`` when ``e`` holds its essential trigger and none of
        its essential head. The last test is a :func:`walk` from ``ne``: a
        violating set grows by one of the rule's head bits in ``x``, one
        of which any closed set above it inside ``x | ne`` holds. It
        branches only at disjunctive heads; on a normal program it is the
        least closure of ``ne``."""
        live = [
            (te, he) for te, tn, he, hn in self.rules if not tn & x and not hn & ~x
        ]
        if any(not te & ~x and not he & x for te, he in live):
            return False

        def branch(s):
            for te, he in live:
                if not te & ~s and not he & s:
                    return he & x
            return None

        return all(leaf == x for leaf in walk(0, branch))


def check_weak_repair(db: frozenset[str], program: AicProgram, actions) -> bool:
    """Consistent, every action changes the database, result satisfies all
    constraints."""
    return check_membership(db, program, RepairClass.WEAK_REPAIR, actions)


def is_founded_set(db: frozenset[str], program: AicProgram, actions) -> bool:
    """Every action ``a`` is founded: some rule has ``a`` in its head, and
    its non-updatable body and the duals of its other head actions, that is
    its whole body but the dual of ``a``, hold in the updated database. An
    inconsistent set is not founded. The definition on sets, which the
    engine's test on masks (``_Compiled.founded``) must agree with."""
    u = frozenset(actions)
    if not is_consistent(u):
        return False
    result = apply_update(db, u)
    return all(
        any(a in r.head and holds(result, r.body - {lit(a).dual()}) for r in program)
        for a in u
    )


def _repair_tree(clauses: list[tuple[int, int]], moves: int, seen: set | None = None):
    """The leaves of the repair tree, the weak repairs it reaches.

    From the empty set, at a mask ``s`` the first rule whose whole body
    holds in ``db∘s`` branches on every body bit that ``s`` leaves alone
    and that ``moves`` holds. A change-minimal weak repair ``m`` above
    ``s`` inside the moves keeps the flips of ``s`` and satisfies the rule,
    so it flips one: by :func:`walk`, ``m`` is a leaf."""
    def branch(s):
        for m, f in clauses:
            if s & m == f:
                return m & moves & ~s
        return None
    return walk(0, branch, seen)


def is_closed(program: AicProgram, actions) -> bool:
    """Closedness under the rules: whenever all non-updatable body literals
    of a rule are made true by the set, the set contains a head action."""
    u = frozenset(actions)
    return all(not r.trigger <= u or r.head & u for r in program)


def check_justified_weak_repair(
    db: frozenset[str], program: AicProgram, actions, universe: Universe | None = None
) -> bool:
    """The candidate together with its no-effect actions must form a
    justified action set, and must itself avoid no-effect actions."""
    return check_membership(
        db, program, RepairClass.JUSTIFIED_WEAK_REPAIR, actions, universe
    )


def _require_normal(program) -> None:
    """Refuse a program with a disjunctive head, naming the first such rule."""
    for r in program:
        if not r.normal:
            raise NotNormalProgram(str(r))


def _grounded(grounding, compiled: _Compiled, x: int) -> bool:
    if grounding == "founded":
        return compiled.founded(x)
    if grounding == "justified":
        return compiled.justified(x)
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
    walk on a disjunctive program); without it no check is refused. A
    consistent candidate of essential actions becomes a mask over the
    essential actions of the universe, and every test runs on it."""
    normalized, grounding, minimal = _TABLE[repair_class]
    u = frozenset(actions)
    uni = _universe_for(db, program, u, universe)
    grounds_on = transforms.normalize_aic(program) if normalized else program
    disjunctive = grounding == "justified" and not is_normal(grounds_on)
    if limits is not None and (minimal or disjunctive):
        limits.check_universe({a.atom for a in u}, "candidate")
    if not is_consistent(u) or not _essential(db, u):
        return False
    essential = essential_actions(db, uni)
    compiled = _Compiled(db, program, essential)
    x = sum(compiled.bit[a.atom] for a in u)
    grounds = _Compiled(db, grounds_on, essential) if normalized else compiled
    # A weak ``x`` is change-minimal when the repair tree over its own
    # bits reaches no other leaf: any smaller weak repair leads to one.
    tree = _repair_tree(compiled.clauses, x) if minimal else ()
    return (
        compiled.weak(x)
        and _grounded(grounding, grounds, x)
        and all(leaf == x for leaf in tree)
    )


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class RepairReport:
    """Outcome of enumerating one repair class over an instance.

    ``hits`` are the members as masks over ``actions``, the essential
    actions the engine searched, in universe order: bit ``i`` stands for
    ``actions[i]``, and the hits are in canonical order. Every report of
    one engine call shares its ``actions``. ``sets``, the members as
    frozensets in the same order, is built on first read. ``examined``
    counts the candidate sets the engine visited for the request: the
    nodes of the clause search when a weak class is asked for, the sets of
    the repair tree when every class is change-minimal."""

    repair_class: RepairClass
    actions: tuple[UpdateAction, ...]
    hits: tuple[int, ...]
    examined: int

    @cached_property
    def sets(self) -> tuple[frozenset[UpdateAction], ...]:
        return tuple(members(self.actions, self.hits))


def _scan(compiled: _Compiled) -> tuple[list[int], int]:
    """The weak repairs among the masks over the compiled positions, in
    canonical order, and the number of nodes the clause search visited."""
    return clause_search(compiled.clauses, compiled.n)


def _minimal(masks: list[int]) -> list[int]:
    """The members of ``masks`` with no proper subset among them, in the
    order of ``masks``. Smallest first, each mask is compared only with the
    minimal ones kept before it."""
    kept: list[int] = []
    for u in sorted(masks, key=int.bit_count):
        if all(v & u != v for v in kept):
            kept.append(u)
    keep = set(kept)
    return [u for u in masks if u in keep]


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
    construction; the program is compiled once over their bit positions.
    When every class is change-minimal, the leaves of the repair tree hold
    all change-minimal weak repairs; otherwise one clause search lists the
    weak repairs. A justified set is founded, so every action of a grounded
    set has a support clause that holds, and normalizing keeps the support
    clauses: the grounding tests run only on the sets whose every bit has
    one. When every class is grounded, the search itself flips only head
    actions. The normalized classes are the justified ones of the
    normalized program, whose weak repairs and change-minimal sets are
    those of the program. Results are in canonical order.
    """
    classes = tuple(dict.fromkeys(classes))
    limits = limits or Limits()
    uni = _universe_for(db, program, universe=universe)
    limits.check_universe(uni)
    essential = essential_actions(db, uni)
    heads = frozenset().union(*(r.head for r in program))

    rows = [_TABLE[c] for c in classes]
    minimal_only = all(m for _, _, m in rows)
    if all(g for _, g, _ in rows) and not minimal_only:
        # Every member is inside the heads, and so are its subsets, the
        # weak repairs its minimality is tested against.
        essential = tuple(a for a in essential if a in heads)
    programs = {False: _Compiled(db, program, essential)}
    compiled = programs[False]
    if minimal_only:
        seen: set = set()
        leaves = _repair_tree(compiled.clauses, (1 << compiled.n) - 1, seen)
        pool = minimal = _minimal(sorted(leaves, key=positions))
        examined = len(seen)
    else:
        pool, examined = _scan(compiled)
        minimal = _minimal(pool) if any(m for _, _, m in rows) else []

    if any(normalized for normalized, _, _ in rows):
        programs[True] = _Compiled(db, transforms.normalize_aic(program), essential)
    keys = dict.fromkeys(row[:2] for row in rows if row[1])
    supported = sum(compiled.support) if keys else 0
    grounded = {
        (normalized, g): {
            x
            for x in pool
            if not x & ~supported and _grounded(g, programs[normalized], x)
        }
        for normalized, g in keys
    }
    reports = {}
    for c in classes:
        normalized, grounding, change_minimal = _TABLE[c]
        hits = minimal if change_minimal else pool
        if grounding:
            hits = [x for x in hits if x in grounded[normalized, grounding]]
        reports[c] = RepairReport(c, essential, tuple(hits), examined)
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
