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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import prod
from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import NotNormalProgram
from .model import (
    AicProgram,
    Limits,
    Universe,
    apply_update,
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
    _product,
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


_BODY = attrgetter("body")


def _universe_for(db, program, actions=(), universe=None) -> Universe:
    if universe is not None:
        universe.require(db, "database")
        universe.require((a.atom for a in actions), "update set")
        # A head action's atom is in its body (the updatability condition),
        # so the body atoms are all the atoms of the program.
        atoms = map(itemgetter(0), chain.from_iterable(map(_BODY, program)))
        if not universe.covers(atoms):
            for r in program:
                universe.require(r.atoms(), "constraint")
        return universe
    return Universe.collect(db, (a.atom for a in actions), program)


def _compile(db, program: AicProgram, actions) -> list[tuple[int, int, int, int]]:
    """The program over the bit positions of ``actions``, essential actions
    in universe order: bit ``i`` of a mask ``x`` flips ``actions[i]``, and
    position order is canonical order. An action that does not flip ``db``
    is the no-effect action of its atom, the dual of the essential one: it
    is in the no-effect set of ``x`` exactly when ``x`` leaves its bit 0,
    and always outside the positions, where atoms keep their ``db`` value.
    Each rule some set can violate, in program order, as ``(te, tn, he,
    hn)``: the essential and no-effect bits of its trigger, ``ua`` of the
    body literals whose dual action is not in the head, and of its head. A
    body literal that fails in ``db`` is an essential trigger action or
    the dual of a no-effect head action, one that holds a no-effect
    trigger action or the dual of an essential head action. Outside the
    positions a failing literal is a trigger action in no set, or the dual
    of a head action in every set, and its rule is dropped; a literal that
    holds is no bit. A body that holds an atom and its dual never holds,
    but its rule is kept: it still constrains the justified walk."""
    bit = {a.atom: 1 << i for i, a in enumerate(actions)}
    out = []
    for r in program:
        fails = holds = 0
        for l in r.body:
            b = bit.get(l.atom, 0)
            if (l.atom in db) != l.positive:
                if not b:
                    break
                fails |= b
            else:
                holds |= b
        else:
            he = hn = 0
            for a in r.head:
                if (a.atom in db) != a.insert:
                    he |= bit.get(a.atom, 0)
                else:
                    hn |= bit.get(a.atom, 0)
            out.append((fails & ~hn, holds & ~he, he, hn))
    return out


class _Compiled:
    """Compiled rules (:func:`_compile`) and what the tests read from them.

    ``clauses`` holds the clause ``(m, f)`` of each body that can hold, in
    program order: ``m`` holds the bits of its atoms and ``f`` those whose
    literal fails in ``db``, so flipping ``x`` makes the body hold exactly
    when ``x & m == f``. A bit that both fails and holds is an atom and
    its dual. ``support`` maps the bit ``b`` of each essential head action
    ``a`` to the clauses of ``body − {dual(a)}``: ``a`` is founded when one
    of them holds. ``dual(a)`` holds in ``db``, so only its bit leaves the
    clause's holding bits."""

    def __init__(self, rules: list[tuple[int, int, int, int]]):
        self.rules = rules
        self.clauses = [
            (te | tn | he | hn, te | hn)
            for te, tn, he, hn in rules
            if not (te | hn) & (tn | he)
        ]
        support: dict[int, list[tuple[int, int]]] = {}
        for te, tn, he, hn in rules:
            y = he
            while y:
                b = y & -y
                y ^= b
                if not (te | hn) & (tn | he & ~b):
                    support.setdefault(b, []).append((te | tn | he & ~b | hn, te | hn))
        self.support = support

    def normalized(self) -> "_Compiled":
        """The normalized program, split from :attr:`rules`: it keeps each
        body, so a rule splits into one per head bit ``b`` (both, for a bit
        in ``he`` and ``hn``), its trigger the body but ``b``'s dual. Every
        head action of a kept rule has a bit: an essential one is a
        position, and a no-effect one's dual fails in ``db``, so without a
        bit its rule is dropped. An empty head stays, as does the program
        when no rule splits."""
        out = []
        for te, tn, he, hn in self.rules:
            t, h, y = te | hn, tn | he, he | hn
            if not y:
                out.append((te, tn, he, hn))
            while y:
                b = y & -y
                y ^= b
                if he & b:
                    out.append((t, h & ~b, b, 0))
                if hn & b:
                    out.append((t & ~b, h, 0, b))
        return self if len(out) == len(self.rules) else _Compiled(out)

    def founded(self, x: int) -> bool:
        support, y = self.support, x
        while y:
            b = y & -y
            y ^= b
            if not any(x & m == f for m, f in support.get(b, ())):
                return False
        return True

    def justified(self, x: int) -> bool:
        """``x``, a weak repair of the compiled program, and its no-effect
        actions ``ne`` form a justified action set: no ``ne | e`` with
        ``e`` a proper subset of ``x`` is closed. Only a rule whose
        no-effect trigger avoids ``x`` and whose no-effect head lies inside
        ``x`` can be violated: by ``ne | e`` when ``e`` holds its essential
        trigger and none of its essential head. For ``e = x`` its whole
        body would hold in ``db∘x``, so ``x | ne`` is closed as ``x`` is
        weak. The test is a :func:`walk` from ``ne``: a violating set grows
        by one of the rule's head bits in ``x``, one of which any closed
        set above it inside ``x | ne`` holds. It branches only at
        disjunctive heads; on a normal program it is the least closure of
        ``ne``."""
        live = [
            (te, he) for te, tn, he, hn in self.rules if not tn & x and not hn & ~x
        ]

        def branch(s):
            for te, he in live:
                if not te & ~s and not he & s:
                    return he & x
            return None

        return all(leaf == x for leaf in walk(0, branch))


def _split(rules: list, n: int) -> tuple[list[tuple[int, int]], list[_Compiled]]:
    """The ranges ``(lo, hi)`` of positions ``lo`` to ``hi - 1`` between
    the cuts of ``n`` positions, lowest first, and per range its part: the
    rules whose bits lie in it, in program order. ``i`` is a cut when no
    rule has bits both below ``i`` and at or above it. A rule's bits are
    its body's, which hold its head's, so every clause, support clause and
    normalized rule lies in one part. A rule with no bit, a body that
    holds whatever is flipped, lands in the last part, which it leaves
    with no weak repair."""
    bits, spans = [te | tn | he | hn for te, tn, he, hn in rules], 0
    for m in bits:
        # The positions low + 1 .. high that the rule crosses.
        spans |= (1 << m.bit_length()) - 2 * (m & -m)
    cuts = ((1 << n) - 1) & ~(spans | 1)
    if not cuts:
        return [(0, n)], [_Compiled(rules)]
    starts = [0, *positions(cuts)]
    lists: list[list] = [[] for _ in starts]
    for rule, m in zip(rules, bits):
        lists[bisect_right(starts, (m & -m).bit_length() - 1) - 1].append(rule)
    return list(zip(starts, [*starts[1:], n])), [*map(_Compiled, lists)]


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


def _tree(clauses: list[tuple[int, int]], moves: int):
    """The branch function of the repair tree, a :func:`walk` from the
    empty set: at a mask ``s`` the first rule whose whole body holds in
    ``db∘s`` branches on every body bit that ``s`` leaves alone and that
    ``moves`` holds, and its leaves are weak repairs. Every change-minimal
    weak repair ``m`` inside the moves is a leaf: above any ``s`` inside
    ``m``, ``m`` keeps the flips of ``s`` and satisfies the rule, so it
    flips one."""
    def branch(s):
        for m, f in clauses:
            if s & m == f:
                return m & moves & ~s
        return None
    return branch


def _least(
    clauses: list[tuple[int, int]], moves: int, seen: set | None = None
) -> list[int]:
    """The change-minimal weak repairs inside ``moves``, in canonical
    order: the leaves of the repair tree (:func:`_tree`). Every weak repair
    holds a change-minimal one, so a leaf is change-minimal when it holds
    none of the leaves kept before it, smallest first. Each position's
    column has a bit per kept leaf that flips it: a leaf ``u`` holds none
    of them when the columns of the moves outside ``u`` cover every one."""
    kept: list[int] = []
    columns = [0] * moves.bit_length()
    for u in sorted(walk(0, _tree(clauses, moves), seen), key=int.bit_count):
        outside = 0
        for p in positions(moves & ~u):
            outside |= columns[p]
        if outside == (1 << len(kept)) - 1:
            for p in positions(u):
                columns[p] |= 1 << len(kept)
            kept.append(u)
    return sorted(kept, key=positions)


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


def check_membership(
    db: frozenset[str],
    program: AicProgram,
    repair_class: RepairClass,
    actions,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> bool:
    """Membership test for any repair class, including the normalized ones:
    their justified walk runs on the normalized program, which keeps every
    body, after the founded test. Atoms outside a declared universe are
    rejected up front. Given
    ``limits``, a candidate on more atoms than the bound is refused when
    the test searches its subsets (a change-minimal class, or a justified
    walk on a disjunctive program); without it no check is refused. A
    candidate inside the essential actions of the universe, which makes it
    consistent, becomes a mask over them, and every test runs on it."""
    normalized, grounding, minimal = _TABLE[repair_class]
    u = frozenset(actions)
    uni = _universe_for(db, program, u, universe)
    disjunctive = (
        grounding == "justified" and not normalized and not is_normal(program)
    )
    if limits is not None and (minimal or disjunctive):
        limits.check_universe({a.atom for a in u}, "candidate")
    actions = essential_actions(db, uni)
    if not u.issubset(actions):
        return False
    compiled = _Compiled(_compile(db, program, actions))
    x = sum(1 << i for i, a in enumerate(actions) if a in u)
    if any(x & m == f for m, f in compiled.clauses):
        return False
    # A justified set is founded on the program and on its normalization,
    # so the justified walk runs only on a founded set.
    if grounding and not compiled.founded(x):
        return False
    walks = compiled.normalized() if normalized else compiled
    if grounding == "justified" and not walks.justified(x):
        return False
    # Change-minimal when the repair tree over its own bits has no leaf
    # but itself: the walk stops at the first other one.
    return not minimal or all(leaf == x for leaf in walk(0, _tree(compiled.clauses, x)))


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class Report:
    """Outcome of enumerating one repair or revision class over an instance.

    The members are masks over ``actions``, the essential actions the
    engine searched, in universe order (their revision literals when
    ``semantics`` is a revision class): bit ``i`` stands for
    ``actions[i]``. ``blocks`` holds the members as a product: per range
    of positions that no rule crosses (:func:`_split`), lowest
    first, the masks over it in canonical order; the members are the
    unions of one mask per block (:func:`model._product`). Every report of
    one engine call shares its ``actions`` and its ranges, and a class
    with no member is ``((),)``, so two classes are equal exactly when
    their blocks are. ``size``, the number of members, is the product of
    the block sizes. ``sets``, the members as frozensets in canonical
    order, is built on first read, and reading it builds the whole
    product. ``examined`` counts the candidate sets the engine visited for
    the request, summed over the ranges: the sets the repair trees visit,
    when a change-minimal class is asked for, plus, when a weak class is,
    ``2**k`` for each truth table the clause search reads over ``k``
    positions, since a table decides all its rows at once."""

    semantics: enum.Enum
    actions: tuple
    blocks: tuple[tuple[int, ...], ...]
    examined: int

    @property
    def size(self) -> int:
        return prod(map(len, self.blocks))

    @cached_property
    def sets(self) -> tuple[frozenset, ...]:
        return tuple(members(self.actions, _product(self.blocks)))


def enumerate_classes(
    db: frozenset[str],
    program: AicProgram,
    classes: Iterable[RepairClass],
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> dict[RepairClass, Report]:
    """Exhaustively enumerate the members of several repair classes.

    Candidates are the subsets of the essential actions (one polarity per
    universe atom), so consistency and change-effectiveness hold by
    construction. The program is compiled once over their bit positions
    and split into parts, one per range of positions that no rule crosses
    (:func:`_split`). Each test is local to one rule or one atom, and
    change-minimality is minimality in a product order, so every class is
    the product of its classes on the parts. One loop visits each part
    once and searches it on its own rules: the change-minimal weak repairs
    by its repair tree (:func:`_least`), and, only for a weak class, every
    weak repair by its clause search.
    Grounding is a cascade: the founded test runs once, on the part's weak
    repairs, else its change-minimal ones, whose every bit has a support
    clause. A justified set is founded, and normalizing keeps the support
    clauses, so the justified walks, plain and normalized, run on the part's
    rules and its founded sets only. When every class is grounded, the tree
    and the search flip only head actions. The normalized classes are the
    justified ones of the normalized program, whose weak repairs and
    change-minimal sets are those of the program. Results are in canonical
    order.
    """
    classes = tuple(dict.fromkeys(classes))
    limits = limits or Limits()
    uni = _universe_for(db, program, universe=universe)
    limits.check_universe(uni)
    essential = essential_actions(db, uni)
    heads = frozenset().union(*(r.head for r in program))

    rows = [_TABLE[c] for c in classes]
    if all(g for _, g, _ in rows):
        # Every member is inside the heads, and so are its subsets, the
        # weak repairs its minimality is tested against.
        essential = tuple(a for a in essential if a in heads)
    weakly = not all(m for _, _, m in rows)
    minimally = any(m for _, _, m in rows)
    grounding = any(g for _, g, _ in rows)
    walks = {n for n, g, _ in rows if g == "justified"}
    blocks: dict = {c: [] for c in classes}
    seen: set = set()
    examined = 0
    ranges, parts = _split(_compile(db, program, essential), len(essential))
    for part, (lo, hi) in zip(parts, ranges):
        weak = minimal = ()
        if weakly:
            weak, nodes = clause_search(part.clauses, lo, hi)
            examined += nodes
        if minimally:
            minimal = _least(part.clauses, (1 << hi) - (1 << lo), seen)
        # The founded ones of the part's weak repairs, else of its
        # change-minimal ones, whose every bit has a support clause; each
        # justified walk keeps a sub-list of them.
        if grounding:
            supported = sum(part.support)
            founded = [
                x for x in (weak if weakly else minimal)
                if not x & ~supported and part.founded(x)
            ]
            justified = {
                n: [*filter((part.normalized() if n else part).justified, founded)]
                for n in walks
            }
        for c, (normalized, grounded, change_minimal) in zip(classes, rows):
            block = minimal if change_minimal else weak
            if grounded:
                kept = founded if grounded == "founded" else justified[normalized]
                block = [*filter(set(kept).__contains__, block)] if change_minimal else kept
            blocks[c].append(tuple(block))
    examined += len(seen)
    return {
        c: Report(c, essential, tuple(b) if all(b) else ((),), examined)
        for c, b in blocks.items()
    }


def enumerate_repairs(
    db: frozenset[str],
    program: AicProgram,
    repair_class: RepairClass,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> Report:
    """Exhaustively enumerate all members of one repair class."""
    return enumerate_classes(db, program, (repair_class,), universe, limits)[
        repair_class
    ]
