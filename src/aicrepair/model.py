"""Core model: atoms, literals, update actions, revision literals, rules,
databases, and the update algebra over them.

Databases are plain ``frozenset[str]`` of atom names; universes make the
ambient atom set explicit and finite (no-effect and inertia sets are bounded
by it). Everything here is immutable and hashable.

Conventions used throughout the package:

* an update action ``+a`` inserts atom ``a``, ``-a`` deletes it;
* a revision literal ``in(a)`` requires presence, ``out(a)`` absence;
* the *dual* flips polarity (``a``/``not a``, ``+a``/``-a``, ``in``/``out``);
* ``ua`` maps literals and revision literals to update actions, ``lit`` maps
  actions and revision literals to literals, and ``rev_literal`` maps the
  other two kinds to revision literals; all are bijections on their domains.

Literals, update actions and revision literals are ``(atom, flag)`` named
tuples: they hash and sort as that pair, in C, with C field getters, and
are equal only to an item of the same class. Every rule parsed or built
hashes its items into two frozensets, so this is what a rule costs.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    InconsistentUpdateSet,
    InputError,
    UnknownAtom,
    UniverseTooLarge,
    UpdatableConditionViolated,
)

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Words the text format reserves; they can never name an atom.
RESERVED_WORDS = frozenset({"not", "false"})


def _check_atom_name(name: str) -> str:
    if not ATOM_RE.match(name) or name in RESERVED_WORDS:
        raise InputError(f"invalid atom name '{name}'")
    return name


class _Value(tuple):
    """What the three value types share: an ``(atom, flag)`` pair that
    hashes and orders as that tuple, in C, and equals only an item of its
    own class."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return self.__class__ is not other.__class__ or tuple.__ne__(self, other)

    def dual(self):
        return tuple.__new__(self.__class__, (self[0], not self[1]))


class Literal(namedtuple("Literal", ("atom", "positive"), defaults=(True,)), _Value):
    """A propositional literal: ``a`` or ``not a``."""

    __slots__ = ()

    def __str__(self) -> str:
        return self.atom if self.positive else f"not {self.atom}"


class UpdateAction(namedtuple("UpdateAction", ("atom", "insert")), _Value):
    """An insertion ``+a`` (``insert=True``) or deletion ``-a`` of an atom."""

    __slots__ = ()

    def __str__(self) -> str:
        return ("+" if self.insert else "-") + self.atom


class RevLiteral(namedtuple("RevLiteral", ("atom", "is_in")), _Value):
    """A revision literal: ``in(a)`` (``is_in=True``) or ``out(a)``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"in({self.atom})" if self.is_in else f"out({self.atom})"


def ua(x: Literal | RevLiteral) -> UpdateAction:
    """The update action matching a literal or revision literal.

    ``a``/``in(a)`` map to ``+a``; ``not a``/``out(a)`` map to ``-a``.
    """
    if isinstance(x, (Literal, RevLiteral)):
        return UpdateAction(*x)
    raise TypeError(f"ua() not defined for {type(x).__name__}")


def lit(x: UpdateAction | RevLiteral) -> Literal:
    """The literal matching an update action or a revision literal."""
    if isinstance(x, (UpdateAction, RevLiteral)):
        return Literal(*x)
    raise TypeError(f"lit() not defined for {type(x).__name__}")


def rev_literal(x: UpdateAction | Literal) -> RevLiteral:
    """The revision literal matching an update action or a literal."""
    if isinstance(x, (UpdateAction, Literal)):
        return RevLiteral(*x)
    raise TypeError(f"rev_literal() not defined for {type(x).__name__}")


# Canonical sort keys: atom name first, then positive/insert/in before its dual.
def _key(x) -> tuple:
    return (x[0], not x[1])


def ordered(xs: Iterable) -> list:
    """Sort literals/actions/revision literals into the canonical order."""
    return sorted(xs, key=_key)


@dataclass(frozen=True)
class Universe:
    """The ambient finite set of atoms, stored sorted by name.

    Bounding the atom vocabulary explicitly is what makes no-effect and
    inertia sets finite; everything that enumerates candidates works relative
    to a universe.
    """

    atoms: tuple[str, ...]

    def __post_init__(self):
        names = tuple(sorted(set(self.atoms)))
        # One pass in C; the first bad name is found only when there is one.
        if not all(map(ATOM_RE.match, names)) or not RESERVED_WORDS.isdisjoint(names):
            for name in names:
                _check_atom_name(name)
        object.__setattr__(self, "atoms", names)
        object.__setattr__(self, "_atom_set", frozenset(names))

    def __contains__(self, atom: str) -> bool:
        return atom in self._atom_set

    def __len__(self) -> int:
        return len(self.atoms)

    def covers(self, atoms: Iterable[str]) -> bool:
        """Every atom is in the universe: one pass, in C. Callers that get
        ``False`` call :meth:`require` to name the culprit."""
        return self._atom_set.issuperset(atoms)

    def require(self, atoms: Iterable[str], context: str = "") -> None:
        """Name the smallest unknown atom, whatever the set iteration order."""
        unknown = [a for a in atoms if a not in self._atom_set]
        if unknown:
            raise UnknownAtom(min(unknown), context)

    @classmethod
    def collect(cls, *parts) -> "Universe":
        """Build the universe from databases (atom sets) and programs.

        Each part is an iterable of atom names or of rules exposing
        ``atoms()``.
        """
        names: set[str] = set()
        for part in parts:
            for x in part:
                if isinstance(x, str):
                    names.add(x)
                else:
                    names.update(x.atoms())
        return cls(tuple(names))


@dataclass(frozen=True)
class AicRule:
    """An active integrity constraint ``L1, ..., Lm -> a1 | ... | ak``.

    The body is a set of literals, the head a set of update actions (empty
    head means the plain integrity constraint "body must not all hold").
    Construction enforces the updatability condition: each head action's dual
    literal must appear in the body.
    """

    body: frozenset[Literal]
    head: frozenset[UpdateAction]

    def __init__(self, body: Iterable[Literal], head: Iterable[UpdateAction]):
        # Each field is written once, straight into the instance: a frozen
        # dataclass's own __init__ sets it twice through object.__setattr__.
        fields = self.__dict__
        fields["body"] = body = frozenset(body)
        fields["head"] = head = frozenset(head)
        if head:
            # ``+a`` needs ``not a`` in the body and ``-a`` needs ``a``: an
            # action whose atom has the other flag in the body has its dual
            # there. An atom with both flags keeps one, so an action that
            # agrees with it is looked up in full.
            flags = {l.atom: l.positive for l in body}
            missing = [
                a for a in head
                if flags.get(a.atom, a.insert) == a.insert
                and Literal(a.atom, not a.insert) not in body
            ]
            if missing:
                raise UpdatableConditionViolated(min(missing, key=_key), str(self))

    def __str__(self) -> str:
        body = ", ".join(str(l) for l in ordered(self.body))
        head = " | ".join(str(a) for a in ordered(self.head)) or "false"
        return f"{body} -> {head}." if body else f"-> {head}."

    @property
    def up(self) -> frozenset[Literal]:
        """The updatable body part: duals of the head actions' literals."""
        return frozenset(lit(a).dual() for a in self.head)

    @property
    def nup(self) -> frozenset[Literal]:
        """The non-updatable body part."""
        return self.body - self.up

    @cached_property
    def trigger(self) -> frozenset[UpdateAction]:
        """``ua`` of the non-updatable body: the actions that make it true,
        computed on first use."""
        return frozenset(ua(l) for l in self.nup)

    @property
    def normal(self) -> bool:
        return len(self.head) <= 1

    def atoms(self) -> frozenset[str]:
        return frozenset(l.atom for l in self.body) | frozenset(
            a.atom for a in self.head
        )


@dataclass(frozen=True)
class RevRule:
    """A revision rule ``a1 | ... | ak <- b1, ..., bm`` over revision literals.

    Either side may be empty: an empty head is a constraint, and with an
    empty body too, ``false <- .``, a constraint that every set violates.
    """

    head: frozenset[RevLiteral]
    body: frozenset[RevLiteral]

    def __init__(self, head: Iterable[RevLiteral], body: Iterable[RevLiteral]):
        # Written once, as in AicRule.
        fields = self.__dict__
        fields["head"] = frozenset(head)
        fields["body"] = frozenset(body)

    @property
    def normal(self) -> bool:
        return len(self.head) <= 1

    @property
    def proper(self) -> bool:
        """True when no head literal's dual occurs in the body."""
        return all(l.dual() not in self.body for l in self.head)

    def atoms(self) -> frozenset[str]:
        return frozenset(l.atom for l in self.head | self.body)

    def __str__(self) -> str:
        head = " | ".join(str(l) for l in ordered(self.head)) or "false"
        body = ", ".join(str(l) for l in ordered(self.body))
        return f"{head} <- {body}." if body else f"{head} <- ."


AicProgram = tuple[AicRule, ...]
RevProgram = tuple[RevRule, ...]


def is_normal(program: Iterable) -> bool:
    return all(r.normal for r in program)


def is_proper(program: RevProgram) -> bool:
    return all(r.proper for r in program)


# ---------------------------------------------------------------------------
# Update algebra


def is_consistent(xs: Iterable) -> bool:
    """True when no atom occurs with both polarities in the set."""
    xs = set(xs)
    return len({x.atom for x in xs}) == len(xs)


def apply_update(db: frozenset[str], actions: Iterable[UpdateAction]) -> frozenset[str]:
    """Update a database by a consistent set of update actions. An
    inconsistent set names its smallest conflicting atom, whatever the set
    iteration order."""
    actions = set(actions)
    added = {a.atom for a in actions if a.insert}
    removed = {a.atom for a in actions if not a.insert}
    if added & removed:
        raise InconsistentUpdateSet(min(added & removed))
    return frozenset((db | added) - removed)


def apply_revision(db: frozenset[str], literals: Iterable[RevLiteral]) -> frozenset[str]:
    """Update a database by a consistent set of revision literals."""
    return apply_update(db, (ua(l) for l in literals))


def no_effect_set(
    db: frozenset[str], result: frozenset[str], universe: Universe
) -> frozenset[UpdateAction]:
    """All update actions that change nothing between ``db`` and ``result``:
    ``+a`` for atoms in both, ``-a`` for atoms in neither."""
    universe.require(db, "database")
    universe.require(result, "database")
    absent = (a for a in universe.atoms if a not in db and a not in result)
    return frozenset(UpdateAction(a, True) for a in db & result) | frozenset(
        UpdateAction(a, False) for a in absent
    )


def inertia_set(
    db: frozenset[str], result: frozenset[str], universe: Universe
) -> frozenset[RevLiteral]:
    """The revision-literal counterpart of :func:`no_effect_set`."""
    return frozenset(rev_literal(a) for a in no_effect_set(db, result, universe))


def holds(db: frozenset[str], literals: Iterable[Literal]) -> bool:
    """A conjunction of literals holds in a database."""
    return all((l.atom in db) == l.positive for l in literals)


def entails(db: frozenset[str], program: AicProgram) -> bool:
    """A database satisfies an AIC program unless some rule's whole body
    holds in it."""
    return not any(
        all((l.atom in db) == l.positive for l in r.body) for r in program
    )


def essential_actions(db: frozenset[str], universe: Universe) -> tuple[UpdateAction, ...]:
    """The one status-flipping action per universe atom: ``+a`` when absent,
    ``-a`` when present. Weak repairs are exactly the subsets of these that
    enforce the constraints."""
    return tuple(UpdateAction(a, a not in db) for a in universe.atoms)


#: The number of positions at the top of a range that one truth table
#: decides: ``2**10`` rows, one 1024-bit int per column. At least 1, so
#: that each level of :func:`clause_search` leaves fewer positions.
_TABLE_BITS = 10


@cache
def _table(k: int) -> tuple[list[int], list[int], list[int]]:
    """The truth table of ``k`` positions: its ``2**k`` rows, the masks
    over the positions in the order of their sorted positions, and per
    position the column whose bit ``j`` is set when row ``j`` holds the
    position, and its complement."""
    order = [0]
    for p in reversed(range(k)):
        # The masks over positions p up: the empty one, those that hold
        # p, then the others.
        order = [0, *[1 << p | s for s in order], *order[1:]]
    full = (1 << len(order)) - 1
    columns = [
        int("".join("1" if s >> p & 1 else "0" for s in reversed(order)), 2)
        for p in range(k)
    ]
    return order, columns, [full ^ c for c in columns]


@cache
def _rows(k: int, t: int) -> list[int]:
    """The rows of the truth table of ``k`` positions, shifted to start at
    position ``t``."""
    return [s << t for s in _table(k)[0]]


# Binary digits as bytes that select (1) or skip (0) with ``compress``.
_BITS = bytes.maketrans(b"01", b"\0\1")


def clause_search(
    clauses: Sequence[tuple[int, int]], lo: int, hi: int
) -> tuple[list[int], int]:
    """The masks over positions ``lo`` to ``hi - 1`` that make no clause
    hold (``x & m != f`` for every ``(m, f)``), in the order of their
    sorted positions, and the number of candidates examined: ``2**k`` for
    each truth table read over ``k`` positions, so ``2`` for a range of one
    position in no clause, and ``1`` for an empty range (a table of one
    row). The clauses are one part's (:func:`repairs._split`), each inside
    the range or with no position; a clause with no position always holds,
    so it leaves no mask, and the count is ``0``.

    The top ``k = min(_TABLE_BITS, hi - lo)`` positions, from ``t = hi -
    k`` up, are decided by a truth table (:func:`_table`): a clause with a
    bit at ``t`` or above holds at the rows where its bits from ``t`` up
    hold, the AND of their columns, once its bits below ``t`` agree with
    the prefix ``x``; the rows where none holds are the masks ``x | s <<
    t``. When ``t`` is ``lo`` the one prefix is ``0`` and the free rows
    are the masks. Otherwise the prefixes are the masks over ``lo`` to ``t
    - 1`` that make no clause ending below ``t`` hold, found the same way,
    each with its free rows joined by :func:`_join`, and every prefix
    costs one table read."""
    k = min(_TABLE_BITS, hi - lo)
    t = hi - k
    _, columns, complements = _table(k)
    shifted = _rows(k, t)
    full = (1 << (1 << k)) - 1
    below = (1 << t) - 1
    # The rows where each clause in the table holds: for all prefixes when
    # it has no bit below ``t``, else only those that agree with its bits
    # there. The clauses that end below ``t`` go to the prefixes' search.
    always, late, early = 0, [], []
    for m, f in clauses:
        if not m >> t:
            early.append((m, f))
            continue
        rows = full
        for p in positions(m >> t):
            rows &= columns[p] if f >> t + p & 1 else complements[p]
        if m & below:
            late.append((m & below, f & below, rows))
        else:
            always |= rows

    def read(x: int, free: int) -> list[int]:
        # The rows of ``free``, as masks over the prefix ``x``: its binary
        # digits, lowest first, select them.
        rows = compress(shifted, bin(free)[:1:-1].encode().translate(_BITS))
        return list(map(x.__or__, rows) if x else rows)

    if t == lo:
        return ([], 0) if early else (read(0, full ^ always), 1 << k)

    def high(x: int, _) -> tuple[bool, list[int]]:
        bad = always
        for low, fails, rows in late:
            if x & low == fails:
                bad |= rows
        return not bad & 1, read(x, full & ~(bad | 1))

    prefixes, nodes = clause_search(early, lo, t)
    return _join(prefixes, prefixes, high), nodes + (len(prefixes) << k)


def _join(low: Sequence[int], values: Iterable, high: Callable, out=None):
    """Each member ``a`` of ``low``, as its value ``v`` in ``values``,
    joined to its unions, in the order of their sorted positions, which
    ``low`` is in too. ``high(a, v)`` gives whether ``a`` itself qualifies
    and, in that order, its unions with the masks above the positions of
    ``low`` that qualify. Sorted positions compare as sequences, so ``a``
    itself comes first, then the members of ``low`` that extend ``a``
    above its top bit, which follow ``a`` in ``low``, each with its own
    unions, and only then the unions of ``a``: ``{0} ∪ {4}`` follows
    ``{0, 1}``. A stack holds the members of ``low`` whose extensions are
    still being listed, with their unions. The values and unions go to
    ``out``, a new list unless one is given: anything that takes one
    value by ``append`` and the unions by ``+=``."""
    out = [] if out is None else out
    pending: list[tuple[int, Any]] = []
    for a, v in zip(low, values):
        while pending and a & (1 << pending[-1][0].bit_length()) - 1 != pending[-1][0]:
            out += pending.pop()[1]
        own, unions = high(a, v)
        if own:
            out.append(v)
        pending.append((a, unions))
    for _, unions in reversed(pending):
        out += unions
    return out


def _product(blocks: Sequence[Sequence[int]], label: Callable | None = None) -> Sequence:
    """The unions of one mask of each block, in canonical order: the
    masks, or given ``label`` (the texts of a block's masks), their texts,
    the texts of a union's masks joined by ``", "``. The blocks hold
    disjoint positions, lowest first, each its masks in the order of their
    sorted positions; the product of no block is the empty set, and one
    empty block makes the product empty. The blocks are joined by
    :func:`_join`, last first: each mask of a block to the unions above
    it, the empty union being the mask itself."""
    if not blocks:
        return [""] if label else [0]
    last = blocks[-1]
    high = label(last) if label else last
    empty = bool(last) and not last[0]
    join = _concat if label else _union
    for block in reversed(blocks[:-1]):
        rest = high[1:] if empty else high
        values = label(block) if label else block
        high = _join(block, values, lambda a, v: (empty, join(v, rest)))
        empty = empty and bool(block) and not block[0]
    return high


def _union(a: int, rest) -> list[int]:
    return [a | b for b in rest]


def _concat(text: str, rest) -> list[str]:
    if not text:
        return rest
    text += ", "
    return [text + t for t in rest]


def walk(
    clauses: Sequence[tuple[int, int]], moves: int, seen: set[int] | None = None
) -> Iterator[int]:
    """Yield the leaves of the repair tree of ``clauses`` inside ``moves``,
    visiting each mask once, upward from the empty set.

    At a mask ``s`` the first clause ``(m, f)`` with ``s & m == f`` holds,
    and ``s`` branches on the bits of ``m & moves`` it leaves alone, one at
    a time (none: a dead end); a mask where no clause holds is a leaf.
    ``seen``, when given, collects the masks visited. Inside any mask
    ``t`` of ``moves`` where no clause holds lies a leaf: above any ``s``
    inside ``t``, ``t`` keeps the bits of ``s`` and breaks the clause that
    holds at ``s``, so it holds one of the branches. So every minimal such
    mask is a leaf."""
    seen = set() if seen is None else seen
    seen.add(0)
    todo = [0]
    while todo:
        s = todo.pop()
        for m, f in clauses:
            if s & m == f:
                branches = m & moves & ~s
                break
        else:
            yield s
            continue
        while branches:
            b = branches & -branches
            branches ^= b
            if s | b not in seen:
                seen.add(s | b)
                todo.append(s | b)


def positions(x: int) -> list[int]:
    """The set bits of the mask ``x``, lowest first. As a sort key it puts
    masks in canonical order when their positions follow it."""
    out = []
    while x:
        b = x & -x
        out.append(b.bit_length() - 1)
        x ^= b
    return out


#: ``positions(b)`` of every byte ``b``.
BYTE_POSITIONS = tuple(tuple(positions(b)) for b in range(256))


def members(items: tuple, masks: Iterable[int]) -> Iterator[frozenset]:
    """The set of ``items`` at the bits of each mask."""
    return (frozenset(map(items.__getitem__, positions(x))) for x in masks)


# ---------------------------------------------------------------------------
# Enumeration limits

DEFAULT_MAX_ATOMS = 12
ENV_MAX_ATOMS = "AICREPAIR_MAX_ATOMS"


@dataclass(frozen=True)
class Limits:
    """Bounds for exhaustive enumeration.

    ``max_atoms`` defaults to the AICREPAIR_MAX_ATOMS environment variable,
    falling back to 12; beyond it the engine refuses rather than sampling.
    A negative bound is malformed input.
    """

    max_atoms: int | None = None

    def effective_max_atoms(self) -> int:
        source, bound = "--max-atoms", self.max_atoms
        if bound is None:
            env = os.environ.get(ENV_MAX_ATOMS)
            if env is None:
                return DEFAULT_MAX_ATOMS
            try:
                source, bound = ENV_MAX_ATOMS, int(env)
            except ValueError:
                raise InputError(
                    f"{ENV_MAX_ATOMS} must be an integer, got '{env}'"
                ) from None
        if bound < 0:
            raise InputError(f"{source} must be at least 0, got {bound}")
        return bound

    def check_universe(self, atoms, what: str = "universe") -> None:
        bound = self.effective_max_atoms()
        if len(atoms) > bound:
            raise UniverseTooLarge(len(atoms), bound, what)
