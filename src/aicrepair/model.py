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
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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


@dataclass(frozen=True, order=True)
class Literal:
    """A propositional literal: ``a`` or ``not a``."""

    atom: str
    positive: bool = True

    def dual(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else f"not {self.atom}"


@dataclass(frozen=True, order=True)
class UpdateAction:
    """An insertion ``+a`` (``insert=True``) or deletion ``-a`` of an atom."""

    atom: str
    insert: bool

    def dual(self) -> "UpdateAction":
        return UpdateAction(self.atom, not self.insert)

    def __str__(self) -> str:
        return ("+" if self.insert else "-") + self.atom


@dataclass(frozen=True, order=True)
class RevLiteral:
    """A revision literal: ``in(a)`` (``is_in=True``) or ``out(a)``."""

    atom: str
    is_in: bool

    def dual(self) -> "RevLiteral":
        return RevLiteral(self.atom, not self.is_in)

    def __str__(self) -> str:
        return f"in({self.atom})" if self.is_in else f"out({self.atom})"


def ua(x: Literal | RevLiteral) -> UpdateAction:
    """The update action matching a literal or revision literal.

    ``a``/``in(a)`` map to ``+a``; ``not a``/``out(a)`` map to ``-a``.
    """
    if isinstance(x, Literal):
        return UpdateAction(x.atom, x.positive)
    if isinstance(x, RevLiteral):
        return UpdateAction(x.atom, x.is_in)
    raise TypeError(f"ua() not defined for {type(x).__name__}")


def lit(x: UpdateAction | RevLiteral) -> Literal:
    """The literal matching an update action or a revision literal."""
    if isinstance(x, UpdateAction):
        return Literal(x.atom, x.insert)
    if isinstance(x, RevLiteral):
        return Literal(x.atom, x.is_in)
    raise TypeError(f"lit() not defined for {type(x).__name__}")


def rev_literal(x: UpdateAction | Literal) -> RevLiteral:
    """The revision literal matching an update action or a literal."""
    if isinstance(x, (UpdateAction, Literal)):
        return RevLiteral(x.atom, x.insert if isinstance(x, UpdateAction) else x.positive)
    raise TypeError(f"rev_literal() not defined for {type(x).__name__}")


# Canonical sort keys: atom name first, then positive/insert/in before its dual.
def _key(x) -> tuple:
    flag = x.positive if isinstance(x, Literal) else (
        x.insert if isinstance(x, UpdateAction) else x.is_in
    )
    return (x.atom, 0 if flag else 1)


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
        for name in names:
            _check_atom_name(name)
        object.__setattr__(self, "atoms", names)

    def __contains__(self, atom: str) -> bool:
        return atom in self._atom_set

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def _atom_set(self) -> frozenset[str]:
        return frozenset(self.atoms)

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

    def __post_init__(self):
        object.__setattr__(self, "body", frozenset(self.body))
        object.__setattr__(self, "head", frozenset(self.head))
        for action in ordered(self.head):
            if lit(action).dual() not in self.body:
                raise UpdatableConditionViolated(action, self._raw_text())

    def _raw_text(self) -> str:
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

    def __str__(self) -> str:
        return self._raw_text()


@dataclass(frozen=True)
class RevRule:
    """A revision rule ``a1 | ... | ak <- b1, ..., bm`` over revision literals.

    Either side may be empty, but not both; an empty head is a constraint.
    """

    head: frozenset[RevLiteral]
    body: frozenset[RevLiteral]

    def __post_init__(self):
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "body", frozenset(self.body))
        if not self.head and not self.body:
            raise InputError("a revision rule needs a head or a body")

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


def clause(
    db: frozenset[str], body: Iterable[Literal], bit: dict[str, int]
) -> tuple[int, int] | None:
    """Compile a conjunction of literals over bit positions (``bit`` maps
    an atom to its bit) into ``(m, f)``: ``m`` holds the bits of its atoms
    and ``f`` those whose literal fails in ``db``, so flipping the set ``x``
    makes it hold exactly when ``x & m == f``. An atom outside ``bit`` keeps
    its ``db`` value: a literal on it that holds is dropped. ``None`` when
    the conjunction never holds: it holds an atom and its dual, or a literal
    on an atom outside ``bit`` fails."""
    m = f = 0
    for l in body:
        fails = (l.atom in db) != l.positive
        b = bit.get(l.atom)
        if b is None:
            if fails:
                return None
        elif m & b:
            return None
        else:
            m |= b
            if fails:
                f |= b
    return m, f


def clause_search(clauses: Iterable[tuple[int, int]], n: int) -> tuple[list[int], int]:
    """The masks over ``n`` positions that make no clause hold (``x & m !=
    f`` for every ``(m, f)``), and the number of search nodes visited.

    The search assigns the positions in order, depth first, and tests each
    clause when its last position is assigned, cutting the branch there. A
    clause with no position always holds, so no mask qualifies. The masks
    come out in the order of their sorted positions: from a node the search
    first follows the branch that sets no further bit, then each child that
    sets one more, lowest first, with its whole subtree."""
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m, f in clauses:
        if not m:
            return [], 0
        by_last[m.bit_length() - 1].append((m, f))

    found: list[int] = []
    nodes = 1
    todo = [(0, 0)]
    while todo:
        start, x = todo.pop()
        i = start
        children = []
        while i < n:
            checks = by_last[i]
            y = x | 1 << i
            for m, f in checks:
                if y & m == f:
                    break
            else:
                children.append((i + 1, y))
            for m, f in checks:
                if x & m == f:
                    break
            else:
                i += 1
                continue
            break
        else:
            found.append(x)
        nodes += i - start + len(children)
        todo.extend(reversed(children))
    return found, nodes


def walk(start: int, branch, seen: set[int] | None = None) -> Iterator[int]:
    """Yield the leaves reached upward from the mask ``start``, visiting
    each mask once.

    ``branch(s)`` returns ``None`` at a leaf, or else the mask of the bits
    outside ``s`` to add one at a time (``0``: a dead end); ``seen``, when
    given, collects the masks visited. Completeness: if every non-leaf set
    inside a target ``T`` that holds ``start`` offers a move inside ``T``,
    the walk reaches a leaf inside ``T``: it expands every set it visits,
    and sets only grow inside the finite ``T``."""
    seen = set() if seen is None else seen
    seen.add(start)
    todo = [start]
    while todo:
        s = todo.pop()
        moves = branch(s)
        if moves is None:
            yield s
            continue
        while moves:
            b = moves & -moves
            moves ^= b
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
