"""Revision semantics for databases under revision programs.

Candidates are consistent sets of revision literals. The family mirrors the
repair side (weak/plain/founded/justified) and adds supported revisions,
which exist only for normal programs. Justified updates keep their inertia
literals; the corresponding weak revisions are the updates with the inertia
part stripped.

Every class is computed as the image of a repair class. Properization
preserves all revision semantics, and on a proper program each revision
class is the image under ``to_aic`` of the matching repair class, so the
program is properized and translated, candidates cross over by ``ua`` and
hits come back by ``rev_literal``. The normalized classes are the images
of the normalized repair classes: translation commutes with normalization,
and normalizing before or after properization gives the same revisions.
On normal programs the supported revisions are exactly the founded weak
revisions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import repairs, transforms
from .model import (
    AicProgram,
    Limits,
    RevLiteral,
    RevProgram,
    Universe,
    # Unused here: the benchmark's tracer (perfbench/tracing.py) counts the
    # calls made through this name, so it stays importable.
    entails,
    is_normal,
    members,
    rev_literal,
    ua,
)
from .repairs import RepairClass


class RevisionClass(enum.Enum):
    """The revision semantics the engine can enumerate and check."""

    WEAK_REVISION = "weak-revision"
    REVISION = "revision"
    FOUNDED_WEAK_REVISION = "founded-weak-revision"
    FOUNDED_REVISION = "founded-revision"
    JUSTIFIED_WEAK_REVISION = "justified-weak-revision"
    JUSTIFIED_REVISION = "justified-revision"
    JUSTIFIED_WEAK_REVISION_NORMALIZED = "justified-weak-revision-normalized"
    JUSTIFIED_REVISION_NORMALIZED = "justified-revision-normalized"
    SUPPORTED_REVISION = "supported-revision"


#: The repair class each revision class is the image of under ``to_aic``.
_REPAIR_CLASS = {
    RevisionClass.WEAK_REVISION: RepairClass.WEAK_REPAIR,
    RevisionClass.REVISION: RepairClass.REPAIR,
    RevisionClass.FOUNDED_WEAK_REVISION: RepairClass.FOUNDED_WEAK_REPAIR,
    RevisionClass.FOUNDED_REVISION: RepairClass.FOUNDED_REPAIR,
    RevisionClass.JUSTIFIED_WEAK_REVISION: RepairClass.JUSTIFIED_WEAK_REPAIR,
    RevisionClass.JUSTIFIED_REVISION: RepairClass.JUSTIFIED_REPAIR,
    RevisionClass.JUSTIFIED_WEAK_REVISION_NORMALIZED: (
        RepairClass.JUSTIFIED_WEAK_REPAIR_NORMALIZED
    ),
    RevisionClass.JUSTIFIED_REVISION_NORMALIZED: (
        RepairClass.JUSTIFIED_REPAIR_NORMALIZED
    ),
    RevisionClass.SUPPORTED_REVISION: RepairClass.FOUNDED_WEAK_REPAIR,
}


def _aic(program: RevProgram) -> AicProgram:
    return transforms.to_aic(transforms.properize(program))


def _translate(db, program: RevProgram, classes, actions=(), universe=None) -> AicProgram:
    """The program as the repair engine takes it. Supported revisions
    refuse a disjunctive program, but only after the inputs are checked
    against a declared universe, as every other class checks them."""
    program_aic = _aic(program)
    if RevisionClass.SUPPORTED_REVISION in classes and not is_normal(program):
        repairs._universe_for(db, program_aic, actions, universe)
        repairs._require_normal(program)
    return program_aic


def check_supported_revision(
    db: frozenset[str],
    program: RevProgram,
    literals,
    universe: Universe | None = None,
) -> bool:
    """A supported update with its no-effect literals stripped; on normal
    programs these are exactly the founded weak revisions."""
    return check_membership(
        db, program, RevisionClass.SUPPORTED_REVISION, literals, universe
    )


def is_founded_rev_set(db: frozenset[str], program: RevProgram, literals) -> bool:
    """Every literal is in the head of a rule whose body holds in the
    revised database, and so do the duals of the other head literals. An
    inconsistent set is not founded."""
    return repairs.is_founded_set(db, _aic(program), (ua(l) for l in literals))


def is_closed_rev(program: RevProgram, literals) -> bool:
    """Closedness: a rule whose whole body is in the set must have a head
    literal in the set."""
    u = frozenset(literals)
    for r in program:
        if r.body <= u and not (r.head & u):
            return False
    return True


def check_justified_weak_revision(
    db: frozenset[str],
    program: RevProgram,
    literals,
    universe: Universe | None = None,
) -> bool:
    return check_membership(
        db, program, RevisionClass.JUSTIFIED_WEAK_REVISION, literals, universe
    )


def check_membership(
    db: frozenset[str],
    program: RevProgram,
    revision_class: RevisionClass,
    literals,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> bool:
    """Membership test for any revision class, including normalized ones."""
    actions = frozenset(ua(l) for l in literals)
    program_aic = _translate(db, program, (revision_class,), actions, universe)
    return repairs.check_membership(
        db, program_aic, _REPAIR_CLASS[revision_class], actions, universe, limits
    )


# ---------------------------------------------------------------------------
# Enumeration


@dataclass(frozen=True)
class RevisionReport:
    """Outcome of enumerating one revision class over an instance: a
    :class:`repairs.RepairReport` of the translated program whose
    ``actions`` are the revision literals of the essential actions."""

    revision_class: RevisionClass
    actions: tuple[RevLiteral, ...]
    hits: tuple[int, ...]
    examined: int

    @cached_property
    def sets(self) -> tuple[frozenset[RevLiteral], ...]:
        return tuple(members(self.actions, self.hits))


def enumerate_classes(
    db: frozenset[str],
    program: RevProgram,
    classes: Iterable[RevisionClass],
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> dict[RevisionClass, RevisionReport]:
    """Exhaustively enumerate the members of several revision classes.

    The program is translated once and the repair engine enumerates the
    matching repair classes in one call, so supported revisions are the
    founded weak hits of the same search. The hits carry over unchanged:
    the canonical order of the repair sets maps to the canonical order of
    the revision literals, and the shared action tuple is mapped once.
    """
    classes = tuple(classes)
    program_aic = _translate(db, program, classes, universe=universe)
    reports = repairs.enumerate_classes(
        db, program_aic, (_REPAIR_CLASS[c] for c in classes), universe, limits
    )
    literals = None
    out = {}
    for c in classes:
        report = reports[_REPAIR_CLASS[c]]
        literals = literals or tuple(map(rev_literal, report.actions))
        out[c] = RevisionReport(c, literals, report.hits, report.examined)
    return out


def enumerate_revisions(
    db: frozenset[str],
    program: RevProgram,
    revision_class: RevisionClass,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> RevisionReport:
    """Exhaustively enumerate all members of one revision class."""
    return enumerate_classes(db, program, (revision_class,), universe, limits)[
        revision_class
    ]
