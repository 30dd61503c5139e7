"""Consistent query answering over repaired databases.

A query is a conjunction of propositional literals. Its status under a
repair or revision class is determined by where it holds among all repaired
databases: everywhere (true), nowhere (false), or some but not all
(unknown). An instance without any repairs in the chosen class gets its own
verdict instead of a vacuous "true". The counts are the class's report's
own (:class:`repairs.Report`); this module only words the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .model import Limits, Literal, Universe
from .repairs import RepairClass, enumerate_repairs
from .revisions import RevisionClass, enumerate_revisions


class CqaStatus(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"
    NO_REPAIRS = "no-repairs"


@dataclass(frozen=True)
class CqaVerdict:
    """How often the query held: in ``holding`` of ``total`` repaired
    databases."""

    status: CqaStatus
    holding: int
    total: int


def cqa(
    db: frozenset[str],
    program,
    semantics: RepairClass | RevisionClass,
    query: Iterable[Literal],
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> CqaVerdict:
    """Evaluate a conjunctive query against every repaired database of the
    chosen class. Query atoms must lie in ``universe`` when one is given.
    The members are never listed: ``total`` is the report's ``size`` and
    ``holding`` its count of the members where the query holds
    (:meth:`repairs.Report.holding`), both read per block."""
    query = frozenset(query)
    if universe is not None:
        universe.require((l.atom for l in query), "query")
    if isinstance(semantics, RepairClass):
        report = enumerate_repairs(db, program, semantics, universe, limits)
    else:
        report = enumerate_revisions(db, program, semantics, universe, limits)

    total = report.size
    if not total:
        return CqaVerdict(CqaStatus.NO_REPAIRS, 0, 0)
    holding = report.holding(db, query)
    if holding == total:
        status = CqaStatus.TRUE
    elif holding == 0:
        status = CqaStatus.FALSE
    else:
        status = CqaStatus.UNKNOWN
    return CqaVerdict(status, holding, total)
