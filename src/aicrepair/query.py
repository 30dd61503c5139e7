"""Consistent query answering over repaired databases.

A query is a conjunction of propositional literals. Its status under a
repair or revision class is determined by where it holds among all repaired
databases: everywhere (true), nowhere (false), or some but not all
(unknown). An instance without any repairs in the chosen class gets its own
verdict instead of a vacuous "true".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

from .model import AicRule, Limits, Literal, Universe
from .repairs import RepairClass, _Compiled, _compile, enumerate_repairs
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
    The query is compiled over the positions of the report as the body of
    the constraint ``query -> false``, so it holds in the database
    repaired by the mask ``x`` exactly when ``x & m == f``. The members
    are never listed: they are the unions of one mask per block, one block
    per range of positions that no rule crosses. A block owns the bits its
    masks hold, and no member holds a bit that no block owns. So the query
    holds in a union exactly when it needs no unowned bit flipped and its
    bits on each block's own bits hold in that block's mask. ``holding``
    is the product, over the blocks, of the masks where the query's bits
    on the block hold, and ``total`` the product of the block sizes."""
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
    rules = _compile(db, (AicRule(query, frozenset()),), report.actions)
    clauses = _Compiled(rules).clauses
    m, f = clauses[0] if clauses else (0, 1)  # (0, 1): a query that never holds
    holding, owned = 1, 0
    for block in report.blocks:
        own = reduce(or_, block)
        fails = f & own
        holding *= sum(1 for x in block if x & m == fails)
        owned |= own
    if f & ~owned:
        holding = 0
    if holding == total:
        status = CqaStatus.TRUE
    elif holding == 0:
        status = CqaStatus.FALSE
    else:
        status = CqaStatus.UNKNOWN
    return CqaVerdict(status, holding, total)
