"""Disjunctive logic programs, answer sets, and the encoding of programs as
constraint instances over the empty database.

A rule is *simple* when no atom occurs in it twice (across head, positive
body, and negative body). Simplicity is what makes the constraint encoding
well-behaved: the encoded rule's body is consistent and its non-updatable
part is exactly the original body.

Answer sets are an image of the repair semantics: the answer sets of a
simple program are the justified weak repairs of its encoding
(:func:`aic_of_program`) over the empty database, read as the atoms they
insert. Any program is first made simple without changing its answer sets
(:func:`_simplified`), so :func:`enumerate_answer_sets` and
:func:`is_answer_set` are each one call into :mod:`repairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter

from . import repairs
from .errors import NotSimpleRule
from .model import (
    AicProgram,
    AicRule,
    Limits,
    Literal,
    Universe,
    UpdateAction,
)
from .repairs import RepairClass


@dataclass(frozen=True)
class LpRule:
    """A disjunctive rule ``a1 | ... | ak :- b1, ..., bm, not c1, ..., not cn``.

    All three parts are atom sets; an empty head is a constraint. The rule
    with every part empty is the unsatisfiable constraint.
    """

    head: frozenset[str]
    pos_body: frozenset[str]
    neg_body: frozenset[str] = frozenset()

    def __init__(self, head, pos_body, neg_body=frozenset()):
        # Each field is written once, as in AicRule.
        fields = self.__dict__
        fields["head"] = frozenset(head)
        fields["pos_body"] = frozenset(pos_body)
        fields["neg_body"] = frozenset(neg_body)

    @property
    def simple(self) -> bool:
        return (
            not self.head & self.pos_body
            and not self.head & self.neg_body
            and not self.pos_body & self.neg_body
        )

    @property
    def normal(self) -> bool:
        return len(self.head) <= 1

    def atoms(self) -> frozenset[str]:
        return self.head | self.pos_body | self.neg_body

    def __str__(self) -> str:
        head = " | ".join(sorted(self.head)) or "false"
        body = ", ".join(
            sorted(self.pos_body) + [f"not {a}" for a in sorted(self.neg_body)]
        )
        return f"{head} :- {body}." if body else f"{head}."


LogicProgram = tuple[LpRule, ...]

# The three atom sets of a rule, read in C.
_PARTS = attrgetter("head", "pos_body", "neg_body")


def is_simple(program: LogicProgram) -> bool:
    return all(r.simple for r in program)


def _simplified(program: LogicProgram) -> LogicProgram:
    """A simple program with the same answer sets. A rule whose positive
    body meets its negative body or its head holds in every set, and goes.
    An atom in both the head and the negative body leaves the head: in a
    candidate ``M`` that holds it the rule's reduct is deleted, and
    otherwise it is false in ``M`` and in every subset, so it never
    satisfies the head."""
    return tuple(
        LpRule(r.head - r.neg_body, r.pos_body, r.neg_body)
        for r in program
        if not r.pos_body & (r.neg_body | r.head)
    )


def is_answer_set(program: LogicProgram, interp: frozenset[str]) -> bool:
    """True when inserting the atoms of ``interp`` is a justified weak repair
    of the simplified program's encoding over the empty database. Atoms
    are validated as in :func:`repairs.check_membership`."""
    return repairs.check_membership(
        frozenset(),
        aic_of_program(_simplified(program)),
        RepairClass.JUSTIFIED_WEAK_REPAIR,
        (UpdateAction(a, True) for a in interp),
    )


def enumerate_answer_sets(
    program: LogicProgram,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> repairs.Report:
    """The answer sets as a report over atom names: the justified weak
    repairs of the simplified program's encoding over the empty database,
    each insertion read as its atom. Every action is an insertion, so
    canonical order is atom order. The universe and its atom bound are
    those of the program as given."""
    uni = Universe.collect(program) if universe is None else universe
    atoms = chain.from_iterable(chain.from_iterable(map(_PARTS, program)))
    if not uni.covers(atoms):
        for r in program:
            uni.require(r.atoms(), "rule")
    report = repairs.enumerate_repairs(
        frozenset(),
        aic_of_program(_simplified(program)),
        RepairClass.JUSTIFIED_WEAK_REPAIR,
        uni,
        limits,
    )
    return replace(report, actions=tuple(a.atom for a in report.actions))


def answer_sets(
    program: LogicProgram,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> tuple[frozenset[str], ...]:
    """All answer sets, sorted (:func:`enumerate_answer_sets`)."""
    return enumerate_answer_sets(program, universe, limits).sets


def aic_of_rule(rule: LpRule) -> AicRule:
    """Encode ``a1 | ... | ak :- body`` as the constraint
    ``not a1, ..., not ak, body -> +a1 | ... | +ak``. Requires a simple rule."""
    if not rule.simple:
        raise NotSimpleRule(str(rule))
    body = (
        frozenset(Literal(a, False) for a in rule.head)
        | frozenset(Literal(a) for a in rule.pos_body)
        | frozenset(Literal(a, False) for a in rule.neg_body)
    )
    return AicRule(body, frozenset(UpdateAction(a, True) for a in rule.head))


def aic_of_program(program: LogicProgram) -> AicProgram:
    return tuple(aic_of_rule(r) for r in program)
