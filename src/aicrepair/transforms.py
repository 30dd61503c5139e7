"""Program transformations: normalization, properization, the two-way
translation between constraint programs and revision programs, and shifting.

Normalization splits disjunctive heads into single-head rules. On the
constraint side a split rule keeps its body verbatim (the duals of all head
actions are already in the body); on the revision side each split rule adds
the duals of the removed head literals to its body. Rules whose head already
has at most one element pass through unchanged, so plain constraints are
never dropped.

Shifting ``T_W`` dualizes every literal, action, and revision literal whose
atom lies in ``W``; databases shift by symmetric difference. The two are
separate functions because a bare ``frozenset`` does not say which of the
two it wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotProperProgram
from .model import (
    AicProgram,
    AicRule,
    Literal,
    RevLiteral,
    RevProgram,
    RevRule,
    Universe,
    UpdateAction,
    ordered,
    rev_literal,
)


def normalize_aic(program: AicProgram) -> AicProgram:
    """Split each disjunctive head ``body -> a1 | ... | ak`` into the rules
    ``body -> ai``."""
    out: list[AicRule] = []
    for r in program:
        if r.normal:
            out.append(r)
        else:
            out.extend(AicRule(r.body, frozenset({a})) for a in ordered(r.head))
    return tuple(out)


def normalize_rev(program: RevProgram) -> RevProgram:
    """Split each disjunctive head; every split rule gets the duals of the
    other head literals added to its body."""
    out: list[RevRule] = []
    for r in program:
        if r.normal:
            out.append(r)
        else:
            for a in ordered(r.head):
                extra = frozenset(b.dual() for b in r.head if b != a)
                out.append(RevRule(frozenset({a}), r.body | extra))
    return tuple(out)


def properize(program: RevProgram) -> RevProgram:
    """Drop every head literal whose dual occurs in the rule's body.

    Such literals can never be satisfied together with the body, so removing
    them preserves all revision semantics. A rule losing its whole head
    becomes a constraint.
    """
    out: list[RevRule] = []
    for r in program:
        head = frozenset(a for a in r.head if a.dual() not in r.body)
        out.append(r if head == r.head else RevRule(head, r.body))
    return tuple(out)


def to_aic_rule(rule: RevRule) -> AicRule:
    """The active integrity constraint matching a proper revision rule:
    body literals carry over, head literals contribute their duals to the
    body and their update actions to the head."""
    if not rule.proper:
        raise NotProperProgram(str(rule))
    new = tuple.__new__
    body = {new(Literal, b) for b in rule.body}
    body.update(new(Literal, (atom, not flag)) for atom, flag in rule.head)
    return AicRule(body, {new(UpdateAction, a) for a in rule.head})


def to_aic(program: RevProgram) -> AicProgram:
    return tuple(to_aic_rule(r) for r in program)


def to_rev_rule(rule: AicRule) -> RevRule:
    """The proper revision rule matching a constraint: head actions become
    head revision literals, the non-updatable body becomes the body."""
    return RevRule(
        frozenset(rev_literal(a) for a in rule.head),
        frozenset(rev_literal(l) for l in rule.nup),
    )


def to_rev(program: AicProgram) -> RevProgram:
    return tuple(to_rev_rule(r) for r in program)


# ---------------------------------------------------------------------------
# Shifting


def shift(x, by: Iterable[str]):
    """Apply ``T_W``: dualize everything whose atom is in ``by``.

    Works on literals, update actions, revision literals, rules of either
    kind, and (frozen)sets or tuples of those. Databases are plain atom
    sets; shift them with :func:`shift_db` instead.
    """
    w = frozenset(by)
    return _shift(x, w)


def _shift(x, w: frozenset[str]):
    # The values are tuples too, so they are tested before tuples.
    if isinstance(x, (Literal, UpdateAction, RevLiteral)):
        return x.dual() if x.atom in w else x
    if isinstance(x, AicRule):
        return AicRule(_shift(x.body, w), _shift(x.head, w))
    if isinstance(x, RevRule):
        return RevRule(_shift(x.head, w), _shift(x.body, w))
    if isinstance(x, (set, frozenset)):
        return frozenset(_shift(e, w) for e in x)
    if isinstance(x, (tuple, list)):
        return tuple(_shift(e, w) for e in x)
    raise TypeError(f"shift() not defined for {type(x).__name__}")


def shift_db(db: frozenset[str], by: Iterable[str]) -> frozenset[str]:
    """Shift a database: symmetric difference with the shift set."""
    return frozenset(db) ^ frozenset(by)


@dataclass(frozen=True)
class ShiftWitness:
    """A shifted instance together with the shift set that produced it.

    ``transport`` carries candidate solutions between the two sides; applied
    twice it is the identity, which is what verification checks exploit.
    """

    by: frozenset[str]
    shifted_db: frozenset[str]
    shifted_program: AicProgram | RevProgram

    def transport(self, sets: Iterable[frozenset]) -> tuple[frozenset, ...]:
        return tuple(shift(s, self.by) for s in sets)


def shift_instance(
    db: frozenset[str],
    program: AicProgram | RevProgram,
    by: Iterable[str],
    universe: Universe | None = None,
) -> ShiftWitness:
    """Shift a whole instance, validating the shift set against its universe."""
    w = frozenset(by)
    uni = Universe.collect(db, w, program) if universe is None else universe
    uni.require(db, "database")
    uni.require(w, "shift set")
    return ShiftWitness(w, shift_db(db, w), shift(program, w))
