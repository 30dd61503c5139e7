"""Disjunctive logic programs, answer sets, and the encoding of programs as
constraint instances over the empty database.

A rule is *simple* when no atom occurs in it twice (across head, positive
body, and negative body). Simplicity is what makes the constraint encoding
well-behaved: the encoded rule's body is consistent and its non-updatable
part is exactly the original body.

An answer set is a minimal model of its reduct, tested by :func:`model.walk`
from the empty set: a set that violates a reduct rule grows by one of its head
atoms in the interpretation, and the walk must reach no model but that one.
Every answer set is a classical model of the program, so only the models are
tested. They come from :func:`model.clause_search` over the empty database: a
rule is violated where the body of its encoding (:func:`aic_of_rule`), the
positive body, ``not`` the negative body and ``not`` the head, holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSimpleRule
from .model import (
    AicProgram,
    AicRule,
    Limits,
    Literal,
    Universe,
    UpdateAction,
    clause,
    clause_search,
    members,
    walk,
)


@dataclass(frozen=True)
class LpRule:
    """A disjunctive rule ``a1 | ... | ak :- b1, ..., bm, not c1, ..., not cn``.

    All three parts are atom sets; an empty head is a constraint. The rule
    with every part empty is the unsatisfiable constraint; the reduct
    produces it when it strips the negative body of a triggered constraint.
    """

    head: frozenset[str]
    pos_body: frozenset[str]
    neg_body: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "pos_body", frozenset(self.pos_body))
        object.__setattr__(self, "neg_body", frozenset(self.neg_body))

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


def is_simple(program: LogicProgram) -> bool:
    return all(r.simple for r in program)


def reduct(program: LogicProgram, interp: frozenset[str]) -> LogicProgram:
    """The Gelfond-Lifschitz reduct: drop rules blocked by the
    interpretation, strip negative bodies from the rest."""
    out = []
    for r in program:
        if r.neg_body & interp:
            continue
        out.append(r if not r.neg_body else LpRule(r.head, r.pos_body))
    return tuple(out)


def is_model_positive(interp: frozenset[str], program: LogicProgram) -> bool:
    """Model check for a negation-free program."""
    return all(
        not r.pos_body <= interp or r.head & interp for r in program
    )


def is_answer_set(program: LogicProgram, interp: frozenset[str]) -> bool:
    """True when the interpretation is a minimal model of its own reduct.

    The walk runs on masks over the atoms of ``interp``. Only the reduct
    rules whose positive body lies inside ``interp`` count: the others are
    satisfied by every set inside it, and a head atom outside ``interp`` is
    never added."""
    bit = {a: 1 << i for i, a in enumerate(interp)}
    fixed = [
        (sum(map(bit.__getitem__, r.pos_body)), sum(map(bit.get, r.head & interp)))
        for r in program
        if not r.neg_body & interp and r.pos_body <= interp
    ]

    def branch(s):
        for pos, head in fixed:
            if not pos & ~s and not head & s:
                return head
        return None

    full = (1 << len(bit)) - 1
    return all(head for _, head in fixed) and all(
        m == full for m in walk(0, branch)
    )


def answer_sets(
    program: LogicProgram,
    universe: Universe | None = None,
    limits: Limits | None = None,
) -> tuple[frozenset[str], ...]:
    """All answer sets, sorted: the classical models over the universe
    atoms that are answer sets."""
    limits = limits or Limits()
    uni = Universe.collect(program) if universe is None else universe
    for r in program:
        uni.require(r.atoms(), "rule")
    limits.check_universe(uni)
    bit = {a: 1 << i for i, a in enumerate(uni.atoms)}
    bodies = (
        frozenset(Literal(a) for a in r.pos_body)
        | frozenset(Literal(a, False) for a in r.neg_body | r.head)
        for r in program
    )
    compiled = (clause(frozenset(), b, bit) for b in bodies)
    models, _ = clause_search((c for c in compiled if c is not None), len(uni))
    return tuple(m for m in members(uni.atoms, models) if is_answer_set(program, m))


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
