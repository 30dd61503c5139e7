"""Disjunctive logic programs: reducts, answer sets, and the constraint
encoding. The reduct lives in the oracles; the package computes answer sets
through the repair engine."""

import dataclasses

import pytest

import oracles
from aicrepair.errors import InputError, NotSimpleRule, UniverseTooLarge, UnknownAtom
from aicrepair.model import Limits, Literal, Universe, UpdateAction
from aicrepair.asp import (
    LpRule,
    aic_of_program,
    aic_of_rule,
    answer_sets,
    is_answer_set,
    is_simple,
)
from aicrepair.syntax import parse_program


def lp(text):
    return parse_program(text, "lp")


def test_rule_flags_and_printing():
    r = lp("a | b :- c, not d.")[0]
    assert r.simple
    assert not r.normal
    assert str(r) == "a | b :- c, not d."
    assert str(lp("a.")[0]) == "a."
    assert str(LpRule(frozenset(), frozenset({"a"}))) == "false :- a."
    assert not LpRule(frozenset({"a"}), frozenset({"a"})).simple


def test_rule_fields_are_frozensets_however_it_is_built():
    rule = LpRule(["a"], pos_body=("b", "b"))
    assert rule == LpRule(frozenset({"a"}), frozenset({"b"}), frozenset())
    assert hash(rule) == hash(LpRule({"a"}, {"b"}))
    assert [type(f) for f in (rule.head, rule.pos_body, rule.neg_body)] == [frozenset] * 3
    assert dataclasses.replace(rule, neg_body=["c"]) == lp("a :- b, not c.")[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.head = frozenset()


def test_reduct_keeps_or_strips_by_the_interpretation():
    program = lp("a :- not b.")
    assert oracles.reduct(program, frozenset()) == [(frozenset({"a"}), frozenset())]
    assert oracles.reduct(program, frozenset({"b"})) == []
    positive = lp("a :- b.")
    assert oracles.reduct(positive, frozenset({"a", "b"})) == [
        (r.head, r.pos_body) for r in positive
    ]


def test_reduct_of_a_constraint_can_be_the_empty_rule():
    program = lp("false :- not c.")
    (falsum,) = oracles.reduct(program, frozenset())
    assert falsum == (frozenset(), frozenset())
    assert not oracles.models_positive(frozenset(), (falsum,))
    assert answer_sets(program, Universe(("c",))) == ()


def test_minimal_model_check():
    program = lp("a :- b.\nb.")
    assert is_answer_set(program, frozenset({"a", "b"}))
    assert not is_answer_set(program, frozenset({"b"}))
    assert not is_answer_set(program, frozenset())


def test_a_malformed_atom_is_an_input_error():
    with pytest.raises(InputError, match="invalid atom name 'A'"):
        is_answer_set(lp("a."), frozenset({"A"}))


def test_unsupported_atoms_are_rejected():
    assert not is_answer_set(lp("a :- b."), frozenset({"a", "b"}))
    assert answer_sets(lp("a :- a.")) == (frozenset(),)
    assert answer_sets(lp("a :- not a.")) == ()


def test_disjunction_gives_alternative_answer_sets():
    assert answer_sets(lp("a | b.")) == (frozenset({"a"}), frozenset({"b"}))
    assert answer_sets(()) == (frozenset(),)


def test_negation_chooses_by_stability():
    program = lp("a :- not b.\nb :- not a.")
    assert answer_sets(program) == (frozenset({"a"}), frozenset({"b"}))


def test_answer_sets_over_a_declared_universe():
    program = lp("a.")
    assert answer_sets(program, Universe(("a", "b"))) == (frozenset({"a"}),)


def test_an_empty_declared_universe_is_not_replaced():
    for universe in (Universe(()), Universe(("b",))):
        with pytest.raises(UnknownAtom, match="unknown atom 'a' in rule"):
            answer_sets(lp("a."), universe)
    assert answer_sets((), Universe(())) == (frozenset(),)


def test_answer_sets_respect_the_atom_bound():
    program = lp("a :- b.")
    with pytest.raises(UniverseTooLarge):
        answer_sets(program, limits=Limits(max_atoms=1))


def test_encoding_of_a_disjunctive_rule():
    (r,) = aic_of_program(lp("a | b :- c, not d."))
    assert r.body == frozenset(
        {
            Literal("a", False),
            Literal("b", False),
            Literal("c"),
            Literal("d", False),
        }
    )
    assert r.head == frozenset({UpdateAction("a", True), UpdateAction("b", True)})
    assert r.nup == frozenset({Literal("c"), Literal("d", False)})


def test_encoding_of_a_fact():
    (r,) = aic_of_program(lp("a."))
    assert r.body == frozenset({Literal("a", False)})
    assert r.head == frozenset({UpdateAction("a", True)})


def test_encoding_requires_simple_rules():
    assert is_simple(lp("a :- b."))
    with pytest.raises(NotSimpleRule):
        aic_of_rule(LpRule(frozenset({"a"}), frozenset({"a"})))
