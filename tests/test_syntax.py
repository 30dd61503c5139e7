"""Parsing and canonical printing of the text format."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gen
import parse_corpus
from aicrepair.errors import InputError, ParseError, UnknownAtom, UpdatableConditionViolated
from aicrepair.model import Literal, RevLiteral, Universe, UpdateAction
from aicrepair.syntax import (
    Instance,
    format_db,
    format_set,
    parse_actions,
    parse_atoms,
    parse_instance,
    parse_literals,
    parse_program,
    parse_rev_literals,
    print_instance,
)
from aicrepair.transforms import to_aic, to_rev

GOLDEN = Path(__file__).parent / "golden"
INSTANCE_FILES = sorted(
    p for p in GOLDEN.iterdir() if p.suffix in (".aic", ".rev", ".lp")
)

DOC_EXAMPLE = """\
universe: a, b, c.
db: a, b.
aic:
a, b -> -a | -b.
"""


def test_doc_example_parses():
    instance = parse_instance(DOC_EXAMPLE)
    assert instance.kind == "aic"
    assert instance.db == frozenset({"a", "b"})
    assert instance.declared_universe.atoms == ("a", "b", "c")
    (rule,) = instance.program
    assert rule.body == frozenset({Literal("a"), Literal("b")})
    assert rule.head == frozenset(
        {UpdateAction("a", False), UpdateAction("b", False)}
    )


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.name)
def test_printing_is_a_canonical_form(path):
    once = print_instance(parse_instance(path.read_text()))
    assert print_instance(parse_instance(once)) == once


def test_printed_instance_is_equal_not_just_equivalent():
    instance = parse_instance(DOC_EXAMPLE)
    assert parse_instance(print_instance(instance)) == instance


def test_comments_and_whitespace_are_ignored():
    text = "db:%x\n  a  ,\tb.%\naic:  % trailing\na->-a.\n"
    instance = parse_instance(text)
    assert instance.db == frozenset({"a", "b"})
    assert len(instance.program) == 1


def test_empty_db_and_empty_sides():
    instance = parse_instance("db: .\naic:\n-> false.\nb -> false.")
    assert instance.db == frozenset()
    first, second = instance.program
    assert first.body == frozenset()
    assert first.head == frozenset()
    assert second.head == frozenset()


def test_rev_and_lp_rule_forms():
    rev = parse_instance("db: .\nrev:\nin(a) | out(b) <- in(c).\nfalse <- in(a).")
    assert rev.program[0].head == frozenset(
        {RevLiteral("a", True), RevLiteral("b", False)}
    )
    assert rev.program[1].head == frozenset()
    lp = parse_instance("db: .\nlp:\na | b :- c, not d.\ne.")
    assert lp.program[0].neg_body == frozenset({"d"})
    assert lp.program[1].head == frozenset({"e"})
    assert lp.program[1].pos_body == frozenset()


def test_head_action_without_dual_body_literal_is_rejected():
    with pytest.raises(UpdatableConditionViolated):
        parse_instance("db: .\naic:\na -> +b.")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_instance("db: a")
    assert (exc.value.line, exc.value.col) == (1, 6)
    assert "expected '.', found end of input" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_instance("db: a.\naic:\na, b -> .")
    assert (exc.value.line, exc.value.col) == (3, 9)
    assert "expected '+atom' or '-atom'" in str(exc.value)


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        # A comment does not advance the column: eof sits at its '%'.
        ("db: a % note", 1, 7, "expected '.', found end of input"),
        ("db: a.\n\taic:\n\ta -> @", 3, 7, "unexpected character '@'"),
        ("db: a.\r\naic:\r\na -> b.", 3, 6, "found 'b'"),
        ("db: a.\naic: a >", 2, 8, "unexpected character '>'"),
    ],
)
def test_error_positions_count_tabs_returns_and_comments(text, line, col, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_instance(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character '@'"):
        parse_instance("db: @.")


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError, match="'not' is a reserved word"):
        parse_instance("db: not.")
    with pytest.raises(ParseError, match="'false' is a reserved word"):
        parse_instance("db: false.")


@pytest.mark.parametrize("text, where", [
    ("aic:\na, not not -> false.", "3:8: 'not'"),
    ("aic:\nfalse -> false.", "3:1: 'false'"),
    ("aic:\nnot a -> +not.", "3:11: 'not'"),
    ("aic:\na -> -false.", "3:7: 'false'"),
    ("rev:\nin(not) <- .", "3:4: 'not'"),
    ("rev:\nin(a) <- out(false).", "3:14: 'false'"),
    ("lp:\nnot :- a.", "3:1: 'not'"),
    ("lp:\na | false.", "3:5: 'false'"),
    ("lp:\na :- b, not not.", "3:13: 'not'"),
    ("lp:\na :- false.", "3:6: 'false'"),
    ("universe: a, not.\naic:", "2:14: 'not'"),
])
def test_reserved_words_fail_at_every_atom_position(text, where):
    """Each rule reader checks a name once per parse and looks it up after
    that; a reserved word is never let in, wherever it stands."""
    with pytest.raises(ParseError) as info:
        parse_instance("db: .\n" + text)
    assert str(info.value) == f"{where} is a reserved word, not an atom"


def test_a_repeated_atom_in_a_long_list_is_named_at_its_token():
    atoms = [f"a{i}" for i in range(5000)]
    text = "universe: " + ", ".join(atoms + ["a4321"]) + ".\ndb: .\naic:\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    column = text.rindex("a4321") + 1
    assert str(info.value) == f"1:{column}: duplicate atom 'a4321'"


def test_section_errors():
    with pytest.raises(ParseError, match="duplicate atom 'a'"):
        parse_instance("db: a, a.\naic:\na -> -a.")
    with pytest.raises(ParseError, match="duplicate db section"):
        parse_instance("db: a.\ndb: a.\naic:\na -> -a.")
    with pytest.raises(ParseError, match="duplicate universe section"):
        parse_instance("universe: a.\nuniverse: a.\ndb: a.\naic:\na -> -a.")
    with pytest.raises(ParseError, match="'rev:' clashes with an earlier 'aic:'"):
        parse_instance("db: a.\naic:\na -> -a.\nrev:\nin(a) <- .")
    with pytest.raises(ParseError, match="unknown section 'data:'"):
        parse_instance("data: a.")
    with pytest.raises(ParseError, match="missing program section"):
        parse_instance("db: a.")
    with pytest.raises(ParseError, match="missing db section"):
        parse_instance("aic:\na -> -a.")
    with pytest.raises(ParseError, match="expected a section header"):
        parse_instance(".")


def test_declared_universe_is_enforced():
    with pytest.raises(UnknownAtom) as exc:
        parse_instance("universe: a.\ndb: a.\naic:\nb -> -b.")
    assert exc.value.atom == "b"
    with pytest.raises(UnknownAtom, match="in db section"):
        parse_instance("universe: a.\ndb: b.\naic:\na -> -a.")


def test_empty_lp_rule_is_rejected():
    with pytest.raises(ParseError, match="a rule needs a head or a body"):
        parse_program("false :- .", "lp")


def test_empty_rev_rule_is_the_always_violated_constraint():
    # ``false <- .`` is the revision form of ``-> false.``: the translation
    # maps each to the other. ``lp:`` has no translation and still refuses
    # a rule with neither head nor body.
    (rule,) = parse_program("false <- .", "rev")
    assert str(rule) == "false <- ."
    (aic,) = to_aic((rule,))
    assert str(aic) == "-> false."
    assert to_rev((aic,)) == (rule,)
    with pytest.raises(ParseError, match="a rule needs a head or a body"):
        parse_program("false :- .", "lp")


def test_parse_program_rejects_trailing_tokens():
    with pytest.raises(ParseError, match="unexpected 'db' after the last rule"):
        parse_program("a -> -a. db: x.", "aic")


def test_small_list_parsers():
    assert parse_actions("+a, -b") == frozenset(
        {UpdateAction("a", True), UpdateAction("b", False)}
    )
    assert parse_rev_literals("in(a), out(b)") == frozenset(
        {RevLiteral("a", True), RevLiteral("b", False)}
    )
    assert parse_literals("a, not b") == frozenset(
        {Literal("a"), Literal("b", False)}
    )
    assert parse_atoms("a, b") == frozenset({"a", "b"})
    assert parse_atoms("") == frozenset()
    with pytest.raises(ParseError, match="unexpected '-'"):
        parse_actions("+a -b")


def test_format_helpers():
    assert format_set({UpdateAction("b", False), UpdateAction("a", True)}) == "{+a, -b}"
    assert format_set(()) == "{}"
    assert format_db(frozenset({"b", "a"})) == "{a, b}"


# The words and symbols of the text format, so that generated text gets past
# the lexer and reaches the parser's error paths.
TOKENS = ("a", "b", "not", "false", "universe", "db", "aic", "rev", "lp", "in",
          "out", "->", "<-", ":-", "|", ",", ".", "(", ")", ":", "+", "-",
          "\n", "%", "B", "1")
texts_st = st.one_of(st.text(), st.lists(st.sampled_from(TOKENS)).map(" ".join))


def test_parse_outcomes_match_the_frozen_corpus():
    """Every parser's result or exact error, ``line:col`` included, on 3,000
    seeded texts; regenerate with ``python tests/parse_corpus.py``."""
    frozen = Path(parse_corpus.PATH).read_text(encoding="utf-8")
    entries = json.loads(frozen)
    assert len(entries) == 3000
    for entry in entries:
        assert parse_corpus.outcomes(entry["text"]) == entry
    assert parse_corpus.dump(entries) == frozen


@given(texts_st)
def test_any_text_parses_or_raises_an_input_error(text):
    try:
        parse_instance(text)
    except InputError:
        pass
    for kind in ("aic", "rev", "lp"):
        try:
            parse_program(text, kind)
        except InputError:
            pass


@given(st.integers(0, 2**32), st.sampled_from(("aic", "rev", "lp")), st.booleans())
def test_printing_round_trips_generated_instances(seed, kind, declared):
    rnd = random.Random(seed)
    atoms = gen.atom_pool(rnd)
    normal = rnd.random() < 0.5
    if kind == "aic":
        program = gen.aic_program(rnd, atoms, normal=normal)
    elif kind == "rev":
        program = gen.rev_program(rnd, atoms, normal=normal, proper=rnd.random() < 0.5)
    else:
        program = gen.lp_program(rnd, atoms, normal=normal)
    universe = Universe(atoms) if declared else None
    instance = Instance(kind, gen.database(rnd, atoms), program, universe)
    assert parse_instance(print_instance(instance)) == instance
