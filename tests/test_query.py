"""Consistent query answering across repair and revision classes."""

import random

import gen
import oracles
from aicrepair import query, repairs
from aicrepair.model import Limits, Literal, Universe
from aicrepair.query import CqaStatus, cqa
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass
from aicrepair.syntax import parse_literals, parse_program

DB = frozenset({"a", "b"})
PROGRAM = parse_program("a, b -> -a.", "aic")


def test_query_true_in_every_repair():
    verdict = cqa(DB, PROGRAM, RepairClass.REPAIR, parse_literals("not c"))
    assert verdict.status is CqaStatus.TRUE
    assert (verdict.holding, verdict.total) == (2, 2)


def test_query_false_in_every_repair():
    verdict = cqa(DB, PROGRAM, RepairClass.REPAIR, parse_literals("a, b"))
    assert verdict.status is CqaStatus.FALSE
    assert (verdict.holding, verdict.total) == (0, 2)


def test_query_holding_in_some_repairs_is_unknown():
    verdict = cqa(DB, PROGRAM, RepairClass.REPAIR, parse_literals("a"))
    assert verdict.status is CqaStatus.UNKNOWN
    assert (verdict.holding, verdict.total) == (1, 2)


def test_semantics_matters_for_the_verdict():
    db = frozenset({"a", "b"})
    program = parse_program("a, b -> -a.", "aic")
    founded = cqa(db, program, RepairClass.FOUNDED_REPAIR, parse_literals("b"))
    assert founded.status is CqaStatus.TRUE
    assert founded.total == 1


def test_no_repairs_gets_its_own_status():
    program = parse_program("not a -> +a.\na -> false.", "aic")
    verdict = cqa(frozenset(), program, RepairClass.WEAK_REPAIR, parse_literals("a"))
    assert verdict.status is CqaStatus.NO_REPAIRS
    assert (verdict.holding, verdict.total) == (0, 0)


def test_revision_classes_answer_queries_too():
    db = frozenset()
    program = parse_program("in(a) | in(b) <- .", "rev")
    verdict = cqa(db, program, RevisionClass.REVISION, parse_literals("a"))
    assert verdict.status is CqaStatus.UNKNOWN
    assert verdict.total == 2
    empty = cqa(
        db,
        parse_program("in(a) <- out(a).", "rev"),
        RevisionClass.SUPPORTED_REVISION,
        parse_literals("a"),
    )
    assert empty.status is CqaStatus.NO_REPAIRS


#: The oracle of each class the per-block gate below asks about.
PER_BLOCK_ORACLES = {
    RepairClass.WEAK_REPAIR: oracles.weak_repairs,
    RepairClass.REPAIR: oracles.repairs,
    RepairClass.FOUNDED_WEAK_REPAIR: oracles.founded_weak_repairs,
}


def _queries(rnd, atoms, db, program) -> list[frozenset]:
    """Two seeded queries, then one on a free atom, one spanning the
    first and last atoms (two blocks, when there are two) and one whose
    literal fails on an atom in no head: outside the positions of a
    founded class."""
    queries = [
        frozenset(
            Literal(a, rnd.random() < 0.5)
            for a in rnd.sample(atoms, rnd.randint(1, min(3, len(atoms))))
        )
        for _ in range(2)
    ]
    used = {l.atom for r in program for l in r.body}
    free = [a for a in atoms if a not in used]
    if free:
        queries.append(frozenset({Literal(rnd.choice(free), rnd.random() < 0.5)}))
    queries.append(frozenset({Literal(atoms[0], True), Literal(atoms[-1], False)}))
    heads = {a.atom for r in program for a in r.head}
    headless = [a for a in atoms if a not in heads]
    if headless:
        a = rnd.choice(headless)
        queries.append(frozenset({Literal(a, a not in db)}))
    return queries


def _verdict(db, q, sets) -> tuple:
    """The status, holding and total of the query ``q`` over ``sets``,
    counted on the repaired databases."""
    holding = sum(all(oracles.holds(oracles.apply(db, s), l) for l in q) for s in sets)
    if not sets:
        status = CqaStatus.NO_REPAIRS
    elif holding == len(sets):
        status = CqaStatus.TRUE
    else:
        status = CqaStatus.UNKNOWN if holding else CqaStatus.FALSE
    return status, holding, len(sets)


def test_cqa_counts_per_block(monkeypatch):
    # The verdict comes from the blocks of the report, never from its
    # members listed in full: it must equal the count over the members, and
    # the oracles' count up to 8 atoms.
    reports = []
    enumerate_repairs = query.enumerate_repairs

    def recording(*args):
        reports.append(enumerate_repairs(*args))
        return reports[-1]

    monkeypatch.setattr(query, "enumerate_repairs", recording)
    for name, atoms, db, program in gen.product_instances():
        rnd = random.Random(f"cqa-{name}")
        universe, limits = Universe(atoms), Limits(len(atoms))
        queries = _queries(rnd, atoms, db, program)
        for cls, oracle in PER_BLOCK_ORACLES.items():
            members = [repairs.enumerate_repairs(db, program, cls, universe, limits).sets]
            if len(atoms) <= 8:
                members.append(oracle(db, program, atoms))
            for q in queries:
                verdict = cqa(db, program, cls, q, universe, limits)
                assert "sets" not in reports.pop().__dict__, name
                for sets in members:
                    want = _verdict(db, q, sets)
                    got = (verdict.status, verdict.holding, verdict.total)
                    assert got == want, f"{name} {cls.value} {q}"


def test_cqa_reads_the_bits_each_block_owns():
    # The middle weak block spans the positions of b, c and d, but no weak
    # repair flips c: a block owns the bits its masks hold, and a literal
    # on c is decided by the database alone.
    program = parse_program("c -> -c.\nb, d -> -b.", "aic")
    db, universe, weak = frozenset(), Universe(tuple("abcde")), RepairClass.WEAK_REPAIR
    report = repairs.enumerate_repairs(db, program, weak, universe)
    assert report.blocks == ((0, 0b1), (0, 0b10, 0b1000), (0, 0b10000))
    for text, status in (
        ("c", CqaStatus.FALSE),
        ("not c", CqaStatus.TRUE),
        ("not c, b, e", CqaStatus.UNKNOWN),
    ):
        q = parse_literals(text)
        verdict = cqa(db, program, weak, q, universe)
        assert verdict.status is status, text
        assert (status, verdict.holding, verdict.total) == _verdict(db, q, report.sets)
