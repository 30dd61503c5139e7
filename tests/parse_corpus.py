"""A frozen corpus of parse outcomes: seeded texts and what every parser
makes of them.

``python tests/parse_corpus.py`` writes ``tests/golden/parse_corpus.json``.
Each entry holds one text and, for ``parse_instance``, ``parse_program``
of each kind and the four list parsers, either the canonical print of the
result or the exception class and its exact message. ``test_syntax.py``
parses every text again and requires the same outcomes, so a change to the
lexer or parser cannot move an error position or reword a message unseen.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(__file__))

import gen
from aicrepair.errors import InputError
from aicrepair.model import Universe
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

PATH = os.path.join(os.path.dirname(__file__), "golden", "parse_corpus.json")

# test_syntax.TOKENS, plus every kind of whitespace and comment the lexer
# skips; a quarter of the soups also hold one character it rejects.
TOKENS = ("a", "b", "not", "false", "universe", "db", "aic", "rev", "lp", "in",
          "out", "->", "<-", ":-", "|", ",", ".", "(", ")", ":", "+", "-",
          "\n", "%", "\t", "\r\n", "% note")
BAD = ("B", "1", "@", ">", "é", "\x0b")
SEPARATORS = ("", " ", " ", "\n", "\t", "\r\n")
COMMENTS = ("", "", "% end", "% end\n", "%", " % end\r\n")

PARSERS = (
    ("instance", lambda t: print_instance(parse_instance(t))),
    *(
        (kind, lambda t, k=kind: "\n".join(str(r) for r in parse_program(t, k)))
        for kind in ("aic", "rev", "lp")
    ),
    ("actions", lambda t: format_set(parse_actions(t))),
    ("rev_literals", lambda t: format_set(parse_rev_literals(t))),
    ("literals", lambda t: format_set(parse_literals(t))),
    ("atoms", lambda t: format_db(parse_atoms(t))),
)


def outcomes(text: str) -> dict:
    """The text and, per parser, its canonical print or its error."""
    entry = {"text": text}
    for name, parse in PARSERS:
        try:
            entry[name] = parse(text)
        except InputError as exc:
            entry[name] = f"{type(exc).__name__}: {exc}"
    return entry


def soup(rnd: random.Random) -> str:
    words = rnd.choices(TOKENS, k=rnd.randint(0, 16))
    if rnd.random() < 0.25:
        words.insert(rnd.randint(0, len(words)), rnd.choice(BAD))
    text = "".join(w + rnd.choice(SEPARATORS) for w in words)
    return text + rnd.choice(COMMENTS)


def instance(rnd: random.Random) -> str:
    """A printed gen.py instance, sometimes reformatted, with its universe
    sometimes short of an atom, and sometimes cut off."""
    atoms = gen.atom_pool(rnd, rnd.randint(2, 5))
    kind = rnd.choice(("aic", "rev", "lp"))
    normal = rnd.random() < 0.5
    if kind == "aic":
        program = gen.aic_program(rnd, atoms, normal=normal)
    elif kind == "rev":
        program = gen.rev_program(rnd, atoms, normal=normal, proper=rnd.random() < 0.5)
    else:
        program = gen.lp_program(rnd, atoms, normal=normal)
    universe = None
    if rnd.random() < 0.5:
        declared = atoms if rnd.random() < 0.6 else atoms[: len(atoms) - 1]
        universe = Universe(declared)
    text = print_instance(Instance(kind, gen.database(rnd, atoms), program, universe))
    if rnd.random() < 0.3:
        text = text.replace("\n", rnd.choice(("\r\n", " % c\n", "\n\t")))
    if rnd.random() < 0.25:
        text = text[: rnd.randint(0, len(text))]
    return text


def corpus() -> list[dict]:
    rnd = random.Random(18)
    texts = [soup(rnd) for _ in range(1500)]
    texts += [instance(rnd) for _ in range(1500)]
    return [outcomes(t) for t in texts]


def dump(entries: list[dict]) -> str:
    """One entry per line."""
    lines = (json.dumps(e, ensure_ascii=True) for e in entries)
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write(dump(corpus()))
