"""Word lists for the command line, and the check that ``cli._read_plain``
agrees with argparse on them.

The words come from an alphabet built from the parser: every flag of every
subcommand spelled in full, abbreviated and with ``=``, values that argparse
reads in different ways (signs, spaces, underscores, a leading ``-``, an
empty word, ``--``, valid and invalid choices), ``-``, ``--help``, unknown
flags and file names. :func:`check` holds when the reader returns nothing
or exactly argparse's namespace, and returns one exactly when the words are
in the plain forms and argparse reads all of them without an error.

``tests/test_cli.py`` draws the lists with hypothesis. Run as a script, with
``src`` on ``PYTHONPATH``, this module draws them with :mod:`random`, so it
needs neither pytest nor hypothesis::

    PYTHONPATH=src python tests/argv_forms.py [LISTS] [SEED]
"""

import contextlib
import io
import itertools
import random
import sys

from aicrepair import cli

VALUES = (
    "12", "-1", "+3", " 7", "1_0", "", "-a", "--", "a,not b", "-a, -b",
    "nonsense", "repair", "weak-revision", "supported-revision", "json", "text",
    "aic", "rev",
)
# Words that stand alone: files, help, unknown flags and a lone dash.
WORDS = ("f.aic", "g.rev", "-", "--help", "-h", "--unknown", "-x", "--unknown=1")
FIRST = (*cli._COMMANDS, "repiar", "--help", "-", "--")


def _flags() -> dict:
    """Per subcommand, its declared flags as argparse holds them: the
    action by option string, help left out."""
    commands = cli.build_parser().commands
    return {
        name: {
            flag: action
            for flag, action in sub._option_string_actions.items()
            if flag not in ("-h", "--help")
        }
        for name, sub in commands.items()
    }


FLAGS = _flags()
ACTIONS = {flag: action for flags in FLAGS.values() for flag, action in flags.items()}
# Each flag of every subcommand, in full and abbreviated.
SPELLINGS = {
    flag: sorted({flag[:n] for n in (3, 4, len(flag) - 1) if 2 < n < len(flag)})
    for flag in sorted(ACTIONS)
}


def piece(rng: random.Random, flag: str, action, good: bool) -> list[str]:
    """``flag``, spelled in full or (a third of the time) abbreviated, as
    one word, with the next word as its value or as ``flag=value``. A good
    piece is in the form ``action`` takes, and its value is among the
    choices, if any."""
    value = rng.choice(action.choices if good and action.choices else VALUES)
    if rng.random() < 1 / 3:
        flag = rng.choice(SPELLINGS[flag])
    form = rng.randrange(3) if not good else 0 if action.nargs == 0 else rng.randint(1, 2)
    return [[flag], [flag, value], [f"{flag}={value}"]][form]


def draw(rng: random.Random) -> list[str]:
    """A subcommand's name or another first word, then pieces in a random
    order: most of the time a file and a good piece for each required flag
    of the subcommand, and up to three other pieces, each a word of
    ``WORDS`` or a flag, half the time the subcommand's own."""
    command = rng.choice(FIRST)
    own = FLAGS.get(command, {})
    pieces = [[flag] for flag in ["f.aic"] if rng.random() < 0.8]
    for flag, action in own.items():
        if action.required and rng.random() < 0.8:
            pieces.append(piece(rng, flag, action, True))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        if rng.random() < 0.25:
            pieces.append([rng.choice(WORDS)])
            continue
        flag = rng.choice(sorted(own) if own and rng.random() < 0.5 else sorted(ACTIONS))
        action = own.get(flag, ACTIONS[flag])
        pieces.append(piece(rng, flag, action, rng.random() < 0.5))
    rng.shuffle(pieces)
    return [command, *itertools.chain.from_iterable(pieces)]


def argparse_reads(argv: list[str]) -> dict | None:
    """The namespace the subcommand's parser gives for ``argv``, with
    ``command`` added, or ``None`` when it exits or leaves words over."""
    sub = cli.build_parser().commands.get(argv[0]) if argv else None
    if sub is None:
        return None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            args, rest = sub.parse_known_args(argv[1:])
    except SystemExit:
        return None
    return None if rest else {**vars(args), "command": argv[0]}


def plain(argv: list[str]) -> bool:
    """Whether the words after the subcommand's name are in the plain
    forms, their values left unchecked: one word that does not start with
    ``-``, and declared flags spelled in full, a bare one without ``=``,
    any other as ``--flag=value`` (not ``--``, but possibly empty) or as
    ``--flag value`` (not starting with ``-``)."""
    flags = FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return False
    files, words = 0, iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            files += 1
            continue
        flag, eq, value = word.partition("=")
        action = flags.get(flag)
        if action is None:
            return False
        if action.nargs == 0:
            if eq:
                return False
        elif eq:
            if value == "--":
                return False
        else:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return False
    return files == 1


def check(argv: list[str]) -> bool:
    """Assert that the reader reads ``argv`` as it must; return whether it
    accepted it."""
    got = cli._read_plain(argv)
    want = argparse_reads(argv)
    if got is None:
        assert want is None or not plain(argv), argv
        return False
    assert plain(argv), argv
    assert vars(got) == want, argv
    return True


def agree(lists: int, seed: int) -> int:
    """:func:`check` on ``lists`` drawn lists from ``seed``; returns how
    many the reader accepted."""
    rng = random.Random(seed)
    return sum(check(draw(rng)) for _ in range(lists))


def main(lists: int = 20_000, seed: int = 0) -> None:
    accepted = agree(lists, seed)
    print(
        f"Python {sys.version.split()[0]}: {lists} lists, {accepted} accepted, "
        "all as argparse reads them"
    )


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
