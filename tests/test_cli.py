"""Command line behaviour: golden replays, exit codes, and output shapes.

Each ``tests/golden/*.cmd`` file holds one command line (paths relative to
the golden directory) and the matching ``.out`` file holds its exact
stdout. A command whose input is rejected has an ``.err`` file instead: its
exact stderr, after exit code 2 and an empty stdout; a refused command has
a ``.refused`` file, its exact stderr after exit code 1 and an empty
stdout. The ``usage_*`` goldens pin what argparse prints for help (exit 0)
and for argument errors (exit 2), which the CLI writes at 80 columns
whatever the terminal's width, and ``abbrev_options`` an abbreviated flag,
which only argparse reads.
"""

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aicrepair
import argv_forms
import engine_corpus
import gen
import oracles
from aicrepair import asp, cli, model, repairs, transforms
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass
from aicrepair.syntax import Instance, format_set, print_instance

GOLDEN = Path(__file__).parent / "golden"
REPLAYS = sorted(GOLDEN.glob("*.cmd"))
# The suffix of the file beside a golden command that holds what it must
# print, and the exit code that goes with it.
OUTCOMES = {".out": 0, ".err": 2, ".refused": 1}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(argv, capsys):
    """As :func:`run`, also for help and argument errors, which leave
    through argparse's SystemExit."""
    try:
        return run(argv, capsys)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def run_python(args, **env):
    """Run a new interpreter with ``args``, on this checkout's code."""
    src = str(Path(aicrepair.__file__).parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def run_fresh(argv, **env):
    """Run the command line in a new interpreter, on this checkout's code."""
    return run_python(["-m", "aicrepair.cli", *argv], **env)


@pytest.mark.parametrize("cmd_file", REPLAYS, ids=lambda p: p.stem)
def test_golden_replay(cmd_file, capsys, monkeypatch):
    replay(cmd_file, capsys, monkeypatch)


def replay(cmd_file, capsys, monkeypatch):
    """Run the golden command and compare with its outcome file; the
    refusals read the default atom bound."""
    monkeypatch.delenv("AICREPAIR_MAX_ATOMS", raising=False)
    monkeypatch.chdir(GOLDEN)
    argv = shlex.split(cmd_file.read_text().strip())
    code, out, err = run_or_exit(argv, capsys)
    (suffix,) = [x for x in OUTCOMES if cmd_file.with_suffix(x).exists()]
    want = cmd_file.with_suffix(suffix).read_text()
    assert code == OUTCOMES[suffix]
    if suffix == ".out":
        assert out == want
    else:
        assert (out, err) == ("", want)


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(
        ["repair", str(GOLDEN / "no_such.aic"), "--class", "repair"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin.aic"
    for head in (
        b"db: a.\naic:\na -> -a.\n",
        # Past the first 8 KB, where a buffered reader starts a new chunk.
        b"db: a.\naic:\n% " + b"x" * 10_000 + b"\na -> -a.\n",
    ):
        path.write_bytes(head + b"\xff")
        code, out, err = run(["repair", str(path), "--class", "repair"], capsys)
        assert (code, out) == (2, "")
        offset = len(head)
        assert err == (
            f"error: cannot read {path}: not UTF-8 text (byte 0xff at offset {offset})\n"
        )


INSTANCES = sorted(p for p in GOLDEN.glob("*.*") if p.suffix in (".aic", ".rev", ".lp"))


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_other_line_ends_read_as_newlines(end, tmp_path, capsys):
    """A file with ``\\r\\n`` or lone ``\\r`` line ends is the instance of
    its ``\\n`` file, and a parse error in it is reported at the same
    line and column (``bad/stray_char.aic`` is kept with ``\\r\\n``)."""

    def write(source: Path, line_end: str) -> str:
        path = tmp_path / line_end.encode().hex() / source.name
        path.parent.mkdir(exist_ok=True)
        text = source.read_bytes().replace(b"\r\n", b"\n")
        path.write_bytes(text.replace(b"\n", line_end.encode()))
        return str(path)

    for source in INSTANCES:
        assert cli._load(write(source, end)) == cli._load(write(source, "\n")), source
    for name in ("missing_dot", "stray_char"):
        want = (GOLDEN / f"bad_{name}.err").read_text()
        assert re.match(r"error: \d+:\d+: ", want)
        for line_end in ("\n", end):
            path = write(GOLDEN / "bad" / f"{name}.aic", line_end)
            assert run(["repair", path, "--class", "repair"], capsys) == (2, "", want)
    path = write(GOLDEN / "mutual_flip.aic", end)
    code, out, _ = run(["repair", path, "--class", "repair"], capsys)
    assert (code, out) == (0, (GOLDEN / "mutual_flip.repair.out").read_text())


def test_kind_mismatch_is_an_input_error(capsys):
    """Every subcommand refuses an aic: or rev: file of a kind it does not
    take, and ``check`` and ``cqa`` refuse a class of the other kind, each
    with exactly one line on stderr. The kind is reported before the
    class, and the class before a ``--set`` or ``--query`` that does not
    parse."""
    aic, rev = str(GOLDEN / "pair_delete.aic"), str(GOLDEN / "choice_pair.rev")
    for argv, message in (
        (
            ["repair", rev, "--class", "repair"],
            "'repair' needs a aic: program, found rev:",
        ),
        (
            ["revise", aic, "--class", "revision"],
            "'revise' needs a rev: program, found aic:",
        ),
        (["answer-sets", aic], "'answer-sets' needs a lp: program, found aic:"),
        (["answer-sets", rev], "'answer-sets' needs a lp: program, found rev:"),
        (["properize", aic], "'properize' needs a rev: program, found aic:"),
        (
            ["translate", aic, "--to", "aic"],
            "'translate --to aic' needs a rev: program, found aic:",
        ),
        (
            ["translate", rev, "--to", "rev"],
            "'translate --to rev' needs a aic: program, found rev:",
        ),
        (
            ["check", rev, "--class", "weak-repair", "--set=+a"],
            "class 'weak-repair' does not apply to a rev: program",
        ),
        (
            ["check", aic, "--class", "revision", "--set=in(a)"],
            "class 'revision' does not apply to a aic: program",
        ),
        (
            ["cqa", rev, "--class", "repair", "--query", "a"],
            "class 'repair' does not apply to a rev: program",
        ),
        (
            ["cqa", aic, "--class", "weak-revision", "--query", "not"],
            "class 'weak-revision' does not apply to a aic: program",
        ),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_class_must_match_the_instance_kind(capsys):
    code, _, err = run(
        [
            "check",
            str(GOLDEN / "choice_pair.rev"),
            "--class",
            "weak-repair",
            "--set=in(a)",
        ],
        capsys,
    )
    assert code == 2
    assert "class 'weak-repair' does not apply to a rev: program" in err


def test_lp_instances_are_rejected_where_they_make_no_sense(capsys):
    """The kind is reported before ``--set``, ``--query`` or ``--by``."""
    lp = str(GOLDEN / "split_choice.lp")
    either = "needs an aic: or rev: program, found lp:"
    for argv, message in (
        (["check", lp, "--class", "weak-repair", "--set=+a"], f"'check' {either}"),
        (["check", lp, "--class", "revision", "--set=+a,"], f"'check' {either}"),
        (
            ["translate", lp, "--to", "rev"],
            "'translate --to rev' needs a aic: program, found lp:",
        ),
        (
            ["translate", lp, "--to", "aic"],
            "'translate --to aic' needs a rev: program, found lp:",
        ),
        (["normalize", lp], f"'normalize' {either}"),
        (["properize", lp], "'properize' needs a rev: program, found lp:"),
        (["cqa", lp, "--class", "repair", "--query", "a"], f"'cqa' {either}"),
        (["cqa", lp, "--class", "revision", "--query", "not"], f"'cqa' {either}"),
        (["lattice", lp], f"'lattice' {either}"),
        (["lattice", lp, "--verify"], f"'lattice' {either}"),
        (["shift", lp, "--by", "a"], f"'shift' {either}"),
        (["shift", lp, "--by", "not"], f"'shift' {either}"),
        (
            ["repair", lp, "--class", "repair"],
            "'repair' needs a aic: program, found lp:",
        ),
        (
            ["revise", lp, "--class", "revision"],
            "'revise' needs a rev: program, found lp:",
        ),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_atom_bound_refusal(capsys):
    code, _, err = run(
        [
            "repair",
            str(GOLDEN / "pair_delete.aic"),
            "--class",
            "repair",
            "--max-atoms",
            "1",
        ],
        capsys,
    )
    assert code == 1
    assert err.startswith("refused:")
    assert "--max-atoms" in err


def test_atom_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", "1")
    code, _, err = run(
        ["repair", str(GOLDEN / "pair_delete.aic"), "--class", "repair"], capsys
    )
    assert code == 1
    assert err.startswith("refused:")


# Every subcommand that takes --max-atoms, with the exit code of a zero
# bound on a 2-atom instance: a weak check and a plain shift never consult
# the bound, yet a malformed one is an error there too.
BOUNDED = {
    "repair": (["repair", "pair_delete.aic", "--class", "repair"], 1),
    "revise": (["revise", "choice_pair.rev", "--class", "revision"], 1),
    "check-weak": (["check", "pair_delete.aic", "--class", "weak-repair", "--set=+a"], 0),
    "check-minimal": (["check", "pair_delete.aic", "--class", "repair", "--set=+a"], 1),
    "shift": (["shift", "pair_delete.aic", "--by", "a"], 0),
    "shift-verify": (["shift", "pair_delete.aic", "--by", "a", "--verify"], 1),
    "answer-sets": (["answer-sets", "even_loop.lp"], 1),
    "cqa": (["cqa", "pair_delete.aic", "--class", "repair", "--query", "a"], 1),
    "lattice": (["lattice", "pair_delete.aic"], 1),
}


@pytest.mark.parametrize("argv, zero", BOUNDED.values(), ids=BOUNDED)
def test_negative_atom_bound_flag_is_malformed(argv, zero, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run(argv + ["--max-atoms", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --max-atoms must be at least 0, got -1\n"
    code, _, err = run(argv + ["--max-atoms", "0"], capsys)
    assert code == zero
    assert err.startswith("refused:") if zero else err == ""


@pytest.mark.parametrize("value", ["-1", "many"])
@pytest.mark.parametrize("argv", [argv for argv, _ in BOUNDED.values()], ids=BOUNDED)
def test_negative_atom_bound_env_is_malformed(argv, value, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", value)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: AICREPAIR_MAX_ATOMS must be")
    # An explicit bound is the one read.
    code, _, err = run(argv + ["--max-atoms", "12"], capsys)
    assert code == 0, err


# A file and a class of each kind, and a good value for each other option.
KIND_SAMPLES = {
    "aic": ("pair_delete.aic", "repair"),
    "rev": ("choice_pair.rev", "revision"),
    "lp": ("even_loop.lp", None),
}
GOOD_VALUES = {"--set": "+a", "--to": "rev", "--by": "a", "--query": "a",
               "--format": "text", "--max-atoms": "12"}


def _valued_options():
    """Every option that takes a value, of every subcommand, as the command
    line that gives every other required option a good value, the option
    and a good value of it."""
    for name, (_, _, kinds, *options) in cli._COMMANDS.items():
        file, cls = KIND_SAMPLES[kinds[0]]
        good = {**GOOD_VALUES, "--class": cls}
        for flag, settings in options:
            if "action" in settings:
                continue
            argv = [name, file]
            for other, other_settings in options:
                if other != flag and other_settings.get("required"):
                    argv += [other, good[other]]
            yield pytest.param(argv, flag, good[flag], id=name + flag)


@pytest.mark.parametrize("argv, flag, value", _valued_options())
def test_an_option_value_read_as_empty_is_an_argument_error(
    argv, flag, value, capsys, monkeypatch
):
    # argparse reads "--set=--" as an empty list, past type and choices, on
    # some Python versions, and as "--" on others: either way the request is
    # refused as malformed before anything is printed. How argparse words
    # it differs between versions, so no message is pinned.
    monkeypatch.chdir(GOLDEN)
    code, _, err = run_or_exit(argv + [f"{flag}={value}"], capsys)
    assert code == 0, err
    code, out, err = run_or_exit(argv + [f"{flag}=--"], capsys)
    assert (code, out) == (2, "")
    assert "error:" in err and "[]" not in err


def test_check_reports_nonmembers_without_refusing(capsys):
    code, out, _ = run(
        [
            "check",
            str(GOLDEN / "pair_delete.aic"),
            "--class",
            "weak-repair",
            "--set=+a,-a",
        ],
        capsys,
    )
    assert code == 0
    assert out == "false\n"


# The same malformed candidate for every class: 'z' is outside the universe.
# On the disjunctive program supported-revision would refuse (exit 1), but
# the malformed candidate is reported first.
OUTSIDE_THE_UNIVERSE = {
    "aic": ("universe: a, b.\ndb: a, b.\naic:\na, b -> -a | -b.\n", "-a,+z"),
    "rev": (
        "universe: a, b.\ndb: a, b.\nrev:\nout(a) <- in(a), in(b).\n",
        "out(a),in(z)",
    ),
    "rev-disjunctive": (
        "universe: a, b.\ndb: a, b.\nrev:\nout(a) | out(b) <- in(a), in(b).\n",
        "out(a),in(z)",
    ),
}


@pytest.mark.parametrize(
    "kind, cls",
    [("aic", c.value) for c in RepairClass]
    + [("rev", c.value) for c in RevisionClass]
    + [("rev-disjunctive", RevisionClass.SUPPORTED_REVISION.value)],
)
def test_check_rejects_atoms_outside_the_declared_universe(
    kind, cls, tmp_path, capsys
):
    text, candidate = OUTSIDE_THE_UNIVERSE[kind]
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run(
        ["check", str(path), "--class", cls, f"--set={candidate}"], capsys
    )
    assert code == 2
    assert out == ""
    assert "unknown atom 'z' in update set" in err


@pytest.mark.parametrize(
    "kind, cls",
    [("aic", c.value) for c in RepairClass]
    + [("rev", c.value) for c in RevisionClass]
    + [("rev-disjunctive", RevisionClass.SUPPORTED_REVISION.value)],
)
def test_check_agrees_with_the_listing_on_atoms_outside_the_instance(
    kind, cls, tmp_path, capsys
):
    """Without a ``universe:`` line the universe is the atoms of the
    instance, for ``check`` as for the listing, which never holds 'z'."""
    text, candidate = OUTSIDE_THE_UNIVERSE[kind]
    path = tmp_path / "instance.txt"
    path.write_text(text.partition("\n")[2])
    code, out, err = run(
        ["check", str(path), "--class", cls, f"--set={candidate}"], capsys
    )
    assert (code, out) == (2, "")
    assert "unknown atom 'z' in update set" in err
    command = "repair" if kind == "aic" else "revise"
    code, out, _ = run([command, str(path), "--class", cls], capsys)
    assert code in (0, 1)
    assert "z" not in out


# Every atom must be inserted, so no proper subset of the candidate is a
# weak repair: a change-minimality test would search all 2**18 subsets.
EIGHTEEN = "".join(f"not x{i} -> +x{i}.\n" for i in range(18))
EIGHTEEN_SET = "--set=" + ",".join(f"+x{i}" for i in range(18))


def test_check_respects_the_atom_bound(tmp_path, capsys):
    path = tmp_path / "instance.txt"
    polynomial = ("weak-repair", "founded-weak-repair")
    normalized = "justified-weak-repair-normalized"
    # On a normal program the justified walk is a closure; a disjunctive
    # head makes it branch, except on the normalized program.
    for extra, answered in (
        ("", polynomial + ("justified-weak-repair", normalized)),
        ("a, b -> -a | -b.\n", polynomial + (normalized,)),
    ):
        path.write_text("db: .\naic:\n" + EIGHTEEN + extra)
        for cls in (c.value for c in RepairClass):
            check = ["check", str(path), "--class", cls]
            for bound in (["--max-atoms", "2"], []):
                code, out, err = run(check + [EIGHTEEN_SET] + bound, capsys)
                if cls in answered:
                    assert (code, out) == (0, "true\n"), cls
                else:
                    assert (code, out) == (1, ""), (cls, bound)
                    assert err.startswith("refused: candidate has 18 atoms")
            # The bound is the candidate's size, not the universe's.
            code, out, _ = run(check + ["--set=+x0"], capsys)
            assert (code, out) == (0, "false\n"), cls


def test_check_json_payload(capsys):
    code, out, _ = run(
        [
            "check",
            str(GOLDEN / "pair_delete.aic"),
            "--class",
            "repair",
            "--set=-a",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"schema": 1, "member": True}


def test_cqa_json_payload(capsys):
    code, out, _ = run(
        [
            "cqa",
            str(GOLDEN / "pair_delete.aic"),
            "--class",
            "repair",
            "--query",
            "a",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"schema": 1, "status": "unknown", "holding": 1, "total": 2}


def test_cqa_rejects_query_atoms_outside_the_declared_universe(tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_text("universe: a, b, z.\ndb: a, b.\naic:\na, b -> -a.\n")
    cqa = ["cqa", "--class", "repair", "--query"]
    code, out, err = run(cqa + ["q", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "unknown atom 'q' in query" in err
    code, out, _ = run(cqa + ["z", str(path)], capsys)
    assert (code, out) == (0, "false\n")
    # Without a universe line the universe is the atoms of the instance.
    code, out, err = run(cqa + ["q", str(GOLDEN / "pair_delete.aic")], capsys)
    assert (code, out) == (2, "")
    assert "unknown atom 'q' in query" in err


def test_shift_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["shift", str(GOLDEN / "pair_delete.aic"), "--by", "a", "--format", "json"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_shift_checks_the_shift_set_against_an_empty_universe(tmp_path, capsys):
    path = tmp_path / "empty.aic"
    path.write_text("universe: .\ndb: .\naic:\n-> false.\n")
    for extra in ([], ["--verify"]):
        code, out, err = run(["shift", str(path), "--by", "z", *extra], capsys)
        assert (code, out) == (2, "")
        assert "unknown atom 'z' in shift set" in err


def test_shift_verify_reports_class_count_on_stderr(capsys):
    code, out, err = run(
        ["shift", str(GOLDEN / "pair_delete.aic"), "--by", "a", "--verify"], capsys
    )
    assert code == 0
    assert out == (GOLDEN / "pair_delete.shift.out").read_text()
    assert err == "shift-verify: ok (8 classes)\n"
    code, _, err = run(
        ["shift", str(GOLDEN / "mutual_pair_chain.rev"), "--by", "a", "--verify"],
        capsys,
    )
    assert code == 0
    assert err == "shift-verify: ok (9 classes)\n"
    code, _, err = run(
        ["shift", str(GOLDEN / "choice_pair.rev"), "--by", "a", "--verify"], capsys
    )
    assert code == 0
    assert err == "shift-verify: ok (8 classes)\n"


def _wrong_db(witness):
    return dataclasses.replace(witness, shifted_db=witness.shifted_db ^ {"b"})


def _rule_dropped(witness):
    return dataclasses.replace(witness, shifted_program=witness.shifted_program[1:])


def _free_atom_flipped(witness):
    return dataclasses.replace(witness, shifted_db=witness.shifted_db ^ {"z"})


# An instance whose atom 'z' is in no rule: a wrong shifted database there
# leaves every class's blocks as they are, and only the transported
# actions tell it.
FREE_ATOM = {"free_atom.aic": "universe: a, b, z.\ndb: a, b.\naic:\na, b -> -a | -b.\n"}


@pytest.mark.parametrize(
    "name, first, fault",
    [
        (name, first, fault)
        for name, first in [
            ("pair_delete.aic", "weak-repair"),
            ("mutual_pair_chain.rev", "weak-revision"),
        ]
        for fault in (_rule_dropped, _wrong_db)
    ]
    + [("free_atom.aic", "weak-repair", _free_atom_flipped)],
)
def test_shift_verify_refuses_a_wrong_witness(
    name, first, fault, tmp_path, capsys, monkeypatch
):
    shift_instance = transforms.shift_instance
    monkeypatch.setattr(
        transforms, "shift_instance", lambda *a, **k: fault(shift_instance(*a, **k))
    )
    path = GOLDEN / name
    if name in FREE_ATOM:
        path = tmp_path / name
        path.write_text(FREE_ATOM[name])
    code, out, err = run(["shift", str(path), "--by", "a", "--verify"], capsys)
    assert (code, out) == (1, "")
    assert err == f"refused: shift verification failed for {first}\n"


# Recorded before sets were printed from bit positions: the largest outputs
# of the golden instances, 12,960 sets each.
PINNED_OUTPUTS = {
    "weak-repair": (
        12960,
        "10a08ea79cde87d4fe55675ccd47746af6ac40c828119dc629576aafee68a434",
    ),
    "weak-revision-json": (
        1,
        "dc7a3237cb744f402d2eb379cc769d04158b1daf9a0eb0220de1fc2fd9981111",
    ),
}


def test_the_always_violated_constraint_translates_both_ways(tmp_path, capsys):
    # ``-> false.`` is a well-formed AIC; its revision form is ``false <- .``,
    # which translates back to it. Every set violates it, so neither
    # program has a weak repair or a weak revision.
    aic = tmp_path / "false.aic"
    aic.write_text("db: .\naic: -> false.\n")
    code, out, err = run(["translate", str(aic), "--to", "rev"], capsys)
    assert (code, out, err) == (0, "db: .\nrev:\nfalse <- .\n", "")
    rev = tmp_path / "false.rev"
    rev.write_text(out)
    code, out, err = run(["translate", str(rev), "--to", "aic"], capsys)
    assert (code, out, err) == (0, "db: .\naic:\n-> false.\n", "")
    code, out, _ = run(["revise", str(rev), "--class", "weak-revision"], capsys)
    assert (code, out) == (0, "")


def _pinned(out: str) -> tuple[int, str]:
    return out.count("\n"), hashlib.sha256(out.encode()).hexdigest()


def test_the_largest_outputs_are_byte_identical(tmp_path, capsys):
    wide = str(GOLDEN / "wide16.aic")
    code, out, _ = run(
        ["repair", wide, "--class", "weak-repair", "--max-atoms", "16"], capsys
    )
    assert code == 0
    assert _pinned(out) == PINNED_OUTPUTS["weak-repair"]

    code, out, _ = run(["translate", wide, "--to", "rev"], capsys)
    assert code == 0
    rev = tmp_path / "wide16.rev"
    rev.write_text(out)
    argv = ["revise", str(rev), "--class", "weak-revision", "--format", "json"]
    code, out, _ = run([*argv, "--max-atoms", "16"], capsys)
    assert code == 0
    assert _pinned(out) == PINNED_OUTPUTS["weak-revision-json"]


# The big listings of ``wide16.aic`` and of a renaming that interleaves its
# components, as (exit code, lines, bytes, sha256) in ``wide16_digests.json``,
# recorded before the weak search was split into position blocks. On
# ``wide16.aic`` the components hold contiguous positions, so the search
# splits there; on the renaming they interleave, so it splits only at the
# last free atom.
DIGESTS = GOLDEN / "wide16_digests.json"
DIGEST_COMMANDS = {
    "weak-repair": ["repair", "--class", "weak-repair"],
    "weak-repair-json": ["repair", "--class", "weak-repair", "--format", "json"],
    "founded-weak-repair": ["repair", "--class", "founded-weak-repair"],
    "lattice-verify": ["lattice", "--verify"],
    "lattice-json": ["lattice", "--format", "json"],
}


def _interleaved(text: str) -> str:
    """``wide16.aic`` with atom ``i`` of the 4 x 4 grid of its sorted atoms
    (components a-d, e-h, i-l and free atoms m-p) renamed to the
    transposed cell: component ``g``'s atoms take positions ``g``, ``g +
    4``, ``g + 8`` and ``g + 12``."""
    names = "abcdefghijklmnop"
    return re.sub(
        r"\b[a-p]\b",
        lambda m: names[4 * (names.index(m[0]) % 4) + names.index(m[0]) // 4],
        text,
    )


def _digest_instances(tmp_path) -> dict[str, str]:
    wide = GOLDEN / "wide16.aic"
    interleaved = tmp_path / "wide16_interleaved.aic"
    interleaved.write_text(_interleaved(wide.read_text()))
    return {"wide16": str(wide), "wide16-interleaved": str(interleaved)}


def _digest_outputs(tmp_path, capsys) -> dict:
    """(exit code, stdout) per instance and command."""
    out = {}
    for name, path in _digest_instances(tmp_path).items():
        for key, argv in DIGEST_COMMANDS.items():
            code, text, _ = run([argv[0], path, *argv[1:], "--max-atoms", "16"], capsys)
            out[name, key] = code, text
    return out


def test_the_big_listings_match_their_frozen_digests(tmp_path, capsys):
    frozen = json.loads(DIGESTS.read_text())
    outputs = _digest_outputs(tmp_path, capsys)
    for name, table in frozen.items():
        assert table.keys() == DIGEST_COMMANDS.keys()
        for key, want in table.items():
            code, text = outputs[name, key]
            got = {
                "code": code,
                "lines": text.count("\n"),
                "bytes": len(text.encode()),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
            assert got == want, f"{name} {key}"


def test_engine_outcomes_match_the_frozen_corpus(monkeypatch):
    """Every command's exit code, stdout digest and stderr on 108 seeded
    instances of 8-32 atoms, past the sizes the oracles reach; regenerate
    with ``python tests/engine_corpus.py`` only for a change of output that
    is meant."""
    monkeypatch.delenv(model.ENV_MAX_ATOMS, raising=False)
    frozen = Path(engine_corpus.PATH).read_text(encoding="utf-8")
    entries = json.loads(frozen)
    assert len(entries) == engine_corpus.INSTANCES
    for entry in entries:
        assert engine_corpus.outcomes(entry["seed"]) == entry
    assert engine_corpus.dump(entries) == frozen


def _split_rows(text: str) -> list[list[str]]:
    """The braced sets of a line of text output, as lists of strings."""
    return [row.split(", ") if row else [] for row in re.findall(r"\{([^}]*)\}", text)]


def test_json_sets_are_the_text_rows_split_back(tmp_path, capsys):
    outputs = {k: text for k, (_, text) in _digest_outputs(tmp_path, capsys).items()}
    for name in _digest_instances(tmp_path):
        listed = json.loads(outputs[name, "weak-repair-json"])["sets"]
        text = outputs[name, "weak-repair"].splitlines()
        assert listed == [_split_rows(line)[0] for line in text], name
        assert len(listed) == 12960

        classes = json.loads(outputs[name, "lattice-json"])["classes"]
        lines = outputs[name, "lattice-verify"].splitlines()
        assert lines[-1] == "lattice: ok (14 relations)"
        assert len(lines) == len(classes) + 1
        for line, (cls, sets) in zip(lines, classes.items()):
            head, _, rest = line.partition(":")
            assert head == cls, name
            assert sets == _split_rows(rest), f"{name} {cls}"


# The listing writer against the definitional printer. The widths fall on
# both sides of each 8-position part, the counts on both sides of a slice;
# each hit list starts with the full set, holds the empty set as the last
# hit of the first slice and the full set as the first of the second, and
# width 0 is the empty universe.
WRITER_WIDTHS = (0, 1, 7, 8, 9, 12, 16, 17, 24, 26)
WRITER_COUNTS = (0, 1, 4095, 4096, 4097, 8193)


def _writer_case(width: int) -> tuple[tuple, list[int]]:
    """Canonically ordered actions (update actions at odd widths, revision
    literals at even ones, both flags of some atoms) and 8193 masks."""
    rnd = random.Random(f"writer-{width}")
    kind = model.UpdateAction if width % 2 else model.RevLiteral
    pool = [kind(f"a{i}", flag) for i in range(width) for flag in (True, False)]
    actions = tuple(model.ordered(rnd.sample(pool, width)))
    full = (1 << width) - 1
    hits = [rnd.getrandbits(width) for _ in range(max(WRITER_COUNTS))]
    hits[0] = hits[4096] = full
    hits[4095] = 0
    return actions, hits


def _listing(actions, blocks):
    """The listing writer over a report whose members are the product of
    ``blocks`` over ``actions``."""
    return functools.partial(cli._write_sets, repairs.Report(None, actions, blocks, 0))


def test_listing_writer_matches_the_definitional_printer(capsys):
    for width in WRITER_WIDTHS:
        actions, hits = _writer_case(width)
        sets = [model.ordered(s) for s in model.members(actions, hits)]
        texts = [format_set(s) for s in sets]
        names = [[str(x) for x in s] for s in sets]
        for n in WRITER_COUNTS:
            where = f"width {width}, {n} hits"
            for before, after in (("", "\n"), (" ", "")):
                _listing(actions, [hits[:n]])(before + "{", "}" + after)
                want = "".join(before + text + after for text in texts[:n])
                assert capsys.readouterr().out == want, where
            listing = _listing(actions, [hits[:n]])
            cli._print_json(**{"class": "weak-repair"}, sets=listing)
            want = {"schema": 1, "class": "weak-repair", "sets": names[:n]}
            assert capsys.readouterr().out == json.dumps(want) + "\n", where
    # Listings nested in an object, around and between plain values, as
    # ``lattice --format json`` writes them.
    actions, hits = _writer_case(9)
    fields = {
        "classes": {
            "a": _listing(actions, [hits[:3]]),
            "b": _listing(actions, [[]]),
        },
        "relations": [{"relation": "a <= b", "holds": False}],
    }
    cli._print_json(**fields)
    sets = [[str(x) for x in model.ordered(s)] for s in model.members(actions, hits[:3])]
    want = {"schema": 1, **fields, "classes": {"a": sets, "b": []}}
    assert capsys.readouterr().out == json.dumps(want) + "\n"


def _fold(blocks) -> list[int]:
    """The product of ``blocks`` by its definition: every union of one
    mask per block, in the order of their sorted positions. One block
    keeps its own order."""
    if len(blocks) == 1:
        return list(blocks[0])
    return sorted({sum(pick) for pick in itertools.product(*blocks)}, key=model.positions)


def _canonical(lo: int, hi: int, empty: bool = True) -> list[int]:
    """The masks over positions ``lo`` to ``hi - 1`` in canonical order,
    with or without the empty one."""
    masks = [x << lo for x in range(0 if empty else 1, 1 << hi - lo)]
    return sorted(masks, key=model.positions)


def _product_cases():
    """``(where, actions, blocks)``: the weak repairs of every
    ``gen.product_instances`` instance, then hand-built block lists."""
    weak = RepairClass.WEAK_REPAIR
    for name, atoms, db, program in gen.product_instances():
        universe, limits = model.Universe(atoms), model.Limits(len(atoms))
        report = repairs.enumerate_classes(db, program, [weak], universe, limits)[weak]
        yield name, report.actions, report.blocks
    actions = tuple(model.UpdateAction(f"a{i:02}", i % 3 > 0) for i in range(16))
    no_empty, one, low = _canonical(0, 3, False), [1 << 3], _canonical(4, 6)
    yield "a block without the empty set", actions, [no_empty, one, low]
    yield "the top without the empty set", actions, [low, _canonical(6, 9, False)]
    yield "a block of one member", actions, [one]
    yield "an empty block", actions, [no_empty, [], low]
    for n in (4096, 8193):
        random_actions, hits = _writer_case(9)
        yield f"one block of {n} in random order", random_actions, [hits[:n]]
    singles = [[0, 1 << i] for i in range(14)]
    yield "a top of 12 blocks above 2", actions, singles
    yield "a last block wider than a slice", actions, [[0, 1], _canonical(1, 14)]
    wide_middle = [[0, 1], _canonical(1, 14), [0, 1 << 14]]
    yield "a block wider than a slice under one more", actions, wide_middle
    sizes = [_canonical(0, 2, False), _canonical(2, 5), _canonical(5, 8, False)]
    yield "a top of 3 blocks above 1", actions, [*sizes, _canonical(8, 14)[:50]]


class _Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_products_print_as_their_folded_masks(monkeypatch):
    # Every listing is written from its blocks: the text forms and JSON
    # must be those of the definitional printer over the folded product,
    # and every write but the last must hold a full slice of rows.
    sink = _Recorder()
    monkeypatch.setattr(sys, "stdout", sink)
    for where, actions, blocks in _product_cases():
        sets = [model.ordered(s) for s in model.members(actions, _fold(blocks))]
        texts = [format_set(s) for s in sets]
        for before, after in (("", "\n"), (" ", "")):
            sink.writes.clear()
            _listing(actions, blocks)(before + "{", "}" + after)
            want = "".join(before + text + after for text in texts)
            assert "".join(sink.writes) == want, where
            rows = [text.count("{") for text in sink.writes]
            assert sum(rows) == len(texts), where
            assert all(n == cli._SLICE for n in rows[:-1]), where
            assert not rows or 0 < rows[-1] <= cli._SLICE, where
        sink.writes.clear()
        cli._print_json(sets=_listing(actions, blocks))
        want = {"schema": 1, "sets": [[str(x) for x in s] for s in sets]}
        assert "".join(sink.writes) == json.dumps(want) + "\n", where


class _CountingSink:
    """A stdout that keeps, per write, only the number of lines written."""

    def __init__(self):
        self.lines: list[int] = []

    def write(self, text: str) -> int:
        self.lines.append(text.count("\n"))
        return len(text)


def test_listings_print_in_slices_without_holding_the_rows(monkeypatch):
    # 4 components of 4 atoms and 4 free atoms: 103,680 weak repairs in 8
    # blocks. Printing them from the blocks traced a peak of 0.72 MiB
    # here, against 0.88 MiB from the full hit list and 25.2 MiB when
    # every row was built before the first write (Python 3.11).
    atoms, db, program = gen.components_aic(random.Random("stream20"), (4,) * 4, 4)
    weak = RepairClass.WEAK_REPAIR
    universe, limits = model.Universe(atoms), model.Limits(len(atoms))
    report = repairs.enumerate_classes(db, program, [weak], universe, limits)[weak]
    assert report.size == 103_680
    # Two products of 524,288 sets whose top is one block wider than a
    # slice: last, or under one more block. Held as text over the 64 and
    # 32 masks of the blocks below, they traced peaks of 1.8 and 2.6 MiB,
    # against 36.4 and 18.2 MiB when the lower product was every block
    # below the wide one, built as one list of masks (Python 3.11).
    wide = tuple(model.UpdateAction(f"a{i:02}", i % 3 > 0) for i in range(19))
    singles = [[0, 1 << i] for i in range(6)]
    wide_last = [*singles, _canonical(6, 19)]
    wide_under = [*singles[:5], _canonical(5, 18), [0, 1 << 18]]
    cases = (
        ("8 weak blocks", report.actions, report.blocks, 103_680, 1.5),
        ("a wide last block", wide, wide_last, 524_288, 4),
        ("a wide block under one more", wide, wide_under, 524_288, 4),
    )
    for where, actions, blocks, rows, mib in cases:
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            _listing(actions, blocks)("{", "}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sink.lines) == rows, where
        assert max(sink.lines) == cli._SLICE == 4096, where
        assert peak < mib * 2**20, f"{where}: printing peaked at {peak / 2**20:.2f} MiB"


def test_weak26_is_its_generator_output():
    """``weak26.aic``, the 2,624,400-set weak listing that CI prints under
    a memory limit, is 6 components of 4 atoms and 2 free atoms."""
    atoms, db, program = gen.components_aic(random.Random("weak26"), (4,) * 6, 2)
    instance = Instance("aic", db, program, model.Universe(atoms))
    assert (GOLDEN / "weak26.aic").read_text() == print_instance(instance)


def test_even_loops60_is_twenty_adjacent_even_loops():
    """``even_loops60.lp``, the 1,048,576-set answer-set listing that CI
    prints under a memory limit: 20 copies of ``a :- not b. b :- not a.
    c :- a.``, each on 3 atoms adjacent in universe order."""
    copies = [[f"p{k:02}{x}" for x in "abc"] for k in range(20)]
    rules = "".join(f"{a} :- not {b}.\n{b} :- not {a}.\n{c} :- {a}.\n" for a, b, c in copies)
    assert (GOLDEN / "even_loops60.lp").read_text() == "db: .\nlp:\n" + rules


def test_answer_sets_print_from_the_blocks(monkeypatch):
    # The 20 copies of even_loops60.lp split into 20 blocks of 2 answer
    # sets. Printed from them, a slice of sets per write, the 1,048,576
    # answer sets traced a peak of 3.2 MiB as text and 4.1 MiB as JSON
    # (Python 3.11). The request took 3,069 MB peak RSS when every set was
    # sorted into a row before the first write.
    argv = ["answer-sets", str(GOLDEN / "even_loops60.lp"), "--max-atoms", "60"]
    for fmt, lines in (("text", 1 << 20), ("json", 1)):
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sum(sink.lines)) == (0, lines), fmt
        assert len(sink.lines) >= (1 << 20) // cli._SLICE, fmt
        assert peak < 8 * 2**20, f"{fmt}: {peak / 2**20:.2f} MiB"


def test_running_out_of_memory_is_a_refusal():
    """``sparse32.lp``, ``gen.sparse_lp``'s 32-atom program, encodes as one
    connected part whose weak block outgrows 100 MB of address space.
    Under that limit (``ulimit -v 100000``), set in the child process
    alone, ``answer-sets`` is refused: exit 1, nothing on stdout and one
    ``refused:`` line naming memory, where a MemoryError traceback escaped
    before. The file has no ``.cmd``, so no replay runs it unbounded."""
    pytest.importorskip("resource")
    rnd = random.Random("lp/32")
    program = gen.sparse_lp(rnd, gen.atom_pool(rnd, 32))
    path = GOLDEN / "sparse32.lp"
    assert path.read_text() == print_instance(Instance("lp", frozenset(), program))
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (100_000 * 1024,) * 2)\n"
        "from aicrepair.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = run_python(["-c", limited, "answer-sets", str(path), "--max-atoms", "60"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "refused: out of memory\n")


def _layered_lp(rnd: random.Random, atoms, normal: bool) -> tuple:
    """Per 4 atoms ``a, b, c, d``: a choice between ``a`` and ``b`` (``a
    :- not b. b :- not a.``, or ``a | b.`` unless ``normal``), then ``c``
    and ``d`` each the head of a rule whose body is two of the atoms
    before it, each negated with probability 0.6. Each group has two
    answer sets, so the program has ``2**(len(atoms) // 4)``."""
    program = []
    for k in range(0, len(atoms) - 3, 4):
        a, b, c, d = atoms[k:k + 4]
        if normal:
            program += [asp.LpRule({a}, (), {b}), asp.LpRule({b}, (), {a})]
        else:
            program.append(asp.LpRule({a, b}, ()))
        for q, below in ((c, [a, b]), (d, [a, b, c])):
            body = rnd.sample(below, 2)
            neg = {x for x in body if rnd.random() < 0.6}
            program.append(asp.LpRule({q}, set(body) - neg, neg))
    return tuple(program)


def test_answer_sets_list_as_the_justified_weak_repairs_of_the_encoding(
    tmp_path, capsys
):
    # answer-sets and repair list through one path. On seeded normal and
    # disjunctive programs of 12-20 atoms, one connected (gen.sparse_lp)
    # and one of 4-atom groups, the answer sets are the justified weak
    # repairs of the program's encoding over the empty database, each
    # +atom read as its atom, in text and in JSON.
    jwr = RepairClass.JUSTIFIED_WEAK_REPAIR.value
    listed = 0
    for n in (12, 16, 20):
        for normal in (True, False):
            seed = f"listing/{n}/{normal}"
            rnd = random.Random(seed)
            atoms = gen.atom_pool(rnd, n)
            universe = model.Universe(atoms)
            for program in (gen.sparse_lp(rnd, atoms, normal), _layered_lp(rnd, atoms, normal)):
                lp = tmp_path / "p.lp"
                lp.write_text(print_instance(Instance("lp", frozenset(), program, universe)))
                encoded = asp.aic_of_program(program)
                aic = tmp_path / "p.aic"
                aic.write_text(print_instance(Instance("aic", frozenset(), encoded, universe)))
                bound = ["--max-atoms", str(n)]
                code, text, _ = run(["answer-sets", str(lp), *bound], capsys)
                assert code == 0, seed
                code, want, _ = run(["repair", str(aic), "--class", jwr, *bound], capsys)
                assert (code, text) == (0, want.replace("+", "")), seed
                argv = ["answer-sets", str(lp), *bound, "--format", "json"]
                code, out, _ = run(argv, capsys)
                got = json.loads(out)
                argv = ["repair", str(aic), "--class", jwr, *bound, "--format", "json"]
                code, out, _ = run(argv, capsys)
                sets = [[a.removeprefix("+") for a in s] for s in json.loads(out)["sets"]]
                assert got == {"schema": 1, "sets": sets}, seed
                assert text.count("\n") == len(sets), seed
                listed += len(sets)
    assert listed >= 2 * (8 + 16 + 32)


#: The sha256 of ``repair wall42.aic --class repair --max-atoms 42``, which
#: CI checks, with its 26,244 lines.
WALL42_REPAIRS = "a259cd784ae091e63cc05a999419bba46eaa9fa8f0a4487d43356ce9cc198bd8"


def test_wall42_repairs_are_the_product_of_component_repairs(capsys, monkeypatch):
    """``wall42.aic`` is 10 components of 4 atoms, each with its first rule
    violated, and 2 free atoms. Its repairs, which CI prints under a time
    and memory limit, are the unions of one repair per component, each
    from the oracle, in canonical order."""
    atoms, db, program = gen.components_aic(random.Random("probe/10/0"), (4,) * 10, 2)
    db = gen.violating(db, program)
    instance = Instance("aic", db, program, model.Universe(atoms))
    assert (GOLDEN / "wall42.aic").read_text() == print_instance(instance)
    sets = [frozenset()]
    for group in [atoms[k:k + 4] for k in range(0, 40, 4)] + [(a,) for a in atoms[40:]]:
        rules = tuple(r for r in program if r.atoms() <= set(group))
        part = oracles.repairs(db & set(group), rules, group)
        sets = [u | v for u in sets for v in part]
    rows = sorted(sorted(map(model._key, u)) for u in sets)
    # Sorted by model._key, (atom, not insert): canonical order.
    want = "".join(
        "{" + ", ".join("+-"[deletes] + atom for atom, deletes in row) + "}\n"
        for row in rows
    )
    digest = hashlib.sha256(want.encode()).hexdigest()
    assert (len(rows), digest) == (26_244, WALL42_REPAIRS)
    monkeypatch.chdir(GOLDEN)
    argv = ["repair", "wall42.aic", "--class", "repair", "--max-atoms", "42"]
    assert run(argv, capsys) == (0, want, "")


def test_widetop23_is_one_wide_part_under_free_atoms():
    """``widetop23.aic``, the 2,070,016-set weak listing that CI prints
    under a memory limit: 8 atoms in no rule, then one 15-atom part whose
    8,086 weak repairs are one block wider than a slice. Asked for with
    every other class, as ``lattice`` asks, the weak class keeps the same
    blocks, and the call never lists their product: it traced a peak of
    0.45 MiB, against 142.8 MiB when the grounded classes folded the weak
    blocks into one (Python 3.11)."""
    instance = cli._load(str(GOLDEN / "widetop23.aic"))
    weak = RepairClass.WEAK_REPAIR
    db, program, universe = instance.db, instance.program, instance.universe()
    limits = model.Limits(len(universe))
    for classes in ([weak], list(RepairClass)):
        tracemalloc.start()
        try:
            reports = repairs.enumerate_classes(db, program, classes, universe, limits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = reports[weak]
        assert [len(block) for block in report.blocks] == [2] * 8 + [8086]
        assert report.size == 2_070_016
        assert peak < 4 * 2**20, f"{len(classes)} classes: {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name, atoms", [("widetop23", 23), ("weak26", 26)])
def test_lattice_verify_compares_classes_as_blocks(name, atoms, monkeypatch):
    """``lattice --verify`` on the two big weak listings compares the
    weak classes through their blocks, never through their members: with
    a stdout that only counts, the whole request traced peaks of 2.4 and
    1.3 MiB, against 318.6 and 520.3 MiB when every class became the set
    of its members (Python 3.11)."""
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["lattice", str(GOLDEN / f"{name}.aic"), "--max-atoms", str(atoms)]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--verify"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sum(sink.lines)) == (0, 9)
    assert peak < 8 * 2**20, f"{name}: {peak / 2**20:.2f} MiB"


#: A weak class over two ranges of positions: bits 0-1 and bits 2-3.
WEAK_BLOCKS = ((0b0000, 0b0001, 0b0011), (0b0100, 0b1100))


def _relations_of(repair_blocks, normalized_weak=WEAK_BLOCKS, weak=WEAK_BLOCKS) -> dict:
    """``cli._relations`` on hand-built reports over the ranges of
    ``WEAK_BLOCKS``: the weak class of the program is ``weak`` and that of
    its normalization ``normalized_weak``, the repair class is
    ``repair_blocks``, and every other class is empty."""
    classes = list(RepairClass)
    base = {c: repairs.Report(c, (), ((),), 0) for c in classes}
    base[classes[0]] = repairs.Report(classes[0], (), weak, 0)
    base[classes[1]] = repairs.Report(classes[1], (), repair_blocks, 0)
    norm = {c: base[c] for c in classes[:4]}
    norm[classes[0]] = repairs.Report(classes[0], (), normalized_weak, 0)
    return dict(cli._relations(base, norm, classes))


def test_lattice_relations_test_members_of_each_block():
    # Every report of one call is a product over the same ranges, so each
    # block of a class is tested against the other's block over its range.
    within = "repair <= weak-repair"
    assert _relations_of(((),))[within]
    assert _relations_of(((0b0001,), (0b0100, 0b1100)))[within]
    assert _relations_of(((0b0000, 0b0011), (0b1100,)))[within]
    assert not _relations_of(((0b0001, 0b0010), (0b0100,)))[within]  # 0b10 on the first
    assert not _relations_of(((0b0001,), (0b1000,)))[within]  # 0b1000 on the second
    assert not _relations_of(((0b0001,), (0b0100,)), weak=((),))[within]
    same = "weak-repair == normalized:weak-repair"
    assert _relations_of(((),))[same]
    assert not _relations_of(((),), (WEAK_BLOCKS[0], (0b0100,)))[same]
    assert not _relations_of(((),), (WEAK_BLOCKS[0], (0b0100, 0b1000)))[same]
    # A class with no member is one empty block, whichever range emptied
    # it, so two empty classes compare equal.
    assert _relations_of(((),), ((),), weak=((),))[same]
    assert not _relations_of(((),), ((), (0b0100,)), weak=((0b0001,), ()))[same]


def test_atom_pools_go_on_after_z_in_sorted_order():
    """Up to 26 names a pool is the letters; past them it goes on after
    ``z``, so the consecutive atoms that ``components_aic`` gives each
    component stay contiguous in universe order, and a 34-atom instance
    has a body on every rule."""
    rnd = random.Random(0)
    for n in range(61):
        atoms = gen.atom_pool(rnd, n)
        assert len(set(atoms)) == n
        assert list(atoms) == sorted(atoms)
        assert all(model.ATOM_RE.match(a) for a in atoms)
        assert model.RESERVED_WORDS.isdisjoint(atoms)
        if n <= 26:
            assert atoms == tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    atoms, db, program = gen.components_aic(random.Random("wide34"), (4,) * 8, 2)
    assert len(atoms) == 34
    assert all(rule.body for rule in program)


def test_lattice_verify_text_summary(capsys):
    code, out, _ = run(
        ["lattice", str(GOLDEN / "mutual_pair_chain.rev"), "--verify"], capsys
    )
    assert code == 0
    assert out.rstrip().endswith("lattice: ok (15 relations)")


def test_lattice_verify_reports_violated_relations(capsys, monkeypatch):
    # Dropping the first rule of every normalized program splits the
    # founded classes of pair_delete.aic from their normalized ones.
    normalize_aic = transforms.normalize_aic
    monkeypatch.setattr(transforms, "normalize_aic", lambda p: normalize_aic(p)[1:])
    argv = ["lattice", str(GOLDEN / "pair_delete.aic"), "--verify"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    violated = [
        line.removeprefix("lattice: violated ")
        for line in out.splitlines()
        if line.startswith("lattice: violated ")
    ]
    assert "normalized:founded-repair == founded-repair" in violated
    assert "lattice: ok" not in out

    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 1
    assert '"holds": false' in out
    relations = json.loads(out)["relations"]
    assert [r["relation"] for r in relations if not r["holds"]] == violated


def test_lattice_json_includes_supported_only_for_normal_programs(capsys):
    code, out, _ = run(
        [
            "lattice",
            str(GOLDEN / "mutual_pair_chain.rev"),
            "--verify",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert "supported-revision" in payload["classes"]
    assert len(payload["relations"]) == 15
    assert all(row["holds"] for row in payload["relations"])

    code, out, _ = run(
        ["lattice", str(GOLDEN / "choice_pair.rev"), "--verify", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert "supported-revision" not in payload["classes"]
    assert len(payload["relations"]) == 14
    assert all(row["holds"] for row in payload["relations"])


def _count_calls(monkeypatch, name) -> list:
    """Patch ``repairs.<name>`` to record its calls; returns the record."""
    calls = []
    original = getattr(repairs, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(repairs, name, counting)
    return calls


@pytest.mark.parametrize(
    "argv, scans",
    [
        (["lattice", "pair_delete.aic", "--verify"], 2),
        (["lattice", "mutual_pair_chain.rev", "--verify"], 2),
        (["shift", "pair_delete.aic", "--by", "a", "--verify"], 2),
        (["shift", "mutual_pair_chain.rev", "--by", "a", "--verify"], 2),
        (["lattice", "pair_delete.aic"], 1),
        # Change-minimal classes alone come from the repair tree, not a scan.
        (
            ["repair", "pair_delete.aic", "--class", "justified-repair-normalized"],
            0,
        ),
        (["cqa", "pair_delete.aic", "--class", "repair", "--query", "a"], 0),
        (["revise", "mutual_pair_chain.rev", "--class", "revision"], 0),
    ],
)
def test_every_class_comes_from_one_scan_per_program(
    argv, scans, capsys, monkeypatch
):
    calls = _count_calls(monkeypatch, "clause_search")
    monkeypatch.chdir(GOLDEN)
    code, _, _ = run(argv, capsys)
    assert code == 0
    # A scan searches each range of positions on its own, on the range's
    # clauses: mutual_pair_chain.rev has two ranges, so its two scans make
    # 4 calls, and pair_delete.aic one.
    ranges = {"pair_delete.aic": 1, "mutual_pair_chain.rev": 2}[argv[1]]
    assert len(calls) == scans * ranges
    assert len({(lo, hi) for _, lo, hi in calls}) == (ranges if scans else 0)


@pytest.mark.parametrize(
    "argv, trees",
    [
        (["lattice", "pair_delete.aic", "--verify"], 2),
        (["lattice", "mutual_pair_chain.rev", "--verify"], 2),
        (["check", "pair_delete.aic", "--class", "repair", "--set=-a"], 1),
        (["repair", "pair_delete.aic", "--class", "weak-repair"], 0),
    ],
)
def test_change_minimal_sets_come_from_one_tree_per_engine_call(
    argv, trees, capsys, monkeypatch
):
    # An enumeration runs one tree per range of positions (``_least``),
    # whose moves are the range: mutual_pair_chain.rev has two ranges,
    # pair_delete.aic one. A check walks one tree, over the candidate's own
    # bits.
    calls = _count_calls(monkeypatch, "walk" if argv[0] == "check" else "_least")
    enumerations = _count_calls(monkeypatch, "enumerate_classes")
    monkeypatch.chdir(GOLDEN)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert len(calls) == trees * len({args[1] for args in calls})
    if argv[0] == "lattice":
        assert len(enumerations) == trees


@pytest.mark.parametrize(
    "argv, validations",
    [
        (["lattice", "mutual_pair_chain.rev", "--verify"], 2),
        (["shift", "pair_delete.aic", "--by", "a", "--verify"], 2),
        (
            [
                "check",
                "mutual_flip.aic",
                "--class",
                "justified-weak-repair",
                "--set=+a,+b",
            ],
            1,
        ),
    ],
)
def test_the_universe_is_validated_once_per_engine_call(
    argv, validations, capsys, monkeypatch
):
    calls = []
    universe_for = repairs._universe_for

    def counting_universe_for(*args, **kwargs):
        calls.append(args)
        return universe_for(*args, **kwargs)

    monkeypatch.setattr(repairs, "_universe_for", counting_universe_for)
    monkeypatch.chdir(GOLDEN)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert len(calls) == validations


# One constraint over a declared six-atom universe: 32 weak repairs, one of
# them justified.
MANY_WEAK_REPAIRS = "universe: a, b, c, d, e, f.\ndb: a.\naic:\na -> -a.\n"


@pytest.mark.parametrize(
    "text",
    [(GOLDEN / "mutual_flip.aic").read_text(), MANY_WEAK_REPAIRS],
    ids=["mutual_flip", "many_weak_repairs"],
)
def test_justified_enumeration_validates_as_often_as_weak(
    text, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    calls = []
    require = model.Universe.require

    def counting_require(self, *args, **kwargs):
        calls.append(args)
        return require(self, *args, **kwargs)

    monkeypatch.setattr(model.Universe, "require", counting_require)
    counts = {}
    for cls in ("weak-repair", "justified-weak-repair", "justified-repair"):
        calls.clear()
        code, _, _ = run(["repair", str(path), "--class", cls], capsys)
        assert code == 0
        counts[cls] = len(calls)
    assert counts["justified-weak-repair"] == counts["weak-repair"]
    assert counts["justified-repair"] == counts["weak-repair"]


# Each instance and command meets three unknown atoms in one set; the error
# names the smallest, whatever order the hash seed gives the set.
UNKNOWN_ATOMS = {
    "check-set": (
        "universe: a, b.\ndb: a.\naic:\na -> -a.\n",
        ["check", "--class", "repair", "--set=+y,+z,+w"],
        "update set",
    ),
    "cqa-query": (
        "universe: a, b.\ndb: a.\naic:\na -> -a.\n",
        ["cqa", "--class", "repair", "--query=y,z,w"],
        "query",
    ),
    "db-section": (
        "universe: a, b.\ndb: a, y, z, w.\naic:\na -> -a.\n",
        ["repair", "--class", "repair"],
        "db section",
    ),
    "rule": (
        "universe: a, b.\ndb: a.\naic:\na, y, z, w -> -a.\n",
        ["repair", "--class", "repair"],
        "rule 'a, w, y, z -> -a.'",
    ),
}


@pytest.mark.parametrize(
    "text, argv, context", UNKNOWN_ATOMS.values(), ids=UNKNOWN_ATOMS.keys()
)
def test_the_unknown_atom_named_does_not_depend_on_the_hash_seed(
    text, argv, context, tmp_path
):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    for seed in range(5):
        proc = run_fresh([*argv, str(path)], PYTHONHASHSEED=str(seed))
        assert (proc.returncode, proc.stdout) == (2, ""), seed
        assert proc.stderr == f"error: unknown atom 'w' in {context}\n", seed


SUBCOMMANDS = ("repair", "revise", "check", "translate", "normalize",
               "properize", "shift", "answer-sets", "cqa", "lattice")


def test_one_parser_per_process_answers_as_a_fresh_process(capsys, monkeypatch):
    # Help, then an argument error, then a good request, all through the
    # one parser of this process; each must read as it does in a fresh one.
    monkeypatch.chdir(GOLDEN)
    requests = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    requests += [["repair", "pair_delete.aic", "--class", "nonsense"]]
    requests += [["repair", "pair_delete.aic", "--class", "repair"]]
    assert cli.build_parser() is cli.build_parser()
    for argv in requests:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = run_fresh(argv)
        fresh = (proc.returncode, proc.stdout, proc.stderr)
        assert (code, captured.out, captured.err) == fresh, argv


# cli._read_plain returns nothing, or exactly the namespace argparse gives
# with the command added; it returns one exactly when the words are in the
# plain forms and argparse reads them all without an error.


@settings(max_examples=1000)
@given(st.randoms(use_true_random=False))
def test_the_plain_reader_reads_what_argparse_reads(rng):
    argv_forms.check(argv_forms.draw(rng))


def test_the_plain_reader_reads_what_argparse_reads_on_seeded_lists():
    # A fixed sample as wide as the script's, which takes about 2 s: about
    # a tenth of the lists are plain, and a reader that reads an
    # abbreviation, a value word that starts with "-" or a value outside
    # the choices fails on some of them.
    assert argv_forms.agree(20_000, seed=0) > 1_000


def test_argparse_reads_only_the_goldens_that_need_it():
    # Help, argument errors, a negative --max-atoms given as a separate
    # word, and abbreviated flags; the plain reader reads every other.
    by_argparse = [
        cmd_file.stem
        for cmd_file in REPLAYS
        if cli._read_plain(shlex.split(cmd_file.read_text())) is None
    ]
    prefixes = ("usage_", "bad_max_atoms_", "abbrev_options")
    assert by_argparse == [p.stem for p in REPLAYS if p.stem.startswith(prefixes)]
    assert len(by_argparse) == 20


def test_argparse_reads_the_plain_goldens_as_the_reader_does():
    # No plain command line reaches cli._parse, so nothing else shows that
    # argparse would still read one the same way, were the reader to leave
    # it there.
    read = 0
    for cmd_file in REPLAYS:
        argv = shlex.split(cmd_file.read_text())
        plain = cli._read_plain(argv)
        if plain is not None:
            assert vars(cli._parse(argv)) == vars(plain), cmd_file.stem
            read += 1
    assert read == len(REPLAYS) - 20


# Runs one request in a fresh interpreter, then says on stderr whether
# argparse was ever imported.
_PROBE = """\
import sys
from aicrepair import cli
code = cli.main(sys.argv[1:])
print("argparse" in sys.modules, file=sys.stderr)
raise SystemExit(code)
"""


def test_a_plain_request_does_not_load_argparse(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    for argv, loaded in (
        (["repair", "pair_delete.aic", "--class", "repair"], "False"),
        (["repair", "pair_delete.aic", "--cl", "repair"], "True"),
    ):
        proc = run_python(["-c", _PROBE, *argv])
        assert (proc.returncode, proc.stdout) == (0, "{-a}\n{-b}\n")
        assert proc.stderr == loaded + "\n"


def test_an_empty_command_line_is_an_argument_error(capsys):
    # A .cmd file cannot hold an empty command line, so this golden lives
    # here; its usage lines are those of usage_unknown_command.err.
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    captured = capsys.readouterr()
    usage = (GOLDEN / "usage_unknown_command.err").read_text().splitlines(True)[:3]
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err == "".join(usage) + (
        "aicrepair: error: the following arguments are required: command\n"
    )


def _check_value_as_in_python_3_13_13(self, action, value):
    # Python 3.13.13's argparse words an invalid choice with its choices
    # unquoted; 3.10-3.12 quote them, as the goldens do.
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise argparse.ArgumentError(
            action, f"invalid choice: {str(value)!r} (choose from {choices})"
        )


@pytest.mark.parametrize("name", ["usage_bad_class", "usage_unknown_command"])
def test_choice_errors_do_not_follow_the_argparse_wording(name, capsys, monkeypatch):
    monkeypatch.setattr(
        argparse.ArgumentParser, "_check_value", _check_value_as_in_python_3_13_13
    )
    replay(GOLDEN / f"{name}.cmd", capsys, monkeypatch)


_GET_VALUES = argparse.ArgumentParser._get_values


def _get_values_as_in_python_3_13_0(self, action, arg_strings):
    # Python 3.13's argparse keeps the "--" of "--flag=--" as the option's
    # value, past its type and choices; 3.10-3.12 drop it and read the
    # option as an empty list.
    if action.option_strings and arg_strings == ["--"]:
        value = self._get_value(action, "--")
        self._check_value(action, value)
        return value
    return _GET_VALUES(self, action, arg_strings)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["cqa", "pair_delete.aic", "--class", "repair", "--query=--"],
         "argument --query: expected one argument"),
        (["answer-sets", "--ma=--", "even_loop.lp"],
         "argument --max-atoms: expected one argument"),
        (["revise", "--forma=--", "--class", "revision", "--format", "choice_pair.rev"],
         "argument --format: invalid choice: 'choice_pair.rev' (choose from 'text', 'json')"),
        (["repair", "pair_delete.aic", "--class", "repair", "--max-atoms=--", "g.rev"],
         "aicrepair: error: unrecognized arguments: g.rev"),
    ],
    ids=["query", "abbreviated", "later_error", "leftover"],
)
def test_a_double_dash_value_does_not_follow_the_argparse_reading(
    argv, error, capsys, monkeypatch
):
    # Every Python reads "--flag=--" as 3.10-3.12 read it: as no value,
    # an argument error unless argparse stops at another error first.
    monkeypatch.chdir(GOLDEN)
    want = run_or_exit(argv, capsys)
    assert want[:2] == (2, "") and want[2].endswith(error + "\n"), want
    monkeypatch.setattr(
        argparse.ArgumentParser, "_get_values", _get_values_as_in_python_3_13_0
    )
    assert run_or_exit(argv, capsys) == want


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--", "--", "repair", "pair_delete.aic", "--class", "repair"], "--"),
        (["-x", "repiar"], "repiar"),
    ],
    ids=["second_double_dash", "after_an_option"],
)
def test_the_subcommand_error_names_the_word_argparse_takes(
    argv, word, capsys, monkeypatch
):
    # Past the one leading "--" that main drops, argparse 3.10-3.12 take a
    # "--" where the subcommand goes as the subcommand, and 3.13.13 skips
    # it; the word after an unknown option is the subcommand on all of
    # them. The error names that word, worded as 3.10-3.12 word it.
    monkeypatch.setattr(
        argparse.ArgumentParser, "_check_value", _check_value_as_in_python_3_13_13
    )
    monkeypatch.chdir(GOLDEN)
    want = (GOLDEN / "usage_unknown_command.err").read_text()
    assert run_or_exit(argv, capsys) == (2, "", want.replace("'repiar'", repr(word)))


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("name", ["usage_help", "usage_help_repair", "usage_missing_class"])
def test_help_and_usage_do_not_follow_the_terminal_width(
    name, columns, capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", columns)
    replay(GOLDEN / f"{name}.cmd", capsys, monkeypatch)


def test_one_leading_double_dash_is_read_as_nothing(capsys, monkeypatch):
    # "--" before the subcommand ends no options, so it is dropped, once.
    monkeypatch.chdir(GOLDEN)
    plain = ["repair", "pair_delete.aic", "--class", "repair"]
    assert run_or_exit(["--", *plain], capsys) == (0, "{-a}\n{-b}\n", "")
    for argv in (plain, ["repair", "pair_delete.aic", "--cl", "repair"], ["--help"],
                 ["repiar", "pair_delete.aic"], []):
        assert run_or_exit(["--", *argv], capsys) == run_or_exit(argv, capsys), argv


# What the parser declares, frozen as a literal: per subcommand its help,
# handler name and kinds, and per action its option strings, dest, required,
# choices, default, metavar, help and type name.
_HELP = (("-h", "--help"), "help", False, None, "==SUPPRESS==", None,
         "show this help message and exit", None)
_FILE = ((), "file", True, None, None, None, None, None)
_FORMAT = (("--format",), "format", False, ("text", "json"), "text", None,
           "output format", None)
_MAX_ATOMS = (("--max-atoms",), "max_atoms", False, None, None, "N",
              "override the exhaustive-enumeration bound on universe size", "int")
_REPAIR_CLASSES = (
    "weak-repair", "repair", "founded-weak-repair", "founded-repair",
    "justified-weak-repair", "justified-repair",
    "justified-weak-repair-normalized", "justified-repair-normalized",
)
_REVISION_CLASSES = (
    "weak-revision", "revision", "founded-weak-revision", "founded-revision",
    "justified-weak-revision", "justified-revision",
    "justified-weak-revision-normalized", "justified-revision-normalized",
    "supported-revision",
)
_EITHER = "repair or revision class, matching the instance kind"
_EITHER_CLASS = (("--class",), "cls", True, _REPAIR_CLASSES + _REVISION_CLASSES,
                 None, None, _EITHER, None)
PARSER_PIN = {
    "repair": ("enumerate repairs of an aic instance", "cmd_enumerate", ("aic",), [
        _HELP, _FILE,
        (("--class",), "cls", True, _REPAIR_CLASSES, None, None, "repair class", None),
        _FORMAT, _MAX_ATOMS,
    ]),
    "revise": ("enumerate revisions of a rev instance", "cmd_enumerate", ("rev",), [
        _HELP, _FILE,
        (("--class",), "cls", True, _REVISION_CLASSES, None, None, "revision class",
         None),
        _FORMAT, _MAX_ATOMS,
    ]),
    "check": ("test one set for membership in a class", "cmd_check", ("aic", "rev"), [
        _HELP, _FILE, _EITHER_CLASS,
        (("--set",), "set", True, None, None, None,
         "candidate set, e.g. '+a,-b' or 'in(a),out(b)'", None),
        _FORMAT, _MAX_ATOMS,
    ]),
    "translate": ("translate between aic and rev", "cmd_translate", ("aic", "rev"), [
        _HELP, _FILE,
        (("--to",), "to", True, ("aic", "rev"), None, None, None, None),
    ]),
    "normalize": ("split disjunctive heads", "cmd_normalize", ("aic", "rev"), [
        _HELP, _FILE,
    ]),
    "properize": ("drop head literals dual to a body literal", "cmd_properize",
                  ("rev",), [_HELP, _FILE]),
    "shift": ("dualize the atoms of a shifting set", "cmd_shift", ("aic", "rev"), [
        _HELP, _FILE,
        (("--by",), "by", True, None, None, None, "comma-separated atoms", None),
        (("--verify",), "verify", False, None, False, None,
         "re-enumerate all classes on both sides and compare", None),
        _MAX_ATOMS,
    ]),
    "answer-sets": ("answer sets of an lp instance", "cmd_answer_sets", ("lp",), [
        _HELP, _FILE, _FORMAT, _MAX_ATOMS,
    ]),
    "cqa": ("consistent query answering", "cmd_cqa", ("aic", "rev"), [
        _HELP, _FILE, _EITHER_CLASS,
        (("--query",), "query", True, None, None, None,
         "comma-separated literals, e.g. 'a,not b'", None),
        _FORMAT, _MAX_ATOMS,
    ]),
    "lattice": ("enumerate every class and check their containments", "cmd_lattice",
                ("aic", "rev"), [
        _HELP, _FILE,
        (("--verify",), "verify", False, None, False, None,
         "check the containment relations between the classes", None),
        _FORMAT, _MAX_ATOMS,
    ]),
}


def test_the_parser_declares_what_it_always_did():
    """Every subcommand keeps its help, handler, kinds and options, in order.
    The help check above compares two runs of the same code, so it cannot
    see a help string or a choice that both lose."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert tuple(sub.choices) == SUBCOMMANDS == tuple(PARSER_PIN)
    for name, subparser in sub.choices.items():
        actions = [
            (
                tuple(a.option_strings),
                a.dest,
                a.required,
                None if a.choices is None else tuple(a.choices),
                a.default,
                a.metavar,
                a.help,
                None if a.type is None else a.type.__name__,
            )
            for a in subparser._actions
        ]
        func, kinds = subparser.get_default("func"), subparser.get_default("kinds")
        assert (helps[name], func.__name__, kinds, actions) == PARSER_PIN[name], name
