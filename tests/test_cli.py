"""Command line behaviour: golden replays, exit codes, and output shapes.

Each ``tests/golden/*.cmd`` file holds one command line (paths relative to
the golden directory) and the matching ``.out`` file holds its exact
stdout.
"""

import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import aicrepair
from aicrepair import cli, model, repairs, transforms
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass

GOLDEN = Path(__file__).parent / "golden"
REPLAYS = sorted(GOLDEN.glob("*.cmd"))


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, **env):
    """Run the command line in a new interpreter, on this checkout's code."""
    src = str(Path(aicrepair.__file__).parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "aicrepair.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("cmd_file", REPLAYS, ids=lambda p: p.stem)
def test_golden_replay(cmd_file, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    argv = shlex.split(cmd_file.read_text().strip())
    expected = cmd_file.with_suffix(".out").read_text()
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == expected


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(
        ["repair", str(GOLDEN / "no_such.aic"), "--class", "repair"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_kind_mismatch_is_an_input_error(capsys):
    aic, rev = str(GOLDEN / "pair_delete.aic"), str(GOLDEN / "choice_pair.rev")
    for argv, message in (
        (["repair", rev, "--class", "repair"], "needs a aic: program, found rev:"),
        (["revise", aic, "--class", "revision"], "needs a rev: program, found aic:"),
        (["answer-sets", aic], "needs a lp: program, found aic:"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert message in err, argv


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
    lp = str(GOLDEN / "split_choice.lp")
    for argv in (
        ["check", lp, "--class", "weak-repair", "--set=+a"],
        ["translate", lp, "--to", "rev"],
        ["normalize", lp],
        ["cqa", lp, "--class", "repair", "--query", "a"],
        ["lattice", lp],
        ["shift", lp, "--by", "a"],
        ["repair", lp, "--class", "repair"],
        ["revise", lp, "--class", "revision"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert "error:" in err, argv
        assert "program, found lp:" in err, argv


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
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", "many")
    code, _, err = run(
        ["repair", str(GOLDEN / "pair_delete.aic"), "--class", "repair"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_negative_atom_bound_flag_is_malformed(capsys):
    argv = ["repair", str(GOLDEN / "pair_delete.aic"), "--class", "repair"]
    code, _, err = run(argv + ["--max-atoms", "-1"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "--max-atoms" in err
    code, _, err = run(argv + ["--max-atoms", "0"], capsys)
    assert code == 1
    assert err.startswith("refused:")


def test_negative_atom_bound_env_is_malformed(capsys, monkeypatch):
    monkeypatch.setenv("AICREPAIR_MAX_ATOMS", "-1")
    code, _, err = run(
        ["repair", str(GOLDEN / "pair_delete.aic"), "--class", "repair"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    assert "AICREPAIR_MAX_ATOMS" in err


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
    code, out, _ = run(cqa + ["q", str(GOLDEN / "pair_delete.aic")], capsys)
    assert (code, out) == (0, "false\n")


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
    code, _, err = run(
        ["shift", str(GOLDEN / "pair_delete.aic"), "--by", "a", "--verify"], capsys
    )
    assert code == 0
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


@pytest.mark.parametrize("fault", [_wrong_db, _rule_dropped])
@pytest.mark.parametrize(
    "name, first",
    [("pair_delete.aic", "weak-repair"), ("mutual_pair_chain.rev", "weak-revision")],
)
def test_shift_verify_refuses_a_wrong_witness(name, first, fault, capsys, monkeypatch):
    shift_instance = transforms.shift_instance
    monkeypatch.setattr(
        transforms, "shift_instance", lambda *a, **k: fault(shift_instance(*a, **k))
    )
    code, _, err = run(["shift", str(GOLDEN / name), "--by", "a", "--verify"], capsys)
    assert code == 1
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


def test_lattice_verify_text_summary(capsys):
    code, out, _ = run(
        ["lattice", str(GOLDEN / "mutual_pair_chain.rev"), "--verify"], capsys
    )
    assert code == 0
    assert out.rstrip().endswith("lattice: ok (15 relations)")


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
    calls = []
    scan = repairs._scan

    def counting_scan(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(repairs, "_scan", counting_scan)
    monkeypatch.chdir(GOLDEN)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert len(calls) == scans


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
    monkeypatch.setenv("COLUMNS", "80")
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
        proc = run_fresh(argv, COLUMNS="80")
        fresh = (proc.returncode, proc.stdout, proc.stderr)
        assert (code, captured.out, captured.err) == fresh, argv
