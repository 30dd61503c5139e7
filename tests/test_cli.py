"""Command line behaviour: golden replays, exit codes, and output shapes.

Each ``tests/golden/*.cmd`` file holds one command line (paths relative to
the golden directory) and the matching ``.out`` file holds its exact
stdout.
"""

import json
import shlex
from pathlib import Path

import pytest

from aicrepair import cli, repairs
from aicrepair.repairs import RepairClass
from aicrepair.revisions import RevisionClass

GOLDEN = Path(__file__).parent / "golden"
REPLAYS = sorted(GOLDEN.glob("*.cmd"))


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    path.write_text("db: .\naic:\n" + EIGHTEEN)
    polynomial = ("weak-repair", "founded-weak-repair")
    for cls in (c.value for c in RepairClass):
        check = ["check", str(path), "--class", cls]
        for bound in (["--max-atoms", "2"], []):
            code, out, err = run(check + [EIGHTEEN_SET] + bound, capsys)
            if cls in polynomial:
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
        (["shift", "pair_delete.aic", "--by", "a", "--verify"], 4),
        (["shift", "mutual_pair_chain.rev", "--by", "a", "--verify"], 4),
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
