"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

- For every workload, runs ``run.py``'s main with ``--seconds 1`` (one
  pass on the pool workloads) with the reference of the first request in
  the stream tampered with (a recorded digest changed, or an oracle answer
  replaced) and requires the result to read ``correct: false`` with
  ``failed`` above 0. One untampered run of
  ``repair-dense`` must read ``correct: true`` with nothing failed.
- For every workload, makes two traced runs (``--trace 1``, two seconds)
  with the same seed, each in its own process, and requires every count
  they report to be identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def result(workload: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1"])
    if code != 0:
        raise SystemExit(f"selftest: run.py exited {code} on {workload}")
    return json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def tampered(workload: str):
    """Make the reference of the stream's first request wrong."""
    first = next(workloads.sequence(workload, SEED)).key
    load, oracle = reference.load, reference.oracle_stdout

    def bad_load(name):
        refs = load(name)
        refs["requests"][first]["sha256"] = "0" * 64
        return refs

    def bad_oracle(req):
        return "tampered\n" if req.key == first else oracle(req)

    reference.load, reference.oracle_stdout = bad_load, bad_oracle
    try:
        yield
    finally:
        reference.load, reference.oracle_stdout = load, oracle


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    run.pin_hash_seed(__file__, sys.argv[1:])
    problems = []
    clean = result("repair-dense")
    if not clean["correct"] or clean["failed"]:
        problems.append(f"repair-dense, untampered: {clean['failed']} failed")
    for workload in workloads.NAMES:
        with tampered(workload):
            got = result(workload)
        ratio = got["failed"] / got["attempted"]
        print(f"{workload}: tampered reference gives failed_ratio {ratio:.4f}, "
              f"correct {got['correct']}")
        if got["correct"] or ratio <= 0:
            problems.append(f"{workload}: tampered reference not detected")
        first, second = traced_counts(workload), traced_counts(workload)
        print(f"{workload}: two traced runs report {len(first)} counts, "
              f"identical {first == second}")
        if first != second:
            problems.append(f"{workload}: traced counts differ between runs")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
