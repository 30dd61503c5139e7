"""Run workloads over a range of seeds and report each metric's spread.

    python3 perfbench/series.py --workload repair-wide --seeds 1-10 --out wide.jsonl
    python3 perfbench/series.py --workload all --seeds 1-10 \\
        --root ../parent --out parent.jsonl --root . --out change.jsonl

Each run is its own process (``perfbench/run.py`` of the given checkout,
started from that checkout's root), so peak memory belongs to one
workload. With two checkouts the runs alternate, and which side goes first
flips from seed to seed. Every result line is appended to the matching
``--out`` file; the table gives, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, flagged when it exceeds a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def table(rows: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["workload"], row["trace"]), []).append(row)
    for (workload, trace), runs in sorted(groups.items()):
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        lines.append(f"{workload} (trace {trace}): {len(runs)} runs, "
                     f"failed_ratio {failed / attempted:.4f}, correct {correct}")
        names = list(runs[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above a third of the bound"
            unit = runs[0]["result"]["metrics"][name]["unit"]
            lines.append(f"  {name:<46} median {med:12.6g} {unit:<5} "
                         f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.1%}"
                         + (f" (bound {bound:.0%})" if bound is not None else "") + flag)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name, repeatable, or 'all'")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", help="checkout root (repeatable)")
    parser.add_argument("--out", action="append", required=True, help="one per --root")
    args = parser.parse_args()

    spec = load_spec()
    roots = args.root or [ROOT]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    names = [w["name"] for w in spec["workloads"]] if args.workload == ["all"] else args.workload
    seconds = args.seconds or spec["run_seconds"]
    pairs = list(zip(roots, args.out))
    for i, seed in enumerate(seeds(args.seeds)):
        for workload in names:
            for root, out in pairs if i % 2 == 0 else pairs[::-1]:
                cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    return done.returncode
                result = json.loads(done.stdout.splitlines()[-1])
                row = {"root": os.path.abspath(root), "workload": workload, "seed": seed,
                       "trace": args.trace, "result": result}
                with open(out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{os.path.basename(os.path.abspath(root))} {workload} seed {seed}: "
                      + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                                  if k in {e["name"] for e in spec["end_to_end"]}),
                      flush=True)
    for out in args.out:
        print(f"== {out}")
        print("\n".join(table(read(out), spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
