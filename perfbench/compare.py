"""Compare the end-to-end results of a parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files come from ``series.py`` run with the same benchmark code,
seeds and run length (ideally in one call with two ``--root``s, so the
runs alternate). One row per workload and end-to-end metric:

- ``improved``: there are at least ten pairs (runs with the same seed), the
  change reads better in at least nine tenths of them (ties count for
  neither side), and the medians differ by more than the distance between
  the parent's quartiles;
- ``unresolved``: the parent's quartile distance, as a share of its median,
  is wider than the metric's bound, and not every change run reads better
  than every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise.

A gain does not count when the change failed more requests than the
parent; that is printed under the table. Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import sys

from series import load_spec, quartiles, read


def verdict(parent: dict, change: dict, lower: bool, bound: float) -> tuple[str, int, int]:
    seeds = sorted(set(parent) & set(change))
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(change[s], parent[s]) for s in seeds)
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1:
        return "improved", wins, len(seeds)
    all_better = all(better(c, p) for c in change.values() for p in parent.values())
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if worse > bound:
        return "regressed", wins, len(seeds)
    return "within bound", wins, len(seeds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = load_spec()
    runs = {}
    for side, path in (("parent", args.parent), ("change", args.change)):
        for row in read(path):
            if row["trace"] == 0:
                runs.setdefault((side, row["workload"]), []).append(row)

    print(f"{'workload':<15} {'metric':<16} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'worse by':>9} {'wins':>6}  verdict")
    regressed = False
    notes = []
    for w in spec["workloads"]:
        parent, change = runs.get(("parent", w["name"])), runs.get(("change", w["name"]))
        if not parent or not change:
            continue
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = {r["seed"]: r["result"]["metrics"][name]["value"] for r in parent}
            c = {r["seed"]: r["result"]["metrics"][name]["value"] for r in change}
            text, wins, pairs = verdict(p, c, lower, m["bound"])
            regressed |= text == "regressed"
            p1, pm, p3 = quartiles(list(p.values()))
            c1, cm, c3 = quartiles(list(c.values()))
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            print(f"{w['name']:<15} {name:<16} {pm:12.5g} [{p1:.4g}, {p3:.4g}]".ljust(64)
                  + f"{cm:12.5g} [{c1:.4g}, {c3:.4g}]".ljust(31)
                  + f"{worse:+9.1%} {wins:>2}/{pairs:<3}  {text}")
        failed = [sum(r["result"]["failed"] for r in rows) for rows in (parent, change)]
        if failed[1] > failed[0]:
            notes.append(f"{w['name']}: the change failed {failed[1]} requests, the "
                         f"parent {failed[0]}; no gain on it counts")
    for note in notes:
        print(note)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
