"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload repair-wide --seed 1 --seconds 20 --trace 0

Closed loop, one client, one process: each request is one in-process call
to ``aicrepair.cli.main(argv)`` with stdout and stderr captured, made only
after the previous one returned. Every response is checked against its
reference. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same request list once untraced and once traced and prints the
per-layer metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, ".perfbench")

# Requests per second of request time at the commit that defined the
# benchmark. A run of `seconds` makes about seconds * RATE requests: for
# the pool workloads, the nearest whole number of passes over the pool (at
# least one). A fixed count gives every run of a workload the same work and
# the same tail percentile, whatever the machine's speed at the time.
RATE = {"repair-dense": 10.3, "repair-wide": 1.72, "lattice-verify": 4.83, "oracle-small": 264.0}
SETUP_SAMPLES = 15
# The host's speed swings by up to 1.6x for 3-30 s at a time (shared
# CPUs), in CPU time as much as in wall time. A fixed piece of set work
# like the engine's, timed every PROBE_EVERY seconds between requests,
# follows those swings (request time over probe time stays within about
# 10% over 3 s windows, where raw request time moves by 50%), so every
# reported time is scaled to the speed at which the probe takes
# PROBE_REF_S: time * PROBE_REF_S / probe time, with the probe time averaged
# over the probes before and after. PROBE_REF_S is the probe's time in a
# quiet moment on a 2-vCPU VM with Python 3.11; as a constant it cancels
# when two commits are compared.
PROBE_ATOMS = tuple(f"a{i}" for i in range(11))
PROBE_RULES = tuple(  # (atoms that must hold, atom that must not)
    (frozenset({a, PROBE_ATOMS[(i + 3) % 11]}), frozenset({PROBE_ATOMS[(i + 5) % 11]}))
    for i, a in enumerate(PROBE_ATOMS)
)
PROBE_REF_S = 0.0060
PROBE_EVERY = 0.25
# Every run pins string hashing: the engine's checks stop early over sets,
# so how much work a request does follows set iteration order, which
# follows the hash seed. With it pinned, a seed fixes the work of a run and
# the traced counts repeat exactly.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_hash_seed(script: str, argv: list[str]) -> None:
    """Re-execute ``script`` with ``argv`` and string hashing pinned,
    unless it is pinned already."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(script), *argv], env)


def probe() -> float:
    """Wall time of the speed probe, the faster of two: every subset of
    ``PROBE_ATOMS`` that no rule of ``PROBE_RULES`` rejects, sorted."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        kept = {}
        for mask in range(1 << len(PROBE_ATOMS)):
            s = frozenset(a for j, a in enumerate(PROBE_ATOMS) if mask >> j & 1)
            if not any(pos <= s and not neg & s for pos, neg in PROBE_RULES):
                kept[s] = len(s)
        sorted(kept, key=lambda s: (kept[s], sorted(s)))
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S * 2 / (before + after)


def setup_seconds() -> float:
    """Median wall time, scaled by the probes around it, of a fresh
    interpreter importing ``aicrepair.cli`` (after one untimed start that
    writes the bytecode caches)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import aicrepair.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = probe()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        if i:
            samples.append(scaled(time.perf_counter() - start, before, probe()))
    return statistics.median(samples)


class Runner:
    """Issues requests and checks their responses. Only the call to
    ``main`` is timed: not the speed probes, writing instance files,
    computing oracle answers or checking outputs."""

    def __init__(self, workload: str, work: str):
        import reference

        self.reference = reference
        self.workload = workload
        self.work = work
        self.refs = None if workload == "oracle-small" else reference.load(workload)
        self.expected: dict[str, str] = {}
        self.paths: dict[str, str] = {}
        self.probes: list[float] = []
        self.probed_at = -math.inf
        self.timed: list[tuple[float, int]] = []  # (seconds, last probe index)
        self.failures: list[str] = []

    def check_pool(self, requests) -> None:
        """Refuse to run when the generator no longer makes the instances
        the references were recorded for."""
        for req in requests:
            want = self.refs["instances"].get(req.instance.name)
            if want != self.reference.digest(req.instance.text):
                raise SystemExit(
                    f"perfbench: instance {req.instance.name} differs from the "
                    "recorded one; run perfbench/record.py"
                )
            if req.key not in self.refs["requests"]:
                raise SystemExit(f"perfbench: no reference for {req.key}")

    def path(self, req) -> str:
        inst = req.instance
        if inst.name not in self.paths:
            path = os.path.join(self.work, f"{inst.name}.{inst.kind}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(inst.text)
            self.paths[inst.name] = path
        return self.paths[inst.name]

    def ok(self, req, code, stdout: str, stderr: str) -> bool:
        if self.refs is not None:
            return self.reference.matches(self.refs["requests"][req.key], code, stdout, stderr)
        if req.key not in self.expected:
            self.expected[req.key] = self.reference.oracle_stdout(req)
        return code == 0 and stdout == self.expected[req.key]

    def request(self, main, req) -> None:
        """One request; its wall time goes to ``timed``."""
        if time.perf_counter() - self.probed_at >= PROBE_EVERY:
            self.probes.append(probe())
            self.probed_at = time.perf_counter()
        argv = req.resolve(self.path(req))
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising request is a failed request
            code = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.timed.append((end - begin, len(self.probes) - 1))
        if not self.ok(req, code, out.getvalue(), err.getvalue()):
            self.failures.append(f"{req.key}: exit {code}")

    def latencies(self, first: int) -> tuple[list[float], list[float]]:
        """Raw and scaled wall times of the requests from index ``first``
        on; each is scaled by the probes before and after it."""
        self.probes.append(probe())
        self.probed_at = time.perf_counter()
        p, timed = self.probes, self.timed[first:]
        return [t for t, _ in timed], [scaled(t, p[k], p[k + 1]) for t, k in timed]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest whole percentile (to one decimal above 99) with at least
    ten of ``n`` requests beyond it; p50 when there are too few requests."""
    for q in [x / 10 for x in range(999, 990, -1)] + list(range(99, 50, -1)):
        if n - max(1, math.ceil(q / 100 * n)) >= 10:
            return q
    return 50


def request_count(workload: str, seconds: float, pool: int) -> int:
    count = seconds * RATE[workload]
    if not pool:
        return max(1, round(count))
    return pool * max(1, round(count / pool))


def run_untraced(runner: Runner, stream, count: int) -> tuple[dict, int]:
    from aicrepair import cli

    gc.collect()
    first = len(runner.timed)
    for _ in range(count):
        runner.request(cli.main, next(stream))
    raw, latencies = runner.latencies(first)
    raw.sort()
    latencies.sort()
    n, wall = len(latencies), sum(latencies)
    tail = tail_percentile(n)
    beyond = n - max(1, math.ceil(tail / 100 * n))
    print(f"{n} requests in {sum(raw):.2f} s of request time, {wall:.2f} s scaled "
          f"to the reference speed; tail is p{tail:g}, {beyond} requests beyond it")
    print(f"unscaled: p50 {statistics.median(raw) * 1e3:.4g} ms, "
          f"p{tail:g} {percentile(raw, tail) * 1e3:.4g} ms, {n / sum(raw):.4g} requests/s")
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
        "requests_per_s": n / wall,
        "setup_s": setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, n


def run_traced(runner: Runner, stream, count: int, seed: int) -> tuple[dict, int]:
    import tracing
    from aicrepair import cli

    # Each pass makes half a run's requests, so that a traced run takes
    # about as long as an untraced one.
    count = max(1, count // 2)
    requests = [next(stream) for _ in range(count)]

    def one_pass(tracer=None) -> float:
        restore = tracer.install() if tracer else None
        main = tracer.timed("cli.main", cli.main) if tracer else cli.main
        gc.collect()
        first = len(runner.timed)
        try:
            for i, req in enumerate(requests):
                if tracer:
                    tracer.request = i
                runner.request(main, req)
            return sum(runner.latencies(first)[1])
        finally:
            if restore:
                restore()

    plain = one_pass()
    first = tracing.Tracer()
    traced = one_pass(first)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{runner.workload}-{seed}.tsv")
    first.write_spans(spans)

    metrics = tracing.per_layer(first, traced / plain)
    modules = tracing.module_self_times(first)
    _, busy, own = first.layer_times()
    main_s = busy["cli.main"]
    print(f"{count} requests per pass; untraced {plain:.3f} s, traced {traced:.3f} s "
          "(scaled to the reference speed); "
          f"spans in {os.path.relpath(spans, ROOT)}")
    print(f"self time per module (sums to cli.main, {main_s:.3f} s):")
    for module, seconds_ in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<10} {seconds_:9.4f} s  {seconds_ / main_s:6.1%}")
    print(f"uncovered (cli.main self time): {own['cli.main'] / main_s:.1%}")
    out = {}
    for name, value in metrics.items():
        if name.endswith((".calls", ".candidates", ".hits")):
            out[name] = {"value": value, "unit": "count"}
        else:
            out[name] = {"value": float(value), "unit": "s" if name.endswith("_s") else "ratio"}
    return out, 2 * count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        "repair-dense", "repair-wide", "lattice-verify", "oracle-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_hash_seed(__file__, sys.argv[1:] if argv is None else argv)

    for need in (os.path.join(SRC, "aicrepair", "cli.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(need):
            print(f"perfbench: {os.path.relpath(need, ROOT)} is missing; run from "
                  "the root of a checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS, HERE]
    import workloads

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(args.workload, work)
        pool = []
        if runner.refs is not None:
            pool = workloads.pool_requests(args.workload)
            runner.check_pool(pool)
        count = request_count(args.workload, args.seconds, len(pool))
        stream = workloads.sequence(args.workload, args.seed)
        warm = workloads.sequence(args.workload, args.seed)
        from aicrepair import cli

        # Untimed, so that lazy imports and first-call work do not count; it
        # is the stream's first request, which is checked again when timed.
        runner.request(cli.main, next(warm))
        runner.failures.clear()
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics, attempted = run_traced(runner, stream, count, args.seed)
        else:
            metrics, attempted = run_untraced(runner, stream, count)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
