"""Per-layer tracing installed from outside the package.

The package's modules import functions by name, so a wrapper has to
replace the name in the module that calls it (``repairs.entails``,
``cli.parse_instance``, ``query.enumerate_repairs``...), not only in the
module that defines it. ``install`` does that and returns a function that
puts the originals back; the untraced run never calls it.

Timed wrappers record a span (name, start, end, parent span, request id)
per call. Spans stay in memory until ``write_spans``. Functions called
millions of times per request (``model.entails``, ``repairs.is_closed``,
``revisions.is_closed_rev``) are counted, not timed; their time stays in
the self time of the span that called them.
"""

from __future__ import annotations

import collections
import time

from aicrepair import asp, cli, query, repairs, revisions, transforms

# (metric name, [(module, attribute), ...]); every listed attribute is
# replaced by one shared wrapper.
TIMED = [
    ("cli.build_parser", [(cli, "build_parser")]),
    ("syntax.parse_instance", [(cli, "parse_instance")]),
    ("syntax.format_set", [(cli, "format_set")]),
    ("repairs.enumerate_repairs", [(repairs, "enumerate_repairs"), (query, "enumerate_repairs")]),
    ("repairs.is_founded_set", [(repairs, "is_founded_set")]),
    ("repairs.check_justified_weak_repair", [(repairs, "check_justified_weak_repair")]),
    ("revisions.enumerate_revisions", [(revisions, "enumerate_revisions"), (query, "enumerate_revisions")]),
    ("revisions.is_founded_rev_set", [(revisions, "is_founded_rev_set")]),
    ("revisions.check_justified_weak_revision", [(revisions, "check_justified_weak_revision")]),
    ("revisions.check_supported_revision", [(revisions, "check_supported_revision")]),
    ("transforms.normalize_aic", [(transforms, "normalize_aic")]),
    ("transforms.normalize_rev", [(transforms, "normalize_rev")]),
    ("transforms.properize", [(transforms, "properize")]),
    ("transforms.to_aic", [(transforms, "to_aic")]),
    ("transforms.to_rev", [(transforms, "to_rev")]),
    ("transforms.shift_instance", [(transforms, "shift_instance")]),
    ("asp.answer_sets", [(asp, "answer_sets")]),
    ("asp.is_answer_set", [(asp, "is_answer_set")]),
    ("query.cqa", [(query, "cqa")]),
]
COUNTED = [
    ("model.entails", [(repairs, "entails"), (revisions, "entails")]),
    ("repairs.is_closed", [(repairs, "is_closed")]),
    ("revisions.is_closed_rev", [(revisions, "is_closed_rev")]),
]
# Enumerations whose reports give the exact candidate and hit counts.
REPORTS = {"repairs.enumerate_repairs": "repairs", "revisions.enumerate_revisions": "revisions"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, request)
        self.stack: list[int] = []
        self.request = -1
        self.calls: collections.Counter = collections.Counter()
        self.trues: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()

    def timed(self, name: str, fn):
        spans, stack = self.spans, self.stack
        prefix = REPORTS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.request))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if result is True:
                self.trues[name] += 1
            if prefix and (parent < 0 or spans[parent][0] != name):
                self.counts[prefix + ".candidates"] += result.examined
                self.counts[prefix + ".hits"] += len(result.sets)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every traced name; returns the function that undoes it."""
        saved = []
        for names, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for name, sites in names:
                module, attr = sites[0]
                wrapper = make(name, getattr(module, attr))
                for module, attr in sites:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    # -- results -----------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, busy time (outermost spans of that name)
        and self time (span minus the spans directly inside it)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: collections.Counter = collections.Counter()
        busy: collections.Counter = collections.Counter()
        own: collections.Counter = collections.Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            if parent < 0 or spans[parent][0] != name:
                busy[name] += end - start
        return calls, busy, own

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def per_layer(tracer: Tracer, overhead: float) -> dict[str, float]:
    """The per-layer metrics, named as in BENCHMARK.json."""
    calls, busy, own = tracer.layer_times()
    m: dict[str, float] = {}

    def ratio(name):
        return tracer.trues[name] / calls[name] if calls[name] else 0.0

    m["cli.build_parser.calls"] = calls["cli.build_parser"]
    m["cli.build_parser.busy_s"] = busy["cli.build_parser"]
    m["cli.main.self_s"] = own["cli.main"]
    for name in ("syntax.parse_instance", "syntax.format_set"):
        m[name + ".calls"] = calls[name]
        m[name + ".busy_s"] = busy[name]
    m["model.entails.calls"] = tracer.calls["model.entails"]
    for side, enum, founded, justified in (
        ("repairs", "enumerate_repairs", "is_founded_set", "check_justified_weak_repair"),
        ("revisions", "enumerate_revisions", "is_founded_rev_set", "check_justified_weak_revision"),
    ):
        m[f"{side}.{enum}.calls"] = calls[f"{side}.{enum}"]
        m[f"{side}.{enum}.busy_s"] = busy[f"{side}.{enum}"]
        m[f"{side}.{enum}.self_s"] = own[f"{side}.{enum}"]
        m[f"{side}.candidates"] = tracer.counts[f"{side}.candidates"]
        m[f"{side}.hits"] = tracer.counts[f"{side}.hits"]
        for check in (founded, justified):
            name = f"{side}.{check}"
            m[name + ".calls"] = calls[name]
            m[name + ".busy_s"] = busy[name]
            m[name + ".true_ratio"] = ratio(name)
    m["repairs.is_closed.calls"] = tracer.calls["repairs.is_closed"]
    m["revisions.check_supported_revision.calls"] = calls["revisions.check_supported_revision"]
    m["revisions.check_supported_revision.busy_s"] = busy["revisions.check_supported_revision"]
    m["revisions.is_closed_rev.calls"] = tracer.calls["revisions.is_closed_rev"]
    for fn in ("normalize_aic", "normalize_rev", "properize", "to_aic", "to_rev", "shift_instance"):
        m[f"transforms.{fn}.busy_s"] = busy[f"transforms.{fn}"]
    m["asp.answer_sets.calls"] = calls["asp.answer_sets"]
    m["asp.answer_sets.busy_s"] = busy["asp.answer_sets"]
    m["asp.is_answer_set.calls"] = calls["asp.is_answer_set"]
    m["asp.is_answer_set.true_ratio"] = ratio("asp.is_answer_set")
    m["query.cqa.calls"] = calls["query.cqa"]
    m["query.cqa.self_s"] = own["query.cqa"]
    m["trace.overhead_ratio"] = overhead
    return m


def module_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per module; together they add up to the time of
    the ``cli.main`` spans."""
    _, _, own = tracer.layer_times()
    out: collections.Counter = collections.Counter()
    for name, seconds in own.items():
        out[name.split(".")[0]] += seconds
    return dict(out)
