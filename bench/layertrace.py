"""In-memory span tracing for the benchmark.

The package has no timing layer of its own, so the traced run replaces
hmogkit's public functions with timing wrappers at the module attributes
through which the experiment runners reach them, and puts the originals
back afterwards. Nothing under ``src/`` changes.

A span is (name, start, end, parent, workload, repetition) plus whether the
call returned and a small work count taken from its result. A span's self
time is its duration minus its children's; the self times of every span
under one runner call add up to that call's duration.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from hmogkit import experiments, pipeline, verify
from hmogkit.bkg import commitment, guessing

SETUP = "setup"
RUN = "experiments.run"

# (owner, attribute, span name, work count taken from the result)
TARGETS = (
    (experiments, "make_corpus", "corpus.make_corpus", None),
    (experiments, "downsample", "corpus.downsample", None),
    (experiments, "extract_hmog", "hmog.extract_hmog",
     lambda fm: (fm.meta["n_events"], fm.meta["n_skipped"])),
    (experiments, "tap_features", "touchkeys.tap_features", None),
    (experiments, "keystroke_features", "touchkeys.keystroke_features", None),
    (experiments, "latency_outlier_filter", "touchkeys.latency_outlier_filter", None),
    (experiments, "fit_feature_prep", "pipeline.fit_feature_prep", None),
    (experiments, "fisher_scores", "pipeline.fisher_scores", None),
    # fit_feature_prep reaches fisher_scores through its own module
    (pipeline, "fisher_scores", "pipeline.fisher_scores", None),
    (experiments, "build_template", "pipeline.build_template", None),
    (experiments, "scan_aggregate", "pipeline.scan_aggregate", lambda fm: fm.n_rows),
    (verify, "gen_scores", "verify.gen_scores",
     lambda s: len(s.genuine) + len(s.impostor)),
    (verify, "search_fusion_weights", "verify.search_fusion_weights", None),
    (verify, "fuse_scoresets", "verify.fuse_scoresets", None),
    (verify, "eer", "verify.eer", None),
    (verify.ScoreSet, "write_csv", "verify.write_csv", None),
    (verify, "write_det_csv", "verify.write_det_csv", None),
    (experiments, "commit", "bkg.commit", None),
    (experiments, "open_commitment", "bkg.open_commitment", None),
    (guessing, "open_commitment", "bkg.open_commitment", None),
    (commitment, "decode", "bkg.decode", None),
    (experiments, "guessing_distance", "bkg.guessing_distance", None),
)


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index into Tracer.spans, -1 for a root
    workload: str
    rep: int
    ok: bool            # False when the call raised
    work: object        # count taken from the result, or None


class Tracer:
    """Holds every span of one benchmark process in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        self.spans: list[Span | None] = []
        self._stack = [-1]
        self._patches = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.workload, self.rep,
                                  ok, work(result) if ok and work else None)
        return traced

    def install(self) -> None:
        for owner, attr, name, work in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span."""
        return self.wrap(name, fn)(*args)

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def span_overhead_s(n: int = 20000) -> float:
    """Cost of one traced call over a plain one, measured on a no-op."""
    def noop():
        return None
    probe = Tracer("calibration")
    traced = probe.wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    plain = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced()
    return max((clock() - t0 - plain) / n, 0.0)


def load_layers() -> dict:
    """The layer table: per layer, its spans and the workloads they run on."""
    text = (Path(__file__).parent / "layers.json").read_text(encoding="utf-8")
    return json.loads(text)["layers"]


def layer_metrics(tracer: Tracer, per_span_s: float) -> tuple[dict, list[str], list[str]]:
    """(metrics, expected spans that never fired, consistency problems).

    Timings and counts are per runner call (mean over the calls made);
    corpus.synth_s is per setup. A metric whose span is expected on this
    workload but never fired is left out and named as missing; a span not
    expected here reads 0.
    """
    spans = tracer.spans
    layers = load_layers()
    # a parent always precedes its children, so one pass finds every root
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent == -1 else root[s.parent])
    roots = [i for i, s in enumerate(spans) if s.parent == -1 and s.name == RUN]
    in_run = [i for i in range(len(spans)) if spans[root[i]].name == RUN]
    in_setup = [i for i in range(len(spans)) if spans[root[i]].name == SETUP]
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start

    def self_ns(i):
        return spans[i].end - spans[i].start - child_ns[i]

    by_name: dict[str, list[int]] = {}
    for i in in_run:
        by_name.setdefault(spans[i].name, []).append(i)
    calls = max(len(roots), 1)

    def total_s(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ())) / 1e9

    def per_call(value):
        return value / calls

    def count(name, ok=None):
        return sum(1 for i in by_name.get(name, ()) if ok is None or spans[i].ok == ok)

    def work_sum(name, k=None):
        return sum((spans[i].work if k is None else spans[i].work[k])
                   for i in by_name.get(name, ()) if spans[i].work is not None)

    synth = [spans[i].end - spans[i].start for i in in_setup
             if spans[i].name == "corpus.make_corpus"]
    opens_us = sorted((spans[i].end - spans[i].start) / 1e3
                      for i in by_name.get("bkg.open_commitment", ()))
    n_opens = len(opens_us)
    events = work_sum("hmog.extract_hmog", 0)
    run_ns = sum(spans[i].end - spans[i].start for i in roots)

    layer_self = {layer: 0 for layer in layers}
    for i in in_run:
        layer = spans[i].name.split(".")[0]
        layer_self[layer] += self_ns(i)
    n_spans = len(in_run) - len(roots)

    # metric -> (value, spans it needs)
    table = {
        "corpus.synth_s": (statistics.median(synth) / 1e9 if synth else 0.0,
                           ["corpus.make_corpus"]),
        "corpus.downsample_s": (per_call(total_s("corpus.downsample")), ["corpus.downsample"]),
        "hmog.extract_s": (per_call(total_s("hmog.extract_hmog")), ["hmog.extract_hmog"]),
        "hmog.calls": (per_call(count("hmog.extract_hmog")), ["hmog.extract_hmog"]),
        "hmog.events": (per_call(events), ["hmog.extract_hmog"]),
        "hmog.skipped": (per_call(work_sum("hmog.extract_hmog", 1)), ["hmog.extract_hmog"]),
        "hmog.us_per_event": (total_s("hmog.extract_hmog") * 1e6 / events if events else 0.0,
                              ["hmog.extract_hmog"]),
        "touchkeys.tap_s": (per_call(total_s("touchkeys.tap_features")),
                            ["touchkeys.tap_features"]),
        "touchkeys.keystroke_s": (per_call(total_s("touchkeys.keystroke_features")),
                                  ["touchkeys.keystroke_features"]),
        "touchkeys.keystroke_calls": (per_call(count("touchkeys.keystroke_features")),
                                      ["touchkeys.keystroke_features"]),
        "touchkeys.filter_s": (per_call(total_s("touchkeys.latency_outlier_filter")),
                               ["touchkeys.latency_outlier_filter"]),
        "pipeline.select_s": (per_call(total_s("pipeline.fit_feature_prep")),
                              ["pipeline.fit_feature_prep"]),
        "pipeline.fisher_s": (per_call(total_s("pipeline.fisher_scores")),
                              ["pipeline.fisher_scores"]),
        "pipeline.enroll_s": (per_call(total_s("pipeline.build_template")),
                              ["pipeline.build_template"]),
        "pipeline.templates": (per_call(count("pipeline.build_template", ok=True)),
                               ["pipeline.build_template"]),
        "pipeline.scan_agg_s": (per_call(total_s("pipeline.scan_aggregate")),
                                ["pipeline.scan_aggregate"]),
        "pipeline.scan_windows": (per_call(work_sum("pipeline.scan_aggregate")),
                                  ["pipeline.scan_aggregate"]),
        "verify.score_s": (per_call(total_s("verify.gen_scores")), ["verify.gen_scores"]),
        "verify.decisions": (per_call(work_sum("verify.gen_scores")), ["verify.gen_scores"]),
        "verify.fusion_s": (per_call(total_s("verify.search_fusion_weights")),
                            ["verify.search_fusion_weights"]),
        "verify.fusion_self_s": (
            per_call(sum(self_ns(i) for i in by_name.get("verify.search_fusion_weights", ()))
                     / 1e9), ["verify.search_fusion_weights"]),
        "verify.fuse_calls": (per_call(count("verify.fuse_scoresets")),
                              ["verify.fuse_scoresets"]),
        "verify.eer_s": (per_call(total_s("verify.eer")), ["verify.eer"]),
        "verify.eer_calls": (per_call(count("verify.eer")), ["verify.eer"]),
        "verify.write_s": (per_call(total_s("verify.write_csv") + total_s("verify.write_det_csv")),
                           ["verify.write_csv", "verify.write_det_csv"]),
        "bkg.commit_s": (per_call(total_s("bkg.commit")), ["bkg.commit"]),
        "bkg.open_s": (per_call(total_s("bkg.open_commitment")), ["bkg.open_commitment"]),
        "bkg.opens": (per_call(n_opens), ["bkg.open_commitment"]),
        "bkg.open_ok_ratio": (count("bkg.open_commitment", ok=True) / n_opens if n_opens else 0.0,
                              ["bkg.open_commitment"]),
        "bkg.open_p50_us": (_quantile(opens_us, 0.50), ["bkg.open_commitment"]),
        "bkg.open_p99_us": (_quantile(opens_us, 0.99), ["bkg.open_commitment"]),
        "bkg.decode_s": (per_call(total_s("bkg.decode")), ["bkg.decode"]),
        "bkg.decode_failures": (per_call(count("bkg.decode", ok=False)), ["bkg.decode"]),
        "bkg.guessing_s": (per_call(total_s("bkg.guessing_distance")),
                           ["bkg.guessing_distance"]),
        "trace.run_s": (per_call(run_ns / 1e9), []),
        "trace.overhead_s": (per_call(n_spans * per_span_s), []),
    }
    for layer, spec in layers.items():
        table[f"{layer}.self_s"] = (per_call(layer_self[layer] / 1e9), list(spec["spans"]))

    expected = {span for spec in layers.values()
                for span, runs_on in spec["spans"].items() if tracer.workload in runs_on}
    fired = {spans[i].name for i in in_run + in_setup}
    missing = sorted(expected - fired)
    metrics = {name: value for name, (value, needs) in table.items()
               if not any(n in missing for n in needs)}
    problems = []
    total_self = sum(layer_self.values())
    if total_self != run_ns:
        problems.append(f"layer self times sum to {total_self / 1e9:.9f} s, "
                        f"traced run_s is {run_ns / 1e9:.9f} s")
    if roots and len(in_run) + len(in_setup) != len(spans):
        problems.append("spans fired outside a runner call or setup")
    return metrics, missing, problems


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    k = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[k]
