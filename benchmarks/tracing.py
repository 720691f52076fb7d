"""Per-layer trace of one workload, measured inside the benchmark process.

A traced round runs the stages of ``transform`` and ``verify`` through the
library, as the CLI does, with a span around each stage: ``profile_stream``
(which streams its own parse), then ``parse``, ``index``, ``apply``,
``serialize`` and ``check_output``. Parsing is materialised before indexing
so the two get separate spans. Inside ``apply``, the functions each module
exposes are wrapped by rebinding the module globals their callers look up
(for example ``pipeline.kl_rel_binning`` and ``binning.lof_scores``) for the
duration of the round; nothing under ``src/`` changes. Spans carry the
thread id, because ``apply`` runs groups on a thread pool, so per-function
times are summed over threads and can exceed ``apply``.

Functions called once per value are never wrapped. ``assign_bins`` runs in
one comprehension between ``compute_bins`` returning a layout and
``emit_bin_triples`` receiving it, so that gap is its span, and the length
of the assignments list is its count.

Untraced rounds run the same stages with no wrappers installed; the
difference of the median walls is ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

STAGES = ("parse", "index", "apply", "serialize", "check_output")

# Strategy entry points, called once per literal group from pipeline.
STRATEGIES = (
    "subpop.kl_rel_binning",
    "binning.nbins",
    "temporal.datbin",
    "temporal.datfeat",
    "textlda.txtlda",
    "images.emit_image_triples",
    "baselines.transform_literal2entity",
    "baselines.one_entity",
    "baselines.exclude",
)

# (module whose global is rebound, global name, span name)
PATCHES = (
    ("pipeline", "kl_rel_binning", "subpop.kl_rel_binning"),
    ("pipeline", "nbins", "binning.nbins"),
    ("pipeline", "datbin", "temporal.datbin"),
    ("pipeline", "datfeat", "temporal.datfeat"),
    ("pipeline", "txtlda", "textlda.txtlda"),
    ("pipeline", "emit_image_triples", "images.emit_image_triples"),
    ("pipeline", "verify_bounds", "pipeline.verify_bounds"),
    ("baselines", "transform_literal2entity", "baselines.transform_literal2entity"),
    ("baselines", "one_entity", "baselines.one_entity"),
    ("baselines", "exclude", "baselines.exclude"),
    # split_population's body; kl_rel_binning calls it directly.
    ("subpop", "_split_subjects", "subpop.split_population"),
    ("binning", "lof_scores", "binning.lof_scores"),
    ("binning", "compute_bins", "binning.compute_bins"),
    ("binning", "emit_bin_triples", "binning.emit_bin_triples"),
    ("textlda", "build_corpus", "textlda.build_corpus"),
    ("textlda", "train_lda", "textlda.train_lda"),
    ("textlda", "emit_topic_triples", "textlda.emit_topic_triples"),
    ("images", "resolve_image_refs", "images.resolve_image_refs"),
)

# (name, unit, better); "better" is nominal for counts fixed by the input.
PER_LAYER = (
    ("ntriples.parse_s", "s", "lower"),
    ("ntriples.lines", "count", "lower"),
    ("ntriples.parse_lines_per_s", "lines/s", "higher"),
    ("ntriples.diagnostics", "count", "lower"),
    ("ntriples.serialize_s", "s", "lower"),
    ("ntriples.output_bytes", "bytes", "lower"),
    ("graph.build_index_s", "s", "lower"),
    ("graph.entities", "count", "lower"),
    ("graph.literal_groups", "count", "lower"),
    ("graph.profile_stream_s", "s", "lower"),
    ("pipeline.apply_s", "s", "lower"),
    ("pipeline.apply_self_s", "s", "lower"),
    ("pipeline.verify_bounds_s", "s", "lower"),
    ("pipeline.check_output_s", "s", "lower"),
    ("pipeline.groups", "count", "lower"),
    ("pipeline.fallback_ratio", "ratio", "lower"),
    ("subpop.kl_rel_binning_s", "s", "lower"),
    ("subpop.split_population_s", "s", "lower"),
    ("subpop.leaves", "count", "lower"),
    ("binning.lof_scores_s", "s", "lower"),
    ("binning.lof_points", "count", "lower"),
    ("binning.assign_bins_s", "s", "lower"),
    ("binning.assign_values", "count", "lower"),
    ("binning.compute_bins_s", "s", "lower"),
    ("binning.emit_bin_triples_s", "s", "lower"),
    ("temporal.datbin_s", "s", "lower"),
    ("temporal.datfeat_s", "s", "lower"),
    ("textlda.txtlda_s", "s", "lower"),
    ("textlda.train_lda_s", "s", "lower"),
    ("textlda.token_sweeps", "count", "lower"),
    ("textlda.build_corpus_s", "s", "lower"),
    ("textlda.emit_topic_triples_s", "s", "lower"),
    ("images.emit_image_triples_s", "s", "lower"),
    ("images.lookups", "count", "lower"),
    ("images.miss_ratio", "ratio", "lower"),
    ("baselines.transform_literal2entity_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# Which strategy spans should carry most of apply, per workload.
DOMINANT = {
    "numeric-subpop": ("subpop.kl_rel_binning", "temporal.datbin", "temporal.datfeat"),
    "text-topics": ("textlda.train_lda",),
}


class Tracer:
    """Spans (name, thread id, start, end) and counter events of one round."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: list[tuple[str, float]] = []
        self._layouts: dict[int, tuple[object, float]] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, threading.get_ident(), start, time.perf_counter()))

    def count(self, name: str, value: float) -> None:
        # list.append is atomic, so pool threads need no lock.
        self.counts.append((name, value))

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append((name, threading.get_ident(), start, end))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result, start)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        saved = []
        try:
            for module, attr, name in PATCHES:
                original = getattr(modules[module], attr)
                saved.append((modules[module], attr, original))
                setattr(modules[module], attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def counted(self, name: str) -> float:
        return sum(value for n, value in self.counts if n == name)

    def covered(self, names, within: tuple[float, float]) -> float:
        """Length of the union of the named spans, clipped to *within*."""
        lo, hi = within
        intervals = sorted(
            (max(s, lo), min(e, hi)) for n, _, s, e in self.spans if n in names and e > lo and s < hi
        )
        covered = 0.0
        cur_start = cur_end = None
        for s, e in intervals:
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered

    def interval(self, name: str) -> tuple[float, float]:
        for n, _, start, end in self.spans:
            if n == name:
                return start, end
        return 0.0, 0.0


def _layout_ready(tracer: Tracer, arguments: dict, result, start: float) -> None:
    # Holding the layout keeps its id from being reused before it is emitted.
    tracer._layouts[id(result)] = (result, time.perf_counter())


def _bins_emitted(tracer: Tracer, arguments: dict, result, start: float) -> None:
    tracer.count("binning.assign_values", len(arguments["assignments"]))
    ready = tracer._layouts.pop(id(arguments["layout"]), None)
    if ready is not None:
        tracer.spans.append(("binning.assign_bins", threading.get_ident(), ready[1], start))


HOOKS = {
    "subpop.kl_rel_binning": lambda t, a, r, s: t.count("subpop.leaves", len(r[1].leaves)),
    "binning.lof_scores": lambda t, a, r, s: t.count("binning.lof_points", len(a["values"])),
    "binning.compute_bins": _layout_ready,
    "binning.emit_bin_triples": _bins_emitted,
    "textlda.train_lda": lambda t, a, r, s: t.count(
        "textlda.token_sweeps",
        sum(len(doc) for doc in a["corpus"].documents) * a["iterations"],
    ),
    "images.resolve_image_refs": lambda t, a, r, s: t.count("images.lookups", len(r)),
    "images.emit_image_triples": lambda t, a, r, s: t.count("images.misses", r.fallback_statements),
}


def library(src: Path) -> dict:
    """The patched literal_forge modules, imported from *src*, by short name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return {
        name: importlib.import_module(f"literal_forge.{name}")
        for name in {module for module, _, _ in PATCHES} | {"graph", "ntriples"}
    }


def pipeline_round(lf: dict, inputs, output: Path, tracer: Tracer | None):
    """profile_stream, then transform's stages and check_output, in-process."""
    graph, ntriples, pipeline = lf["graph"], lf["ntriples"], lf["pipeline"]
    stage = tracer.stage if tracer is not None else (lambda name: nullcontext())
    config = (
        pipeline.StrategyConfig.from_file(str(inputs.config))
        if inputs.config
        else pipeline.StrategyConfig()
    )
    with stage("profile_stream"), open(inputs.graph, "rb") as fh:
        graph.profile_stream(ntriples.iter_ntriples(fh), config.rules)

    diagnostics: list = []
    start = time.perf_counter()
    with stage("parse"), open(inputs.graph, "rb") as fh:
        triples = list(ntriples.iter_ntriples(fh, on_diagnostic=diagnostics.append))
    with stage("index"):
        indexed = graph.build_index(triples, config.rules)
    del triples
    with stage("apply"):
        result = pipeline.apply(indexed, config)
    with stage("serialize"):
        with open(output, "wb") as fh:
            ntriples.write_ntriples(result.triples, fh)
        with open(f"{output}.report.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.report.to_json())
            fh.write("\n")
    with stage("check_output"):
        problems = pipeline.check_output(result.triples, result.report)
    wall = time.perf_counter() - start
    shape = {
        "ntriples.diagnostics": len(diagnostics),
        "graph.entities": len(indexed.entity_terms),
        "graph.literal_groups": len(indexed.literal_groups),
        "pipeline.groups": len(result.report.rows),
        "statements": sum(row.statements for row in result.report.rows),
        "fallbacks": sum(row.fallback_statements for row in result.report.rows),
    }
    return wall, problems, shape


def layer_metrics(tracer: Tracer, wall: float, lines: int, out_bytes: int, shape: dict) -> dict:
    t = tracer.total
    apply_span = tracer.interval("apply")
    apply_s = apply_span[1] - apply_span[0]
    lookups = tracer.counted("images.lookups")
    parse_s = t("parse")
    return {
        "ntriples.parse_s": parse_s,
        "ntriples.lines": lines,
        "ntriples.parse_lines_per_s": lines / parse_s,
        "ntriples.diagnostics": shape["ntriples.diagnostics"],
        "ntriples.serialize_s": t("serialize"),
        "ntriples.output_bytes": out_bytes,
        "graph.build_index_s": t("index"),
        "graph.entities": shape["graph.entities"],
        "graph.literal_groups": shape["graph.literal_groups"],
        "graph.profile_stream_s": t("profile_stream"),
        "pipeline.apply_s": apply_s,
        "pipeline.apply_self_s": apply_s - tracer.covered(STRATEGIES, apply_span),
        "pipeline.verify_bounds_s": t("pipeline.verify_bounds"),
        "pipeline.check_output_s": t("check_output"),
        "pipeline.groups": shape["pipeline.groups"],
        "pipeline.fallback_ratio": shape["fallbacks"] / max(shape["statements"], 1),
        "subpop.kl_rel_binning_s": t("subpop.kl_rel_binning"),
        "subpop.split_population_s": t("subpop.split_population"),
        "subpop.leaves": tracer.counted("subpop.leaves"),
        "binning.lof_scores_s": t("binning.lof_scores"),
        "binning.lof_points": tracer.counted("binning.lof_points"),
        "binning.assign_bins_s": t("binning.assign_bins"),
        "binning.assign_values": tracer.counted("binning.assign_values"),
        "binning.compute_bins_s": t("binning.compute_bins"),
        "binning.emit_bin_triples_s": t("binning.emit_bin_triples"),
        "temporal.datbin_s": t("temporal.datbin"),
        "temporal.datfeat_s": t("temporal.datfeat"),
        "textlda.txtlda_s": t("textlda.txtlda"),
        "textlda.train_lda_s": t("textlda.train_lda"),
        "textlda.token_sweeps": tracer.counted("textlda.token_sweeps"),
        "textlda.build_corpus_s": t("textlda.build_corpus"),
        "textlda.emit_topic_triples_s": t("textlda.emit_topic_triples"),
        "images.emit_image_triples_s": t("images.emit_image_triples"),
        "images.lookups": lookups,
        "images.miss_ratio": tracer.counted("images.misses") / lookups if lookups else 0.0,
        "baselines.transform_literal2entity_s": t("baselines.transform_literal2entity"),
        "trace.coverage": sum(t(name) for name in STAGES) / wall,
    }


def shares(tracer: Tracer, workload: str) -> dict[str, float]:
    """Shares of apply held by all strategies and by the workload's dominant layer."""
    apply_span = tracer.interval("apply")
    apply_s = apply_span[1] - apply_span[0]
    out = {"strategies": tracer.covered(STRATEGIES, apply_span) / apply_s}
    if workload in DOMINANT:
        out["dominant"] = tracer.covered(DOMINANT[workload], apply_span) / apply_s
    return out


def expectations(workload: str, metrics: dict, round_shares: list[dict]):
    """(what, measured value, holds) for the intended shape of the workload."""
    coverage = metrics["trace.coverage"]
    yield "stage spans cover the traced wall within 5%", coverage, abs(1 - coverage) <= 0.05
    if not round_shares:
        return
    if workload == "relational-bulk":
        share = statistics.median(s["strategies"] for s in round_shares)
        yield "strategy spans < 5% of pipeline.apply_s", share, share < 0.05
    if workload in DOMINANT:
        share = statistics.median(s["dominant"] for s in round_shares)
        yield f"{'+'.join(DOMINANT[workload])} hold most of pipeline.apply_s", share, share > 0.5
