"""Numeric discretization into connected bin entities, with LOF pre-filtering.

Binning supports a fixed bin count or a percentage of unique values,
equal-width or equal-frequency boundaries, overlapping membership, and
hierarchical coarsenings. An optional 1-D local outlier factor pass discards
outliers before boundaries are computed; their statements are not dropped but
linked to dedicated low/high outlier entities so the statement count is
preserved.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .baselines import (
    Augmentation,
    DEFAULT_NAMESPACE,
    mint_any_value_triple,
    sanitize_value,
)
from .graph import IndexedGraph, LiteralGroup
from .terms import IRI, Literal, Triple, local_name

log = logging.getLogger(__name__)

NEXT_BIN = "nextBin"
PARENT_BIN = "parentBin"

# Cells per array chunk of the LOF reach sums and the overlap hit mask;
# chunking caps memory and never changes a result.
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class BinningSpec:
    """How to discretize one predicate's (sub)population of values.

    mode "fixed" uses *bins* directly; mode "percent" derives the bin count
    as a fraction of the number of unique values. *overlap* widens every bin
    by that fraction of its width on both sides, letting values fall into
    more than one bin. *hierarchy_depth* adds coarser levels that halve the
    bin count per level, children linked to parents.
    """

    mode: str = "fixed"
    bins: int = 10
    percent: float = 0.10
    overlap: float = 0.0
    hierarchy_depth: int = 0
    connect_adjacent: bool = True
    scheme: str = "equal-width"

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "percent"):
            raise ValueError(f"unknown binning mode: {self.mode!r}")
        if self.mode == "fixed" and self.bins < 1:
            raise ValueError("fixed mode needs bins >= 1")
        if self.mode == "percent" and not 0.0 < self.percent <= 1.0:
            raise ValueError("percent mode needs 0 < percent <= 1")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.hierarchy_depth < 0:
            raise ValueError("hierarchy_depth must be >= 0")
        if self.scheme not in ("equal-width", "equal-frequency"):
            raise ValueError(f"unknown binning scheme: {self.scheme!r}")


@dataclass(frozen=True)
class LofSpec:
    k: int = 20
    threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("LOF needs k >= 1")
        if self.threshold <= 0:
            raise ValueError("LOF threshold must be positive")


def parse_numeric(literal: Literal) -> float:
    """Parse a numeric lexical form into binary64.

    Rejects non-finite values (INF/NaN) and anything outside the plain
    decimal/scientific grammar; callers route failures to the fallback
    strategy.
    """
    text = literal.lexical.strip()
    if not text or "_" in text:
        raise ValueError(f"not a numeric lexical form: {literal.lexical!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value: {literal.lexical!r}")
    return value


def bin_count(occurrences: int, unique: int, spec: BinningSpec) -> int:
    """Target bin count: never more bins than unique values, never fewer than 1.

    Percent mode rounds half away from zero, so 10% of 200 unique values
    gives exactly 20 bins.
    """
    if unique < 1:
        raise ValueError("need at least one unique value")
    if spec.mode == "fixed":
        return min(spec.bins, unique)
    return max(1, min(unique, int(math.floor(spec.percent * unique + 0.5))))


@dataclass(frozen=True)
class BinLevel:
    """One granularity level: half-open bins over sorted boundaries."""

    boundaries: tuple[float, ...]
    entities: tuple[str, ...]

    @property
    def num_bins(self) -> int:
        return len(self.entities)


@dataclass(frozen=True)
class BinLayout:
    """Computed boundaries and minted bin entities for one (sub)population.

    levels[0] is the finest level; each further level halves the bin count.
    Bins are inclusive-lower/exclusive-upper except the last, which is closed.
    """

    predicate: str
    subpopulation: int | None
    levels: tuple[BinLevel, ...]
    overlap: float
    connect_adjacent: bool

    @property
    def leaf(self) -> BinLevel:
        return self.levels[0]

    @property
    def lower(self) -> float:
        return self.leaf.boundaries[0]

    @property
    def upper(self) -> float:
        return self.leaf.boundaries[-1]


def _bin_label(pred_local: str, subpop: int | None, level: int, index: int, width: int) -> str:
    sub = f"Sub{subpop}" if subpop is not None else ""
    lvl = f"L{level}" if level > 0 else ""
    return f"{pred_local}{sub}{lvl}Bin{index:0{width}d}"


def _leaf_boundaries(values: np.ndarray, k: int, scheme: str) -> list[float]:
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return [lo, hi]
    if scheme == "equal-width":
        inner = [lo + i * (hi - lo) / k for i in range(1, k)]
    else:
        qs = np.quantile(values, np.linspace(0.0, 1.0, k + 1)[1:-1])
        inner = [float(q) for q in qs]
    out = [lo]
    for b in inner:  # merge duplicate/degenerate boundaries
        if out[-1] < b < hi:
            out.append(b)
    out.append(hi)
    return out


def compute_bins(
    values: list[float] | np.ndarray,
    spec: BinningSpec,
    predicate: str = "value",
    namespace: str = DEFAULT_NAMESPACE,
    subpopulation: int | None = None,
) -> BinLayout:
    """Boundaries, entity names, and coarser levels for one value population.

    Identical values collapse to a single degenerate bin. Hierarchy levels
    stop early once a level reaches a single bin.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bin an empty population")
    unique = len(np.unique(arr))
    k = bin_count(arr.size, unique, spec)
    pred_local = sanitize_value(local_name(predicate))
    boundaries = _leaf_boundaries(arr, k, spec.scheme)
    k = max(len(boundaries) - 1, 1)
    width = max(2, len(str(k - 1)))
    levels = [
        BinLevel(
            tuple(boundaries),
            tuple(
                namespace + _bin_label(pred_local, subpopulation, 0, i, width)
                for i in range(k)
            ),
        )
    ]
    prev = boundaries
    for depth in range(1, spec.hierarchy_depth + 1):
        if len(prev) - 1 <= 1:
            break
        coarse = prev[0:-1:2] + [prev[-1]]
        n_bins = max(len(coarse) - 1, 1)
        levels.append(
            BinLevel(
                tuple(coarse),
                tuple(
                    namespace + _bin_label(pred_local, subpopulation, depth, i, width)
                    for i in range(n_bins)
                ),
            )
        )
        prev = coarse
    return BinLayout(
        predicate=predicate,
        subpopulation=subpopulation,
        levels=tuple(levels),
        overlap=spec.overlap,
        connect_adjacent=spec.connect_adjacent,
    )


def _flat_indices(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(boundaries, values, side="right") - 1
    return np.clip(idx, 0, boundaries.size - 2)


def _overlap_hits(
    values: np.ndarray, boundaries: np.ndarray, overlap: float
) -> tuple[np.ndarray, np.ndarray]:
    """(value position, bin) pairs of the widened bins that hold each value.

    A value that no widened bin holds falls back to its flat bin. Pairs come
    sorted by value position, then bin.
    """
    b = boundaries
    k = b.size - 1
    w = (b[1:] - b[:-1]) * overlap
    lo = b[:-1] - w
    hi = b[1:] + w
    rows_out: list[np.ndarray] = []
    bins_out: list[np.ndarray] = []
    step = max(1, _CHUNK_CELLS // k)
    for start in range(0, values.size, step):
        v = values[start : start + step, None]
        hit = (lo <= v) & (v < hi)
        hit[:, -1] |= (lo[-1] <= v[:, 0]) & (v[:, 0] <= hi[-1])
        missed = np.flatnonzero(~hit.any(axis=1))
        hit[missed, _flat_indices(v[missed, 0], b)] = True
        rows, bins = np.nonzero(hit)
        rows_out.append(rows + start)
        bins_out.append(bins)
    return np.concatenate(rows_out), np.concatenate(bins_out)


def assign_bins_array(
    values: np.ndarray, layout: BinLayout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value position, level, bin index) of every bin holding each value.

    The three arrays run in emission order: values in input order, then
    levels finest first, then bins ascending. A level with one bin takes
    every value; without overlap each value lands in exactly one bin per
    level, and out-of-range values clamp to the nearest boundary bin.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    rows: list[np.ndarray] = []
    levels: list[np.ndarray] = []
    bins: list[np.ndarray] = []
    for level_idx, level in enumerate(layout.levels):
        b = np.asarray(level.boundaries, dtype=float)
        if level.num_bins == 1 or layout.overlap == 0.0:
            level_rows = np.arange(n)
            level_bins = _flat_indices(values, b)
        else:
            level_rows, level_bins = _overlap_hits(values, b, layout.overlap)
        rows.append(level_rows)
        levels.append(np.full(level_rows.size, level_idx))
        bins.append(level_bins)
    if len(rows) == 1:
        return rows[0], levels[0], bins[0]
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")  # levels were concatenated in order
    return row[order], np.concatenate(levels)[order], np.concatenate(bins)[order]


def assign_bins(value: float, layout: BinLayout) -> tuple[tuple[int, int], ...]:
    """(level, bin index) pairs containing *value*, finest level first.

    Flat disjoint layouts yield exactly one pair; overlap and hierarchy can
    yield several. Out-of-range values clamp to the nearest boundary bin.
    """
    _, levels, bins = assign_bins_array(np.array([value], dtype=float), layout)
    return tuple(zip(levels.tolist(), bins.tolist()))


@dataclass(frozen=True)
class BinAssignments:
    """The bins of one population's values, as assign_bins_array gives them.

    *subjects* holds one subject id per value; pair p links value
    ``rows[p]`` to bin ``bins[p]`` of level ``levels[p]``.
    """

    subjects: np.ndarray
    rows: np.ndarray
    levels: np.ndarray
    bins: np.ndarray

    def __len__(self) -> int:
        return len(self.subjects)


@dataclass
class LofResult:
    """Per-value LOF scores with the retained/outlier partition.

    *scores* aligns with the input order. When the population is too small
    for the neighbor count, scoring is skipped and everything is retained.
    """

    scores: np.ndarray
    retained_indices: list[int]
    outlier_indices: list[int]
    skipped: bool = False

    @property
    def num_outliers(self) -> int:
        return len(self.outlier_indices)


def lof_scores(values: list[float] | np.ndarray, k: int = 20, threshold: float = 1.5) -> LofResult:
    """1-D local outlier factor: reachability distances, local reachability
    density, and the mean lrd ratio over the k-distance neighborhood.

    Ties are handled per the definition: the neighborhood holds every point
    within the k-distance, so it can exceed k members. Populations of
    duplicates have zero reachability; their lrd is infinite and their score
    is defined as 1.0. Scores can be infinite for points bordering such a
    duplicate cluster.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n <= k:
        log.warning("LOF skipped: %d values <= k=%d, all retained", n, k)
        return LofResult(np.ones(n), list(range(n)), [], skipped=True)

    order = np.argsort(arr, kind="stable")
    sv = arr[order]

    # k-distance: tightest window of k+1 consecutive sorted values around
    # each point; in 1-D the k nearest neighbors are contiguous.
    idx = np.arange(n)
    kdist = np.full(n, np.inf)
    for off in range(k + 1):
        start = idx - k + off
        end = start + k
        valid = (start >= 0) & (end < n)
        cand = np.where(
            valid,
            np.maximum(sv - sv[np.clip(start, 0, n - 1)], sv[np.clip(end, 0, n - 1)] - sv),
            np.inf,
        )
        kdist = np.minimum(kdist, cand)

    # Neighborhood bounds: searchsorted on [v-kd, v+kd] is only a first
    # guess, because v-kd need not round to the neighbor value that defined
    # kd. The fixup compares distances with the same subtraction that
    # produced kdist, so the boundary neighbor is never lost. Each step
    # moves every bound that still needs it by one, until none does.
    lo = np.searchsorted(sv, sv - kdist, side="left")
    hi = np.searchsorted(sv, sv + kdist, side="right")
    last = n - 1
    _settle(lo, -1, lambda a: (lo[a] > 0) & (sv[a] - sv[lo[a] - 1] <= kdist[a]))
    _settle(lo, 1, lambda a: (lo[a] < a) & (sv[a] - sv[lo[a]] > kdist[a]))
    _settle(hi, 1, lambda a: (hi[a] < n) & (sv[np.minimum(hi[a], last)] - sv[a] <= kdist[a]))
    _settle(hi, -1, lambda a: (hi[a] - 1 > a) & (sv[hi[a] - 1] - sv[a] > kdist[a]))

    # Reach distance to neighbor j is max(kdist[j], |v - v_j|). A point with
    # kdist 0 has at least k ties, so its neighbors are ties with kdist 0
    # too and its reach sum is 0; only the other points gather.
    count = hi - lo - 1
    reach = np.zeros(n)
    spread = np.flatnonzero(kdist > 0.0)
    reach[spread] = _reach_sums(sv, kdist, lo, hi, spread)
    mean_reach = (reach - kdist) / count  # drop self (reach to self is own k-distance)
    dense = mean_reach <= 0.0
    lrd = np.full(n, np.inf)
    lrd[~dense] = 1.0 / mean_reach[~dense]

    scores_sorted = np.ones(n)
    finite = np.flatnonzero(np.isfinite(lrd))
    neighbor_lrd = _window_sums(lrd, lo[finite], hi[finite]) - lrd[finite]
    scores_sorted[finite] = (neighbor_lrd / count[finite]) / lrd[finite]

    scores = np.empty(n)
    scores[order] = scores_sorted
    outlier = scores > threshold
    return LofResult(
        scores, np.flatnonzero(~outlier).tolist(), np.flatnonzero(outlier).tolist()
    )


def _settle(bound: np.ndarray, step: int, moves: Callable[[np.ndarray], np.ndarray]) -> None:
    """Add *step* to bound[i] for every i where moves(i) holds, until none does."""
    active = np.arange(bound.size)
    while True:
        active = active[moves(active)]
        if active.size == 0:
            return
        bound[active] += step


def _window_sums(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sum(a[lo[i]:hi[i]]) for every i, in one reduceat over interleaved bounds."""
    bounds = np.empty(2 * lo.size, dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi
    return np.add.reduceat(np.append(a, 0.0), bounds)[0::2]


def _reach_sums(
    sv: np.ndarray, kdist: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Sum of reach distances over each row's neighborhood.

    The neighborhoods are gathered flat, a chunk of rows at a time with
    about _CHUNK_CELLS gathered cells per chunk (at least one row).
    """
    widths = hi[rows] - lo[rows]
    ends = np.cumsum(widths)
    out = np.empty(rows.size)
    start = 0
    while start < rows.size:
        budget = ends[start] - widths[start] + _CHUNK_CELLS
        stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
        r = rows[start:stop]
        w = widths[start:stop]
        offsets = np.cumsum(w) - w
        j = np.arange(offsets[-1] + w[-1]) + np.repeat(lo[r] - offsets, w)
        dist = np.abs(sv[j] - np.repeat(sv[r], w))
        out[start:stop] = np.add.reduceat(np.maximum(kdist[j], dist), offsets)
        start = stop
    return out


def emit_bin_triples(
    group: LiteralGroup,
    graph: IndexedGraph,
    layout: BinLayout,
    assignments: BinAssignments,
    namespace: str = DEFAULT_NAMESPACE,
    aug: Augmentation | None = None,
) -> Augmentation:
    """Statement triples for assigned bins plus the structural bin graph.

    All bins of the layout are minted (the adjacency chain runs through
    empty bins); chain and hierarchy triples are structural, not statement,
    triples. Each bin IRI is built once.
    """
    aug = aug if aug is not None else Augmentation()
    predicate = IRI(group.predicate)
    bin_iris = [[IRI(entity) for entity in level.entities] for level in layout.levels]
    for level in layout.levels:
        for entity in level.entities:
            aug.add_entity(entity)
    flat_iris = [iri for level_iris in bin_iris for iri in level_iris]
    offsets = np.cumsum([0] + [level.num_bins for level in layout.levels])
    objects = [flat_iris[i] for i in (offsets[assignments.levels] + assignments.bins).tolist()]
    terms = graph.entity_terms
    subjects = [terms[sid] for sid in assignments.subjects.tolist()]
    if len(objects) != len(subjects):
        subjects = [subjects[row] for row in assignments.rows.tolist()]
    aug.triples.extend(map(Triple, subjects, repeat(predicate), objects))
    aug.weights.extend([None] * len(objects))
    if layout.connect_adjacent and any(level.num_bins > 1 for level in layout.levels):
        link = IRI(namespace + NEXT_BIN)
        for level_iris in bin_iris:
            for a, b in zip(level_iris, level_iris[1:]):
                aug.structural_triples.append(Triple(a, link, b))
    if len(layout.levels) > 1:
        link = IRI(namespace + PARENT_BIN)
        for child_iris, parent_iris in zip(bin_iris, bin_iris[1:]):
            for i, child in enumerate(child_iris):
                parent = parent_iris[min(i // 2, len(parent_iris) - 1)]
                aug.structural_triples.append(Triple(child, link, parent))
    return aug


def bin_statements(
    group: LiteralGroup,
    graph: IndexedGraph,
    spec: BinningSpec,
    namespace: str = DEFAULT_NAMESPACE,
    lof: LofSpec | None = None,
    statements: list[tuple[int, float]] | None = None,
    subpopulation: int | None = None,
    aug: Augmentation | None = None,
) -> Augmentation:
    """Bin pre-parsed (subject, value) statements of one (sub)population.

    With LOF enabled, boundaries are computed from retained values only;
    outlier statements link to OutlierLow/OutlierHigh entities instead of a
    bin, so every statement still yields exactly one output statement.
    """
    aug = aug if aug is not None else Augmentation()
    if statements is None:
        statements = [
            (subject_id, parse_numeric(obj))  # type: ignore[arg-type]
            for subject_id, obj in group.statements
        ]
    if not statements:
        return aug
    subject_ids, raw_values = zip(*statements)
    subjects = np.array(subject_ids, dtype=np.intp)
    values = np.array(raw_values, dtype=float)
    outlier = np.zeros(values.size, dtype=bool)
    if lof is not None:
        result = lof_scores(values, lof.k, lof.threshold)
        outlier[result.outlier_indices] = True
        if outlier.all():  # everything flagged: skip the filter
            aug.warnings.append(
                f"{group.predicate}: LOF flagged all {len(statements)} values, filter skipped"
            )
            outlier[:] = False
    retained = values[~outlier]
    layout = compute_bins(
        retained,
        spec,
        predicate=group.predicate,
        namespace=namespace,
        subpopulation=subpopulation,
    )
    assignments = BinAssignments(subjects[~outlier], *assign_bins_array(retained, layout))
    emit_bin_triples(group, graph, layout, assignments, namespace, aug)
    if outlier.any():
        pred_local = sanitize_value(local_name(group.predicate))
        sub = f"Sub{subpopulation}" if subpopulation is not None else ""
        low = IRI(namespace + pred_local + sub + "OutlierLow")
        high = IRI(namespace + pred_local + sub + "OutlierHigh")
        mid = (layout.lower + layout.upper) / 2.0
        predicate = IRI(group.predicate)
        terms = graph.entity_terms
        for subject_id, value in zip(subjects[outlier].tolist(), values[outlier].tolist()):
            entity = low if value <= mid else high
            aug.add_entity(entity.value)
            aug.triples.append(Triple(terms[subject_id], predicate, entity))
            aug.weights.append(None)
    return aug


def nbins(
    group: LiteralGroup,
    graph: IndexedGraph,
    spec: BinningSpec,
    namespace: str = DEFAULT_NAMESPACE,
    lof: LofSpec | None = None,
) -> Augmentation:
    """The plain n-bin strategy over a whole numeric group.

    Unparseable lexical forms fall back to a one-entity link and are counted.
    """
    aug = Augmentation()
    parsed: list[tuple[int, float]] = []
    fallback: list[int] = []
    for subject_id, obj in group.statements:
        try:
            parsed.append((subject_id, parse_numeric(obj)))  # type: ignore[arg-type]
        except (ValueError, AttributeError):
            fallback.append(subject_id)
    if parsed:
        bin_statements(group, graph, spec, namespace, lof, statements=parsed, aug=aug)
    for subject_id in fallback:
        mint_any_value_triple(graph, group, subject_id, namespace, aug)
    if fallback:
        aug.fallback_statements = len(fallback)
        aug.warnings.append(
            f"{group.predicate}: {len(fallback)} unparseable numeric statements got AnyValue links"
        )
    return aug
