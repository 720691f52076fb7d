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
import re
import sys
from typing import Callable, Sequence

import numpy as np

from .baselines import (
    Augmentation,
    DEFAULT_NAMESPACE,
    link_any_value,
    note_fallback,
    parse_or_reject,
)
from .graph import LiteralGroup
from .plans import BinningSpec, bin_count
from .terms import XSD_SPACE, Frozen

log = logging.getLogger(__name__)

NEXT_BIN = "nextBin"
PARENT_BIN = "parentBin"

# Cells per array chunk of the LOF reach sums and the overlap hit mask;
# chunking caps memory and never changes a result.
_CHUNK_CELLS = 1 << 14

# The XSD decimal, float and double lexical forms, INF and NaN left out.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct elements of a 1-D array of integers or finite floats.

    Equal to ``np.unique(values)``, whose flagless form imports ``numpy.ma``
    to test for a masked array.
    """
    ordered = np.sort(values)
    keep = np.empty(len(ordered), bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def parse_numeric(lexical: str, dt: str | None = None) -> float:
    """Parse a numeric lexical form into binary64; the datatype is not read.

    Accepts the XSD decimal and scientific grammar in ASCII, after XSD
    whitespace collapse. Rejects non-finite values (INF/NaN) and anything
    else; callers route failures to the fallback strategy.
    """
    text = lexical.strip(XSD_SPACE)
    if _NUMBER.fullmatch(text) is None:
        raise ValueError(f"not a numeric lexical form: {lexical!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value: {lexical!r}")
    return value


class BinLevel(Frozen):
    """One granularity level: half-open bins over sorted boundaries."""

    __slots__ = ("boundaries", "entities")

    def __init__(self, boundaries: tuple[float, ...], entities: tuple[str, ...]) -> None:
        self._fill(locals())


def _bin_label(stem: str, subpop: int | None, level: int, index: int, width: int) -> str:
    sub = f"Sub{subpop}" if subpop is not None else ""
    lvl = f"L{level}" if level > 0 else ""
    return f"{stem}{sub}{lvl}Bin{index:0{width}d}"


def _leaf_boundaries(values: np.ndarray, k: int, scheme: str) -> list[float]:
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return [lo, hi]
    if scheme == "equal-width" and (k - 1) * (hi - lo) < math.inf:
        inner = [lo + i * (hi - lo) / k for i in range(1, k)]
    elif scheme == "equal-width":  # i·(hi - lo) passes the largest float
        inner = [lo / k * (k - i) + hi / k * i for i in range(1, k)]
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
    stem: str = DEFAULT_NAMESPACE + "value",
    subpopulation: int | None = None,
) -> tuple[BinLevel, ...]:
    """The bin levels of one value population, finest first: boundaries,
    entity names under *stem*, and coarser levels that halve the bin count.

    Bins are inclusive-lower/exclusive-upper except the last, which is
    closed. Identical values collapse to a single degenerate bin. Hierarchy
    levels stop early once a level reaches a single bin.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bin an empty population")
    unique = len(sorted_distinct(arr))
    boundaries = _leaf_boundaries(arr, bin_count(arr.size, unique, spec), spec.scheme)
    width = max(2, len(str(len(boundaries) - 2)))  # digits of the last leaf bin
    levels = []
    for depth in range(spec.hierarchy_depth + 1):
        k = len(boundaries) - 1
        labels = tuple(_bin_label(stem, subpopulation, depth, i, width) for i in range(k))
        levels.append(BinLevel(tuple(boundaries), labels))
        if k == 1:
            break
        boundaries = boundaries[0:-1:2] + [boundaries[-1]]
    return tuple(levels)


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
    values: np.ndarray, levels: Sequence[BinLevel], overlap: float
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
    depths: list[np.ndarray] = []
    bins: list[np.ndarray] = []
    for depth, level in enumerate(levels):
        b = np.asarray(level.boundaries, dtype=float)
        if len(level.entities) == 1 or overlap == 0.0:
            level_rows = np.arange(n)
            level_bins = _flat_indices(values, b)
        else:
            level_rows, level_bins = _overlap_hits(values, b, overlap)
        rows.append(level_rows)
        depths.append(np.full(level_rows.size, depth))
        bins.append(level_bins)
    if len(rows) == 1:
        return rows[0], depths[0], bins[0]
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")  # levels were concatenated in order
    return row[order], np.concatenate(depths)[order], np.concatenate(bins)[order]


class BinAssignments(Frozen):
    """The bins of one population's values, as assign_bins_array gives them.

    *subjects* holds one subject id per value; pair p links value
    ``rows[p]`` to bin ``bins[p]`` of level ``levels[p]``.
    """

    __slots__ = ("subjects", "rows", "levels", "bins")
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: equal to itself only

    def __init__(
        self, subjects: np.ndarray, rows: np.ndarray, levels: np.ndarray, bins: np.ndarray
    ) -> None:
        self._fill(locals())

    def __len__(self) -> int:
        return len(self.subjects)


def lof_scores(values: list[float] | np.ndarray, k: int = 20) -> np.ndarray:
    """1-D local outlier factor in input order: reachability distances, local
    reachability density, and the mean lrd ratio over the k-distance
    neighborhood. A population of at most k values is not scored; every
    value gets 1.0.

    Ties are handled per the definition: the neighborhood holds every point
    within the k-distance, so it can exceed k members. Populations of
    duplicates have zero reachability; their lrd is infinite and their score
    is defined as 1.0. An lrd past the largest float is infinite too, and
    scored the same; only a population whose gaps are subnormal while its
    values come near the largest float has one. Scores can be infinite for
    points bordering such a point.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n <= k:
        log.warning("LOF skipped: %d values <= k=%d, all retained", n, k)
        return np.ones(n)

    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    # Scores do not change when every value is scaled by one positive factor,
    # and scaling by a power of two is exact away from subnormals. So values
    # large enough that v +- k-distance or a sum of n reach distances could
    # pass the largest float are scored scaled down, where none can.
    limit, magnitude = sys.float_info.max / (2 * n + 2), max(-sv[0], sv[-1])
    if magnitude > limit:
        sv = sv * 2.0 ** -math.ceil(math.log2(magnitude / limit))

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

    # An lrd is at most n / (smallest positive k-distance), and a window sums
    # at most n of them. Where that could pass the largest float, values and
    # k-distances are scaled up together, as far as the largest value allows.
    # Scaling up is exact, and a subnormal difference is exact, so the scaled
    # k-distances are those of the scaled values.
    smallest = kdist[kdist > 0.0].min(initial=math.inf)
    tiny = n * n / sys.float_info.max
    if smallest < tiny:
        up = min(
            math.ceil(math.log2(tiny) - math.log2(smallest)),
            math.floor(math.log2(limit) - math.log2(max(-sv[0], sv[-1]))),
        )
        if up > 0:
            sv, kdist = sv * 2.0**up, kdist * 2.0**up

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
    scores_sorted = np.ones(n)
    with np.errstate(over="ignore"):  # an lrd, sum or ratio past the largest float is inf
        lrd[~dense] = 1.0 / mean_reach[~dense]
        finite = np.flatnonzero(np.isfinite(lrd))
        neighbor_lrd = _window_sums(lrd, lo[finite], hi[finite]) - lrd[finite]
        scores_sorted[finite] = (neighbor_lrd / count[finite]) / lrd[finite]

    scores = np.empty(n)
    scores[order] = scores_sorted
    return scores


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
    aug: Augmentation,
    layout: Sequence[BinLevel],
    assignments: BinAssignments,
    connect_adjacent: bool,
) -> Augmentation:
    """Links for assigned bins plus the structural bin graph over the levels
    of *layout*.

    The adjacency chain runs through every bin of a level, empty ones too;
    chain and hierarchy statements are structural, not links.
    """
    flat = [entity for level in layout for entity in level.entities]
    offsets = np.cumsum([0] + [len(level.entities) for level in layout])
    objects = [flat[i] for i in (offsets[assignments.levels] + assignments.bins).tolist()]
    aug.link(assignments.subjects[assignments.rows].tolist(), objects)
    if connect_adjacent and len(flat) > len(layout):  # some level has two bins
        link = aug.namespace + NEXT_BIN
        for level in layout:
            for a, b in zip(level.entities, level.entities[1:]):
                aug.join(a, link, b)
    if len(layout) > 1:
        link = aug.namespace + PARENT_BIN
        for child, parent in zip(layout, layout[1:]):
            last = len(parent.entities) - 1
            for i, entity in enumerate(child.entities):
                aug.join(entity, link, parent.entities[min(i // 2, last)])
    return aug


def bin_statements(
    aug: Augmentation,
    spec: BinningSpec,
    subject_ids: Sequence[int],
    values: Sequence[float],
    subpopulation: int | None = None,
) -> Augmentation:
    """Bin one (sub)population: statement i links subject_ids[i] to values[i].

    With spec.lof set, boundaries are computed from retained values only;
    outlier statements link to OutlierLow/OutlierHigh entities instead of a
    bin, so every statement still yields exactly one output statement.
    """
    if len(subject_ids) == 0:
        return aug
    subjects = np.array(subject_ids, dtype=np.intp)
    values = np.array(values, dtype=float)
    outlier = np.zeros(values.size, dtype=bool)
    if spec.lof is not None:
        outlier = lof_scores(values, spec.lof.k) > spec.lof.threshold
        if outlier.all():  # everything flagged: skip the filter
            aug.warnings.append(
                f"{aug.predicate}: LOF flagged all {values.size} values, filter skipped"
            )
            outlier[:] = False
    retained = values[~outlier]
    layout = compute_bins(retained, spec, aug.stem, subpopulation)
    assigned = assign_bins_array(retained, layout, spec.overlap)
    emit_bin_triples(
        aug, layout, BinAssignments(subjects[~outlier], *assigned), spec.connect_adjacent
    )
    if outlier.any():
        sub = f"Sub{subpopulation}" if subpopulation is not None else ""
        low, high = aug.stem + sub + "OutlierLow", aug.stem + sub + "OutlierHigh"
        mid = (layout[0].boundaries[0] + layout[0].boundaries[-1]) / 2.0
        entities = [low if value <= mid else high for value in values[outlier].tolist()]
        aug.link(subjects[outlier].tolist(), entities)
    return aug


def nbins(
    group: LiteralGroup,
    aug: Augmentation,
    spec: BinningSpec,
    parse: Callable[[str, str], float] = parse_numeric,
    kind: str = "numeric",
) -> Augmentation:
    """The plain n-bin strategy over the values *parse* reads from a group.

    Statements *parse* rejects link to the AnyValue entity after the bin
    links and are counted as unparseable *kind* statements.
    """
    subject_ids, values, rejected = parse_or_reject(group, parse)
    bin_statements(aug, spec, subject_ids, values)
    link_any_value(aug, rejected)
    note_fallback(aug, len(rejected), f"{len(rejected)} unparseable {kind} statements")
    return aug
