"""Discretization and outlier pre-filtering.

lof_scores is checked against a brute-force O(n^2) reimplementation that
follows the textbook definitions directly (pairwise distances, k-distance,
reachability, local reachability density), sharing only the degenerate-case
conventions: infinite density collapses the score to 1.0, and populations
not larger than k skip the filter.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from literal_forge import IRI, BlankNode, Literal, Modality, StrategyConfig, apply, binning, check_output
from literal_forge.baselines import LofSpec
from literal_forge.binning import (
    BinLevel,
    BinningSpec,
    NEXT_BIN,
    PARENT_BIN,
    assign_bins_array,
    bin_count,
    bin_statements,
    compute_bins,
    lof_scores,
    nbins,
    parse_numeric,
    sorted_distinct,
)
from literal_forge.pipeline import GroupPlan
from literal_forge.terms import RDF_LANGSTRING, XSD_STRING

from util import EX, NEW, XSD, assert_parse_matches_reference, make_graph, numeric_line, with_aug


def numeric_group(lines):
    graph = make_graph(lines)
    (group,) = graph.groups()
    return group, graph


def bin_group(group, graph, spec):
    """bin_statements over every statement of a group of numbers."""
    values = [parse_numeric(lexical) for lexical in group.lexicals]
    return bin_statements(with_aug(group, graph)[1], spec, group.subjects, values)


# --- parsing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "lex,value",
    [
        ("42", 42.0),
        ("-7", -7.0),
        ("+3", 3.0),
        ("3.25", 3.25),
        ("2.5e3", 2500.0),
        ("  17 ", 17.0),
        ("\r\n17\t", 17.0),
        (".5", 0.5),
        ("5.", 5.0),
    ],
)
def test_parse_numeric_accepts(lex, value):
    assert parse_numeric(lex) == value


@pytest.mark.parametrize(
    "lex",
    ["", "  ", "abc", "INF", "-INF", "NaN", "1_000", "0x1f", "1,5", "1 5", "1e", "\u0661\u0662",
     "\u00a017", "\x0b17", "17\u2003"],
)
def test_parse_numeric_rejects(lex):
    with pytest.raises(ValueError):
        parse_numeric(lex)


def _parse_numeric_reference(literal: Literal) -> float:
    """parse_numeric as it read a Literal term before literal groups became columns."""
    text = literal.lexical.strip()
    if not text or "_" in text:
        raise ValueError(f"not a numeric lexical form: {literal.lexical!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value: {literal.lexical!r}")
    return value


_NUMERIC_LEXICALS = st.one_of(
    st.text(alphabet="0123456789+-.eE_ \t\n", max_size=12),
    st.sampled_from(
        ["", " ", "\t7\n", "1_000", "inf", "-inf", "+INF", "Infinity", "nan", "NaN", "-nan",
         "1e999", "-1e-999", "1E5", "0x1f", "1,5", "\u00a017", "\u0661\u0662", "-0", "0.0e0"]
    ),
    st.floats().map(repr),
    st.integers().map(str),
)
_NUMERIC_OBJECTS = st.one_of(
    st.builds(
        Literal,
        _NUMERIC_LEXICALS,
        st.sampled_from([XSD + "integer", XSD + "decimal", XSD + "double", XSD_STRING]),
    ),
    st.builds(lambda lex: Literal(lex, RDF_LANGSTRING, "en"), _NUMERIC_LEXICALS),
    st.builds(IRI, _NUMERIC_LEXICALS),
    st.builds(BlankNode, _NUMERIC_LEXICALS),
)


@given(st.lists(_NUMERIC_OBJECTS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_column_parse_matches_literal_parse_numeric(objects):
    assert_parse_matches_reference(parse_numeric, _parse_numeric_reference, objects)


# --- distinct values ----------------------------------------------------------

# Few distinct values, so most examples repeat some; finite floats only, as
# parse_numeric admits no NaN or INF.
_int64s = st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)), max_size=40)
_finite_floats = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, -1.5]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


@given(
    st.one_of(
        _int64s.map(lambda v: np.array(v, np.int64)),
        _finite_floats.map(lambda v: np.array(v, np.float64)),
    )
)
@example(np.array([], np.int64))
@example(np.array([], np.float64))
@example(np.array([0.0, -0.0, 0.0, -0.0]))
@settings(max_examples=300, deadline=None)
def test_sorted_distinct_equals_np_unique(values):
    before = values.copy()
    got = sorted_distinct(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(values, before)


# --- bin counting -----------------------------------------------------------


def test_bin_count_percent_rounds_half_up():
    spec = BinningSpec(percent=0.10)
    assert bin_count(1000, 200, spec) == 20
    assert bin_count(100, 25, spec) == 3  # 2.5 rounds up
    assert bin_count(100, 14, spec) == 1  # 1.4 rounds down
    assert bin_count(100, 4, spec) == 1  # never below one bin


def test_bin_count_fixed_capped_by_unique():
    spec = BinningSpec(bins=10)
    assert bin_count(500, 200, spec) == 10
    assert bin_count(500, 3, spec) == 3
    assert bin_count(500, 1, spec) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bins=0),
        dict(percent=0.0),
        dict(percent=1.5),
        dict(overlap=-0.1),
        dict(overlap=1.0),
        dict(hierarchy_depth=-1),
        dict(scheme="log"),
    ],
)
def test_binning_spec_validation(kwargs):
    with pytest.raises(ValueError):
        BinningSpec(**kwargs)


def test_lof_spec_validation():
    with pytest.raises(ValueError):
        LofSpec(k=0)
    with pytest.raises(ValueError):
        LofSpec(threshold=0.0)


# --- layouts ----------------------------------------------------------------


def assign_bins(
    value: float, layout: tuple[BinLevel, ...], overlap: float = 0.0
) -> tuple[tuple[int, int], ...]:
    """(level, bin index) pairs containing *value*, finest level first: the
    one-value call of assign_bins_array.

    Flat disjoint layouts yield exactly one pair; overlap and hierarchy can
    yield several. Out-of-range values clamp to the nearest boundary bin.
    """
    _, levels, bins = assign_bins_array(np.array([value], dtype=float), layout, overlap)
    return tuple(zip(levels.tolist(), bins.tolist()))


def test_equal_width_layout():
    layout = compute_bins(
        [0.0, 10.0, 20.0, 30.0, 40.0], BinningSpec(bins=4), stem=NEW + "height"
    )
    assert layout[0].boundaries == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert layout[0].entities == tuple(NEW + f"heightBin{i:02d}" for i in range(4))


def test_equal_frequency_layout_balances_counts():
    values = [float(i) for i in range(100)] + [1000.0] * 100
    layout = compute_bins(values, BinningSpec(bins=2, scheme="equal-frequency"))
    idx = [assign_bins(v, layout)[0][1] for v in values]
    counts = [idx.count(0), idx.count(1)]
    assert counts == [100, 100]


def test_all_equal_values_single_degenerate_bin():
    layout = compute_bins([5.0, 5.0, 5.0], BinningSpec(bins=10))
    assert len(layout[0].entities) == 1
    assert layout[0].boundaries == (5.0, 5.0)
    assert assign_bins(5.0, layout) == ((0, 0),)


def test_subpopulation_and_level_labels():
    layout = compute_bins(
        [0.0, 1.0, 2.0, 3.0],
        BinningSpec(bins=2, hierarchy_depth=1),
        stem=NEW + "height",
        subpopulation=3,
    )
    assert layout[0].entities == (NEW + "heightSub3Bin00", NEW + "heightSub3Bin01")
    assert layout[1].entities == (NEW + "heightSub3L1Bin00",)


def test_label_width_grows_with_bin_count():
    layout = compute_bins([float(i) for i in range(200)], BinningSpec(bins=120))
    assert layout[0].entities[0].endswith("Bin000")
    assert layout[0].entities[-1].endswith("Bin119")


def test_hierarchy_halves_and_stops_at_one():
    layout = compute_bins(
        [float(i) for i in range(100)], BinningSpec(bins=8, hierarchy_depth=5)
    )
    assert [len(lvl.entities) for lvl in layout] == [8, 4, 2, 1]
    for child, parent in zip(layout, layout[1:]):
        assert child.boundaries[0] == parent.boundaries[0]
        assert child.boundaries[-1] == parent.boundaries[-1]


_populations = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=80,
)


@given(_populations, st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_flat_assignment_is_a_partition(values, bins):
    layout = compute_bins(values, BinningSpec(bins=bins))
    b = layout[0].boundaries
    assert list(b) == sorted(b)
    assert b[0] == min(values) and b[-1] == max(values)
    for v in values:
        assigned = assign_bins(v, layout)
        assert len(assigned) == 1  # no overlap, no hierarchy: exactly one bin
        (level, idx) = assigned[0]
        assert level == 0
        lo, hi = b[idx], b[idx + 1]
        if idx == len(layout[0].entities) - 1:
            assert lo <= v <= hi
        else:
            assert lo <= v < hi


def test_max_value_lands_in_last_bin():
    layout = compute_bins([0.0, 1.0, 2.0, 3.0, 4.0], BinningSpec(bins=5))
    assert assign_bins(4.0, layout) == ((0, len(layout[0].entities) - 1),)


def test_out_of_range_values_clamp():
    layout = compute_bins([0.0, 10.0], BinningSpec(bins=2))
    assert assign_bins(-5.0, layout) == ((0, 0),)
    assert assign_bins(99.0, layout) == ((0, 1),)


def test_overlap_widens_membership():
    layout = compute_bins([0.0, 10.0, 20.0, 30.0, 40.0], BinningSpec(bins=4))
    # 11.0 is within 20% of bin 0's upper edge (widened to 12.0) and inside bin 1
    assigned = {idx for _, idx in assign_bins(11.0, layout, 0.2)}
    assert assigned == {0, 1}
    # bin centers stay unambiguous
    assert {idx for _, idx in assign_bins(5.0, layout, 0.2)} == {0}


def test_hierarchy_assigns_every_level():
    layout = compute_bins(
        [float(i) for i in range(16)], BinningSpec(bins=4, hierarchy_depth=2)
    )
    assigned = assign_bins(9.0, layout)
    assert [lvl for lvl, _ in assigned] == [0, 1, 2]


def assign_bins_reference(
    value: float, layout: tuple[BinLevel, ...], overlap: float
) -> list[tuple[int, int]]:
    """Per-value assignment: bisect for disjoint bins, a scan over the widened
    bins with overlap, the flat bin when no widened bin holds the value."""
    out = []
    for level_idx, level in enumerate(layout):
        b = level.boundaries
        k = len(level.entities)
        flat = min(max(bisect_right(b, value) - 1, 0), k - 1)
        if k == 1 or overlap == 0.0:
            out.append((level_idx, flat))
            continue
        hits = []
        for i in range(k):
            w = (b[i + 1] - b[i]) * overlap
            lo, hi = b[i] - w, b[i + 1] + w
            if lo <= value < hi or (i == k - 1 and lo <= value <= hi):
                hits.append(i)
        out.extend((level_idx, i) for i in hits or [flat])
    return out


@given(
    _populations,
    st.integers(1, 12),
    st.sampled_from([0.0, 0.1, 0.25, 0.6]),
    st.integers(0, 3),
    st.sampled_from(["equal-width", "equal-frequency"]),
    st.lists(st.floats(min_value=-2e6, max_value=2e6, allow_nan=False), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_array_assignment_matches_per_value_reference(
    values, bins, overlap, depth, scheme, extra
):
    spec = BinningSpec(bins=bins, overlap=overlap, hierarchy_depth=depth, scheme=scheme)
    layout = compute_bins(values, spec)
    # population values, every exact boundary of every level, out-of-range
    # values on both sides, and arbitrary probes
    edges = []
    for level in layout:
        b = level.boundaries
        edges += b
        for lo, hi in zip(b, b[1:]):  # edges of the widened bins
            w = (hi - lo) * overlap
            edges += [lo - w, hi + w]
    lower, upper = layout[0].boundaries[0], layout[0].boundaries[-1]
    probes = values + edges + [lower - 1.0, upper + 1.0] + extra
    rows, levels, bin_idx = assign_bins_array(np.array(probes), layout, overlap)
    expected = [
        (row, level, idx)
        for row, v in enumerate(probes)
        for level, idx in assign_bins_reference(v, layout, overlap)
    ]
    assert list(zip(rows.tolist(), levels.tolist(), bin_idx.tolist())) == expected
    for v in probes[:5]:
        assert list(assign_bins(v, layout, overlap)) == assign_bins_reference(v, layout, overlap)


def test_overlap_last_bin_is_closed():
    # a wide first bin widens past the narrow last bin's widened top edge
    level = BinLevel((0.0, 10.0, 11.0), (NEW + "b0", NEW + "b1"))
    assert assign_bins(11.5, (level,), 0.5) == ((0, 0), (0, 1))
    assert assign_bins(14.0, (level,), 0.5) == ((0, 0),)


def test_overlap_assignment_chunked_like_whole(monkeypatch):
    values = np.linspace(-5.0, 105.0, 301)
    layout = compute_bins(values, BinningSpec(bins=7, hierarchy_depth=2))
    whole = assign_bins_array(values, layout, 0.3)
    monkeypatch.setattr(binning, "_CHUNK_CELLS", 3)  # 1 value of 7 bins per chunk
    for got, want in zip(assign_bins_array(values, layout, 0.3), whole):
        assert np.array_equal(got, want)


# --- LOF oracle -------------------------------------------------------------


def lof_oracle(values: list[float], k: int) -> list[float]:
    """Textbook LOF from pairwise distances, quadratic and unvectorized."""
    n = len(values)
    dist = [[abs(values[i] - values[j]) for j in range(n)] for i in range(n)]
    kdist = []
    neighbors = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        kdist.append(kd)
        neighbors.append([j for j in range(n) if j != i and dist[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], dist[i][j]) for j in neighbors[i]]
        mean_reach = sum(reach) / len(reach)
        lrd.append(math.inf if mean_reach <= 0.0 else 1.0 / mean_reach)
    scores = []
    for i in range(n):
        if math.isinf(lrd[i]):
            scores.append(1.0)
        else:
            scores.append(sum(lrd[j] for j in neighbors[i]) / len(neighbors[i]) / lrd[i])
    return scores


def assert_scores_match(values, k):
    expected = lof_oracle(list(values), k)
    actual = lof_scores(values, k=k)
    for i, (e, a) in enumerate(zip(expected, actual)):
        if math.isinf(e) or math.isinf(a):
            assert e == a, f"index {i}: {e} vs {a}"
        else:
            assert a == pytest.approx(e, rel=1e-9), f"index {i}: {e} vs {a}"


@pytest.mark.parametrize(
    "values,k",
    [
        ([1.0, 2.0, 3.0, 4.0, 100.0], 2),
        ([0.0, 0.0, 0.0, 0.0, 5.0], 2),  # duplicate cluster
        ([0.0] * 10 + [1.0] * 10, 3),
        ([1.0, 1.1, 1.2, 0.9, 50.0, 50.1], 3),
        (list(range(30)), 5),
        ([-5.0, -4.0, 0.0, 4.0, 5.0, 4.5], 2),
    ],
)
def test_lof_matches_oracle_fixed_cases(values, k):
    assert_scores_match([float(v) for v in values], k)


@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=32),
        min_size=3,
        max_size=60,
    ),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_lof_matches_oracle_random(values, k):
    if len(values) <= k:
        return
    assert_scores_match(values, k)


def test_lof_matches_oracle_beyond_one_chunk():
    # every neighborhood holds at least k + 1 = 21 values, so 842 rows need
    # more than one chunk of reach cells
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.normal(0.0, 1.0, 760), rng.normal(30.0, 0.2, 80), [99.0, -80.0]])
    values = np.round(values, 2)  # some ties too
    assert binning._CHUNK_CELLS < len(values) * 21
    assert_scores_match(values.tolist(), 20)


def test_lof_matches_oracle_with_tie_runs_longer_than_a_chunk(monkeypatch):
    monkeypatch.setattr(binning, "_CHUNK_CELLS", 16)
    values = [0.0] * 40 + [0.5 + 0.25 * i for i in range(30)] + [3.0] * 25 + [40.0]
    assert_scores_match(values, 4)


@pytest.mark.parametrize("cells", [1, 2, 7, 50])
def test_lof_chunk_budget_never_changes_scores(monkeypatch, cells):
    rng = np.random.default_rng(11)
    values = np.concatenate(
        [rng.normal(0.0, 1.0, 300), np.full(60, 0.5), rng.normal(8.0, 0.1, 40), [25.0]]
    )
    expected = lof_scores(values, k=10)
    monkeypatch.setattr(binning, "_CHUNK_CELLS", cells)
    assert np.array_equal(lof_scores(values, k=10), expected)


def test_lof_flags_isolated_point():
    values = [float(v) for v in [10, 11, 12, 10.5, 11.5, 12.5, 500]]
    scores = lof_scores(values, k=3)
    assert np.flatnonzero(scores > 1.5).tolist() == [6]


def test_lof_uniform_population_all_retained():
    values = [float(i) for i in range(40)]
    assert np.all(lof_scores(values, k=5) <= 1.5)


def test_lof_small_population_skips(caplog):
    with caplog.at_level("WARNING", logger="literal_forge.binning"):
        scores = lof_scores([1.0, 2.0, 3.0], k=20)
    assert np.all(scores == 1.0) and scores.size == 3
    assert "LOF skipped: 3 values <= k=20" in caplog.text


def test_lof_duplicate_population_scores_one():
    assert np.all(lof_scores([7.0] * 30, k=5) == 1.0)


# --- statement emission -----------------------------------------------------


def test_bin_statements_preserves_statement_count():
    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(20)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=4))
    assert aug.delta_statements == len(group)
    assert aug.delta_entities == 4
    assert all(t.predicate == IRI(EX + "height") for t in aug.triples)


def test_next_bin_chain_runs_through_all_bins():
    # values concentrated at the ends leave middle bins empty; the chain
    # still links every consecutive pair once
    values = [0.0, 1.0, 2.0, 98.0, 99.0, 100.0]
    lines = [numeric_line(f"s{i}", "height", v) for i, v in enumerate(values)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=6))
    chain = [t for t in aug.structural_triples if t.predicate.value == NEW + NEXT_BIN]
    assert len(chain) == 5
    assert len({t.subject for t in chain} | {t.object for t in chain}) == 6
    assert aug.delta_entities < 6  # middle bins hold no statements yet sit in the chain
    for a, b in zip(chain, chain[1:]):
        assert a.object == b.subject
    assert {t.predicate.value for t in aug.structural_triples} == {NEW + NEXT_BIN}


def test_connect_adjacent_off():
    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(10)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=5, connect_adjacent=False))
    assert aug.structural_triples == []
    assert {t.predicate.value for t in aug.structural_triples} == set()


def test_hierarchy_links_children_to_parents():
    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(16)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=4, hierarchy_depth=2))
    parents = [t for t in aug.structural_triples if t.predicate.value == NEW + PARENT_BIN]
    # 4 leaves -> 2 mid -> 1 top: 4 + 2 child-parent links
    assert len(parents) == 6
    assert aug.delta_entities == 7
    # each statement lands once per level
    assert aug.delta_statements == 16 * 3


def test_outliers_split_low_high_around_midpoint():
    values = [-1000.0] + [float(v) for v in range(40, 80)] + [5000.0]
    lines = [numeric_line(f"s{i}", "height", v) for i, v in enumerate(values)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=4, lof=LofSpec(k=5, threshold=1.5)))
    assert aug.delta_statements == len(values)  # outliers keep their statements
    objs = {t.object.value for t in aug.triples}
    assert NEW + "heightOutlierLow" in objs
    assert NEW + "heightOutlierHigh" in objs
    low = [t for t in aug.triples if t.object.value.endswith("OutlierLow")]
    high = [t for t in aug.triples if t.object.value.endswith("OutlierHigh")]
    assert len(low) == 1 and len(high) == 1
    assert low[0].subject == IRI(EX + "s0")
    assert high[0].subject == IRI(EX + "s41")


def test_lof_all_flagged_skips_filter_with_warning():
    # two tight duplicate clusters at k too large: every point can look like
    # an outlier relative to the other cluster; force the degenerate case
    # with a population where all scores exceed a tiny threshold
    values = [float(i) ** 2 for i in range(10)]
    lines = [numeric_line(f"s{i}", "height", v) for i, v in enumerate(values)]
    group, graph = numeric_group(lines)
    aug = bin_group(group, graph, BinningSpec(bins=3, lof=LofSpec(k=3, threshold=1e-9)))
    assert aug.delta_statements == len(values)
    assert any("filter skipped" in w for w in aug.warnings)
    assert not any(t.object.value.endswith(("OutlierLow", "OutlierHigh")) for t in aug.triples)


def test_nbins_unparseable_values_fall_back():
    lines = [numeric_line(f"s{i}", "height", float(i)) for i in range(6)]
    lines.append(f'<{EX}s6> <{EX}height> "tall"^^<{XSD}decimal> .')
    group, graph = numeric_group(lines)
    aug = nbins(*with_aug(group, graph), BinningSpec(bins=3))
    assert aug.delta_statements == 7
    assert aug.fallback_statements == 1
    assert any("unparseable" in w for w in aug.warnings)
    fallback = [t for t in aug.triples if t.object.value == NEW + "heightAnyValue"]
    assert len(fallback) == 1
    assert fallback[0].subject == IRI(EX + "s6")


@given(
    st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, width=32),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_bin_statements_statement_count_invariant(values, bins):
    lines = [numeric_line(f"s{i}", "v", v) for i, v in enumerate(values)]
    graph = make_graph(lines)
    (group,) = graph.groups()
    aug = bin_group(group, graph, BinningSpec(bins=bins))
    assert aug.delta_statements == len(group)
    assert aug.delta_entities <= bins


@pytest.mark.parametrize("scheme", ["equal-width", "equal-frequency"])
@pytest.mark.parametrize("strategy", ["NBINS", "KLREL"])
def test_bins_span_a_range_past_the_largest_float(strategy, scheme):
    # hi - lo overflows to inf here. Equal-width bins still give the two
    # extremes bins of their own, apart from the 34 values between them.
    values = [-1.79e308, *map(float, range(34)), 1.79e308]
    lines = [f'<{EX}s{i}> <{EX}height> "{v!r}"^^<{XSD}double> .' for i, v in enumerate(values)]
    graph = make_graph(lines)
    plan = GroupPlan(strategy, {"scheme": scheme})
    result = apply(graph, StrategyConfig(namespace=NEW, overrides={EX + "height": plan}))
    (row,) = result.report.rows
    bins = [t.object.value for aug in result.augmentations for t in aug.triples]
    if scheme == "equal-width":
        assert bins == [NEW + "heightBin00", *[NEW + "heightBin05"] * 34, NEW + "heightBin09"]
    else:
        assert bins == sorted(bins) and len(set(bins)) == 10
    assert row.delta_entities == len(set(bins))
    assert row.verdict == "pass" and row.fell_back_to is None
    assert check_output(result.triples, result.report) == []


@pytest.mark.parametrize(
    "values, outliers",
    [
        # Neighbour distances pass the largest float.
        ([-1.79e308, *map(float, range(34)), 1.79e308], {"s0": "Low", "s35": "High"}),
        # The range is finite, but v + k-distance and the score ratio are not.
        ([*map(float, range(35)), 1.7e308], {"s35": "High"}),
    ],
    ids=["range-overflows", "v-plus-kdist-overflows"],
)
def test_lof_on_values_near_the_largest_float(values, outliers):
    # Tier-1 turns RuntimeWarning into an error, so no step may overflow.
    lines = [f'<{EX}s{i}> <{EX}height> "{v!r}"^^<{XSD}double> .' for i, v in enumerate(values)]
    plan = GroupPlan("NBINS", {"lof": {"k": 5, "threshold": 1.5}})
    result = apply(make_graph(lines), StrategyConfig(namespace=NEW, overrides={EX + "height": plan}))
    (aug,) = result.augmentations
    links = [(t.subject.value[len(EX):], t.object.value[len(NEW):]) for t in aug.triples]
    assert links[-len(outliers):] == [(s, "heightOutlier" + side) for s, side in outliers.items()]
    bins = [o for _, o in links[: -len(outliers)]]
    assert bins == sorted(bins) and len(set(bins)) == 10
    assert check_output(result.triples, result.report) == []


@pytest.mark.parametrize(
    "values, scale",
    [
        ([i * 5e-324 for i in range(36)], 1000),
        ([i * 1e-310 for i in range(35)] + [1.0], 64),
    ],
    ids=["all-subnormal", "subnormal-gaps-and-one"],
)
def test_lof_on_subnormal_gaps_scores_as_the_scaled_population(values, scale):
    # 1 / mean reach distance passes the largest float here, and tier-1 turns
    # RuntimeWarning into an error. Scaling by a power of two is exact, and
    # the scaled population's reach distances are all normal floats.
    scaled = [v * 2.0**scale for v in values]
    assert_scores_match(scaled, 5)
    expected = lof_scores(scaled, k=5)
    assert np.array_equal(lof_scores(values, k=5), expected)


def test_lof_lrd_past_the_largest_float_is_infinite():
    # No one power of two brings both the subnormal gaps and 1e300 into range:
    # the cluster's lrd is infinite, so it scores 1.0 and its neighbour inf.
    values = [i * 5e-324 for i in range(35)] + [1e300]
    scores = lof_scores(values, k=5)
    assert np.all(scores[:35] == 1.0)
    assert scores[35] == math.inf
    assert np.flatnonzero(scores > 1.5).tolist() == [35]
