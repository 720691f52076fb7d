"""Calendar parsing, feature extraction, and date binning.

Weekdays are cross-checked against Sakamoto's congruence and epoch days
against the days-from-civil algorithm, both written out here from the
integer arithmetic alone, independent of any date library.
"""

from __future__ import annotations

from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import IRI, Literal, Modality
from literal_forge.binning import BinningSpec
from literal_forge.temporal import (
    CalendarDate,
    IN_QUARTER,
    NEXT_DAY,
    NEXT_MONTH,
    WEEKDAY_NAMES,
    datbin,
    datfeat,
    datfeat_names,
    parse_date,
)
from literal_forge.terms import XSD_DATE, XSD_DATETIME, XSD_GYEAR, XSD_GYEARMONTH

from util import EX, NEW, XSD, date_line, make_graph


def sakamoto_weekday(y: int, m: int, d: int) -> int:
    """Day of week, 0 = Monday, by Sakamoto's congruence."""
    t = (0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4)
    if m < 3:
        y -= 1
    sunday0 = (y + y // 4 - y // 100 + y // 400 + t[m - 1] + d) % 7
    return (sunday0 + 6) % 7


def days_from_civil(y: int, m: int, d: int) -> int:
    """Days since 1970-01-01 from pure integer arithmetic."""
    y -= m <= 2
    era = y // 400  # floor division handles negative years
    yoe = y - era * 400
    doy = (153 * (m + (-3 if m > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def date_group(graph, predicate="founded"):
    return graph.literal_groups[(graph.relation_ids[EX + predicate], Modality.TEMPORAL)]


# --- CalendarDate -----------------------------------------------------------


def test_known_weekdays():
    assert CalendarDate(1607, 1, 24).weekday_name == "wednesday"
    assert CalendarDate(2000, 1, 1).weekday_name == "saturday"
    assert CalendarDate(1970, 1, 1).weekday_name == "thursday"


def test_known_timestamps():
    assert CalendarDate(1970, 1, 1).to_unix_timestamp() == 0
    assert CalendarDate(1970, 1, 2).to_unix_timestamp() == 86400
    assert CalendarDate(1969, 12, 31).to_unix_timestamp() == -86400
    assert CalendarDate(1607, 1, 24).to_unix_timestamp() == -11453184000


def test_quarter_mapping():
    expected = [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    assert [CalendarDate(2020, m, 1).quarter for m in range(1, 13)] == expected


def test_invalid_dates_rejected():
    with pytest.raises(ValueError):
        CalendarDate(2020, 13, 1)
    with pytest.raises(ValueError):
        CalendarDate(2019, 2, 29)
    CalendarDate(2020, 2, 29)  # leap day fine


_ordinals = st.integers(date(1, 1, 1).toordinal(), date(9999, 12, 31).toordinal())


@given(_ordinals)
@settings(max_examples=300, deadline=None)
def test_weekday_matches_sakamoto(ordinal):
    d = date.fromordinal(ordinal)
    assert CalendarDate(d.year, d.month, d.day).weekday == sakamoto_weekday(
        d.year, d.month, d.day
    )


@given(_ordinals)
@settings(max_examples=300, deadline=None)
def test_timestamp_matches_days_from_civil(ordinal):
    d = date.fromordinal(ordinal)
    expected = days_from_civil(d.year, d.month, d.day) * 86400
    assert CalendarDate(d.year, d.month, d.day).to_unix_timestamp() == expected


@given(_ordinals.filter(lambda o: o < date(9999, 12, 31).toordinal()))
@settings(max_examples=100, deadline=None)
def test_consecutive_days_differ_by_86400(ordinal):
    a = date.fromordinal(ordinal)
    b = a + timedelta(days=1)
    assert (
        CalendarDate(b.year, b.month, b.day).to_unix_timestamp()
        - CalendarDate(a.year, a.month, a.day).to_unix_timestamp()
        == 86400
    )


# --- parsing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "lex,dt,expected",
    [
        ("1607-01-24", XSD_DATE, (1607, 1, 24)),
        ("2004-07-14Z", XSD_DATE, (2004, 7, 14)),
        ("2004-07-14+05:30", XSD_DATE, (2004, 7, 14)),
        ("2004-07-14T23:59:59", XSD_DATETIME, (2004, 7, 14)),
        ("2004-07-14T23:59:59.123-08:00", XSD_DATETIME, (2004, 7, 14)),
        ("1999-07", XSD_GYEARMONTH, (1999, 7, 1)),
        ("1999-07Z", XSD_GYEARMONTH, (1999, 7, 1)),
        ("1607", XSD_GYEAR, (1607, 1, 1)),
        ("1607+02:00", XSD_GYEAR, (1607, 1, 1)),
        ("1999-12-31", None, (1999, 12, 31)),  # untyped but date-shaped
    ],
)
def test_parse_date_accepts(lex, dt, expected):
    literal = Literal(lex, datatype=dt) if dt else Literal(lex)
    assert parse_date(literal) == CalendarDate(*expected)


@pytest.mark.parametrize(
    "lex,dt",
    [
        ("notadate", XSD_DATE),
        ("14.07.2004", XSD_DATE),
        ("2020-13-01", XSD_DATE),
        ("2019-02-29", XSD_DATE),
        ("July 1999", XSD_GYEARMONTH),
        ("-0044-03-15", XSD_DATE),  # outside the supported year range
        ("10000-01-01", XSD_DATE),
        ("hello", None),
    ],
)
def test_parse_date_rejects(lex, dt):
    literal = Literal(lex, datatype=dt) if dt else Literal(lex)
    with pytest.raises(ValueError):
        parse_date(literal)


def test_datfeat_names_example():
    names = datfeat_names(CalendarDate(1607, 1, 24))
    assert names == ("wednesday", "day24", "month1", "quarter1", "year1607")


# --- DATFEAT ----------------------------------------------------------------


def test_datfeat_single_date():
    graph = make_graph([date_line("Mannheim", "founded", "1607-01-24")])
    aug = datfeat(date_group(graph), graph, NEW)
    assert aug.delta_statements == 5
    assert set(aug.entities) == {
        NEW + n for n in ("wednesday", "day24", "month1", "quarter1", "year1607")
    }
    assert all(t.subject == IRI(EX + "Mannheim") for t in aug.triples)
    assert all(t.predicate == IRI(EX + "founded") for t in aug.triples)
    # one quarter link, no chains from a single day/month
    assert [
        (t.subject.value, t.object.value) for t in aug.structural_triples
    ] == [(NEW + "month1", NEW + "quarter1")]
    assert {t.predicate.value for t in aug.structural_triples} == {NEW + IN_QUARTER}


def test_datfeat_chains_consecutive_observations():
    graph = make_graph(
        [
            date_line("a", "founded", "2001-03-14"),
            date_line("b", "founded", "2001-04-15"),
        ]
    )
    aug = datfeat(date_group(graph), graph, NEW)
    assert aug.delta_statements == 10
    structural = {
        (t.subject.value, t.predicate.value, t.object.value)
        for t in aug.structural_triples
    }
    assert structural == {
        (NEW + "month3", NEW + IN_QUARTER, NEW + "quarter1"),
        (NEW + "month4", NEW + IN_QUARTER, NEW + "quarter2"),
        (NEW + "day14", NEW + NEXT_DAY, NEW + "day15"),
        (NEW + "month3", NEW + NEXT_MONTH, NEW + "month4"),
    }
    assert {t.predicate.value for t in aug.structural_triples} == {
        NEW + IN_QUARTER,
        NEW + NEXT_DAY,
        NEW + NEXT_MONTH,
    }


def test_datfeat_gap_breaks_chain():
    graph = make_graph(
        [
            date_line("a", "founded", "2001-01-01"),
            date_line("b", "founded", "2001-03-01"),
        ]
    )
    aug = datfeat(date_group(graph), graph, NEW)
    assert not any(t.predicate.value == NEW + NEXT_MONTH for t in aug.structural_triples)
    assert not any(t.predicate.value == NEW + NEXT_DAY for t in aug.structural_triples)


def test_datfeat_shares_feature_entities():
    graph = make_graph(
        [
            date_line("a", "founded", "1999-05-07"),
            date_line("b", "founded", "2003-08-07"),  # same day number
        ]
    )
    aug = datfeat(date_group(graph), graph, NEW)
    assert aug.delta_statements == 10
    assert aug.entities.count(NEW + "day7") == 1
    day7_links = [t for t in aug.triples if t.object.value == NEW + "day7"]
    assert len(day7_links) == 2


def test_datfeat_without_links():
    graph = make_graph([date_line("a", "founded", "2001-03-14")])
    aug = datfeat(date_group(graph), graph, NEW, link_features=False)
    assert aug.structural_triples == []
    assert {t.predicate.value for t in aug.structural_triples} == set()


def test_datfeat_fallback_for_unparseable():
    graph = make_graph(
        [
            date_line("a", "founded", "2001-03-14"),
            date_line("b", "founded", "the middle ages"),
        ]
    )
    aug = datfeat(date_group(graph), graph, NEW)
    assert aug.delta_statements == 6  # 5 features + 1 fallback
    assert aug.fallback_statements == 1
    assert any(t.object.value == NEW + "foundedAnyValue" for t in aug.triples)
    assert any("unparseable" in w for w in aug.warnings)


@given(st.lists(_ordinals.map(date.fromordinal), min_size=1, max_size=25))
@settings(max_examples=80, deadline=None)
def test_datfeat_statement_arithmetic(dates):
    # keep to the supported year range and the fixture grammar
    dates = [d for d in dates if 1000 <= d.year <= 9999]
    if not dates:
        return
    lines = [
        date_line(f"s{i}", "founded", f"{d.year:04d}-{d.month:02d}-{d.day:02d}")
        for i, d in enumerate(dates)
    ]
    graph = make_graph(lines)
    aug = datfeat(date_group(graph), graph, NEW)
    assert aug.delta_statements == 5 * len(dates)
    assert aug.delta_entities <= 5 * len(dates)
    assert len(set(aug.entities)) == len(aug.entities)


# --- DATBIN -----------------------------------------------------------------


def test_datbin_groups_nearby_dates():
    lines = [
        date_line(f"old{i}", "founded", f"{1600 + i}-01-01") for i in range(5)
    ] + [
        date_line(f"new{i}", "founded", f"{1990 + i}-01-01") for i in range(5)
    ]
    graph = make_graph(lines)
    aug = datbin(date_group(graph), graph, BinningSpec(bins=2), NEW)
    assert aug.delta_statements == 10
    assert aug.delta_entities == 2
    assert set(aug.entities) == {NEW + "foundedBin00", NEW + "foundedBin01"}
    by_bin = {}
    for t in aug.triples:
        by_bin.setdefault(t.object.value, set()).add(t.subject.value)
    assert by_bin[NEW + "foundedBin00"] == {EX + f"old{i}" for i in range(5)}
    assert by_bin[NEW + "foundedBin01"] == {EX + f"new{i}" for i in range(5)}


def test_datbin_mixed_precision_datatypes():
    lines = [
        f'<{EX}a> <{EX}founded> "1999-07"^^<{XSD}gYearMonth> .',
        f'<{EX}b> <{EX}founded> "1607"^^<{XSD}gYear> .',
        f'<{EX}c> <{EX}founded> "2004-07-14T12:00:00"^^<{XSD}dateTime> .',
    ]
    graph = make_graph(lines)
    aug = datbin(date_group(graph), graph, BinningSpec(bins=3), NEW)
    assert aug.delta_statements == 3
    assert aug.fallback_statements == 0


def test_datbin_fallback_and_warning():
    lines = [
        date_line("a", "founded", "2001-03-14"),
        date_line("b", "founded", "2002-03-14"),
        date_line("c", "founded", "long ago"),
    ]
    graph = make_graph(lines)
    aug = datbin(date_group(graph), graph, BinningSpec(bins=2), NEW)
    assert aug.delta_statements == 3
    assert aug.fallback_statements == 1
    assert any("unparseable" in w for w in aug.warnings)
