"""Calendar parsing, feature extraction, and date binning.

Weekdays are cross-checked against Sakamoto's congruence and epoch days
against the days-from-civil algorithm, both written out here from the
integer arithmetic alone, independent of any date library.
"""

from __future__ import annotations

import re
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import IRI, BlankNode, Literal, Modality, StrategyConfig, apply, pipeline
from literal_forge.binning import BinningSpec
from literal_forge.pipeline import ONEENTITY, shortcut_defaults
from literal_forge.temporal import (
    IN_QUARTER,
    _DATE_RE,
    NEXT_DAY,
    NEXT_MONTH,
    WEEKDAY_NAMES,
    _timestamp,
    datbin,
    datfeat,
    datfeat_names,
    parse_date,
)
from literal_forge.terms import (
    RDF_LANGSTRING,
    XSD_DATE,
    XSD_DATETIME,
    XSD_GYEAR,
    XSD_GYEARMONTH,
    XSD_STRING,
)

from util import EX, NEW, XSD, assert_parse_matches_reference, date_line, make_graph, with_aug


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


# --- calendar features and timestamps ---------------------------------------


def weekday_name(d: date) -> str:
    """The weekday feature name DATFEAT gives the day *d*."""
    return datfeat_names(d)[0]


def timestamp(d: date) -> float:
    """The timestamp DATBIN bins for the xsd:date literal of day *d*."""
    return _timestamp(d.isoformat(), XSD_DATE)


def test_known_weekdays():
    assert weekday_name(parse_date("1607-01-24", XSD_DATE)) == "wednesday"
    assert weekday_name(parse_date("2000-01-01", XSD_DATE)) == "saturday"
    assert weekday_name(parse_date("1970-01-01", XSD_DATE)) == "thursday"


def test_known_timestamps():
    assert _timestamp("1970-01-01", XSD_DATE) == 0
    assert _timestamp("1970-01-02", XSD_DATE) == 86400
    assert _timestamp("1969-12-31", XSD_DATE) == -86400
    assert _timestamp("1607-01-24", XSD_DATE) == -11453184000


def test_quarter_mapping():
    expected = [f"quarter{q}" for q in (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)]
    months = [parse_date(f"2020-{m:02d}", XSD_GYEARMONTH) for m in range(1, 13)]
    assert [datfeat_names(d)[3] for d in months] == expected


def test_invalid_dates_rejected():
    with pytest.raises(ValueError):
        parse_date("2020-13-01", XSD_DATE)
    with pytest.raises(ValueError):
        parse_date("2019-02-29", XSD_DATE)
    parse_date("2020-02-29", XSD_DATE)  # leap day fine


_ordinals = st.integers(date(1, 1, 1).toordinal(), date(9999, 12, 31).toordinal())


@given(_ordinals)
@settings(max_examples=300, deadline=None)
def test_weekday_matches_sakamoto(ordinal):
    d = date.fromordinal(ordinal)
    expected = WEEKDAY_NAMES[sakamoto_weekday(d.year, d.month, d.day)]
    assert weekday_name(parse_date(d.isoformat(), XSD_DATE)) == expected


@given(_ordinals)
@settings(max_examples=300, deadline=None)
def test_timestamp_matches_days_from_civil(ordinal):
    d = date.fromordinal(ordinal)
    expected = days_from_civil(d.year, d.month, d.day) * 86400
    assert timestamp(d) == expected


@given(_ordinals.filter(lambda o: o < date(9999, 12, 31).toordinal()))
@settings(max_examples=100, deadline=None)
def test_consecutive_days_differ_by_86400(ordinal):
    a = date.fromordinal(ordinal)
    b = a + timedelta(days=1)
    assert timestamp(b) - timestamp(a) == 86400


# --- parsing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "lex,dt,expected",
    [
        ("1607-01-24", XSD_DATE, (1607, 1, 24)),
        ("2004-07-14Z", XSD_DATE, (2004, 7, 14)),
        ("2004-07-14+05:30", XSD_DATE, (2004, 7, 14)),
        ("2004-07-14T23:59:59", XSD_DATETIME, (2004, 7, 14)),
        ("2004-07-14T23:59:59.123-08:00", XSD_DATETIME, (2004, 7, 14)),
        ("2004-07-14T24:00:00", XSD_DATETIME, (2004, 7, 14)),  # the end of the day
        ("2004-07-14T00:00:00.0+14:00", XSD_DATETIME, (2004, 7, 14)),
        ("1999-07", XSD_GYEARMONTH, (1999, 7, 1)),
        ("1999-07Z", XSD_GYEARMONTH, (1999, 7, 1)),
        ("1607", XSD_GYEAR, (1607, 1, 1)),
        ("1607+02:00", XSD_GYEAR, (1607, 1, 1)),
        ("1999-12-31", None, (1999, 12, 31)),  # untyped but date-shaped
        ("1999-12-31, a Friday", None, (1999, 12, 31)),  # untyped: the leading date
        ("\r\n1999-12-31 \t", XSD_DATE, (1999, 12, 31)),  # XSD whitespace collapse
    ],
)
def test_parse_date_accepts(lex, dt, expected):
    assert parse_date(lex, dt or XSD_STRING) == date(*expected)


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
        ("99999999999-01-01", XSD_DATE),  # too large for a C int, too
        ("99999999999", XSD_GYEAR),
        ("\u0661\u0669\u0669\u0660-01-01", XSD_DATE),  # Arabic-Indic digits
        ("\u00a01999-12-31", XSD_DATE),  # a no-break space is not XSD whitespace
        ("2020-01-01garbage", XSD_DATE),  # a date matches its grammar in full
        ("2020-01-01T10:00:00", XSD_DATE),
        ("2020-01-01+15:00", XSD_DATE),
        ("2020-01-01T99:99:99", XSD_DATETIME),
        ("2020-01-01T10:00:00Zjunk", XSD_DATETIME),
        ("2020-01-01", XSD_DATETIME),  # a dateTime needs its time of day
        ("1607+99:99", XSD_GYEAR),  # a gYear's zone is a valid offset
        ("1607-15:00", XSD_GYEAR),
        ("1999-07-25:61", XSD_GYEARMONTH),  # and so is a gYearMonth's
        ("1999-07Zjunk", XSD_GYEARMONTH),
        ("hello", None),
    ],
)
def test_parse_date_rejects(lex, dt):
    with pytest.raises(ValueError):
        parse_date(lex, dt or XSD_STRING)


# The gYearMonth and gYear grammars parse_date read before their zones were
# checked: any two-digit hour and minute passed.
_GYEARMONTH_RE = re.compile(r"^(-?\d{4,})-(\d{2})(?:Z|[+-]\d{2}:\d{2})?$", re.ASCII)
_GYEAR_RE = re.compile(r"^(-?\d{4,})(?:Z|[+-]\d{2}:\d{2})?$", re.ASCII)


def _day(year: str, month: str | int, day: str | int) -> date:
    """date(), with a year too large for a C int rejected as a ValueError."""
    try:
        return date(int(year), int(month), int(day))
    except OverflowError:
        raise ValueError(f"year {year} is out of range") from None


def _parse_date_reference(literal: Literal) -> date:
    """parse_date as it read a Literal term before literal groups became columns."""
    text = literal.lexical.strip()
    dt = literal.datatype
    if dt in (XSD_DATE, XSD_DATETIME):
        m = _DATE_RE.match(text)
        if not m:
            raise ValueError(f"not a date lexical form: {literal.lexical!r}")
        return _day(m.group(1), m.group(2), m.group(3))
    if dt == XSD_GYEARMONTH:
        m = _GYEARMONTH_RE.match(text)
        if not m:
            raise ValueError(f"not a gYearMonth lexical form: {literal.lexical!r}")
        return _day(m.group(1), m.group(2), 1)
    if dt == XSD_GYEAR:
        m = _GYEAR_RE.match(text)
        if not m:
            raise ValueError(f"not a gYear lexical form: {literal.lexical!r}")
        return _day(m.group(1), 1, 1)
    m = _DATE_RE.match(text)
    if m:
        return _day(m.group(1), m.group(2), m.group(3))
    raise ValueError(f"unsupported temporal datatype: {dt}")


_YEARS = st.one_of(
    st.integers(1000, 2100).map(str),
    st.integers(0, 99999).map(lambda y: f"{y:04d}"),
    st.integers(1, 9999).map(lambda y: f"-{y:04d}"),
    st.sampled_from(["999", "+2020", "0000", "20a0"]),
)
_FIELDS = st.one_of(
    st.integers(1, 12).map(lambda v: f"{v:02d}"),
    st.integers(0, 40).map(lambda v: f"{v:02d}"),
    st.sampled_from(["1", "123", ""]),
)
_TIMES = st.sampled_from(["", "T00:00:00", "T23:59:59.123", "T24:00:00", "t1", " 12:00"])
_ZONES = st.sampled_from(["", "Z", "z", "+05:30", "-08:00", "+5:30", "-14:00:00", "+99:99"])
_SPACE = st.sampled_from(["", " ", "\t", "\n ", "\u00a0"])


@st.composite
def _date_lexicals(draw):
    year, month, day = draw(_YEARS), draw(_FIELDS), draw(_FIELDS)
    body = draw(
        st.sampled_from(
            [f"{year}-{month}-{day}{draw(_TIMES)}", f"{year}-{month}", year, draw(st.text(max_size=10))]
        )
    )
    return draw(_SPACE) + body + draw(_ZONES) + draw(_SPACE)


_DATE_OBJECTS = st.one_of(
    st.builds(
        Literal,
        _date_lexicals(),
        st.sampled_from(
            [XSD_DATE, XSD_DATETIME, XSD_GYEAR, XSD_GYEARMONTH, XSD_STRING, XSD + "integer"]
        ),
    ),
    st.builds(lambda lex: Literal(lex, RDF_LANGSTRING, "en"), _date_lexicals()),
    st.builds(IRI, _date_lexicals()),
    st.builds(BlankNode, _date_lexicals()),
)


@given(st.lists(_DATE_OBJECTS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_column_parse_matches_literal_parse_date(objects):
    assert_parse_matches_reference(parse_date, _parse_date_reference, objects)


def test_datfeat_names_example():
    names = datfeat_names(parse_date("1607-01-24", XSD_DATE))
    assert names == ("wednesday", "day24", "month1", "quarter1", "year1607")


# --- DATFEAT ----------------------------------------------------------------


def test_datfeat_single_date():
    graph = make_graph([date_line("Mannheim", "founded", "1607-01-24")])
    aug = datfeat(*with_aug(date_group(graph), graph))
    assert aug.delta_statements == 5
    assert [t.object.value for t in aug.triples] == [
        NEW + n for n in ("wednesday", "day24", "month1", "quarter1", "year1607")
    ]
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
    aug = datfeat(*with_aug(date_group(graph), graph))
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
    aug = datfeat(*with_aug(date_group(graph), graph))
    assert not any(t.predicate.value == NEW + NEXT_MONTH for t in aug.structural_triples)
    assert not any(t.predicate.value == NEW + NEXT_DAY for t in aug.structural_triples)


def test_datfeat_shares_feature_entities():
    graph = make_graph(
        [
            date_line("a", "founded", "1999-05-07"),
            date_line("b", "founded", "2003-08-07"),  # same day number
        ]
    )
    aug = datfeat(*with_aug(date_group(graph), graph))
    assert aug.delta_statements == 10
    assert aug.delta_entities == 9  # day7 is shared; every other feature differs
    day7_links = [t for t in aug.triples if t.object.value == NEW + "day7"]
    assert len(day7_links) == 2


def test_datfeat_without_links():
    graph = make_graph([date_line("a", "founded", "2001-03-14")])
    aug = datfeat(*with_aug(date_group(graph), graph), link_features=False)
    assert aug.structural_triples == []
    assert {t.predicate.value for t in aug.structural_triples} == set()


def test_datfeat_fallback_for_unparseable():
    graph = make_graph(
        [
            date_line("a", "founded", "2001-03-14"),
            date_line("b", "founded", "the middle ages"),
        ]
    )
    aug = datfeat(*with_aug(date_group(graph), graph))
    assert aug.delta_statements == 6  # 5 features + 1 fallback
    assert aug.fallback_statements == 1
    assert any(t.object.value == NEW + "foundedAnyValue" for t in aug.triples)
    assert any("unparseable" in w for w in aug.warnings)


def datfeat_config():
    return StrategyConfig(namespace=NEW, defaults=shortcut_defaults("DATFEAT", None))


@pytest.mark.parametrize(
    "lexicals,allowance",
    [
        (["1999-07-25"] * 3, 5),  # five features of one value
        ([str(date(2000, 1, 1) + timedelta(days=i)) for i in range(3)], 15),
        ([str(date(2000, 1, 1) + timedelta(days=i)) for i in range(200)], 254),  # 54 + a year each
        (["1999-07-25", "2001-03-14", "the middle ages"], 16),  # 5·3, plus AnyValue
    ],
)
def test_datfeat_entity_allowance_is_fixed_by_the_input(lexicals, allowance):
    lines = [date_line(f"s{i}", "founded", lexical) for i, lexical in enumerate(lexicals)]
    (row,) = apply(make_graph(lines), datfeat_config()).report.rows
    assert row.entity_allowance == allowance
    assert row.delta_entities <= allowance and row.verdict == "pass"


def test_datfeat_minting_one_entity_too_many_fails(monkeypatch):
    def one_too_many(group, aug, **kwargs):
        aug = datfeat(group, aug, **kwargs)
        aug.objects[-1] = NEW + "year2000"  # a second year for the one value
        return aug

    monkeypatch.setattr(pipeline, "datfeat", one_too_many)
    lines = [date_line(f"s{i}", "founded", "1999-07-25") for i in range(2)]
    (row,) = apply(make_graph(lines), datfeat_config()).report.rows
    assert (row.delta_entities, row.entity_allowance, row.delta_statements) == (6, 5, 10)
    assert row.verdict == "fail: delta_entities 6 exceeds allowance 5"


@pytest.mark.parametrize("strategy", ["DATFEAT", "DATBIN"])
def test_a_year_out_of_range_links_only_its_statement_to_any_value(strategy):
    graph = make_graph(
        [
            date_line("a", "born", "1990-05-14"),
            date_line("b", "born", "1991-06-15"),
            date_line("c", "born", "99999999999-01-01"),
        ]
    )
    config = StrategyConfig(defaults=shortcut_defaults(strategy, ONEENTITY))
    result = apply(graph, config)
    [row] = result.report.rows
    assert (row.strategy, row.fell_back_to) == (strategy, None)
    assert (row.parsed, row.fallback_statements) == (2, 1)
    assert row.verdict.startswith("pass")
    fallback = [t for t in result.minted if t.object.value == NEW + "bornAnyValue"]
    assert [t.subject.value for t in fallback] == [EX + "c"]


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
    aug = datfeat(*with_aug(date_group(graph), graph))
    assert aug.delta_statements == 5 * len(dates)
    assert aug.delta_entities <= 5 * len(dates)


# --- DATBIN -----------------------------------------------------------------


def test_datbin_groups_nearby_dates():
    lines = [
        date_line(f"old{i}", "founded", f"{1600 + i}-01-01") for i in range(5)
    ] + [
        date_line(f"new{i}", "founded", f"{1990 + i}-01-01") for i in range(5)
    ]
    graph = make_graph(lines)
    aug = datbin(*with_aug(date_group(graph), graph), BinningSpec(bins=2))
    assert aug.delta_statements == 10
    assert aug.delta_entities == 2
    assert aug.minted_objects == {NEW + "foundedBin00", NEW + "foundedBin01"}
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
    aug = datbin(*with_aug(date_group(graph), graph), BinningSpec(bins=3))
    assert aug.delta_statements == 3
    assert aug.fallback_statements == 0


def test_datbin_fallback_and_warning():
    lines = [
        date_line("a", "founded", "2001-03-14"),
        date_line("b", "founded", "2002-03-14"),
        date_line("c", "founded", "long ago"),
    ]
    graph = make_graph(lines)
    aug = datbin(*with_aug(date_group(graph), graph), BinningSpec(bins=2))
    assert aug.delta_statements == 3
    assert aug.fallback_statements == 1
    assert any("unparseable" in w for w in aug.warnings)
