"""Date and timestamp handling: calendar feature extraction and date binning.

Dates are interpreted in the proleptic Gregorian calendar. Two strategies
live here: DATBIN converts each date to a UNIX timestamp and reuses numeric
binning; DATFEAT links each subject to five calendar feature entities
(weekday, day of month, month, quarter, year) and adds structural triples
that wire the calendar itself together.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as _date
import re

from .baselines import Augmentation, DEFAULT_NAMESPACE, mint_any_value_triple, subject_term
from .binning import BinningSpec, LofSpec, bin_statements
from .graph import IndexedGraph, LiteralGroup
from .terms import (
    IRI,
    Literal,
    Triple,
    XSD_DATE,
    XSD_DATETIME,
    XSD_GYEAR,
    XSD_GYEARMONTH,
)

IN_QUARTER = "inQuarter"
NEXT_DAY = "nextDay"
NEXT_MONTH = "nextMonth"

WEEKDAY_NAMES = (
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
)

_EPOCH = _date(1970, 1, 1)

_DATE_RE = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})")
_GYEARMONTH_RE = re.compile(r"^(-?\d{4,})-(\d{2})(?:Z|[+-]\d{2}:\d{2})?$")
_GYEAR_RE = re.compile(r"^(-?\d{4,})(?:Z|[+-]\d{2}:\d{2})?$")


@dataclass(frozen=True, slots=True)
class CalendarDate:
    """A proleptic Gregorian calendar day."""

    year: int
    month: int
    day: int

    def __post_init__(self) -> None:
        _date(self.year, self.month, self.day)  # validates month/day ranges

    @property
    def weekday(self) -> int:
        """0 = Monday .. 6 = Sunday."""
        return _date(self.year, self.month, self.day).weekday()

    @property
    def weekday_name(self) -> str:
        return WEEKDAY_NAMES[self.weekday]

    @property
    def quarter(self) -> int:
        return (self.month + 2) // 3

    def to_unix_timestamp(self) -> int:
        """Seconds since 1970-01-01T00:00:00, midnight of this day, no zone."""
        days = (_date(self.year, self.month, self.day) - _EPOCH).days
        return days * 86400


def parse_date(literal: Literal) -> CalendarDate:
    """Extract the calendar day from a date-like literal.

    Handles full dates, dateTimes (time of day dropped), gYear (January 1st)
    and gYearMonth (first of the month). Timezone offsets are ignored; the
    lexical calendar fields alone decide the day. Raises ValueError on
    anything else so callers can fall back.
    """
    text = literal.lexical.strip()
    dt = literal.datatype
    if dt in (XSD_DATE, XSD_DATETIME):
        m = _DATE_RE.match(text)
        if not m:
            raise ValueError(f"not a date lexical form: {literal.lexical!r}")
        return CalendarDate(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if dt == XSD_GYEARMONTH:
        m = _GYEARMONTH_RE.match(text)
        if not m:
            raise ValueError(f"not a gYearMonth lexical form: {literal.lexical!r}")
        return CalendarDate(int(m.group(1)), int(m.group(2)), 1)
    if dt == XSD_GYEAR:
        m = _GYEAR_RE.match(text)
        if not m:
            raise ValueError(f"not a gYear lexical form: {literal.lexical!r}")
        return CalendarDate(int(m.group(1)), 1, 1)
    # Untyped or oddly typed values still parse when they look like a date.
    m = _DATE_RE.match(text)
    if m:
        return CalendarDate(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    raise ValueError(f"unsupported temporal datatype: {dt}")


def datfeat_names(day: CalendarDate) -> tuple[str, str, str, str, str]:
    """The five feature entity local names for one calendar day."""
    return (
        day.weekday_name,
        f"day{day.day}",
        f"month{day.month}",
        f"quarter{day.quarter}",
        f"year{day.year}",
    )


def _parse_group(
    group: LiteralGroup,
) -> tuple[list[tuple[int, CalendarDate]], list[int]]:
    parsed: list[tuple[int, CalendarDate]] = []
    fallback: list[int] = []
    for subject_id, obj in group.statements:
        try:
            parsed.append((subject_id, parse_date(obj)))  # type: ignore[arg-type]
        except (ValueError, AttributeError):
            fallback.append(subject_id)
    return parsed, fallback


def datbin(
    group: LiteralGroup,
    graph: IndexedGraph,
    spec: BinningSpec,
    namespace: str = DEFAULT_NAMESPACE,
    lof: LofSpec | None = None,
) -> Augmentation:
    """Date binning: UNIX timestamps through the numeric binning machinery."""
    aug = Augmentation()
    parsed, fallback = _parse_group(group)
    if parsed:
        stamps = [(sid, float(day.to_unix_timestamp())) for sid, day in parsed]
        bin_statements(group, graph, spec, namespace, lof, statements=stamps, aug=aug)
    for subject_id in fallback:
        mint_any_value_triple(graph, group, subject_id, namespace, aug)
    if fallback:
        aug.fallback_statements = len(fallback)
        aug.warnings.append(
            f"{group.predicate}: {len(fallback)} unparseable date statements got AnyValue links"
        )
    return aug


def datfeat(
    group: LiteralGroup,
    graph: IndexedGraph,
    namespace: str = DEFAULT_NAMESPACE,
    link_features: bool = True,
) -> Augmentation:
    """Calendar features: five statement triples per parsed date.

    Feature entities form one shared calendar vocabulary, so two predicates
    observing January both link to the same month1. Only observed features
    are minted. Structural triples connect observed months to their quarter
    and chain consecutive observed days and months.
    """
    aug = Augmentation()
    parsed, fallback = _parse_group(group)
    predicate = IRI(group.predicate)
    months_seen: set[int] = set()
    days_seen: set[int] = set()
    for subject_id, day in parsed:
        subj = subject_term(graph, subject_id)
        for name in datfeat_names(day):
            iri = namespace + name
            aug.add_entity(iri)
            aug.triples.append(Triple(subj, predicate, IRI(iri)))
            aug.weights.append(None)
        months_seen.add(day.month)
        days_seen.add(day.day)
    if link_features and parsed:
        in_quarter = namespace + IN_QUARTER
        for month in sorted(months_seen):
            quarter = (month + 2) // 3
            aug.structural_triples.append(
                Triple(
                    IRI(f"{namespace}month{month}"),
                    IRI(in_quarter),
                    IRI(f"{namespace}quarter{quarter}"),
                )
            )
        day_list = sorted(days_seen)
        if len(day_list) > 1:
            next_day = namespace + NEXT_DAY
            for a, b in zip(day_list, day_list[1:]):
                if b == a + 1:
                    aug.structural_triples.append(
                        Triple(
                            IRI(f"{namespace}day{a}"),
                            IRI(next_day),
                            IRI(f"{namespace}day{b}"),
                        )
                    )
        month_list = sorted(months_seen)
        if len(month_list) > 1:
            next_month = namespace + NEXT_MONTH
            for a, b in zip(month_list, month_list[1:]):
                if b == a + 1:
                    aug.structural_triples.append(
                        Triple(
                            IRI(f"{namespace}month{a}"),
                            IRI(next_month),
                            IRI(f"{namespace}month{b}"),
                        )
                    )
    for subject_id in fallback:
        mint_any_value_triple(graph, group, subject_id, namespace, aug)
    if fallback:
        aug.fallback_statements = len(fallback)
        aug.warnings.append(
            f"{group.predicate}: {len(fallback)} unparseable date statements got AnyValue links"
        )
    return aug
