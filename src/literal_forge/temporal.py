"""Date and timestamp handling: calendar feature extraction and date binning.

Dates are interpreted in the proleptic Gregorian calendar. Two strategies
live here: DATBIN converts each date to a UNIX timestamp and reuses numeric
binning; DATFEAT links each subject to five calendar feature entities
(weekday, day of month, month, quarter, year) and adds structural triples
that wire the calendar itself together.
"""

from __future__ import annotations

from datetime import date
import re
from sys import intern

from .baselines import Augmentation, link_any_value, note_fallback, parse_or_reject
from .graph import LiteralGroup
from .plans import BinningSpec
from .terms import XSD, XSD_DATE, XSD_DATETIME, XSD_GYEAR, XSD_GYEARMONTH, XSD_SPACE

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

_EPOCH = date(1970, 1, 1)

# ASCII digits only, as in the XSD lexical forms. _DATE_RE reads the leading
# date of an untyped value; the four XSD date types must match in full. A
# gYearMonth or gYear leaves the fields it lacks empty.
_DATE_RE = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})", re.ASCII)
_ZONE = r"(?:Z|[+-](?:(?:0\d|1[0-3]):[0-5]\d|14:00))?"
_TIME = r"T(?:(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.\d+)?|24:00:00(?:\.0+)?)"
_FULL = {
    XSD_DATE: re.compile(_DATE_RE.pattern + _ZONE, re.ASCII),
    XSD_DATETIME: re.compile(_DATE_RE.pattern + _TIME + _ZONE, re.ASCII),
    XSD_GYEARMONTH: re.compile(r"(-?\d{4,})-(\d{2})()" + _ZONE, re.ASCII),
    XSD_GYEAR: re.compile(r"(-?\d{4,})()()" + _ZONE, re.ASCII),
}


def parse_date(lexical: str, dt: str) -> date:
    """Extract the calendar day from a date-like literal's lexical form.

    Handles full dates, dateTimes (time of day dropped), gYear (January 1st)
    and gYearMonth (first of the month), by the datatype *dt*. Each must
    match its XSD grammar in full, a valid zone included. Timezone offsets are
    ignored; the lexical calendar fields alone decide the day.
    Only ASCII digits count, after XSD whitespace collapse. Raises
    ValueError on anything else, a year out of datetime's range included, so
    callers can fall back.
    """
    text = lexical.strip(XSD_SPACE)
    if dt in _FULL:
        m = _FULL[dt].fullmatch(text)
        if not m:
            raise ValueError(f"not an xsd:{dt[len(XSD):]} lexical form: {lexical!r}")
    else:
        # Untyped or oddly typed values still parse when they look like a date.
        m = _DATE_RE.match(text)
        if not m:
            raise ValueError(f"unsupported temporal datatype: {dt}")
    year, month, day = m.groups()
    try:
        return date(int(year), int(month or 1), int(day or 1))
    except OverflowError:  # a year too large for a C int
        raise ValueError(f"year {year} is out of range") from None


def datfeat_names(day: date) -> tuple[str, str, str, str, str]:
    """The five feature entity local names for one calendar day."""
    return (
        WEEKDAY_NAMES[day.weekday()],
        f"day{day.day}",
        f"month{day.month}",
        f"quarter{(day.month + 2) // 3}",
        f"year{day.year}",
    )


def _timestamp(lexical: str, dt: str) -> float:
    """Seconds since 1970-01-01T00:00:00 to midnight of the parsed day, no zone."""
    return float((parse_date(lexical, dt) - _EPOCH).days * 86400)


def datbin(group: LiteralGroup, aug: Augmentation, spec: BinningSpec) -> Augmentation:
    """Date binning: UNIX timestamps through the numeric binning runner."""
    from .binning import nbins  # here, so DATFEAT runs without numpy
    return nbins(group, aug, spec, parse=_timestamp, kind="date")


def datfeat(group: LiteralGroup, aug: Augmentation, link_features: bool = True) -> Augmentation:
    """Calendar features: five links per parsed date.

    Feature entities form one shared calendar vocabulary, so two predicates
    observing January both link to the same month1. Only observed features
    are minted. Structural statements connect observed months to their quarter
    and chain consecutive observed days and months.
    """
    namespace = aug.namespace
    subject_ids, days, rejected = parse_or_reject(group, parse_date)
    for subject_id, day in zip(subject_ids, days):
        # Interned, so each distinct feature IRI is one string.
        aug.link([subject_id] * 5, [intern(namespace + name) for name in datfeat_names(day)])
    if link_features and days:
        months = sorted({day.month for day in days})
        for month in months:
            quarter = f"{namespace}quarter{(month + 2) // 3}"
            aug.join(f"{namespace}month{month}", namespace + IN_QUARTER, quarter)
        chains = (("day", NEXT_DAY, sorted({day.day for day in days})), ("month", NEXT_MONTH, months))
        for unit, relation, seen in chains:
            for a, b in zip(seen, seen[1:]):
                if b == a + 1:
                    aug.join(f"{namespace}{unit}{a}", namespace + relation, f"{namespace}{unit}{b}")
    link_any_value(aug, rejected)
    note_fallback(aug, len(rejected), f"{len(rejected)} unparseable date statements")
    return aug
