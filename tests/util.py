"""Shared builders for test graphs."""

from __future__ import annotations

import json
import re

from literal_forge import IRI, ModalityRules, Triple, build_index, parse_ntriples
from literal_forge.baselines import parse_or_reject
from literal_forge.pipeline import augmentation_for

EX = "http://ex.org/"
XSD = "http://www.w3.org/2001/XMLSchema#"
NEW = "http://example.org/new/"

MANNHEIM_NT = b"""\
<http://ex.org/Mannheim> <http://ex.org/country> <http://ex.org/Germany> .
<http://ex.org/Mannheim> <http://ex.org/federalState> <http://ex.org/BW> .
<http://ex.org/Mannheim> <http://ex.org/populationMetro> "2362046"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/Mannheim> <http://ex.org/foundingDate> "1607-01-24"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex.org/Mannheim> <http://ex.org/abstract> "Mannheim, officially the University City of Mannheim, is a city in Baden Wurttemberg"@en .
<http://ex.org/Mannheim> <http://ex.org/depiction> <http://ex.org/img/mannheim.jpg> .
"""

IMAGE_RULES = ModalityRules(image_predicates=frozenset({EX + "depiction"}))


def with_aug(group, graph, namespace: str = NEW) -> tuple:
    """(group, augmentation): the leading arguments of every strategy, with
    the augmentation apply hands a strategy for *group* when it mints under
    *namespace*."""
    return group, augmentation_for(group, graph, namespace)


def make_graph(lines: list[str], rules: ModalityRules | None = None):
    data = ("\n".join(lines) + "\n").encode()
    triples, diagnostics = parse_ntriples(data)
    assert not diagnostics, diagnostics
    return build_index(triples, rules or ModalityRules())


def numeric_line(subject: str, predicate: str, value) -> str:
    return f'<{EX}{subject}> <{EX}{predicate}> "{value}"^^<{XSD}decimal> .'


def date_line(subject: str, predicate: str, value: str) -> str:
    return f'<{EX}{subject}> <{EX}{predicate}> "{value}"^^<{XSD}date> .'


def text_line(subject: str, predicate: str, value: str, lang: str = "en") -> str:
    return f'<{EX}{subject}> <{EX}{predicate}> "{value}"@{lang} .'


def rel_line(subject: str, predicate: str, obj: str) -> str:
    return f"<{EX}{subject}> <{EX}{predicate}> <{EX}{obj}> ."


def write_tag_map(path, mapping: dict[str, str]) -> str:
    """Tag-map file with one full-confidence label per image key."""
    payload = {key: [{"name": label, "score": 1.0}] for key, label in mapping.items()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_city(directory) -> tuple:
    """(graph, config) paths under *directory*: the city fixture, and a config
    that reads its depiction as an image through a one-label tag map."""
    graph = directory / "mannheim.nt"
    graph.write_bytes(MANNHEIM_NT)
    tags = write_tag_map(directory / "tags.json", {EX + "img/mannheim.jpg": "building"})
    config = directory / "config.json"
    settings = {
        "image_predicates": sorted(IMAGE_RULES.image_predicates),
        "image_provider": {"kind": "tag-map", "path": tags},
    }
    config.write_text(json.dumps(settings), encoding="utf-8")
    return graph, config


def parse_outcomes(parse, objects) -> list[tuple]:
    """Each object's outcome under parse_or_reject(group, parse), where the
    group holds one statement per object, subject i to object i: ("value",
    repr of the value) or ("rejected",). Image references may be objects."""
    triples = [Triple(IRI(f"{EX}s{i}"), IRI(EX + "p"), obj) for i, obj in enumerate(objects)]
    (group,) = build_index(triples, ModalityRules(image_predicates=frozenset({EX + "p"}))).groups()
    subject_ids, values, rejected = parse_or_reject(group, parse)
    assert sorted(subject_ids + rejected) == list(range(len(objects)))
    assert subject_ids == sorted(subject_ids) and rejected == sorted(rejected)
    accepted = dict(zip(subject_ids, map(repr, values)))
    return [("value", accepted[i]) if i in accepted else ("rejected",) for i in range(len(objects))]


def reference_outcomes(parse, objects) -> list[tuple]:
    """parse_outcomes for a *parse* that reads the object term, as
    parse_or_reject called it before literal groups were columns: a
    ValueError or an AttributeError (an object that is not a literal) rejects."""
    out = []
    for obj in objects:
        try:
            out.append(("value", repr(parse(obj))))
        except (ValueError, AttributeError):
            out.append(("rejected",))
    return out


# The three deliberate differences from the references:
# - numbers and dates are read by their XSD grammar in ASCII, so a lexical
#   form that holds a character other than printable ASCII or XSD whitespace
#   (space, tab, CR, LF) may be rejected where the reference accepted it;
# - an xsd:date or xsd:dateTime must match its XSD 1.1 grammar in full, where
#   the reference read only the leading date;
# - an xsd:gYear or xsd:gYearMonth zone must be a valid offset (up to 14:00),
#   where the reference took any two-digit hour and minute.
_NOT_XSD_ASCII = re.compile(r"[^\x20-\x7e\t\r\n]")
_ZONE = r"(Z|[+-]((0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
_XSD_DATES = {
    XSD + "date": re.compile(r"-?[0-9]{4,}-[0-9]{2}-[0-9]{2}" + _ZONE),
    XSD + "dateTime": re.compile(
        r"-?[0-9]{4,}-[0-9]{2}-[0-9]{2}T"
        r"(([01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](\.[0-9]+)?|24:00:00(\.0+)?)" + _ZONE
    ),
    XSD + "gYearMonth": re.compile(r"-?[0-9]{4,}-[0-9]{2}" + _ZONE),
    XSD + "gYear": re.compile(r"-?[0-9]{4,}" + _ZONE),
}


def _outside_date_grammar(obj) -> bool:
    grammar = _XSD_DATES.get(getattr(obj, "datatype", None))
    return grammar is not None and not grammar.fullmatch(obj.lexical.strip(" \t\r\n"))


def assert_parse_matches_reference(parse, reference, objects) -> None:
    """parse_outcomes under *parse* equal reference_outcomes under
    *reference*, but for the three deliberate differences above."""
    got = parse_outcomes(parse, objects)
    expected = reference_outcomes(reference, objects)
    for obj, outcome, wanted in zip(objects, got, expected):
        if outcome != wanted:
            assert outcome == ("rejected",), (obj, outcome, wanted)
            assert _NOT_XSD_ASCII.search(obj.lexical) or _outside_date_grammar(obj), (
                obj, outcome, wanted
            )
