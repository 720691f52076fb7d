"""Literal-removal baselines and the minting rules shared by all strategies.

EXCLUDE drops literal statements, TRANSFORM mints one entity per distinct
(predicate, value) pair, ONEENTITY mints a single per-predicate entity that
only records the presence of a value. Minted IRIs live under a reserved
namespace so they can never collide with pre-existing entities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from urllib.parse import quote

from .graph import IndexedGraph, LiteralGroup
from .terms import IRI, Literal, Term, Triple, local_name

DEFAULT_NAMESPACE = "http://example.org/new/"

#: Lexical values longer than this are truncated and hash-suffixed.
_MAX_VALUE_CHARS = 64


def sanitize_value(value: str) -> str:
    """IRI-safe local-name fragment for a lexical value.

    Short safe values pass through untouched (keeping the
    ``populationMetro2362046`` naming pattern); anything longer than 64
    characters is trimmed and given an 8-hex-digit content hash suffix so
    distinct long values cannot collide after truncation.
    """
    truncated = value[:_MAX_VALUE_CHARS]
    encoded = quote(truncated, safe="")
    if truncated != value:
        digest = hashlib.sha256(value.encode("utf-8")).hexdigest()[:8]
        encoded = f"{encoded}-{digest}"
    return encoded


@dataclass
class Augmentation:
    """New entities and statements produced by one strategy application.

    *triples* link original subjects to minted entities and are counted as
    added statements; *structural_triples* connect minted entities to each
    other (bin chains, calendar scaffolding) and are accounted separately.
    *weights* optionally carries a score per entry of *triples* (parallel
    list, None where no score applies).
    """

    entities: list[str] = field(default_factory=list)
    triples: list[Triple] = field(default_factory=list)
    removed: int = 0
    structural_triples: list[Triple] = field(default_factory=list)
    weights: list[float | None] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    fallback_statements: int = 0

    def add_entity(self, iri: str) -> str:
        if iri not in self._entity_set:
            self._entity_set.add(iri)
            self.entities.append(iri)
        return iri

    def __post_init__(self) -> None:
        self._entity_set = set(self.entities)

    @property
    def delta_entities(self) -> int:
        return len(self.entities)

    @property
    def delta_statements(self) -> int:
        return len(self.triples)


def subject_term(graph: IndexedGraph, subject_id: int) -> Term:
    return graph.entity_terms[subject_id]


def mint_any_value_triple(
    graph: IndexedGraph, group: LiteralGroup, subject_id: int, namespace: str, aug: Augmentation
) -> None:
    """ONEENTITY-style fallback link for a single statement."""
    iri = namespace + sanitize_value(local_name(group.predicate)) + "AnyValue"
    aug.add_entity(iri)
    aug.triples.append(
        Triple(subject_term(graph, subject_id), IRI(group.predicate), IRI(iri))
    )
    aug.weights.append(None)


def exclude(group: LiteralGroup) -> Augmentation:
    """Drop every literal statement of the group."""
    return Augmentation(removed=len(group.statements))


def transform_literal2entity(
    group: LiteralGroup, graph: IndexedGraph, namespace: str = DEFAULT_NAMESPACE
) -> Augmentation:
    """One entity per distinct literal value of the predicate.

    Statements with equal lexical forms share the minted entity; equality is
    exact lexical-form equality, numeric normalization is left to binning.
    """
    aug = Augmentation()
    pred_local = sanitize_value(local_name(group.predicate))
    predicate = IRI(group.predicate)
    by_value: dict[str, IRI] = {}
    for subject_id, obj in group.statements:
        lexical = obj.lexical if isinstance(obj, Literal) else obj.value
        entity = by_value.get(lexical)
        if entity is None:
            entity = IRI(namespace + pred_local + sanitize_value(lexical))
            by_value[lexical] = entity
            aug.add_entity(entity.value)
        aug.triples.append(Triple(subject_term(graph, subject_id), predicate, entity))
        aug.weights.append(None)
    return aug


def one_entity(
    group: LiteralGroup, graph: IndexedGraph, namespace: str = DEFAULT_NAMESPACE
) -> Augmentation:
    """A single entity per predicate, ignoring the literal values entirely."""
    aug = Augmentation()
    entity = IRI(namespace + sanitize_value(local_name(group.predicate)) + "AnyValue")
    aug.add_entity(entity.value)
    predicate = IRI(group.predicate)
    for subject_id, _ in group.statements:
        aug.triples.append(Triple(subject_term(graph, subject_id), predicate, entity))
        aug.weights.append(None)
    return aug
