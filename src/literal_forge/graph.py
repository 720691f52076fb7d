"""Dictionary-encoded in-memory graph with literal grouping and profiling.

Every entity and predicate is assigned a dense integer id in first-encounter
order, making id assignment deterministic for identical input bytes.
Literal statements are kept out of the relational adjacency and grouped by
(predicate, modality); each group is the unit that a rewrite strategy is
applied to.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .terms import (
    IRI,
    BlankNode,
    Literal,
    NUMERIC_DATATYPES,
    TEMPORAL_DATATYPES,
    TEXT_DATATYPES,
    Term,
    Triple,
    XSD_BASE64,
)


class Modality(enum.Enum):
    NUMERIC = "numeric"
    TEMPORAL = "temporal"
    TEXT = "text"
    IMAGE = "image"
    OTHER = "other"


@dataclass(frozen=True)
class ModalityRules:
    """Configuration for routing literal statements to modality groups.

    Predicates in *image_predicates* have their objects (IRI or literal)
    treated as image references. *predicate_modalities* pins a predicate to a
    fixed modality and wins over datatype-based rules.
    """

    image_predicates: frozenset[str] = frozenset()
    predicate_modalities: dict[str, Modality] = field(default_factory=dict)
    base64_is_image: bool = True


def classify_modality(literal: Literal, predicate: str, rules: ModalityRules) -> Modality:
    """Total classification of a literal into exactly one modality."""
    override = rules.predicate_modalities.get(predicate)
    if override is not None:
        return override
    if predicate in rules.image_predicates:
        return Modality.IMAGE
    dt = literal.datatype
    if dt in NUMERIC_DATATYPES:
        return Modality.NUMERIC
    if dt in TEMPORAL_DATATYPES:
        return Modality.TEMPORAL
    if dt in TEXT_DATATYPES:
        return Modality.TEXT
    if rules.base64_is_image and dt == XSD_BASE64:
        return Modality.IMAGE
    return Modality.OTHER


@dataclass
class LiteralGroup:
    """All (subject, value) statements sharing one predicate and modality.

    Objects are Literal terms, except in image groups, where IRI-valued
    objects of configured image predicates are routed here as well.
    """

    predicate_id: int
    predicate: str
    modality: Modality
    statements: list[tuple[int, Term]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass
class IndexedGraph:
    entity_terms: list[Term] = field(default_factory=list)
    entity_ids: dict[Term, int] = field(default_factory=dict)
    relation_iris: list[str] = field(default_factory=list)
    relation_ids: dict[str, int] = field(default_factory=dict)
    # Relational statements in first-encounter order, deduplicated: as ids,
    # and as the parsed triples themselves, which pass through untouched.
    relational: list[tuple[int, int, int]] = field(default_factory=list)
    relational_statements: list[Triple] = field(default_factory=list)
    literal_groups: dict[tuple[int, Modality], LiteralGroup] = field(default_factory=dict)
    duplicates_removed: int = 0
    rules: ModalityRules = field(default_factory=ModalityRules)

    def entity_id(self, term: Term) -> int:
        eid = self.entity_ids.get(term)
        if eid is None:
            eid = len(self.entity_terms)
            self.entity_ids[term] = eid
            self.entity_terms.append(term)
        return eid

    def relation_id(self, iri: str) -> int:
        rid = self.relation_ids.get(iri)
        if rid is None:
            rid = len(self.relation_iris)
            self.relation_ids[iri] = rid
            self.relation_iris.append(iri)
        return rid

    def groups(self) -> list[LiteralGroup]:
        """Literal groups in deterministic (predicate id, modality) order."""
        return [
            self.literal_groups[key]
            for key in sorted(self.literal_groups, key=lambda k: (k[0], k[1].value))
        ]

    def relational_triples(self) -> Iterator[Triple]:
        """The relational triples as parsed, deduplicated, in input order."""
        return iter(self.relational_statements)

    # Adjacency is read only by the relational-signature strategies, so it
    # is built from the id tuples on first access, once indexing is done.
    @cached_property
    def out_edges(self) -> dict[int, list[tuple[int, int]]]:
        edges: dict[int, list[tuple[int, int]]] = {}
        for s, r, o in self.relational:
            edges.setdefault(s, []).append((r, o))
        return edges

    @cached_property
    def in_edges(self) -> dict[int, list[tuple[int, int]]]:
        edges: dict[int, list[tuple[int, int]]] = {}
        for s, r, o in self.relational:
            edges.setdefault(o, []).append((r, s))
        return edges

    @property
    def num_relational(self) -> int:
        return len(self.relational)

    @property
    def num_literal_statements(self) -> int:
        return sum(len(g) for g in self.literal_groups.values())


def build_index(triples: Iterable[Triple], rules: ModalityRules | None = None) -> IndexedGraph:
    """Index triples into relational statements plus literal groups.

    Exact repeats are dropped and counted in duplicates_removed.
    """
    graph = IndexedGraph(rules=rules or ModalityRules())
    rules = graph.rules
    seen_relational: set[tuple[int, int, int]] = set()
    seen_literal: set[tuple[int, int, Term]] = set()
    for triple in triples:
        predicate = triple.predicate
        if not isinstance(predicate, IRI):
            raise ValueError(f"predicate must be an IRI: {predicate}")
        rid = graph.relation_id(predicate.value)
        obj = triple.object
        sid = graph.entity_id(triple.subject)
        if isinstance(obj, Literal):
            modality = classify_modality(obj, predicate.value, rules)
        elif predicate.value in rules.image_predicates:
            # IRI-valued image references are literal information, not edges.
            modality = Modality.IMAGE
        else:
            oid = graph.entity_id(obj)
            key = (sid, rid, oid)
            if key in seen_relational:
                graph.duplicates_removed += 1
                continue
            seen_relational.add(key)
            graph.relational.append(key)
            graph.relational_statements.append(triple)
            continue
        lit_key = (sid, rid, obj)
        if lit_key in seen_literal:
            graph.duplicates_removed += 1
            continue
        seen_literal.add(lit_key)
        group = graph.literal_groups.get((rid, modality))
        if group is None:
            group = LiteralGroup(rid, predicate.value, modality)
            graph.literal_groups[(rid, modality)] = group
        group.statements.append((sid, obj))
    return graph


@dataclass(frozen=True)
class GraphProfile:
    relations: int
    nodes: int
    triples: int
    objects_iris: int
    objects_blank: int
    objects_literal: int
    literal_numbers: int
    literal_dates: int
    literal_text: int
    literal_images: int
    literal_others: int
    duplicates_removed: int = 0

    def to_dict(self) -> dict:
        return {
            "relations": self.relations,
            "nodes": self.nodes,
            "triples": self.triples,
            "objects": {
                "iris": self.objects_iris,
                "blank_nodes": self.objects_blank,
                "literals": self.objects_literal,
            },
            "literals": {
                "numbers": self.literal_numbers,
                "dates": self.literal_dates,
                "text": self.literal_text,
                "images": self.literal_images,
                "others": self.literal_others,
            },
            "duplicates_removed": self.duplicates_removed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def check(self) -> None:
        assert self.objects_iris + self.objects_blank + self.objects_literal == self.triples
        assert (
            self.literal_numbers
            + self.literal_dates
            + self.literal_text
            + self.literal_images
            + self.literal_others
            == self.objects_literal
        )


def profile(graph: IndexedGraph) -> GraphProfile:
    """Exact statement counts in the shape of the benchmark dataset table.

    The graph's deduplicated statements go through profile_stream; the
    duplicates build_index removed are carried over as a count.
    Statements routed to image groups count as literal objects even when the
    underlying term is an IRI, mirroring how image information is tallied.
    """
    literal_statements = (
        Triple(graph.entity_terms[sid], IRI(group.predicate), obj)
        for group in graph.literal_groups.values()
        for sid, obj in group.statements
    )
    counts = profile_stream(chain(graph.relational_triples(), literal_statements), graph.rules)
    return replace(counts, duplicates_removed=graph.duplicates_removed)


def profile_stream(triples: Iterable[Triple], rules: ModalityRules | None = None) -> GraphProfile:
    """Profile a triple stream with memory proportional to the dictionaries.

    Unlike build_index, no adjacency or statement lists are kept, only
    distinct-term sets and counters, so arbitrarily large files profile in
    dictionary-sized memory. Duplicate statements are not detected here.
    """
    rules = rules or ModalityRules()
    relations: set[str] = set()
    nodes: set[Term] = set()
    counts = dict.fromkeys(Modality, 0)
    objects_iri = objects_blank = 0
    total = 0
    for triple in triples:
        total += 1
        predicate = triple.predicate
        assert isinstance(predicate, IRI)
        relations.add(predicate.value)
        nodes.add(triple.subject)
        nodes.add(triple.object)
        obj = triple.object
        if isinstance(obj, Literal):
            counts[classify_modality(obj, predicate.value, rules)] += 1
        elif predicate.value in rules.image_predicates:
            counts[Modality.IMAGE] += 1
        elif isinstance(obj, BlankNode):
            objects_blank += 1
        else:
            objects_iri += 1
    objects_literal = sum(counts.values())
    return GraphProfile(
        relations=len(relations),
        nodes=len(nodes),
        triples=total,
        objects_iris=objects_iri,
        objects_blank=objects_blank,
        objects_literal=objects_literal,
        literal_numbers=counts[Modality.NUMERIC],
        literal_dates=counts[Modality.TEMPORAL],
        literal_text=counts[Modality.TEXT],
        literal_images=counts[Modality.IMAGE],
        literal_others=counts[Modality.OTHER],
    )
