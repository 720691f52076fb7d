"""Dictionary-encoded in-memory graph with literal grouping and profiling.

Every entity and predicate is assigned a dense integer id in first-encounter
order, making id assignment deterministic for identical input bytes.
Literal statements are kept out of the relational adjacency and grouped by
(predicate, modality); each group is the unit that a rewrite strategy is
applied to.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from functools import cached_property
from itertools import compress, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .ntriples import Row
from .report import Modality
from .terms import (
    IRI,
    BlankNode,
    Frozen,
    Literal,
    NUMERIC_DATATYPES,
    TEMPORAL_DATATYPES,
    TEXT_DATATYPES,
    Term,
    Triple,
    XSD_BASE64,
)

if TYPE_CHECKING:
    import numpy as np


class ModalityRules(Frozen):
    """Configuration for routing literal statements to modality groups.

    Predicates in *image_predicates* have their objects (IRI or literal)
    treated as image references. *predicate_modalities* pins a predicate to a
    fixed modality and wins over datatype-based rules.
    """

    __slots__ = ("image_predicates", "predicate_modalities")
    __hash__ = None  # type: ignore[assignment]  # a field is a dict

    def __init__(
        self, image_predicates: frozenset[str] = frozenset(),
        predicate_modalities: dict[str, Modality] | None = None,
    ) -> None:
        predicate_modalities = {} if predicate_modalities is None else predicate_modalities
        self._fill(locals())


def classify_modality(dt: str, predicate: str, rules: ModalityRules) -> Modality:
    """Total classification of a literal, by its datatype, into one modality."""
    override = rules.predicate_modalities.get(predicate)
    if override is not None:
        return override
    if predicate in rules.image_predicates:
        return Modality.IMAGE
    if dt in NUMERIC_DATATYPES:
        return Modality.NUMERIC
    if dt in TEMPORAL_DATATYPES:
        return Modality.TEMPORAL
    if dt in TEXT_DATATYPES:
        return Modality.TEXT
    if dt == XSD_BASE64:
        return Modality.IMAGE
    return Modality.OTHER


class LiteralGroup:
    """All statements sharing one predicate and modality, as columns.

    Statement i links subject id subjects[i] to the literal with lexical
    form lexicals[i], datatype datatypes[i] and language tag languages[i].
    Image groups also hold the IRI and blank-node objects of configured
    image predicates: the IRI or label is the lexical form and the class
    IRI or BlankNode stands as datatype, so it never equals a literal's.
    """

    def __init__(self, predicate: str, modality: Modality) -> None:
        self.predicate = predicate
        self.modality = modality
        self.subjects: list[int] = []
        self.lexicals: list[str] = []
        self.datatypes: list[str | type[IRI | BlankNode]] = []
        self.languages: list[str | None] = []

    def __len__(self) -> int:
        return len(self.subjects)


class Augmentation:
    """Statements produced by one strategy application, as columns.

    Link i joins subject id subjects[i] to the minted IRI objects[i] by the
    group's *predicate*, and counts as an added statement. scored[j] is the
    position i of a link that carries the weight weights[j]: only TXTLDA and
    IMAGETAGS score links, and a score of 0.0 carries none.
    *structural* holds (IRI, IRI, IRI) statements between minted entities,
    such as bin chains and calendar scaffolding, accounted separately.
    A strategy names what it mints after *stem*, the group's own prefix under
    the run's *namespace*, or after the bare namespace for names shared by
    design. *entity_terms* is the graph's, read only by the Triple adapters.
    """

    def __init__(
        self, predicate: str, entity_terms: Sequence[Term] = (), namespace: str = "", stem: str = ""
    ) -> None:
        self.predicate = predicate
        self.entity_terms = entity_terms
        self.namespace = namespace
        self.stem = stem
        self.subjects = array("q")
        self.objects: list[str] = []
        self.scored = array("q")
        self.weights = array("d")
        self.structural: list[tuple[str, str, str]] = []
        self.removed = 0
        self.warnings: list[str] = []
        self.fallback_statements = 0

    def link(
        self, subject_ids: Sequence[int], iri: str | Sequence[str], score: float | None = None
    ) -> None:
        """Link every subject to *iri*, or each to the IRI beside it when
        *iri* is a list, all with *score*; only a score above 0.0 is a weight."""
        if score is not None and score > 0.0:
            start = len(self.subjects)
            self.scored.extend(range(start, start + len(subject_ids)))
            self.weights.extend(repeat(score, len(subject_ids)))
        self.subjects.extend(subject_ids)
        self.objects.extend(repeat(iri, len(subject_ids)) if isinstance(iri, str) else iri)

    def join(self, a: str, relation: str, b: str) -> None:
        """A structural statement from minted entity *a* to *b*."""
        self.structural.append((a, relation, b))

    @property
    def minted_objects(self) -> set[str]:
        """The distinct link objects: the entities the group links its subjects to."""
        return set(self.objects)

    @property
    def minted_entities(self) -> set[str]:
        """*minted_objects* plus the nodes of *structural*: every minted entity
        the group puts in the output."""
        return set(self.objects).union(*((a, b) for a, _, b in self.structural))

    @property
    def delta_entities(self) -> int:
        return len(self.minted_objects)

    @property
    def delta_statements(self) -> int:
        return len(self.subjects)

    @property
    def triples(self) -> list[Triple]:
        """The links as triples, built on each access for library callers."""
        terms, predicate = self.entity_terms, IRI(self.predicate)
        return [Triple(terms[s], predicate, IRI(o)) for s, o in zip(self.subjects, self.objects)]

    @property
    def structural_triples(self) -> list[Triple]:
        """*structural* as triples, built on each access."""
        return [Triple(IRI(a), IRI(r), IRI(b)) for a, r, b in self.structural]

    @property
    def weighted(self) -> list[tuple[Triple, float]]:
        """(triple, weight) of every link in *scored*, built on each access."""
        terms, predicate = self.entity_terms, IRI(self.predicate)
        links = ((self.subjects[i], self.objects[i], w) for i, w in zip(self.scored, self.weights))
        return [(Triple(terms[s], predicate, IRI(o)), w) for s, o, w in links]


class IndexedGraph:
    """*links* holds the relational statements as subject, relation and object
    id columns, deduplicated, in first-encounter order, for the output. Each
    entity's one copy of its text is its term in *entity_terms*."""

    def __init__(self) -> None:
        self.entity_terms: list[Term] = []
        self.relation_iris: list[str] = []
        self.relation_ids: dict[str, int] = {}
        self.links = (array("q"), array("q"), array("q"))
        self.literal_groups: dict[tuple[int, Modality], LiteralGroup] = {}
        self.duplicates_removed = 0

    @cached_property
    def entity_ids(self) -> dict[Term, int]:
        """Term to entity id, built on first access for library callers."""
        return {term: eid for eid, term in enumerate(self.entity_terms)}

    def groups(self) -> list[LiteralGroup]:
        """Literal groups in deterministic (predicate id, modality) order."""
        return [
            self.literal_groups[key]
            for key in sorted(self.literal_groups, key=lambda k: (k[0], k[1].value))
        ]

    @property
    def relational(self) -> list[tuple[int, int, int]]:
        """*links* as (subject, relation, object) id tuples, built on each access."""
        return list(zip(*self.links))

    def relational_triples(self) -> Iterator[Triple]:
        """The relational statements as triples, deduplicated, in input order."""
        terms = self.entity_terms
        relations = [IRI(iri) for iri in self.relation_iris]
        return (Triple(terms[s], relations[r], terms[o]) for s, r, o in zip(*self.links))

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The relational statements in both directions, as CSR over entity ids.

        Returns (indptr, relations, neighbours): entity e's statements sit at
        positions indptr[e]:indptr[e + 1], as (r, o) for each (e, r, o), then
        (r, s) for each (s, r, e), so a self-loop appears in both halves.
        Read only by the relational-signature strategies, so it is built from
        the id columns on first access, once indexing is done.
        """
        import numpy as np

        s, r, o = (np.frombuffer(column, np.int64) for column in self.links)
        # Stable, so each entity's out-edges come first, then its in-edges,
        # each in input order.
        ends = np.concatenate((s, o))
        order = np.argsort(ends, kind="stable")
        indptr = np.zeros(len(self.entity_terms) + 1, np.int64)
        np.cumsum(np.bincount(ends, minlength=len(self.entity_terms)), out=indptr[1:])
        return indptr, np.concatenate((r, r))[order], np.concatenate((o, s))[order]

    @property
    def num_relational(self) -> int:
        return len(self.links[0])


def index_rows(rows: Iterable[Row], rules: ModalityRules | None = None) -> IndexedGraph:
    """Index scanned rows into relational id columns plus literal groups.

    Entity ids come from one dict lookup per raw string, in separate dicts
    for IRIs and blank-node labels, so <_:b1> and _:b1 are two entities.
    Links go to the graph's id columns and literal statements to their
    group's columns; the modality is classified once per predicate and
    datatype. No key is made per statement while scanning: exact repeats
    are dropped once the scan ends, one subject's statements at a time,
    first copies kept, and counted in duplicates_removed.
    """
    graph, rules = IndexedGraph(), rules or ModalityRules()
    terms, relation_ids = graph.entity_terms, graph.relation_ids
    iri_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    group_of: dict[tuple[int, str | type], LiteralGroup] = {}
    add_s, add_r, add_o = (column.append for column in graph.links)

    def new_entity(iri: str | None, label: str) -> int:
        eid = len(terms)
        if iri is not None:
            iri_ids[iri] = eid
            terms.append(IRI(iri))
        else:
            label_ids[label] = eid
            terms.append(BlankNode(label))
        return eid

    for s_iri, s_label, predicate, o_iri, o_label, lexical, datatype, language in rows:
        rid = relation_ids.get(predicate)
        if rid is None:
            rid = relation_ids[predicate] = len(graph.relation_iris)
            graph.relation_iris.append(predicate)
        sid = iri_ids.get(s_iri) if s_iri is not None else label_ids.get(s_label)
        if sid is None:
            sid = new_entity(s_iri, s_label)
        if lexical is None:
            if predicate not in rules.image_predicates:
                oid = iri_ids.get(o_iri) if o_iri is not None else label_ids.get(o_label)
                add_s(sid)
                add_r(rid)
                add_o(new_entity(o_iri, o_label) if oid is None else oid)
                continue
            # An image reference: literal information, not an edge.
            lexical, datatype = (o_iri, IRI) if o_iri is not None else (o_label, BlankNode)
        group = group_of.get((rid, datatype))
        if group is None:
            if isinstance(datatype, type):
                modality = Modality.IMAGE
            else:
                modality = classify_modality(datatype, predicate, rules)
            group = graph.literal_groups.setdefault(
                (rid, modality), LiteralGroup(predicate, modality)
            )
            group_of[rid, datatype] = group
        group.subjects.append(sid)
        group.lexicals.append(lexical)
        group.datatypes.append(datatype)
        group.languages.append(language)
    _drop_repeats(graph)
    return graph


def _drop_repeats(graph: IndexedGraph) -> None:
    """Keep the first copy of each link and literal statement. Two copies
    share a subject, so only one subject's statements are compared at a
    time: a link keyed by its object and relation ids packed into one int
    (relation ids are < 2**32), a literal statement, which repeats only
    within its group, by its lexical form, datatype and tag."""
    s, r, o = graph.links
    entities = len(graph.entity_terms)
    if keep := _first_copies(s, entities, lambda i: o[i] << 32 | r[i]):
        graph.duplicates_removed += keep.count(0)
        graph.links = tuple(array("q", compress(column, keep)) for column in graph.links)
    for group in graph.literal_groups.values():
        columns = (group.subjects, group.lexicals, group.datatypes, group.languages)
        row = lambda i: (columns[1][i], columns[2][i], columns[3][i])  # noqa: E731
        if keep := _first_copies(group.subjects, entities, row):
            graph.duplicates_removed += keep.count(0)
            for column in columns:
                column[:] = list(compress(column, keep))


def _first_copies(subjects: Sequence[int], entities: int, key: Callable) -> bytearray | None:
    """A mask of the first copy of each statement i, by subjects[i] and key(i),
    in order; None when none repeats. Each subject's statements are chained
    from its first one and walked with one set: the work is linear, whatever
    the order of the statements, and one subject's keys are held at a time."""
    first, after = array("q", [-1]) * entities, array("q", [-1]) * len(subjects)
    for i in range(len(subjects) - 1, -1, -1):
        a = subjects[i]
        after[i], first[a] = first[a], i
    keep = bytearray(b"\x01") * len(subjects)
    for j in first:
        if j < 0 or after[j] < 0:  # a subject of no statement here, or of one
            continue
        seen = set()
        while j >= 0:
            if (k := key(j)) in seen:
                keep[j] = 0
            else:
                seen.add(k)
            j = after[j]
    return keep if 0 in keep else None


def _rows(triples: Iterable[Triple]) -> Iterator[Row]:
    """Triples as scan_ntriples rows."""
    for triple in triples:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if not isinstance(predicate, IRI):
            raise ValueError(f"predicate must be an IRI: {predicate}")
        if isinstance(subject, Literal):
            raise ValueError(f"literal in subject position: {subject}")
        if isinstance(obj, Literal):
            o = (None, None, obj.lexical, obj.datatype, obj.language)
        else:
            o = (*_node(obj), None, None, None)
        yield (*_node(subject), predicate.value, *o)


def _node(term: IRI | BlankNode) -> tuple[str | None, str | None]:
    return (term.value, None) if isinstance(term, IRI) else (None, term.label)


def build_index(triples: Iterable[Triple], rules: ModalityRules | None = None) -> IndexedGraph:
    """index_rows over triples, for callers that hold Triple objects."""
    return index_rows(_rows(triples), rules)


class GraphProfile(Frozen):
    __slots__ = (
        "relations", "nodes", "triples", "objects_iris", "objects_blank", "objects_literal",
        "literal_numbers", "literal_dates", "literal_text", "literal_images", "literal_others",
    )

    def __init__(
        self, relations: int, nodes: int, triples: int, objects_iris: int, objects_blank: int,
        objects_literal: int, literal_numbers: int, literal_dates: int, literal_text: int,
        literal_images: int, literal_others: int,
    ) -> None:
        self._fill(locals())

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
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def check(self) -> None:
        assert self.objects_iris + self.objects_blank + self.objects_literal == self.triples
        literals = self.literal_numbers + self.literal_dates + self.literal_text
        assert literals + self.literal_images + self.literal_others == self.objects_literal


def profile_stream(triples: Iterable[Triple], rules: ModalityRules | None = None) -> GraphProfile:
    """profile_rows over triples, for callers that hold Triple objects."""
    return profile_rows(_rows(triples), rules)


def profile_rows(rows: Iterable[Row], rules: ModalityRules | None = None) -> GraphProfile:
    """Profile a row stream with memory proportional to the dictionaries.

    Unlike index_rows, only distinct-node sets and counters are kept, so
    arbitrarily large files profile in dictionary-sized memory: raw IRIs,
    blank-node labels, and the lexical forms of each (datatype, language),
    so no object is made per distinct literal. Duplicates are not detected.
    """
    rules = rules or ModalityRules()
    image_predicates = rules.image_predicates
    relations: set[str] = set()
    # Blank-node labels, which may spell an IRI, have their own set.
    iris: set[str] = set()
    labels: set[str] = set()
    literals: defaultdict[tuple[str, str | None], set[str]] = defaultdict(set)
    counts = dict.fromkeys(Modality, 0)
    modality_of: dict[tuple[str, str], Modality] = {}
    objects_iri = objects_blank = 0
    total = 0
    for s_iri, s_label, predicate, o_iri, o_label, lexical, datatype, language in rows:
        total += 1
        relations.add(predicate)
        if s_iri is not None:
            iris.add(s_iri)
        else:
            labels.add(s_label)
        if lexical is not None:
            literals[datatype, language].add(lexical)
            modality = modality_of.get((predicate, datatype))
            if modality is None:
                modality = modality_of[predicate, datatype] = classify_modality(
                    datatype, predicate, rules
                )
            counts[modality] += 1
            continue
        if o_iri is not None:
            iris.add(o_iri)
        else:
            labels.add(o_label)
        if predicate in image_predicates:
            counts[Modality.IMAGE] += 1
        elif o_iri is None:
            objects_blank += 1
        else:
            objects_iri += 1
    objects_literal = sum(counts.values())
    return GraphProfile(
        relations=len(relations),
        nodes=len(iris) + sum(map(len, literals.values())) + len(labels),
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
