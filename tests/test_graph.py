"""Graph indexing, modality routing, and dataset profiling."""

from __future__ import annotations

import gc
import hashlib
import importlib
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import (
    IRI,
    BlankNode,
    Literal,
    Modality,
    ModalityRules,
    Triple,
    build_index,
    parse_ntriples,
    profile_stream,
)
from literal_forge.graph import Augmentation, classify_modality, index_rows, profile_rows
from literal_forge.ntriples import ParseError, scan_ntriples
from literal_forge.pipeline import StrategyConfig, apply, shortcut_defaults
from literal_forge.terms import (
    RDF_LANGSTRING,
    XSD_BASE64,
    XSD_STRING,
)

from test_rdfio import oracle_parse
from util import EX, IMAGE_RULES, MANNHEIM_NT, NEW, XSD, make_graph, numeric_line, rel_line, text_line


def lit(lex, dt=None, lang=None):
    if lang:
        return Literal(lex, datatype=RDF_LANGSTRING, language=lang)
    return Literal(lex, datatype=dt) if dt else Literal(lex)


def test_modality_by_datatype():
    rules = ModalityRules()
    cases = [
        (lit("1", XSD + "integer"), Modality.NUMERIC),
        (lit("1.5", XSD + "double"), Modality.NUMERIC),
        (lit("1.5", XSD + "decimal"), Modality.NUMERIC),
        (lit("3", XSD + "nonNegativeInteger"), Modality.NUMERIC),
        (lit("2020-01-02", XSD + "date"), Modality.TEMPORAL),
        (lit("2020-01-02T03:04:05", XSD + "dateTime"), Modality.TEMPORAL),
        (lit("1607", XSD + "gYear"), Modality.TEMPORAL),
        (lit("hello"), Modality.TEXT),
        (lit("hello", lang="en"), Modality.TEXT),
        (lit("aGVsbG8=", XSD_BASE64), Modality.IMAGE),
        (lit("true", XSD + "boolean"), Modality.OTHER),
        (lit("P1Y", XSD + "duration"), Modality.OTHER),
    ]
    for literal, expected in cases:
        assert classify_modality(literal.datatype, EX + "p", rules) is expected


def test_modality_overrides_win():
    rules = ModalityRules(predicate_modalities={EX + "code": Modality.OTHER})
    assert classify_modality(XSD + "integer", EX + "code", rules) is Modality.OTHER
    # image predicate pins even string values
    rules2 = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
    assert classify_modality(XSD_STRING, EX + "depiction", rules2) is Modality.IMAGE


def test_build_index_groups_by_predicate_and_modality():
    graph = make_graph(
        [
            numeric_line("a", "size", 1),
            numeric_line("b", "size", 2),
            text_line("a", "size", "tall"),  # same predicate, different modality
            numeric_line("a", "age", 9),
        ]
    )
    keys = {(g.predicate, g.modality) for g in graph.groups()}
    assert keys == {
        (EX + "size", Modality.NUMERIC),
        (EX + "size", Modality.TEXT),
        (EX + "age", Modality.NUMERIC),
    }
    size_numeric = next(
        g for g in graph.groups() if g.predicate == EX + "size" and g.modality is Modality.NUMERIC
    )
    assert len(size_numeric) == 2


def test_build_index_dedups_exact_statements():
    graph = make_graph(
        [
            rel_line("a", "knows", "b"),
            rel_line("a", "knows", "b"),
            numeric_line("a", "age", 9),
            numeric_line("a", "age", 9),
            numeric_line("a", "age", 10),
        ]
    )
    assert graph.duplicates_removed == 2
    assert graph.num_relational == 1
    assert sum(len(g) for g in graph.groups()) == 2


def test_iri_valued_image_objects_route_to_group():
    rules = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
    triples = [
        Triple(IRI(EX + "a"), IRI(EX + "depiction"), IRI(EX + "img/a.jpg")),
        Triple(IRI(EX + "a"), IRI(EX + "knows"), IRI(EX + "b")),
    ]
    graph = build_index(triples, rules)
    assert graph.num_relational == 1
    (group,) = [g for g in graph.groups() if g.modality is Modality.IMAGE]
    assert (group.lexicals, group.datatypes) == ([EX + "img/a.jpg"], [IRI])


def adjacency_row(graph, entity_id):
    """(relation id, neighbour id) pairs of one entity's CSR row."""
    indptr, relations, neighbours = graph.adjacency
    at = slice(indptr[entity_id], indptr[entity_id + 1])
    return list(zip(relations[at].tolist(), neighbours[at].tolist()))


def test_out_and_in_edges():
    graph = make_graph([rel_line("a", "knows", "b"), rel_line("c", "knows", "b")])
    a = graph.entity_ids[IRI(EX + "a")]
    b = graph.entity_ids[IRI(EX + "b")]
    c = graph.entity_ids[IRI(EX + "c")]
    knows = graph.relation_ids[EX + "knows"]
    assert adjacency_row(graph, a) == [(knows, b)]
    assert adjacency_row(graph, b) == [(knows, a), (knows, c)]


def test_relational_triples_roundtrip():
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    graph = make_graph(lines)
    texts, _ = parse_ntriples("\n".join(lines) + "\n")
    assert list(graph.relational_triples()) == texts


def test_profile_mannheim(mannheim_triples):
    p = profile_stream(mannheim_triples, IMAGE_RULES)
    p.check()
    assert p.triples == 6
    assert p.objects_iris == 2  # country, federalState
    assert p.objects_literal == 4  # depiction IRI tallied as image information
    assert p.literal_numbers == 1
    assert p.literal_dates == 1
    assert p.literal_text == 1
    assert p.literal_images == 1


def test_profile_counts_shared_literal_node_once():
    # same literal value on two subjects: 2 statements, 1 extra node
    lines = [numeric_line("a", "age", 9), numeric_line("b", "age", 9)]
    p = profile_stream(parse_ntriples("\n".join(lines) + "\n")[0])
    assert p.objects_literal == 2
    assert p.nodes == 3  # a, b, "9"


def test_profile_to_dict_shape(mannheim_triples):
    d = profile_stream(mannheim_triples, IMAGE_RULES).to_dict()
    assert set(d) == {"relations", "nodes", "triples", "objects", "literals"}
    assert set(d["objects"]) == {"iris", "blank_nodes", "literals"}
    assert set(d["literals"]) == {"numbers", "dates", "text", "images", "others"}


# --- the streaming profile against counts taken directly --------------------

_name = st.text(alphabet="abcd", min_size=1, max_size=2)
_dt = st.sampled_from(
    [None, XSD + "integer", XSD + "date", XSD_STRING, XSD + "boolean", XSD_BASE64]
)


@st.composite
def _mixed_triples(draw):
    triples = []
    for _ in range(draw(st.integers(0, 25))):
        s = IRI(EX + draw(_name))
        pred = IRI(EX + draw(_name))
        if draw(st.booleans()):
            triples.append(Triple(s, pred, IRI(EX + draw(_name))))
        else:
            dt = draw(_dt)
            triples.append(Triple(s, pred, Literal(draw(_name), datatype=dt)))
    return triples


# IRIs, blank-node labels and lexical forms of one spelling, so the oracle
# sees them kept apart; "urn:i" is also an image predicate.
_spelling = st.sampled_from(["urn:a", "urn:b", "urn:i"])
_node = st.one_of(st.builds(IRI, _spelling), st.builds(BlankNode, _spelling))
_literal = st.one_of(
    st.builds(Literal, _spelling, _dt.map(lambda dt: dt or XSD_STRING)),
    st.builds(Literal, _spelling, st.just(RDF_LANGSTRING), st.sampled_from(["en", "de"])),
)
_PROFILE_RULES = ModalityRules(
    image_predicates=frozenset({"urn:i"}), predicate_modalities={"urn:b": Modality.OTHER}
)


def _profile_oracle(triples, rules):
    """profile's counts taken directly from the triples, terms compared whole."""
    kinds = {kind: 0 for kind in (IRI, BlankNode, Literal)}
    literals = dict.fromkeys(Modality, 0)
    for t in triples:
        if isinstance(t.object, Literal):
            literals[classify_modality(t.object.datatype, t.predicate.value, rules)] += 1
        elif t.predicate.value in rules.image_predicates:
            literals[Modality.IMAGE] += 1
        else:
            kinds[type(t.object)] += 1
    return {
        "relations": len({t.predicate for t in triples}),
        "nodes": len({term for t in triples for term in (t.subject, t.object)}),
        "triples": len(triples),
        "objects": {
            "iris": kinds[IRI],
            "blank_nodes": kinds[BlankNode],
            "literals": sum(literals.values()),
        },
        "literals": {
            "numbers": literals[Modality.NUMERIC],
            "dates": literals[Modality.TEMPORAL],
            "text": literals[Modality.TEXT],
            "images": literals[Modality.IMAGE],
            "others": literals[Modality.OTHER],
        },
    }


@given(
    st.lists(
        st.builds(Triple, _node, st.builds(IRI, _spelling), st.one_of(_node, _literal)),
        max_size=25,
    )
)
@settings(max_examples=300, deadline=None)
def test_stream_profile_matches_direct_counts(triples):
    seen: set[Triple] = set()
    unique = [t for t in triples if t not in seen and not seen.add(t)]
    for rules in (ModalityRules(), _PROFILE_RULES):
        for stream in (unique, triples):
            counted = profile_stream(stream, rules)
            counted.check()
            assert counted.to_dict() == _profile_oracle(stream, rules)


def test_stream_profile_large_input_constant_shape():
    lines = [numeric_line(f"s{i}", "v", i) for i in range(500)]
    triples, _ = parse_ntriples("\n".join(lines) + "\n")
    p = profile_stream(triples)
    assert p.triples == 500
    assert p.literal_numbers == 500
    assert p.nodes == 1000


# --- relational pass-through and adjacency on demand -------------------------


@given(_mixed_triples())
@settings(max_examples=150, deadline=None)
def test_adjacency_on_demand_matches_eager_reference(triples):
    graph = build_index(triples)
    out_ref: dict[int, list[tuple[int, int]]] = {}
    in_ref: dict[int, list[tuple[int, int]]] = {}
    seen = set()
    for t in triples:
        if isinstance(t.object, Literal):
            continue
        sid = graph.entity_ids[t.subject]
        rid = graph.relation_ids[t.predicate.value]
        oid = graph.entity_ids[t.object]
        if (sid, rid, oid) not in seen:
            seen.add((sid, rid, oid))
            out_ref.setdefault(sid, []).append((rid, oid))
            in_ref.setdefault(oid, []).append((rid, sid))
    assert "adjacency" not in vars(graph)
    for eid in range(len(graph.entity_terms)):
        assert adjacency_row(graph, eid) == out_ref.get(eid, []) + in_ref.get(eid, [])
    assert graph.adjacency[0][-1] == 2 * graph.num_relational
    assert graph.adjacency is graph.adjacency


def test_duplicate_relational_statements_counted_first_copy_kept():
    lines = [
        rel_line("a", "knows", "b"),
        rel_line("a", "knows", "b"),
        rel_line("b", "knows", "c"),
        rel_line("a", "knows", "b"),
    ]
    triples, _ = parse_ntriples("\n".join(lines) + "\n")
    graph = build_index(triples)
    assert graph.duplicates_removed == 2
    assert graph.num_relational == 2
    assert list(graph.relational_triples()) == [triples[0], triples[2]]


# --- the row indexer against the Term-keyed indexer it replaced ---------------


def _term_keyed_index(triples, rules):
    """The Term-keyed build_index loop that index_rows replaced, as an oracle."""
    entity_terms, entity_ids, relation_iris, relation_ids = [], {}, [], {}
    relational, groups = [], {}
    seen_relational, seen_literal = set(), set()
    duplicates = 0

    def entity_id(term):
        if term not in entity_ids:
            entity_ids[term] = len(entity_terms)
            entity_terms.append(term)
        return entity_ids[term]

    for triple in triples:
        predicate = triple.predicate.value
        if predicate not in relation_ids:
            relation_ids[predicate] = len(relation_iris)
            relation_iris.append(predicate)
        rid = relation_ids[predicate]
        obj = triple.object
        sid = entity_id(triple.subject)
        if isinstance(obj, Literal):
            modality = classify_modality(obj.datatype, predicate, rules)
        elif predicate in rules.image_predicates:
            modality = Modality.IMAGE
        else:
            key = (sid, rid, entity_id(obj))
            if key in seen_relational:
                duplicates += 1
                continue
            seen_relational.add(key)
            relational.append(key)
            continue
        if (sid, rid, obj) in seen_literal:
            duplicates += 1
            continue
        seen_literal.add((sid, rid, obj))
        groups.setdefault((rid, modality), []).append((sid, obj))
    return entity_terms, relation_iris, relational, groups, duplicates


def _statements(group):
    """A group's columns as (subject id, object term) pairs, as the oracle keeps them."""
    columns = zip(group.subjects, group.lexicals, group.datatypes, group.languages)
    return [
        (sid, dt(lex) if isinstance(dt, type) else Literal(lex, dt, lang))
        for sid, lex, dt, lang in columns
    ]


def _indexed(graph):
    groups = {key: _statements(group) for key, group in graph.literal_groups.items()}
    return (
        graph.entity_terms,
        graph.relation_iris,
        graph.relational,
        groups,
        graph.duplicates_removed,
    )


_IMAGES = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
_XSD_INT = f"<{XSD}integer>"
_LINES = [
    f"<{EX}a> <{EX}knows> <{EX}b> .",
    f"<{EX}b> <{EX}knows> <{EX}a> .",
    f"<_:b1> <{EX}knows> _:b1 .",
    f"_:b1 <{EX}knows> <_:b1> .",
    f"_:b1 <{EX}likes> _:b2 .",
    f"<{EX}a> <{EX}depiction> <{EX}img/a.jpg> .",
    f"<{EX}a> <{EX}depiction> _:img .",
    f'<{EX}a> <{EX}depiction> "aGk="^^<{XSD}base64Binary> .',
    f'<{EX}a> <{EX}size> "1"^^{_XSD_INT} .',
    f'_:b2 <{EX}size> "1"^^{_XSD_INT} .',
    f'<{EX}b> <{EX}size> "\\u0031"^^{_XSD_INT} .',
    f'<{EX}b> <{EX}size> "tall"@en .',
    f'<{EX}b> <{EX}note> "plain \\"quoted\\"" .',
    # malformed: bad IRI characters, in any position, and bad syntax
    f"<{EX}a b> <{EX}knows> <{EX}a> .",
    f"<{EX}a> <{EX}knows> <{EX}a b> .",
    f'<{EX}c> <{EX}size> "2"^^<{XSD}int eger> .',
    f"<{EX}a> <{EX}knows>",
    "not a statement",
    # rejected late: the subject and predicate are fine, the literal is not
    f'<{EX}late> <{EX}latePredicate> "bad \\q escape" .',
    f'<{EX}late2> <{EX}size> "\\U0011FFFF" .',
    "# a comment",
    "",
]


@st.composite
def _documents(draw):
    lines = draw(st.lists(st.sampled_from(_LINES), max_size=14))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@given(_documents(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_row_indexer_matches_term_keyed_oracle(document, strict):
    oracle = oracle_parse(document, strict)
    diagnostics = []
    try:
        graph = index_rows(scan_ntriples(document, diagnostics.append, strict), _IMAGES)
    except ParseError as err:
        assert strict and err.diagnostic == oracle
        return
    triples, expected_diagnostics = oracle
    assert diagnostics == expected_diagnostics
    assert _indexed(graph) == _term_keyed_index(triples, _IMAGES)
    assert _indexed(build_index(triples, _IMAGES)) == _indexed(graph)


def test_line_rejected_late_assigns_no_id():
    document = f'<{EX}late> <{EX}p> "bad \\q escape" .\n<{EX}a> <{EX}knows> <{EX}b> .\n'
    diagnostics = []
    graph = index_rows(scan_ntriples(document, diagnostics.append))
    assert [(d.line, d.message) for d in diagnostics] == [(1, "invalid escape: \\q")]
    assert graph.entity_terms == [IRI(EX + "a"), IRI(EX + "b")]
    assert graph.relation_iris == [EX + "knows"]


def test_iri_and_blank_node_of_one_spelling_are_two_entities():
    graph = index_rows(scan_ntriples(f"<_:b1> <{EX}knows> _:b1 .\n"))
    assert graph.entity_terms == [IRI("_:b1"), BlankNode("b1")]
    assert graph.relational == [(0, 0, 1)]


# --- literal groups as columns -------------------------------------------------


def test_exact_duplicate_literal_statement_dropped_and_counted():
    line = f'<{EX}a> <{EX}size> "1"^^<{XSD}integer> .\n'
    graph = index_rows(scan_ntriples(line * 3 + f'<{EX}a> <{EX}size> "1"^^<{XSD}decimal> .\n'))
    assert graph.duplicates_removed == 2
    (group,) = graph.groups()
    assert (group.subjects, group.lexicals) == ([0, 0], ["1", "1"])
    assert group.datatypes == [XSD + "integer", XSD + "decimal"]
    assert group.languages == [None, None]


def _report_row(document, rules, strategy="ONEENTITY"):
    config = StrategyConfig(rules=rules, defaults=shortcut_defaults(strategy, "ONEENTITY"))
    (row,) = apply(index_rows(scan_ntriples(document), rules), config).report.rows
    return row


def test_datatype_and_language_keep_values_apart():
    objects = [f'"1"^^<{XSD}integer>', f'"1"^^<{XSD}decimal>', '"1"', '"1"@en', '"1"@en-US']
    document = "".join(f"<{EX}a> <{EX}p> {obj} .\n" for obj in objects)
    rules = ModalityRules(predicate_modalities={EX + "p": Modality.OTHER})
    row = _report_row(document, rules)
    assert (row.statements, row.distinct_values) == (5, 5)


def test_image_references_and_literal_spelled_alike_stay_apart():
    document = (
        f"<{EX}a> <{EX}depiction> <urn:x> .\n"
        f"<{EX}a> <{EX}depiction> _:urn:x .\n"
        f'<{EX}a> <{EX}depiction> "urn:x" .\n'
    )
    graph = index_rows(scan_ntriples(document), _IMAGES)
    (group,) = graph.groups()
    assert _statements(group) == [(0, IRI("urn:x")), (0, BlankNode("urn:x")), (0, Literal("urn:x"))]
    assert _report_row(document, _IMAGES).distinct_values == 3
    # A blank node names no value, so TRANSFORM fails on the group and falls back.
    row = _report_row(document, _IMAGES, "TRANSFORM")
    assert (row.fell_back_to, row.distinct_values) == ("ONEENTITY", 3)


def test_group_columns_match_term_keyed_index(mannheim_triples):
    graph = index_rows(scan_ntriples(MANNHEIM_NT), IMAGE_RULES)
    groups = {key: _statements(group) for key, group in graph.literal_groups.items()}
    assert groups == _term_keyed_index(mannheim_triples, IMAGE_RULES)[3]
    assert groups[5, Modality.IMAGE] == [(0, IRI(EX + "img/mannheim.jpg"))]


# --- repeats dropped after the scan --------------------------------------------


def test_interleaved_repeats_keep_first_copies_in_input_order():
    size = f"<{EX}size>"
    firsts = [
        f"<{EX}a> <{EX}knows> <{EX}b> .",
        f"<{EX}a> <{EX}depiction> <{EX}img/a.jpg> .",
        f'<{EX}a> {size} "1"^^{_XSD_INT} .',
        f"<{EX}a> <{EX}depiction> _:img .",
        f"<{EX}b> <{EX}knows> <{EX}a> .",
        f'<{EX}b> {size} "1"^^{_XSD_INT} .',
        f"<{EX}b> <{EX}depiction> <{EX}img/a.jpg> .",
        f'<{EX}a> {size} "1" .',
    ]
    # Each repeat follows its first copy, with other statements in between.
    order = [0, 1, 0, 2, 3, 1, 4, 2, 3, 5, 0, 6, 7, 4, 2, 6, 5, 7]
    document = "".join(firsts[i] + "\n" for i in order)
    triples, _ = parse_ntriples(document)
    graph = index_rows(scan_ntriples(document), _IMAGES)
    assert graph.duplicates_removed == len(order) - len(firsts)
    assert _indexed(graph) == _term_keyed_index(triples, _IMAGES)
    assert list(graph.relational_triples()) == [triples[0], triples[order.index(4)]]
    (images,) = [g for g in graph.groups() if g.modality is Modality.IMAGE]
    image = IRI(EX + "img/a.jpg")
    assert _statements(images) == [(0, image), (0, BlankNode("img")), (1, image)]


def _link(s, p, o):
    """A scan_ntriples row of a link between two IRIs."""
    return (s, None, p, o, None, None, None, None)


def _literal(s, p, lexical, datatype):
    """A scan_ntriples row of a typed literal statement."""
    return (s, None, p, None, None, lexical, datatype, None)


@pytest.mark.parametrize("entities", [4, 5, 8, 9])
@pytest.mark.parametrize("relations", [2, 3])
def test_packed_link_keys_are_injective_at_power_of_two_counts(entities, relations):
    # Every link over the ids, so a key one bit too narrow for the largest
    # object or relation id would equal another link's and drop it.
    ids = range(entities)
    links = [(s, r, o) for s in ids for r in range(relations) for o in ids]
    rows = [_link(f"{EX}e{s}", f"{EX}r{r}", f"{EX}e{o}") for s, r, o in links]
    graph = index_rows(rows + rows[::-3])
    assert (len(graph.entity_terms), len(graph.relation_iris)) == (entities, relations)
    assert graph.relational == links
    assert graph.duplicates_removed == len(rows[::-3])


class _SameHash(str):
    """A string whose hash equals every other _SameHash's."""

    def __hash__(self) -> int:
        return 0


def test_literal_rows_with_equal_hashes_but_different_values_are_both_kept():
    one, two = _SameHash("1"), _SameHash("2")
    assert hash(one) == hash(two) and one != two  # so their rows' hashes are equal too
    row = lambda lexical: _literal(EX + "a", EX + "size", lexical, XSD + "integer")  # noqa: E731
    graph = index_rows([row(one), row(two)])
    (group,) = graph.groups()
    assert (group.lexicals, graph.duplicates_removed) == (["1", "2"], 0)
    graph = index_rows([row(one), row(two), row(_SameHash("1")), row(two)])
    (group,) = graph.groups()
    assert (group.lexicals, graph.duplicates_removed) == (["1", "2"], 2)
    assert group.subjects == [0, 0]


def test_index_keeps_no_object_per_statement():
    """index_rows' traced peak and retained memory per statement, on 40k rows:
    half links among 2,000 entities, half one xsd:integer group, no repeats.
    Built before tracing starts, the rows' own strings are not counted."""
    entities = [f"{EX}e{i}" for i in range(2_000)]
    knows, size, integer = EX + "knows", EX + "size", XSD + "integer"
    # Link i joins entity i mod 2,000 to the (1 + i // 2,000)-th entity after it.
    rows = [
        _link(entities[i % 2_000], knows, entities[(i + 1 + i // 2_000) % 2_000])
        for i in range(20_000)
    ]
    rows += [_literal(entities[i % 2_000], size, str(i), integer) for i in range(20_000)]
    gc.collect()
    tracemalloc.start()
    try:
        graph = index_rows(rows)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (graph.num_relational, graph.duplicates_removed) == (20_000, 0)
    assert peak / len(rows) <= 110
    assert retained / len(rows) <= 45


# sha256 of `profile --input -` JSON on each benchmark workload at seed 1:
# the Literal-keyed profiler's bytes without its "duplicates_removed" key,
# which the streaming profiler never measured.
_WORKLOAD_PROFILES = {
    "numeric-subpop": "c0d463adb50f1bb3566dee17cafd8d55f5bc9dd488545aaddd80a4b35c4e8dcd",
    "relational-bulk": "9d7fa075294f6924880808e330cc12d7eb6357d23bbb413257283c5d33e17625",
    "text-topics": "98b40bbed79ab9de604fc344431ec6f0558e14f1637b3bd06f8bf54c093285b7",
}


@pytest.mark.parametrize("workload", sorted(_WORKLOAD_PROFILES))
def test_profile_json_unchanged_on_bench_workloads(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    inputs = workloads.generate(workload, 1, tmp_path)
    config = StrategyConfig.from_file(str(inputs.config)) if inputs.config else StrategyConfig()
    with open(inputs.graph, "rb") as fh:
        text = profile_rows(scan_ntriples(fh), config.rules).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _WORKLOAD_PROFILES[workload]


def test_indexed_literal_statements_are_not_tracked_by_gc():
    document = "".join(
        f'<{EX}s{i % 50}> <{EX}p{i % 4}> "{i}"^^<{XSD}integer> .\n' for i in range(20_000)
    )
    gc.collect()
    before = len(gc.get_objects())
    graph = index_rows(scan_ntriples(document))
    gc.collect()
    assert sum(len(g) for g in graph.groups()) == 20_000
    assert len(gc.get_objects()) - before < 200


def test_only_links_scored_above_zero_carry_a_weight():
    terms = [IRI(EX + "a"), IRI(EX + "b")]
    aug = Augmentation(EX + "p", terms)
    aug.link([0, 1], NEW + "unscored")
    aug.link([0], NEW + "zero", 0.0)
    aug.link([1, 0], [NEW + "x", NEW + "y"], 0.25)
    assert (aug.scored.tolist(), aug.weights.tolist()) == ([3, 4], [0.25, 0.25])
    assert aug.weighted == [(aug.triples[3], 0.25), (aug.triples[4], 0.25)]
    assert [t.object.value for t, _ in aug.weighted] == [NEW + "x", NEW + "y"]
    assert aug.delta_statements == 5
