"""Graph indexing, modality routing, and dataset profiling."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from literal_forge import (
    IRI,
    Literal,
    Modality,
    ModalityRules,
    Triple,
    build_index,
    parse_ntriples,
    profile,
    profile_stream,
)
from literal_forge.graph import classify_modality
from literal_forge.terms import (
    RDF_LANGSTRING,
    XSD_BASE64,
    XSD_STRING,
)

from util import EX, XSD, make_graph, numeric_line, rel_line, text_line


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
        assert classify_modality(literal, EX + "p", rules) is expected


def test_modality_overrides_win():
    rules = ModalityRules(predicate_modalities={EX + "code": Modality.OTHER})
    assert classify_modality(lit("42", XSD + "integer"), EX + "code", rules) is Modality.OTHER
    # image predicate pins even string values
    rules2 = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
    assert classify_modality(lit("x"), EX + "depiction", rules2) is Modality.IMAGE


def test_base64_opt_out():
    rules = ModalityRules(base64_is_image=False)
    assert classify_modality(lit("aGVsbG8=", XSD_BASE64), EX + "p", rules) is Modality.OTHER


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
    assert graph.num_literal_statements == 2


def test_iri_valued_image_objects_route_to_group():
    rules = ModalityRules(image_predicates=frozenset({EX + "depiction"}))
    triples = [
        Triple(IRI(EX + "a"), IRI(EX + "depiction"), IRI(EX + "img/a.jpg")),
        Triple(IRI(EX + "a"), IRI(EX + "knows"), IRI(EX + "b")),
    ]
    graph = build_index(triples, rules)
    assert graph.num_relational == 1
    (group,) = [g for g in graph.groups() if g.modality is Modality.IMAGE]
    assert len(group) == 1
    assert isinstance(group.statements[0][1], IRI)


def test_out_and_in_edges():
    graph = make_graph([rel_line("a", "knows", "b"), rel_line("c", "knows", "b")])
    a = graph.entity_ids[IRI(EX + "a")]
    b = graph.entity_ids[IRI(EX + "b")]
    knows = graph.relation_ids[EX + "knows"]
    assert graph.out_edges[a] == [(knows, b)]
    assert {s for _, s in graph.in_edges[b]} == {
        graph.entity_ids[IRI(EX + "a")],
        graph.entity_ids[IRI(EX + "c")],
    }


def test_relational_triples_roundtrip():
    lines = [rel_line("a", "knows", "b"), rel_line("b", "knows", "c")]
    graph = make_graph(lines)
    texts, _ = parse_ntriples("\n".join(lines) + "\n")
    assert list(graph.relational_triples()) == texts


def test_profile_mannheim(mannheim_graph):
    p = profile(mannheim_graph)
    p.check()
    assert p.triples == 6
    assert p.objects_iris == 2  # country, federalState
    assert p.objects_literal == 4  # depiction IRI tallied as image information
    assert p.literal_numbers == 1
    assert p.literal_dates == 1
    assert p.literal_text == 1
    assert p.literal_images == 1
    assert p.duplicates_removed == 0


def test_profile_counts_shared_literal_node_once():
    # same literal value on two subjects: 2 statements, 1 extra node
    graph = make_graph([numeric_line("a", "age", 9), numeric_line("b", "age", 9)])
    p = profile(graph)
    assert p.objects_literal == 2
    assert p.nodes == 3  # a, b, "9"


def test_profile_to_dict_shape(mannheim_graph):
    d = profile(mannheim_graph).to_dict()
    assert set(d) == {
        "relations",
        "nodes",
        "triples",
        "objects",
        "literals",
        "duplicates_removed",
    }
    assert set(d["objects"]) == {"iris", "blank_nodes", "literals"}
    assert set(d["literals"]) == {"numbers", "dates", "text", "images", "others"}


# --- profile vs profile_stream agreement -----------------------------------

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


@given(_mixed_triples())
@settings(max_examples=150, deadline=None)
def test_stream_profile_matches_indexed_profile(triples):
    # stream counts duplicates, so compare on deduplicated input
    seen: set[Triple] = set()
    unique = [t for t in triples if t not in seen and not seen.add(t)]
    indexed = profile(build_index(unique))
    streamed = profile_stream(unique)
    indexed.check()
    streamed.check()
    assert streamed == indexed


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
    assert "out_edges" not in vars(graph) and "in_edges" not in vars(graph)
    assert graph.out_edges == out_ref
    assert graph.in_edges == in_ref
    assert graph.out_edges is graph.out_edges


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
    kept = list(graph.relational_triples())
    assert kept[0] is triples[0] and kept[1] is triples[2]
    assert profile(graph).duplicates_removed == 2
