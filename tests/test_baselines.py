"""Literal-removal baselines and minted-IRI naming rules."""

from __future__ import annotations

import hashlib
from urllib.parse import unquote

from hypothesis import given, settings, strategies as st

from literal_forge import IRI, Modality, Triple
from literal_forge.baselines import (
    Augmentation,
    exclude,
    one_entity,
    sanitize_value,
    transform_literal2entity,
)

from util import EX, NEW, with_aug, make_graph, numeric_line, text_line


def group_of(graph, predicate, modality=Modality.NUMERIC):
    return graph.literal_groups[(graph.relation_ids[EX + predicate], modality)]


def test_sanitize_short_values_pass_through():
    assert sanitize_value("2362046") == "2362046"
    assert sanitize_value("populationMetro") == "populationMetro"


def test_sanitize_percent_encodes_unsafe_chars():
    out = sanitize_value("a b/c")
    assert " " not in out and "/" not in out
    assert unquote(out) == "a b/c"


def test_sanitize_long_values_trim_and_hash():
    value = "x" * 100
    out = sanitize_value(value)
    digest = hashlib.sha256(value.encode()).hexdigest()[:8]
    assert out == "x" * 64 + "-" + digest


def test_sanitize_distinct_long_values_do_not_collide():
    a = "y" * 80 + "one"
    b = "y" * 80 + "two"
    assert a[:64] == b[:64]
    assert sanitize_value(a) != sanitize_value(b)


@given(st.text(max_size=200).filter(lambda s: "\ud800" not in s))
@settings(max_examples=200, deadline=None)
def test_sanitize_always_iri_safe(value):
    out = sanitize_value(value)
    IRI(NEW + out)  # must not raise
    assert len(out) <= 64 * 9 + 9  # worst case: all chars %XX-escaped, plus hash


def test_transform_mints_value_entities():
    graph = make_graph(
        [
            numeric_line("Mannheim", "populationMetro", 2362046),
            numeric_line("Ludwigshafen", "populationMetro", 2362046),
            numeric_line("Berlin", "populationMetro", 3645000),
        ]
    )
    group = group_of(graph, "populationMetro")
    aug = transform_literal2entity(*with_aug(group, graph))
    assert aug.minted_objects == {
        NEW + "populationMetro2362046",
        NEW + "populationMetro3645000",
    }
    assert aug.delta_entities == 2
    assert aug.delta_statements == 3
    # shared value keeps the statement structure
    objs = [t.object.value for t in aug.triples]
    assert objs.count(NEW + "populationMetro2362046") == 2
    assert all(t.predicate == IRI(EX + "populationMetro") for t in aug.triples)
    assert aug.removed == 0
    assert aug.weighted == []  # TRANSFORM scores nothing


def test_transform_bound_entities_by_distinct_values():
    lines = [numeric_line(f"s{i}", "v", i % 7) for i in range(50)]
    graph = make_graph(lines)
    group = group_of(graph, "v")
    aug = transform_literal2entity(*with_aug(group, graph))
    assert aug.delta_entities == 7
    assert aug.delta_statements == 50


def test_one_entity_single_presence_marker():
    graph = make_graph(
        [
            numeric_line("Mannheim", "populationMetro", 2362046),
            numeric_line("Berlin", "populationMetro", 3645000),
        ]
    )
    group = group_of(graph, "populationMetro")
    aug = one_entity(*with_aug(group, graph))
    assert aug.delta_entities == 1
    assert aug.delta_statements == 2
    assert {t.object.value for t in aug.triples} == {NEW + "populationMetroAnyValue"}


def test_exclude_only_removes():
    graph = make_graph([text_line("a", "label", "A"), text_line("b", "label", "B")])
    group = group_of(graph, "label", Modality.TEXT)
    aug = exclude(*with_aug(group, graph))
    assert aug.removed == 2
    assert aug.delta_entities == 0
    assert aug.delta_statements == 0
    assert not aug.triples and not aug.structural_triples


def test_minted_entities_adds_structural_nodes_to_objects():
    graph = make_graph([numeric_line("a", "v", 1), numeric_line("b", "v", 2)])
    group = group_of(graph, "v")
    aug = transform_literal2entity(*with_aug(group, graph))
    assert aug.minted_entities == aug.minted_objects == {NEW + "v1", NEW + "v2"}
    links = aug
    aug = Augmentation(links.predicate, graph.entity_terms)
    aug.link(links.subjects, links.objects)
    aug.join(NEW + "v1", NEW + "next", NEW + "v3")
    assert aug.triples == links.triples
    assert aug.structural_triples == [Triple(IRI(NEW + "v1"), IRI(NEW + "next"), IRI(NEW + "v3"))]
    assert aug.minted_objects == {NEW + "v1", NEW + "v2"}
    assert aug.minted_entities == {NEW + "v1", NEW + "v2", NEW + "v3"}
    assert EX + "a" not in aug.minted_entities
