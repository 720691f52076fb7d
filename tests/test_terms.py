"""Term model validation rules."""

import pickle

import pytest

from literal_forge.terms import (
    IRI,
    BlankNode,
    Literal,
    TermError,
    Triple,
    XSD,
    XSD_STRING,
    RDF_LANGSTRING,
    local_name,
    validate_term,
)


def test_iri_roundtrip_value():
    term = IRI("http://ex.org/a")
    validate_term(term)
    assert term.value == "http://ex.org/a"


@pytest.mark.parametrize(
    "bad",
    ["", "relative/path", "http://ex.org/sp ace", "http://ex.org/<angle>", "no-scheme"],
)
def test_invalid_iris_rejected(bad):
    with pytest.raises(TermError):
        validate_term(IRI(bad))


def test_blank_node_labels():
    validate_term(BlankNode("b0"))
    validate_term(BlankNode("gen-1.x"))
    with pytest.raises(TermError):
        validate_term(BlankNode(""))
    with pytest.raises(TermError):
        validate_term(BlankNode("has space"))


def test_plain_literal_defaults_to_string():
    lit = Literal("hello")
    assert lit.datatype == XSD_STRING
    assert lit.language is None
    validate_term(lit)


def test_language_literal_requires_langstring_datatype():
    ok = Literal("hallo", datatype=RDF_LANGSTRING, language="de")
    validate_term(ok)
    with pytest.raises(TermError):
        validate_term(Literal("hallo", datatype=XSD_STRING, language="de"))
    with pytest.raises(TermError):
        validate_term(Literal("hallo", datatype=RDF_LANGSTRING, language=None))


def test_literal_cannot_be_subject_or_predicate():
    lit = Literal("x")
    s = IRI("http://ex.org/s")
    p = IRI("http://ex.org/p")
    Triple(s, p, lit).validate()
    with pytest.raises(TermError):
        Triple(lit, p, s).validate()  # type: ignore[arg-type]
    with pytest.raises(TermError):
        Triple(s, BlankNode("b"), s).validate()  # type: ignore[arg-type]


def test_term_text_is_canonical_n_triples():
    assert str(IRI("http://ex.org/a")) == "<http://ex.org/a>"
    assert str(BlankNode("b0")) == "_:b0"
    assert str(Literal('say "hi"\\\n\r\t')) == '"say \\"hi\\"\\\\\\n\\r\t"'
    assert str(Literal("x", "http://ex.org/dt")) == '"x"^^<http://ex.org/dt>'
    assert str(Literal("a\nb", RDF_LANGSTRING, "de")) == '"a\\nb"@de'
    # A message that embeds a literal shows it escaped, on one line.
    with pytest.raises(TermError, match=r'must have rdf:langString datatype: "a\\nb"@de$'):
        validate_term(Literal("a\nb", datatype=XSD_STRING, language="de"))


def test_terms_are_hashable_and_interning_friendly():
    assert IRI("http://ex.org/a") == IRI("http://ex.org/a")
    assert len({Literal("1"), Literal("1"), Literal("2")}) == 2
    assert IRI("x") != BlankNode("x")
    assert Literal("1", XSD + "integer") != Literal("1", XSD + "decimal")
    assert Literal("chat", RDF_LANGSTRING, "en") != Literal("chat", RDF_LANGSTRING, "fr")
    first = Triple(IRI("http://ex.org/s"), IRI("http://ex.org/p"), Literal("1"))
    second = Triple(IRI("http://ex.org/s"), IRI("http://ex.org/p"), Literal("1"))
    assert first == second and hash(first) == hash(second)
    assert pickle.loads(pickle.dumps(first)) == first
    for record, field in [(IRI("x"), "value"), (Literal("1"), "language"), (first, "object")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize(
    "iri,expected",
    [
        ("http://ex.org/path/populationMetro", "populationMetro"),
        ("http://ex.org/onto#height", "height"),
        ("http://ex.org/", "http://ex.org/"),
        ("urn:x", "urn:x"),
    ],
)
def test_local_name(iri, expected):
    assert local_name(iri) == expected
