"""Parser and serializer: grammar conformance, canonical form, round-trips.

A small hand-written recursive-descent validator (independent of the
production regex) cross-checks accept/reject decisions on tricky lines, so
a grammar bug cannot hide in both implementations at once.
"""

from __future__ import annotations

import gzip
import io
import string

import pytest
from hypothesis import given, settings, strategies as st

from literal_forge import (
    IRI,
    BlankNode,
    Literal,
    ParseError,
    Triple,
    format_triple,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
)
from literal_forge.terms import RDF_LANGSTRING, XSD_STRING

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


# --- independent grammar validator -----------------------------------------
#
# Accepts the line grammar: subject predicate object '.' with optional
# whitespace, where subject = IRIREF | bnode, predicate = IRIREF,
# object = IRIREF | bnode | literal ('^^' IRIREF | LANGTAG)?.


def _scan_iriref(line: str, i: int) -> int | None:
    if i >= len(line) or line[i] != "<":
        return None
    i += 1
    while i < len(line) and line[i] != ">":
        c = line[i]
        if c in '<"{}|^`' or c == "\\" or ord(c) <= 0x20:
            if c == "\\":
                if i + 1 < len(line) and line[i + 1] in "uU":
                    n = 4 if line[i + 1] == "u" else 8
                    hexpart = line[i + 2 : i + 2 + n]
                    if len(hexpart) == n and all(h in string.hexdigits for h in hexpart):
                        i += 2 + n
                        continue
            return None
        i += 1
    if i >= len(line):
        return None
    body = line[line.index("<", 0) :]
    del body
    return i + 1


def _scan_bnode(line: str, i: int) -> int | None:
    if not line.startswith("_:", i):
        return None
    i += 2
    start = i
    while i < len(line) and (line[i].isalnum() or line[i] in "-_."):
        i += 1
    if i == start or line[i - 1] == ".":
        return None
    return i


def _scan_string(line: str, i: int) -> int | None:
    if i >= len(line) or line[i] != '"':
        return None
    i += 1
    while i < len(line):
        c = line[i]
        if c == '"':
            return i + 1
        if c in "\n\r":
            return None
        if c == "\\":
            if i + 1 >= len(line):
                return None
            e = line[i + 1]
            if e in 'tbnrf"\'\\':
                i += 2
                continue
            if e == "u" or e == "U":
                n = 4 if e == "u" else 8
                hexpart = line[i + 2 : i + 2 + n]
                if len(hexpart) == n and all(h in string.hexdigits for h in hexpart):
                    i += 2 + n
                    continue
            return None
        i += 1
    return None


def _scan_langtag(line: str, i: int) -> int | None:
    if i >= len(line) or line[i] != "@":
        return None
    i += 1
    start = i
    while i < len(line) and line[i].isascii() and line[i].isalpha():
        i += 1
    if i == start:
        return None
    while i < len(line) and line[i] == "-":
        i += 1
        sub = i
        while i < len(line) and line[i].isascii() and line[i].isalnum():
            i += 1
        if i == sub:
            return None
    return i


def _skip_ws(line: str, i: int) -> int:
    while i < len(line) and line[i] in " \t":
        i += 1
    return i


def naive_valid(line: str) -> bool:
    i = _skip_ws(line, 0)
    if i >= len(line) or line[i] == "#":
        return False  # blank/comment: not a statement
    j = _scan_iriref(line, i) or _scan_bnode(line, i)
    if j is None:
        return False
    i = _skip_ws(line, j)
    j = _scan_iriref(line, i)
    if j is None:
        return False
    i = _skip_ws(line, j)
    j = _scan_iriref(line, i) or _scan_bnode(line, i)
    if j is None:
        j = _scan_string(line, i)
        if j is None:
            return False
        if j < len(line) and line.startswith("^^", j):
            j = _scan_iriref(line, j + 2)
            if j is None:
                return False
        elif j < len(line) and line[j] == "@":
            j = _scan_langtag(line, j)
            if j is None:
                return False
    i = _skip_ws(line, j)
    if i >= len(line) or line[i] != ".":
        return False
    i = _skip_ws(line, i + 1)
    return i >= len(line) or line[i] == "#"


def production_accepts(line: str) -> bool:
    triples, diagnostics = parse_ntriples(line + "\n")
    return len(triples) == 1 and not diagnostics


TRICKY_LINES = [
    ('<http://a.org/s> <http://a.org/p> <http://a.org/o> .', True),
    ('<http://a.org/s> <http://a.org/p> "lit" .', True),
    ('<http://a.org/s> <http://a.org/p> "lit"@en .', True),
    ('<http://a.org/s> <http://a.org/p> "lit"@en-US .', True),
    ('<http://a.org/s> <http://a.org/p> "1"^^<http://a.org/dt> .', True),
    ('_:b0 <http://a.org/p> _:b1 .', True),
    ('  <http://a.org/s>\t<http://a.org/p>\t"x" .  ', True),
    ('<http://a.org/s> <http://a.org/p> "x" . # trailing comment', True),
    ('<http://a.org/s> <http://a.org/p> "a\\"b" .', True),
    ('<http://a.org/s> <http://a.org/p> "tab\\there" .', True),
    ('<http://a.org/s> <http://a.org/p> "u\\u00e9" .', True),
    ('<http://a.org/s> <http://a.org/p> "U\\U0001F600" .', True),
    ('<http://a.org/s> <http://a.org/p> "x"^^garbage .', False),
    ('<http://a.org/s> <http://a.org/p> "x"^^ .', False),
    ('<http://a.org/s> <http://a.org/p> "x"@ .', False),
    ('<http://a.org/s> <http://a.org/p> "x"@1 .', False),
    ('<http://a.org/s> <http://a.org/p> "x"', False),
    ('<http://a.org/s> <http://a.org/p> .', False),
    ('<http://a.org/s> "notapred" "x" .', False),
    ('"lit" <http://a.org/p> <http://a.org/o> .', False),
    ('<http://a.org/s> <http://a.org/p> "unterminated .', False),
    ('<http://a.org/s> <http://a.org/p> "bad\\qescape" .', False),
    ('<http://a.org/s> <http://a.org/p> "short\\u00g9" .', False),
    ('<http://a.org/s> <http://a.org/p> <http://a.org/o> . extra', False),
    ('<http://a.org/s> <http://a.org/p> <bad iri> .', False),
    ('<http://a.org/s> <http://a.org/p> <http://a.org/o>', False),
    ('_:b-0 <http://a.org/p> _:ok .', True),
    ('_: <http://a.org/p> <http://a.org/o> .', False),
]


@pytest.mark.parametrize("line,expected", TRICKY_LINES)
def test_tricky_lines_against_independent_validator(line, expected):
    assert naive_valid(line) == expected
    assert production_accepts(line) == expected


def test_typed_integer_statement_parses_exactly():
    line = (
        '<http://ex.org/Mannheim> <http://ex.org/populationMetro> '
        '"2362046"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    triples, diagnostics = parse_ntriples(line)
    assert not diagnostics
    (t,) = triples
    assert t.subject == IRI("http://ex.org/Mannheim")
    assert t.object == Literal("2362046", datatype=XSD_INT)


def test_comments_and_blank_lines_skipped():
    data = "# header\n\n<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n\n"
    triples, diagnostics = parse_ntriples(data)
    assert len(triples) == 1 and not diagnostics


def test_diagnostics_carry_line_numbers():
    data = '<http://a.org/s> <http://a.org/p> <http://a.org/o> .\nbroken\n'
    triples, diagnostics = parse_ntriples(data)
    assert len(triples) == 1
    assert [d.line for d in diagnostics] == [2]


def test_strict_mode_raises_on_first_bad_line():
    with pytest.raises(ParseError) as err:
        list(iter_ntriples("broken line\n", strict=True))
    assert err.value.diagnostic.line == 1


def test_escape_decoding():
    line = '<http://a.org/s> <http://a.org/p> "a\\tb\\nc\\\\d\\"e\\u00e9\\U0001F600" .\n'
    (t,), _ = parse_ntriples(line)
    assert t.object.lexical == 'a\tb\nc\\d"eé\U0001F600'


def test_gzip_input_transparent():
    raw = b'<http://a.org/s> <http://a.org/p> "x" .\n'
    blob = gzip.compress(raw)
    triples = list(iter_ntriples(blob))
    assert len(triples) == 1
    stream = io.BytesIO(gzip.compress(raw))
    assert len(list(iter_ntriples(stream))) == 1


def test_canonical_form_minimal_escapes():
    t = Triple(
        IRI("http://a.org/s"),
        IRI("http://a.org/p"),
        Literal('tab\there "quoted" back\\slash\nnewline\rcré'),
    )
    line = format_triple(t)
    # only backslash, quote, LF, CR are escaped; tab and é stay raw
    assert '\\"quoted\\"' in line
    assert "\\\\slash" in line
    assert "\\n" in line and "\\r" in line
    assert "\t" in line
    assert "é" in line
    reparsed, diagnostics = parse_ntriples(line + "\n")
    assert not diagnostics
    assert reparsed[0] == t


def test_canonical_form_omits_string_datatype_and_keeps_langtag():
    plain = Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), Literal("x"))
    assert format_triple(plain) == '<http://a.org/s> <http://a.org/p> "x" .'
    tagged = Triple(
        IRI("http://a.org/s"),
        IRI("http://a.org/p"),
        Literal("x", datatype=RDF_LANGSTRING, language="en"),
    )
    assert format_triple(tagged) == '<http://a.org/s> <http://a.org/p> "x"@en .'


# --- property-based round-trip ---------------------------------------------

_iri = st.builds(
    lambda tail: IRI("http://t.org/" + tail),
    st.text(alphabet=string.ascii_letters + string.digits + "-._~!$&'()*+,;=:@%/?#[]", max_size=20),
)
_bnode = st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_\-]{0,10}", fullmatch=True))
_lex = st.text(max_size=40).filter(lambda s: "\ud800" not in s)
_literal = st.one_of(
    st.builds(Literal, _lex),
    st.builds(lambda lex: Literal(lex, datatype="http://t.org/dt"), _lex),
    st.builds(
        lambda lex, tag: Literal(lex, datatype=RDF_LANGSTRING, language=tag),
        _lex,
        st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True),
    ),
)
_triple = st.builds(
    Triple,
    st.one_of(_iri, _bnode),
    _iri,
    st.one_of(_iri, _bnode, _literal),
)


@st.composite
def _triples(draw):
    return draw(st.lists(_triple, max_size=30))


@given(_triples())
@settings(max_examples=200, deadline=None)
def test_serialize_parse_roundtrip(triples):
    blob = serialize_ntriples(triples)
    reparsed, diagnostics = parse_ntriples(blob)
    assert not diagnostics
    assert reparsed == triples
    # canonical form is a fixpoint
    assert serialize_ntriples(reparsed) == blob


@given(st.text(max_size=80).filter(lambda s: "\ud800" not in s))
@settings(max_examples=200, deadline=None)
def test_arbitrary_literal_payload_roundtrip(payload):
    t = Triple(IRI("http://t.org/s"), IRI("http://t.org/p"), Literal(payload))
    (back,), diagnostics = parse_ntriples(serialize_ntriples([t]))
    assert not diagnostics
    assert back.object.lexical == payload


class PipeStream(io.RawIOBase):
    """A non-seekable byte source, like a pipe, that refuses to be read whole:
    only bounded reads are served."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = min(len(buffer), len(self._data) - self._pos)
        buffer[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n

    def readall(self) -> bytes:
        raise AssertionError("unbounded read() of a pipe")


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_pipe_input_read_in_bounded_pieces(compress):
    raw = b"".join(
        b'<http://a.org/s%d> <http://a.org/p> "x%d" .\n' % (i, i) for i in range(5000)
    )
    stream = PipeStream(gzip.compress(raw) if compress else raw)
    assert not stream.seekable()
    triples = list(iter_ntriples(stream))
    assert len(triples) == 5000
    assert triples[-1].object.lexical == "x4999"
