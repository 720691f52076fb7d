"""Parser and serializer: grammar conformance, canonical form, round-trips.

A small hand-written recursive-descent validator (independent of the
production regex) cross-checks accept/reject decisions on tricky lines, so
a grammar bug cannot hide in both implementations at once.
"""

from __future__ import annotations

import gzip
import io
import re
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
    write_ntriples,
)
from literal_forge import ntriples
from literal_forge.ntriples import SerializationError
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


@pytest.mark.parametrize("kind", ["plain", "gzip", "pipe"])
@pytest.mark.parametrize("abandon", [False, True], ids=["full", "abandoned"])
def test_caller_stream_stays_open(tmp_path, kind, abandon):
    raw = b"".join(b"<http://a.org/s%d> <http://a.org/p> <http://a.org/o> .\n" % i for i in range(50))
    path = tmp_path / "g.nt"
    path.write_bytes(gzip.compress(raw) if kind == "gzip" else raw)
    opener = (lambda: open(path, "rb", buffering=0)) if kind == "pipe" else (lambda: open(path, "rb"))
    with opener() as fh:
        triples = iter_ntriples(fh)
        if abandon:
            next(triples)
            triples.close()
        else:
            assert len(list(triples)) == 50
        del triples
        assert not fh.closed
        fh.seek(0)
        assert fh.read() == path.read_bytes()


def test_writer_matches_format_triple_and_validates_each_term_once(monkeypatch):
    s, p = IRI("http://a.org/s"), IRI("http://a.org/p")
    lit = Literal("v", datatype="http://a.org/dt")
    triples = [Triple(s, p, IRI("http://a.org/o")), Triple(s, p, lit), Triple(s, p, lit)]
    expected = "".join(format_triple(t) + "\n" for t in triples).encode("utf-8")
    seen = []
    validate = ntriples.validate_term
    monkeypatch.setattr(ntriples, "validate_term", lambda term: seen.append(term) or validate(term))
    buf = io.BytesIO()
    assert write_ntriples(triples, buf) == 3
    assert buf.getvalue() == expected
    assert sorted(map(str, seen)) == sorted(map(str, {s, p, IRI("http://a.org/o"), lit}))


@pytest.mark.parametrize(
    "triple,message",
    [
        (Triple(IRI("foo"), IRI("http://a.org/p"), IRI("http://a.org/o")), "no scheme"),
        (Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), IRI("http://a.org/a b")), "forbidden"),
        (Triple(Literal("x"), IRI("http://a.org/p"), IRI("http://a.org/o")), "subject position"),
        (Triple(IRI("http://a.org/s"), BlankNode("b"), IRI("http://a.org/o")), "predicate must be"),
        (Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), Literal("x", RDF_LANGSTRING, "en_GB")),
         "invalid language tag: @en_GB"),
        (Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), Literal("x", "http://a.org/a b")),
         "invalid datatype IRI: 'http://a.org/a b'"),
        (Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), None), "not an RDF term: None"),
        # A bare string is no IRI, even when the same IRI was written before.
        (Triple("http://a.org/s", IRI("http://a.org/p"), IRI("http://a.org/o")),
         "not an RDF term: 'http://a.org/s'"),
        (Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), "http://a.org/o"),
         "not an RDF term: 'http://a.org/o'"),
    ],
)
def test_writer_rejects_bad_terms_and_positions(triple, message):
    good = Triple(IRI("http://a.org/s"), IRI("http://a.org/p"), IRI("http://a.org/o"))
    with pytest.raises(SerializationError, match=message):
        serialize_ntriples([good, triple, good])
    with pytest.raises(SerializationError, match=message):
        format_triple(triple)


# --- differential test against the strict-IRIREF line parser ----------------
#
# The parser matches IRIREF loosely and checks an IRI's characters once per
# distinct IRI. The oracle is the same line loop with the strict IRIREF
# class and the plain string pattern in the statement pattern itself: both
# must give the same triples, the same diagnostics (line, message, text)
# and, in strict mode, the same first error.

_STRICT_IRIREF = r'<([^\x00-\x20<>"{}|^`\\]*)>'
_ORACLE_BNODE = r"_:([A-Za-z0-9_](?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?)"
_ORACLE_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_ORACLE_LANG = r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)"
_ORACLE_STATEMENT = re.compile(
    r"^[ \t]*"
    rf"(?:{_STRICT_IRIREF}|{_ORACLE_BNODE})[ \t]+"
    rf"{_STRICT_IRIREF}[ \t]+"
    rf"(?:{_STRICT_IRIREF}|{_ORACLE_BNODE}|{_ORACLE_STRING}(?:\^\^{_STRICT_IRIREF}|{_ORACLE_LANG})?)"
    r"[ \t]*\.[ \t]*(?:#.*)?$"
)
_ORACLE_BLANK_OR_COMMENT = re.compile(r"^[ \t]*(#.*)?$")


def oracle_parse(text: str, strict: bool):
    """(triples, diagnostics), or the ParseError strict mode raises."""
    triples, diagnostics = [], []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        if line.endswith("\n"):
            line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
        m = _ORACLE_STATEMENT.match(line)
        try:
            if m is None:
                if _ORACLE_BLANK_OR_COMMENT.match(line):
                    continue
                raise ParseError(ntriples.ParseDiagnostic(line_no, "malformed statement", line))
            s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dtype, o_lang = m.groups()

            def decode(raw):
                return ntriples._decode_escapes(raw, line_no, line)

            subject = IRI(decode(s_iri)) if s_iri is not None else BlankNode(s_bnode)
            if o_iri is not None:
                obj = IRI(decode(o_iri))
            elif o_bnode is not None:
                obj = BlankNode(o_bnode)
            elif o_lang is not None:
                obj = Literal(decode(o_lex), RDF_LANGSTRING, o_lang)
            elif o_dtype is not None:
                obj = Literal(decode(o_lex), decode(o_dtype))
            else:
                obj = Literal(decode(o_lex))
            triples.append(Triple(subject, IRI(decode(p_iri)), obj))
        except ParseError as err:
            if strict:
                return err.diagnostic
            diagnostics.append(err.diagnostic)
    return triples, diagnostics


def production_parse(text: str, strict: bool):
    if strict:
        try:
            return list(iter_ntriples(text, strict=True)), []
        except ParseError as err:
            return err.diagnostic
    return parse_ntriples(text)


# Forbidden IRI characters, the backslash, angle brackets, tabs, quotes,
# comment marks and line-ending characters. Each token is usually well
# formed and sometimes has one of these inserted at a random position.
_NASTY = '\x00\x1f <>"{}|^`\\\t#.\r@_:'
_SAFE = "ab9/%-é"


@st.composite
def _spoilt(draw, token):
    """*token*, or one in eight times *token* with a bad character inserted."""
    if draw(st.integers(0, 7)):
        return token
    at = draw(st.integers(0, len(token)))
    return token[:at] + draw(st.sampled_from(_NASTY)) + token[at:]


@st.composite
def _statement_line(draw, iris):
    def iri():
        return draw(_spoilt("<" + draw(st.sampled_from(iris)) + ">"))

    def ws():
        return draw(_spoilt(draw(st.sampled_from([" ", "\t", " \t "]))))

    subject = draw(st.sampled_from([iri(), draw(_spoilt("_:b1"))]))
    lexical = "".join(
        draw(
            st.lists(
                st.sampled_from(
                    ["x y", "\\n", "\\u00e9", "\\U0001F600", '\\"', "><", "\\q", "\\U0011FFFF"]
                ),
                max_size=3,
            )
        )
    )
    suffix = draw(st.sampled_from(["", "^^" + iri(), "@en", "@en-US"]))
    literal = draw(_spoilt('"' + draw(_spoilt(lexical)) + '"' + suffix))
    obj = draw(st.sampled_from([iri(), draw(_spoilt("_:o.2")), literal]))
    tail = draw(_spoilt(draw(st.sampled_from([".", " .", ". # c <x> \\", "\t.\t"]))))
    return ws() + subject + ws() + iri() + ws() + obj + tail


@st.composite
def _documents(draw):
    # A small pool of IRI bodies, so good and bad IRIs repeat across lines
    # and the interning cache is exercised.
    iris = draw(
        st.lists(
            st.text(alphabet=_SAFE, max_size=3).flatmap(lambda t: _spoilt("http://a.org/" + t)),
            min_size=1,
            max_size=3,
        )
    )
    lines = draw(
        st.lists(
            st.one_of(_statement_line(iris), st.sampled_from(["", "# comment", "  \t"])),
            max_size=8,
        )
    )
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@given(_documents(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_parser_matches_strict_iriref_oracle(text, strict):
    assert production_parse(text, strict) == oracle_parse(text, strict)


def test_bad_iri_is_reported_on_every_line_naming_it():
    good = "<http://a.org/s> <http://a.org/p> <http://a.org/o> ."
    bad = "<http://a.org/s> <http://a.org/p> <http://a.org/a b> ."
    bad_datatype = '<http://a.org/s> <http://a.org/p> "1"^^<http://a.org/d{t}> .'
    text = "\n".join([good, bad, good, bad, bad_datatype, bad_datatype]) + "\n"
    triples, diagnostics = parse_ntriples(text)
    assert triples == oracle_parse(text, False)[0]
    assert len(triples) == 2
    assert [(d.line, d.message) for d in diagnostics] == [
        (line, "malformed statement") for line in (2, 4, 5, 6)
    ]
