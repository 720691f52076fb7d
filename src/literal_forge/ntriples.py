"""Streaming N-Triples parser and canonical serializer.

Single-pass line grammar: one statement or comment per line. Malformed
lines become diagnostics (skipped in lenient mode, fatal in strict mode).
Serialization is canonical: single spaces, minimal escaping, ' .' and a
trailing newline per statement, so parse(serialize(T)) == T term-for-term.

Gzip-compressed input is detected by magic bytes and decompressed
transparently.
"""

from __future__ import annotations

import gzip
import io
import re
from contextlib import contextmanager
from itertools import islice
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from .terms import (
    IRI,
    BlankNode,
    Frozen,
    Literal,
    Term,
    TermError,
    Triple,
    XSD_STRING,
    RDF_LANGSTRING,
    _IRI_BAD,
    validate_term,
)

# IRIREF is matched loosely; its characters are checked against _IRI_BAD
# once per distinct IRI, when the interning cache first meets it.
_IRIREF = r"<([^>]*)>"
_BNODE = r"_:([A-Za-z0-9_](?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?)"
_STRING = r'"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)"'
_LANG = r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)"

_STATEMENT = re.compile(
    r"^[ \t]*"
    rf"(?:{_IRIREF}|{_BNODE})[ \t]+"
    rf"{_IRIREF}[ \t]+"
    rf"(?:{_IRIREF}|{_BNODE}|{_STRING}(?:\^\^{_IRIREF}|{_LANG})?)"
    r"[ \t]*\.[ \t]*(?:#.*)?$"
)
_BLANK_OR_COMMENT = re.compile(r"^[ \t]*(#.*)?$")

_ECHAR_DECODE = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_ESCAPE_SEQ = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)

# Statements encoded and written per write() call.
_WRITE_BATCH = 256


class ParseError(ValueError):
    """Fatal parse failure (strict mode)."""

    def __init__(self, diagnostic: "ParseDiagnostic"):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class SerializationError(ValueError):
    """A triple violating term invariants cannot be serialized."""


class ParseDiagnostic(Frozen):
    __slots__ = ("line", "message", "text")

    def __init__(self, line: int, message: str, text: str) -> None:
        self._fill(locals())

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}: {self.text.strip()[:120]}"


def _decode_escapes(raw: str, line_no: int, line: str) -> str:
    if "\\" not in raw:
        return raw

    def sub(m: re.Match[str]) -> str:
        u4, u8, ch = m.groups()
        if u4 is not None:
            return chr(int(u4, 16))
        if u8 is not None:
            cp = int(u8, 16)
            if cp > 0x10FFFF:
                raise ParseError(
                    ParseDiagnostic(line_no, f"code point out of range: \\U{u8}", line)
                )
            return chr(cp)
        decoded = _ECHAR_DECODE.get(ch)
        if decoded is None:
            raise ParseError(ParseDiagnostic(line_no, f"invalid escape: \\{ch}", line))
        return decoded

    return _ESCAPE_SEQ.sub(sub, raw)


@contextmanager
def _open_input(source: bytes | str | IO[bytes]) -> Iterator[IO[str]]:
    """Wrap bytes/stream input as text, gunzipping when magic bytes match.

    The magic bytes are peeked, not read, so a pipe is never read whole. On
    exit the wrappers made here are detached or closed, never the caller's
    stream, which stays open.
    """
    if isinstance(source, str):
        yield io.StringIO(source)
        return
    stream: IO[bytes] = io.BytesIO(source) if isinstance(source, bytes) else source
    buffered = None
    if not hasattr(stream, "peek"):
        stream = buffered = io.BufferedReader(stream)  # type: ignore[arg-type]
    gunzip = None
    if stream.peek(2)[:2] == b"\x1f\x8b":  # type: ignore[attr-defined]
        stream = gunzip = gzip.GzipFile(fileobj=stream, mode="rb")  # type: ignore[assignment]
    text = io.TextIOWrapper(stream, encoding="utf-8")
    try:
        yield text
    finally:
        text.detach()
        if gunzip is not None:
            gunzip.close()  # leaves its fileobj open
        if buffered is not None:
            buffered.detach()


Source = bytes | str | IO[bytes]
OnDiagnostic = Callable[[ParseDiagnostic], None] | None
Row = tuple[str | None, ...]  # eight fields, as scan_ntriples describes


def scan_ntriples(
    source: Source, on_diagnostic: OnDiagnostic = None, strict: bool = False
) -> Iterator[Row]:
    """Yield a row per statement; route malformed lines to *on_diagnostic*.

    A row is (subject IRI, subject blank-node label, predicate IRI, object
    IRI, object label, lexical form, datatype IRI, language tag): strings,
    one subject field set and either an object field or the decoded lexical
    form with its datatype (xsd:string when plain, rdf:langString when
    tagged) and tag. Equal datatypes and tags are one string object. In
    strict mode the first malformed line raises ParseError instead.
    Permuting input lines permutes output identically.
    """
    return _scan(source, on_diagnostic, strict, False)


def iter_ntriples(
    source: Source, on_diagnostic: OnDiagnostic = None, strict: bool = False
) -> Iterator[Triple]:
    """scan_ntriples' statements as triples; equal terms are one object."""
    return _scan(source, on_diagnostic, strict, True)


def _scan(source: Source, on_diagnostic: OnDiagnostic, strict: bool, triples: bool) -> Iterator:
    """The line loop, yielding a Triple or a row per statement. Each distinct
    IRI and blank-node label is made into its term, or kept as its string,
    once; later lines reuse it."""
    make_iri, make_bnode = (IRI, BlankNode) if triples else (str, str)
    # IRI characters are checked once per distinct IRI; only IRIs that
    # passed are remembered, so every line naming a bad IRI is reported.
    # IRIs hold no escapes: the backslash is a forbidden character.
    iris: dict[str, Any] = {}
    bnodes: dict[str, Any] = {}
    datatypes: dict[str, str] = {}  # shared by the literals, as are the tags
    languages: dict[str, str] = {}

    def checked(raw: str) -> str:
        if _IRI_BAD.search(raw) is not None:
            raise ParseError(ParseDiagnostic(line_no, "malformed statement", line))
        return raw

    def iri(raw: str) -> Any:
        value = iris[raw] = make_iri(checked(raw))
        return value

    def bnode(label: str) -> Any:
        value = bnodes[label] = make_bnode(label)
        return value

    with _open_input(source) as text:
        for line_no, line in enumerate(text, start=1):
            if line.endswith("\n"):
                line = line[:-1]
                if line.endswith("\r"):
                    line = line[:-1]
            m = _STATEMENT.match(line)
            if m is None:
                if _BLANK_OR_COMMENT.match(line):
                    continue
                diag = ParseDiagnostic(line_no, "malformed statement", line)
                if strict:
                    raise ParseError(diag)
                if on_diagnostic is not None:
                    on_diagnostic(diag)
                continue
            (s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dtype, o_lang) = m.groups()
            # An empty IRI's string is falsy and is just made again.
            try:
                if s_iri is not None:
                    s_iri = iris.get(s_iri) or iri(s_iri)
                else:
                    s_bnode = bnodes.get(s_bnode) or bnode(s_bnode)
                p_iri = iris.get(p_iri) or iri(p_iri)
                if o_lex is None:
                    if o_iri is not None:
                        o_iri = iris.get(o_iri) or iri(o_iri)
                    else:
                        o_bnode = bnodes.get(o_bnode) or bnode(o_bnode)
                    if triples:
                        yield Triple(s_iri or s_bnode, p_iri, o_iri or o_bnode)
                    else:
                        yield s_iri, s_bnode, p_iri, o_iri, o_bnode, None, None, None
                    continue
                if o_dtype is not None:
                    # The datatype is checked first: a bad datatype IRI makes
                    # the line malformed even when the lexical form has a bad
                    # escape too.
                    datatype = datatypes.get(o_dtype) or datatypes.setdefault(
                        o_dtype, checked(o_dtype)
                    )
                elif o_lang is not None:
                    datatype = RDF_LANGSTRING
                    o_lang = languages.setdefault(o_lang, o_lang)
                else:
                    datatype = XSD_STRING
                lexical = _decode_escapes(o_lex, line_no, line)
            except ParseError as err:
                if strict:
                    raise
                if on_diagnostic is not None:
                    on_diagnostic(err.diagnostic)
                continue
            if triples:
                yield Triple(s_iri or s_bnode, p_iri, Literal(lexical, datatype, o_lang))
            else:
                yield s_iri, s_bnode, p_iri, None, None, lexical, datatype, o_lang


def parse_ntriples(
    source: bytes | str | IO[bytes], strict: bool = False
) -> tuple[list[Triple], list[ParseDiagnostic]]:
    """Parse a whole document, returning triples and per-line diagnostics."""
    diagnostics: list[ParseDiagnostic] = []
    triples = list(iter_ntriples(source, diagnostics.append, strict=strict))
    return triples, diagnostics


class TermText:
    """The canonical text of entities, by id, and of IRIs, by their string,
    each validated the first time it is asked for.

    An entity IRI and the same IRI met as a string are one entry of
    *by_key*. Asking for a term that breaks an invariant raises
    SerializationError.
    """

    def __init__(self, entity_terms: Sequence[IRI | BlankNode]) -> None:
        self.entity_terms = entity_terms
        self.by_id: list[str | None] = [None] * len(entity_terms)
        self.by_key: dict[str, str] = {}

    def entity(self, eid: int) -> str:
        out = self.by_id[eid]
        if out is None:
            term = self.entity_terms[eid]
            out = self.by_id[eid] = self.iri(term.value) if type(term) is IRI else _text(term)
        return out

    def iri(self, value: str) -> str:
        return self.by_key.get(value) or self.by_key.setdefault(value, _text(IRI(value)))


def _text(term: Term) -> str:
    """str(term), once *term* is checked."""
    _check(validate_term, term)
    return str(term)


def format_lines(triples: Iterable[Triple]) -> Iterator[str]:
    """Canonical statements, without trailing newlines, one per triple.

    Each distinct term is validated once per call, the first time it is
    seen. A term or statement that breaks an invariant, or an object that
    is no term, raises SerializationError when its triple is reached.
    """
    known: dict[Term, str] = {}

    def text(term: Term) -> str:
        return known.get(term) or known.setdefault(term, _text(term))

    for triple in triples:
        line = f"{text(triple.subject)} {text(triple.predicate)} {text(triple.object)} ."
        # Its terms are valid, so only a literal subject or a non-IRI
        # predicate can make the statement invalid.
        if type(triple.predicate) is not IRI or type(triple.subject) is Literal:
            _check(Triple.validate, triple)
        yield line


def _check(check: Callable[[Any], None], item: Any) -> None:
    try:
        check(item)
    except TermError as err:
        raise SerializationError(str(err)) from err


def format_triple(triple: Triple) -> str:
    """One canonical N-Triples statement, without the trailing newline."""
    return next(format_lines((triple,)))


def write_ntriples(triples: Iterable[Triple], out: IO[bytes]) -> int:
    """Stream canonical statements to *out*; returns the line count."""
    return write_lines(format_lines(triples), out)


def write_lines(lines: Iterable[str], out: IO[bytes]) -> int:
    """Write each line, newline-terminated, to *out*; returns the line count."""
    lines = iter(lines)
    count = 0
    while batch := list(islice(lines, _WRITE_BATCH)):
        batch.append("")
        out.write("\n".join(batch).encode("utf-8"))
        count += len(batch) - 1
    return count


def serialize_ntriples(triples: Iterable[Triple]) -> bytes:
    buf = io.BytesIO()
    write_ntriples(triples, buf)
    return buf.getvalue()
